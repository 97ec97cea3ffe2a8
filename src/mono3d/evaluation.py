"""Average-precision evaluation over KITTI-style labels.

AP|R40: predictions are greedily matched per image in global descending
score order (ties keep input order), each ground-truth box claimable
once; precision is sampled at the 40 recall levels {i/40} through the
precision envelope and averaged. Ground truth outside the evaluated
difficulty bucket is ignored rather than missed: a prediction that only
overlaps an ignored box consumes it and drops out of the count.

IoU is computed once per same-class prediction x ground-truth pair per
image, and all those pairs of a split go to one batched
`geometry.pair_iou` call (one footprint intersection gives both the 3D
and the BEV value). Each image's table is sliced back out of it; the
tables, the difficulty of each ground-truth box and each class's score
order are shared by both metrics and every report cell.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .geometry import Box3D, pair_iou
# unused here; perfbench/spans.py wraps evaluation.iou_3d / iou_bev by name
from .geometry import iou_3d, iou_bev
from .heads import CLASS_NAMES
from .kitti import ParseError, parse_calib_file, parse_label_file

DIFFICULTIES = ("Easy", "Moderate", "Hard")
_LEVEL = {"Easy": 0, "Moderate": 1, "Hard": 2, "Ignored": 3}
RECALL_POINTS = tuple(i / 40.0 for i in range(1, 41))
METRICS = ("3D", "BEV")
OFFICIAL_IOU = (("Car", 0.7), ("Pedestrian", 0.5), ("Cyclist", 0.5))
RELAXED_IOU = (("Car", 0.5), ("Pedestrian", 0.3), ("Cyclist", 0.3))

# (min bbox height px, max occlusion level, max truncation fraction)
_DIFFICULTY_RULES = (
    ("Easy", 40.0, 0, 0.15),
    ("Moderate", 25.0, 1, 0.30),
    ("Hard", 25.0, 2, 0.50),
)


def assign_difficulty(rec):
    """Easiest KITTI difficulty bucket the record qualifies for."""
    height = rec.bbox[3] - rec.bbox[1]
    for name, min_h, max_occ, max_trunc in _DIFFICULTY_RULES:
        if height >= min_h and rec.occluded <= max_occ and rec.truncated <= max_trunc:
            return name
    return "Ignored"


@dataclass(frozen=True)
class EvalConfig:
    threshold_sets: tuple = (("official", OFFICIAL_IOU), ("relaxed", RELAXED_IOU))

    def __post_init__(self):
        for set_name, pairs in self.threshold_sets:
            names = [cls for cls, _ in pairs]
            if sorted(names) != sorted(CLASS_NAMES):
                raise UsageError(
                    f"threshold set {set_name} must give one threshold per class "
                    f"{CLASS_NAMES}, got {tuple(names)}"
                )
            for cls, thr in pairs:
                if not (0.0 < thr <= 1.0):
                    raise UsageError(
                        f"iou threshold for {cls} in set {set_name} must be in (0, 1]"
                    )


def _box_of(rec):
    return Box3D(location=rec.location, dimensions=rec.dimensions, yaw=rec.rotation_y)


@dataclass(frozen=True)
class _ClassData:
    """One class's matching inputs, shared by every report cell.

    Within an image the class's predictions and ground truth are indexed
    in input order. `flat` holds (image, prediction index, score) in
    descending score order, ties in input order; `levels[image]` the
    difficulty level of each ground-truth box; `tables[image][metric]`
    the prediction x ground-truth IoU rows, for images with both.
    """

    flat: list
    levels: dict
    tables: dict


def _prepare(predictions, ground_truth, classes):
    """class -> _ClassData; every IoU, difficulty and sort done once.

    The same-class prediction x ground-truth pairs of every image and
    class go to one `pair_iou` call; each image's rows are sliced back
    out of its result.
    """
    images = sorted(set(predictions) | set(ground_truth))
    prepared = {}
    boxes_a, boxes_b, ia, ib, blocks = [], [], [], [], []
    for cls in classes:
        flat, levels, tables = [], {}, {}
        for img in images:
            preds = [rec for rec in predictions.get(img, []) if rec.type == cls]
            gts = [rec for rec in ground_truth.get(img, []) if rec.type == cls]
            for idx, rec in enumerate(preds):
                if rec.score is None:
                    raise UsageError(f"prediction without score in image {img}")
                flat.append((img, idx, rec.score))
            levels[img] = [_LEVEL[assign_difficulty(rec)] for rec in gts]
            if preds and gts:
                ia.append(np.repeat(np.arange(len(preds)) + len(boxes_a), len(gts)))
                ib.append(np.tile(np.arange(len(gts)) + len(boxes_b), len(preds)))
                blocks.append((tables, img, len(preds), len(gts)))
                boxes_a.extend(_box_of(r) for r in preds)
                boxes_b.extend(_box_of(r) for r in gts)
        flat.sort(key=lambda item: -item[2])  # stable: ties keep input order
        prepared[cls] = _ClassData(flat=flat, levels=levels, tables=tables)
    if blocks:
        t3d, tbev = pair_iou(boxes_a, boxes_b, np.concatenate(ia), np.concatenate(ib))
        start = 0
        for tables, img, n_pred, n_gt in blocks:
            rows = slice(start, start + n_pred * n_gt)
            tables[img] = {
                "3D": t3d[rows].reshape(n_pred, n_gt).tolist(),
                "BEV": tbev[rows].reshape(n_pred, n_gt).tolist(),
            }
            start = rows.stop
    return prepared


def _greedy_curve(data, difficulty, metric, iou_threshold):
    """One matching pass -> (PR points, counted GT, matched GT, class preds)."""
    target = _LEVEL[difficulty]
    npos = sum(level <= target for levels in data.levels.values() for level in levels)
    if npos == 0:
        return [], 0, 0, len(data.flat)

    taken = set()
    points = []
    tp = fp = 0
    for img, idx, _ in data.flat:
        levels = data.levels[img]
        row = data.tables[img][metric][idx] if levels else []
        # best open counted and best open ignored ground truth, in one pass
        best_iou, best_key = -1.0, None
        ign_iou, ign_key = -1.0, None
        for j, level in enumerate(levels):
            if (img, j) in taken:
                continue
            v = row[j]
            if level <= target:
                if v > best_iou:
                    best_iou, best_key = v, (img, j)
            elif v > ign_iou:
                ign_iou, ign_key = v, (img, j)
        if best_key is not None and best_iou >= iou_threshold:
            taken.add(best_key)
            tp += 1
            points.append((tp / npos, tp / (tp + fp)))
            continue
        if ign_key is not None and ign_iou >= iou_threshold:
            taken.add(ign_key)
            continue
        fp += 1
        points.append((tp / npos, tp / (tp + fp)))
    return points, npos, tp, len(data.flat)


def _mean_envelope(points):
    """Mean over the 40 recall levels of max precision at recall >= level."""
    recalls = np.array([r for r, _ in points], dtype=np.float64)
    precisions = np.array([p for _, p in points] + [0.0])
    suffix_max = np.maximum.accumulate(precisions[::-1])[::-1]
    total = 0.0
    for v in suffix_max[np.searchsorted(recalls, RECALL_POINTS, side="left")].tolist():
        total += v  # left to right, as the AP oracle adds
    return total / 40.0 * 100.0


def ap_r40(predictions, ground_truth, cls, difficulty, metric="3D", iou_threshold=0.7):
    """AP percent, or None when the class/difficulty cell has no ground truth.

    `predictions` and `ground_truth` map image id -> list of records
    (predictions must carry scores).
    """
    if cls not in CLASS_NAMES:
        raise UsageError(f"unknown class {cls!r}")
    if difficulty not in DIFFICULTIES:
        raise UsageError(f"unknown difficulty {difficulty!r}")
    if metric not in METRICS:
        raise UsageError(f"unknown metric {metric!r}")
    if not (0.0 < iou_threshold <= 1.0):
        raise UsageError("iou_threshold must be in (0, 1]")
    data = _prepare(predictions, ground_truth, (cls,))[cls]
    points, npos, _, _ = _greedy_curve(data, difficulty, metric, iou_threshold)
    if npos == 0:
        return None
    return _mean_envelope(points)


@dataclass(frozen=True)
class ApCell:
    ap: float  # None when undefined (no counted ground truth)
    n_gt: int
    n_pred: int
    matched: int

    @property
    def missed(self):
        return self.n_gt - self.matched


@dataclass
class EvalReport:
    cells: dict  # (threshold_set, metric, class, difficulty) -> ApCell
    errors: list
    n_images: int

    def to_text(self):
        lines = [f"AP|R40 over {self.n_images} images ({len(self.errors)} file errors)"]
        header = f"{'thresholds':<11} {'metric':<6} {'class':<11} {'difficulty':<10} {'AP':>7} {'matched':>7} {'missed':>6} {'n_pred':>6}"
        lines.append(header)
        lines.append("-" * len(header))
        for key in sorted(self.cells):
            set_name, metric, cls, diff = key
            cell = self.cells[key]
            ap = "n/a" if cell.ap is None else f"{cell.ap:.2f}"
            lines.append(
                f"{set_name:<11} {metric:<6} {cls:<11} {diff:<10} {ap:>7} "
                f"{cell.matched:>7} {cell.missed:>6} {cell.n_pred:>6}"
            )
        for err in self.errors:
            lines.append(f"error: {err}")
        return "\n".join(lines) + "\n"

    def to_records(self):
        records = []
        for key in sorted(self.cells):
            set_name, metric, cls, diff = key
            cell = self.cells[key]
            records.append(
                {
                    "thresholds": set_name,
                    "metric": metric,
                    "class": cls,
                    "difficulty": diff,
                    "ap": cell.ap,
                    "n_gt": cell.n_gt,
                    "n_pred": cell.n_pred,
                    "matched": cell.matched,
                    "missed": cell.missed,
                }
            )
        return records


def _image_ids(gt_dir):
    try:
        names = sorted(os.listdir(gt_dir))
    except OSError as exc:
        raise UsageError(f"cannot list ground-truth dir {gt_dir}: {exc}") from exc
    ids = [os.path.splitext(n)[0] for n in names if n.endswith(".txt")]
    if not ids:
        raise UsageError(f"no .txt label files in {gt_dir}")
    return ids


def _read_text(path):
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def evaluate_split(pred_dir, gt_dir, calib_dir=None, cfg=None):
    """Evaluate a prediction directory against a ground-truth directory.

    Missing or unparseable prediction files are itemized in the report
    errors and score as zero predictions for that image; unreadable
    ground-truth files drop the image entirely. Calibration files, when a
    directory is given, are parsed for validation only.
    """
    cfg = cfg or EvalConfig()
    errors = []
    ground_truth = {}
    predictions = {}
    for image_id in _image_ids(gt_dir):
        gt_path = os.path.join(gt_dir, image_id + ".txt")
        try:
            ground_truth[image_id] = parse_label_file(_read_text(gt_path))
        except (ParseError, OSError) as exc:
            errors.append(f"{gt_path}: {exc}")
            continue
        pred_path = os.path.join(pred_dir, image_id + ".txt")
        if not os.path.exists(pred_path):
            errors.append(f"{pred_path}: missing prediction file")
            predictions[image_id] = []
        else:
            try:
                parsed = parse_label_file(_read_text(pred_path))
                if any(rec.score is None for rec in parsed):
                    raise ParseError("prediction line without a score field")
                predictions[image_id] = parsed
            except (ParseError, OSError) as exc:
                errors.append(f"{pred_path}: {exc}")
                predictions[image_id] = []
        if calib_dir is not None:
            calib_path = os.path.join(calib_dir, image_id + ".txt")
            try:
                parse_calib_file(_read_text(calib_path))
            except (ParseError, OSError) as exc:
                errors.append(f"{calib_path}: {exc}")

    prepared = _prepare(predictions, ground_truth, CLASS_NAMES)
    cells = {}
    for set_name, pairs in cfg.threshold_sets:
        thresholds = dict(pairs)
        for metric in METRICS:
            for cls in CLASS_NAMES:
                for difficulty in DIFFICULTIES:
                    points, npos, matched, n_pred = _greedy_curve(
                        prepared[cls], difficulty, metric, thresholds[cls]
                    )
                    ap = _mean_envelope(points) if npos > 0 else None
                    cells[(set_name, metric, cls, difficulty)] = ApCell(
                        ap=ap, n_gt=npos, n_pred=n_pred, matched=matched
                    )
    return EvalReport(cells=cells, errors=errors, n_images=len(ground_truth))

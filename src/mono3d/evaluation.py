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
and the BEV value; pairs whose footprints are apart are not clipped).
Only the pairs with IoU > 0 are kept: each prediction gets, per metric,
the list of (ground-truth index, IoU) of the boxes it overlaps, and a
matching pass walks only those. Every threshold is in (0, 1], so a
zero-IoU pair can never match. The lists, the difficulty of each
ground-truth box and each class's score order are shared by both
metrics and every report cell.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .geometry import pair_iou
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


@dataclass(frozen=True)
class _ClassData:
    """One class's matching inputs, shared by every report cell.

    Within an image the class's predictions and ground truth are indexed
    in input order. `flat` holds (image, prediction index, score) in
    descending score order, ties in input order; `levels[image]` the
    difficulty level of each ground-truth box; `candidates[image][metric]`
    one list per prediction of (ground-truth index, IoU) for the boxes
    with IoU > 0, in ground-truth order, for images with both.
    """

    flat: list
    levels: dict
    candidates: dict


def _prepare(predictions, ground_truth, classes):
    """class -> _ClassData; every IoU, difficulty and sort done once.

    The same-class prediction x ground-truth pairs of every image and
    class go to one `pair_iou` call; the pairs with IoU > 0 are picked
    out of its result and appended to their prediction's lists.
    """
    images = sorted(set(predictions) | set(ground_truth))
    prepared = {}
    rows_a, rows_b, gt_index, ia, ib = [], [], [], [], []
    lists = {metric: [] for metric in METRICS}  # per prediction in rows_a
    for cls in classes:
        flat, levels, candidates = [], {}, {}
        for img in images:
            preds = [rec for rec in predictions.get(img, []) if rec.type == cls]
            gts = [rec for rec in ground_truth.get(img, []) if rec.type == cls]
            for idx, rec in enumerate(preds):
                if rec.score is None:
                    raise UsageError(f"prediction without score in image {img}")
                flat.append((img, idx, rec.score))
            levels[img] = [_LEVEL[assign_difficulty(rec)] for rec in gts]
            if preds and gts:
                ia.append(np.repeat(np.arange(len(preds)) + len(rows_a), len(gts)))
                ib.append(np.tile(np.arange(len(gts)) + len(rows_b), len(preds)))
                candidates[img] = {metric: [[] for _ in preds] for metric in METRICS}
                for metric in METRICS:
                    lists[metric].extend(candidates[img][metric])
                rows_a.extend((*r.location, *r.dimensions, r.rotation_y) for r in preds)
                rows_b.extend((*r.location, *r.dimensions, r.rotation_y) for r in gts)
                gt_index.extend(range(len(gts)))
        flat.sort(key=lambda item: -item[2])  # stable: ties keep input order
        prepared[cls] = _ClassData(flat=flat, levels=levels, candidates=candidates)
    if ia:
        ia, ib = np.concatenate(ia), np.concatenate(ib)
        t3d, tbev = pair_iou(rows_a, rows_b, ia, ib)
        for metric, iou in (("3D", t3d), ("BEV", tbev)):
            hit = np.flatnonzero(iou > 0.0)
            rows = lists[metric]
            # pairs run by prediction, then ground truth: each list is in gt order
            for a, b, v in zip(ia[hit].tolist(), ib[hit].tolist(), iou[hit].tolist()):
                rows[a].append((gt_index[b], v))
    return prepared


def _greedy_curve(data, difficulty, metric, iou_threshold):
    """One matching pass -> (recalls, precisions, counted GT, matched GT,
    class preds); recalls and precisions have one entry per counted
    prediction, in score order."""
    target = _LEVEL[difficulty]
    npos = sum(level <= target for levels in data.levels.values() for level in levels)
    if npos == 0:
        return None, None, 0, 0, len(data.flat)

    taken = set()
    hits = []  # 1 for a true positive, 0 for a false one
    for img, idx, _ in data.flat:
        levels = data.levels[img]
        row = data.candidates[img][metric][idx] if img in data.candidates else ()
        # best open counted and best open ignored ground truth at or above
        # the threshold, first index on ties, in one pass
        best_iou, best_key = -1.0, None
        ign_iou, ign_key = -1.0, None
        for j, v in row:
            if v < iou_threshold or (img, j) in taken:
                continue
            if levels[j] <= target:
                if v > best_iou:
                    best_iou, best_key = v, (img, j)
            elif v > ign_iou:
                ign_iou, ign_key = v, (img, j)
        if best_key is not None:
            taken.add(best_key)
            hits.append(1)
        elif ign_key is not None:
            taken.add(ign_key)
        else:
            hits.append(0)
    tp = np.cumsum(hits, dtype=np.int64)
    matched = int(tp[-1]) if hits else 0
    # integer true division is correctly rounded, as tp / npos in Python
    return tp / npos, tp / np.arange(1, len(tp) + 1), npos, matched, len(data.flat)


def _mean_envelope(recalls, precisions):
    """Mean over the 40 recall levels of max precision at recall >= level."""
    precisions = np.append(precisions, 0.0)
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
    recalls, precisions, npos, _, _ = _greedy_curve(data, difficulty, metric, iou_threshold)
    if npos == 0:
        return None
    return _mean_envelope(recalls, precisions)


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
                    recalls, precisions, npos, matched, n_pred = _greedy_curve(
                        prepared[cls], difficulty, metric, thresholds[cls]
                    )
                    ap = _mean_envelope(recalls, precisions) if npos > 0 else None
                    cells[(set_name, metric, cls, difficulty)] = ApCell(
                        ap=ap, n_gt=npos, n_pred=n_pred, matched=matched
                    )
    return EvalReport(cells=cells, errors=errors, n_images=len(ground_truth))

"""Average-precision evaluation over KITTI-style labels.

AP|R40: predictions are greedily matched per image in global descending
score order (ties keep input order), each ground-truth box claimable
once; precision is sampled at the 40 recall levels {i/40} through the
precision envelope and averaged. Ground truth outside the evaluated
difficulty bucket is ignored rather than missed: a prediction that only
overlaps an ignored box consumes it and drops out of the count.

The evaluator works on label tables (`kitti.parse_label_table`): each
label file is a list of types and a float64 array [n, 15]. The tables of
a split are stacked, and everything the 36 report cells share is
computed once, as arrays: each box's class, each ground-truth box's
difficulty level, each prediction's rank in its class's score order,
and the same-class prediction x ground-truth pairs of every image, whose
IoUs come from one batched `geometry.pair_iou` call (one footprint
intersection gives both the 3D and the BEV value). The pairs with
IoU > 0 are kept, per class and metric, sorted by (score rank,
ground-truth index). Every threshold is in (0, 1], so a zero-IoU pair
can never match. The matching passes of one class, metric and threshold
(one per difficulty) keep the pairs at or above the threshold and walk,
in Python and in score order, only the predictions that have one; every
other prediction is a false positive, set as an array.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .geometry import pair_iou
from .heads import CLASS_NAMES
from .kitti import ParseError, parse_calib_file, parse_label_table

# not called here; perfbench/spans.py wraps these three names on this module
from .geometry import iou_3d, iou_bev
from .kitti import parse_label_file

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
_CLASS_ID = {cls: c for c, cls in enumerate(CLASS_NAMES)}
# columns of a label table row: (x, y, z, h, w, l, yaw) and the score
_BOX_COLUMNS = [10, 11, 12, 7, 8, 9, 13]
_SCORE = 14


def difficulty_levels(height, occluded, truncated):
    """Arrays of 2D box height, occlusion and truncation -> the level
    (index into DIFFICULTIES, 3 for Ignored) of the easiest bucket each
    box qualifies for."""
    levels = np.full(np.shape(height), _LEVEL["Ignored"], dtype=np.intp)
    for name, min_h, max_occ, max_trunc in reversed(_DIFFICULTY_RULES):
        levels[(height >= min_h) & (occluded <= max_occ) & (truncated <= max_trunc)] = _LEVEL[name]
    return levels


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


def _stack(tables):
    """Per-image label tables -> (class id [n] (-1 for other types), image
    index [n], numbers [n, 15]), images in list order, boxes in file order."""
    types = [t for image_types, _ in tables for t in image_types]
    cls = np.array([_CLASS_ID.get(t, -1) for t in types], dtype=np.intp)
    image = np.repeat(np.arange(len(tables)), [len(t) for t, _ in tables])
    numbers = np.concatenate([n for _, n in tables]) if tables else np.empty((0, _SCORE + 1))
    return cls, image, numbers


@dataclass(frozen=True)
class _Split:
    """What every report cell of a split shares.

    `gt_level[j]` is ground-truth box j's difficulty level. Per class,
    `npos[cls][t]` counts its ground truth at level <= t and `n_pred[cls]`
    its predictions. `pairs[cls, metric]` holds (score rank, ground-truth
    index, IoU) of the class's prediction x ground-truth pairs with
    IoU > 0, sorted by rank, then ground-truth index.
    """

    gt_level: np.ndarray
    npos: dict
    n_pred: dict
    pairs: dict


def _prepare(pred_tables, gt_tables):
    """Aligned per-image prediction and ground-truth tables -> _Split; every
    IoU, difficulty and sort done once, as arrays."""
    p_cls, p_img, p_num = _stack(pred_tables)
    g_cls, g_img, g_num = _stack(gt_tables)
    gt_level = difficulty_levels(g_num[:, 6] - g_num[:, 4], g_num[:, 1], g_num[:, 0])
    # rank of each prediction in its class's descending score order, ties
    # in input order
    rank = np.zeros(len(p_cls), dtype=np.intp)
    npos, n_pred = {}, {}
    for c, cls in enumerate(CLASS_NAMES):
        members = np.flatnonzero(p_cls == c)
        rank[members[np.argsort(-p_num[members, _SCORE], kind="stable")]] = np.arange(len(members))
        n_pred[cls] = len(members)
        per_level = np.bincount(gt_level[g_cls == c], minlength=len(_LEVEL))
        npos[cls] = np.cumsum(per_level).tolist()
    # same-class, same-image pairs: each prediction against the run of
    # ground truth with its (class, image) key, in ground-truth order
    n_img = len(gt_tables)
    g_key = np.where(g_cls >= 0, g_cls * n_img + g_img, -1)
    p_key = np.where(p_cls >= 0, p_cls * n_img + p_img, -2)
    g_order = np.argsort(g_key, kind="stable")
    g_key = g_key[g_order]
    lo = np.searchsorted(g_key, p_key, side="left")
    count = np.searchsorted(g_key, p_key, side="right") - lo
    ia = np.repeat(np.arange(len(p_cls)), count)
    ib = g_order[np.arange(len(ia)) + np.repeat(lo - (np.cumsum(count) - count), count)]
    t3d, tbev = pair_iou(p_num[:, _BOX_COLUMNS], g_num[:, _BOX_COLUMNS], ia, ib)
    # a prediction's pairs are adjacent and in ground-truth order, so a
    # stable sort by (class, rank) gives each class's pairs in the order
    # its matching passes read them
    order = np.argsort(p_cls[ia] * len(p_cls) + rank[ia], kind="stable")
    ia, ib, t3d, tbev = ia[order], ib[order], t3d[order], tbev[order]
    pairs = {}
    for metric, iou in (("3D", t3d), ("BEV", tbev)):
        hit = iou > 0.0
        a, b, v = ia[hit], ib[hit], iou[hit]
        bounds = np.searchsorted(p_cls[a], np.arange(len(CLASS_NAMES) + 1)).tolist()
        for c, cls in enumerate(CLASS_NAMES):
            run = slice(bounds[c], bounds[c + 1])
            pairs[cls, metric] = (rank[a[run]], b[run], v[run])
    return _Split(gt_level=gt_level, npos=npos, n_pred=n_pred, pairs=pairs)


def _match(split, cls, metric, iou_threshold):
    """The matching passes of one class, metric and threshold at each of
    DIFFICULTIES -> one (recalls, precisions, counted GT, matched GT, class
    preds) per difficulty; recalls and precisions have one entry per
    counted prediction, in score order."""
    n_pred = split.n_pred[cls]
    rank, gt, iou = split.pairs[cls, metric]
    keep = iou >= iou_threshold
    rank, gt, iou = rank[keep], gt[keep], iou[keep]
    level = split.gt_level[gt]
    gt, iou = gt.tolist(), iou.tolist()
    # the runs of pairs of each walked prediction: [edges[k], edges[k + 1])
    edges = [0, *(np.flatnonzero(rank[1:] != rank[:-1]) + 1).tolist(), len(rank)]
    rank = rank.tolist()
    curves = []
    for target in range(len(DIFFICULTIES)):
        npos = split.npos[cls][target]
        if npos == 0:
            curves.append((None, None, 0, 0, n_pred))
            continue
        hit = np.zeros(n_pred, dtype=bool)
        kept = np.ones(n_pred, dtype=bool)
        counted = (level <= target).tolist()
        taken = set()
        for start, stop in zip(edges, edges[1:]):
            # best open counted and best open ignored ground truth, first
            # index on ties, in one pass
            best_iou, best = -1.0, None
            ign_iou, ign = -1.0, None
            for i in range(start, stop):
                j = gt[i]
                if j in taken:
                    continue
                if counted[i]:
                    if iou[i] > best_iou:
                        best_iou, best = iou[i], j
                elif iou[i] > ign_iou:
                    ign_iou, ign = iou[i], j
            if best is not None:
                taken.add(best)
                hit[rank[start]] = True
            elif ign is not None:
                taken.add(ign)
                kept[rank[start]] = False
        tp = np.cumsum(hit[kept], dtype=np.int64)
        # integer true division is correctly rounded, as tp / npos in Python
        curves.append((tp / npos, tp / np.arange(1, len(tp) + 1), npos, int(hit.sum()), n_pred))
    return curves


def _mean_envelope(recalls, precisions):
    """Mean over the 40 recall levels of max precision at recall >= level."""
    precisions = np.append(precisions, 0.0)
    suffix_max = np.maximum.accumulate(precisions[::-1])[::-1]
    total = 0.0
    for v in suffix_max[np.searchsorted(recalls, RECALL_POINTS, side="left")].tolist():
        total += v  # left to right, as the AP oracle adds
    return total / 40.0 * 100.0


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
    gt_tables, pred_tables = [], []
    for image_id in _image_ids(gt_dir):
        gt_path = os.path.join(gt_dir, image_id + ".txt")
        try:
            gt_tables.append(parse_label_table(_read_text(gt_path)))
        except (ParseError, OSError) as exc:
            errors.append(f"{gt_path}: {exc}")
            continue
        pred_path = os.path.join(pred_dir, image_id + ".txt")
        table = ([], np.empty((0, _SCORE + 1)))  # no predictions
        if not os.path.exists(pred_path):
            errors.append(f"{pred_path}: missing prediction file")
        else:
            try:
                types, numbers = parse_label_table(_read_text(pred_path))
                if np.isnan(numbers[:, _SCORE]).any():
                    raise ParseError("prediction line without a score field")
                table = (types, numbers)
            except (ParseError, OSError) as exc:
                errors.append(f"{pred_path}: {exc}")
        pred_tables.append(table)
        if calib_dir is not None:
            calib_path = os.path.join(calib_dir, image_id + ".txt")
            try:
                parse_calib_file(_read_text(calib_path))
            except (ParseError, OSError) as exc:
                errors.append(f"{calib_path}: {exc}")

    split = _prepare(pred_tables, gt_tables)
    cells = {}
    for set_name, pairs in cfg.threshold_sets:
        thresholds = dict(pairs)
        for metric in METRICS:
            for cls in CLASS_NAMES:
                curves = _match(split, cls, metric, thresholds[cls])
                for difficulty, curve in zip(DIFFICULTIES, curves):
                    recalls, precisions, npos, matched, n_pred = curve
                    ap = _mean_envelope(recalls, precisions) if npos > 0 else None
                    cells[(set_name, metric, cls, difficulty)] = ApCell(
                        ap=ap, n_gt=npos, n_pred=n_pred, matched=matched
                    )
    return EvalReport(cells=cells, errors=errors, n_images=len(gt_tables))

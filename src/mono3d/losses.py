"""Task losses, target assignment, and the hierarchical task schedule.

The nine loss terms are (in fixed summation order): heatmap, offset2d,
size2d, angle, w3d, l3d, h3d, depth, offset3d. Only the class heatmap
is dense on the stride-4 map; every other target is a per-object array:
the 2D offset and size are read at each object's center cell, the 3D
targets at its ground-truth box. Depth and 3D height use a Laplacian
negative log-likelihood so the network can widen sigma on hard objects
instead of overfitting the L1. Task tiers gate the 3D terms (and then
depth) on the measured training progress of their prerequisite tasks.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import DimensionError, UsageError
from .heads import CLASS_NAMES, CLASS_PRIORS, OUTPUT_STRIDE, encode_angle
from .tensor import Tensor

LOSS_TERMS = (
    "heatmap",
    "offset2d",
    "size2d",
    "angle",
    "w3d",
    "l3d",
    "h3d",
    "depth",
    "offset3d",
)
TIER1 = ("heatmap", "offset2d", "size2d")
TIER2 = ("offset3d", "w3d", "l3d", "h3d", "angle")
FOCAL_ALPHA, FOCAL_BETA = 2.0, 4.0  # CenterNet's focal-loss exponents
MIN_OVERLAP = 0.7  # the IoU a heatmap peak's Gaussian radius keeps (CenterNet)


@dataclass
class TargetMaps:
    heatmap: np.ndarray  # [C_cls, h, w], peak exactly 1 at each center cell
    class_ids: np.ndarray  # [M]
    cell: np.ndarray  # [M, 2] int (row, col) center cell on the stride-4 map
    offset2d: np.ndarray  # [M, 2] center minus cell, map units
    center2d: np.ndarray  # [M, 2] exact 2D box centers, input pixels
    size2d: np.ndarray  # [M, 2] (w_2d, h_2d)
    offset3d: np.ndarray  # [M, 2] projected-3D-center minus 2D center
    size3d: np.ndarray  # [M, 3] (h, w, l) meters
    angle_bin: np.ndarray  # [M] int
    angle_res: np.ndarray  # [M] radians
    depth: np.ndarray  # [M] meters (z)
    skipped: dict = field(default_factory=dict)

    @property
    def n_objects(self):
        return len(self.class_ids)


def gaussian_radius(box_hw):
    """Smallest center-shift radius keeping IoU >= MIN_OVERLAP (CenterNet)."""
    height, width = box_hw
    a1 = 1.0
    b1 = height + width
    c1 = width * height * (1.0 - MIN_OVERLAP) / (1.0 + MIN_OVERLAP)
    r1 = (b1 - math.sqrt(max(b1 * b1 - 4.0 * a1 * c1, 0.0))) / 2.0

    a2 = 4.0
    b2 = 2.0 * (height + width)
    c2 = (1.0 - MIN_OVERLAP) * width * height
    r2 = (b2 - math.sqrt(max(b2 * b2 - 4.0 * a2 * c2, 0.0))) / 2.0

    a3 = 4.0 * MIN_OVERLAP
    b3 = -2.0 * MIN_OVERLAP * (height + width)
    c3 = (MIN_OVERLAP - 1.0) * width * height
    r3 = (b3 + math.sqrt(max(b3 * b3 - 4.0 * a3 * c3, 0.0))) / 2.0
    return min(r1, r2, r3)


def draw_gaussian(heatmap, row, col, radius):
    """Max-combine an isotropic Gaussian peak (value 1 at center)."""
    r = int(radius)
    sigma = (2.0 * r + 1.0) / 6.0
    h, w = heatmap.shape
    ys = np.arange(max(row - r, 0), min(row + r + 1, h))
    xs = np.arange(max(col - r, 0), min(col + r + 1, w))
    if len(ys) == 0 or len(xs) == 0:
        return
    g = np.exp(
        -((ys[:, None] - row) ** 2 + (xs[None, :] - col) ** 2) / (2.0 * sigma * sigma)
    )
    patch = heatmap[ys[0] : ys[-1] + 1, xs[0] : xs[-1] + 1]
    np.maximum(patch, g, out=patch)


def assign_targets(labels, calib, image_size):
    """Ground-truth records -> the dense class heatmap + per-object targets.

    Center cells are floor(center / stride); offsets are the fractional
    remainders in map units. Objects with unknown class or with a center
    cell outside the map are skipped and counted in `skipped`.
    """
    width, height = image_size
    hm_h = -(-height // OUTPUT_STRIDE)
    hm_w = -(-width // OUTPUT_STRIDE)
    heatmap = np.zeros((len(CLASS_NAMES), hm_h, hm_w))
    classes, cells, offsets2d = [], [], []
    centers, sizes, offsets3d, sizes3d, bins, residuals, depths = [], [], [], [], [], [], []
    skipped = {}

    def skip(reason):
        skipped[reason] = skipped.get(reason, 0) + 1

    for rec in labels:
        if rec.type not in CLASS_NAMES:
            skip("unknown_class")
            continue
        cls = CLASS_NAMES.index(rec.type)
        left, top, right, bottom = rec.bbox
        cu = (left + right) / 2.0
        cv = (top + bottom) / 2.0
        col = int(cu // OUTPUT_STRIDE)
        row = int(cv // OUTPUT_STRIDE)
        if not (0 <= row < hm_h and 0 <= col < hm_w):
            skip("center_outside_image")
            continue
        w2d = right - left
        h2d = bottom - top
        if w2d <= 0 or h2d <= 0:
            skip("degenerate_bbox")
            continue

        radius = max(0, int(gaussian_radius((h2d / OUTPUT_STRIDE, w2d / OUTPUT_STRIDE))))
        draw_gaussian(heatmap[cls], row, col, radius)
        heatmap[cls, row, col] = 1.0

        h3d = rec.dimensions[0]
        x, y, z = rec.location
        center3d = np.array([[x, y - h3d / 2.0, z]])
        pix, _ = calib.project(center3d)
        u3d, v3d = pix[0]

        classes.append(cls)
        cells.append((row, col))
        offsets2d.append((cu / OUTPUT_STRIDE - col, cv / OUTPUT_STRIDE - row))
        centers.append((cu, cv))
        sizes.append((w2d, h2d))
        offsets3d.append((u3d - cu, v3d - cv))
        sizes3d.append(tuple(rec.dimensions))
        b, res = encode_angle(rec.alpha)
        bins.append(b)
        residuals.append(res)
        depths.append(z)

    return TargetMaps(
        heatmap=heatmap,
        class_ids=np.array(classes, dtype=np.intp),
        cell=np.array(cells, dtype=np.intp).reshape(-1, 2),
        offset2d=np.array(offsets2d).reshape(-1, 2),
        center2d=np.array(centers).reshape(-1, 2),
        size2d=np.array(sizes).reshape(-1, 2),
        offset3d=np.array(offsets3d).reshape(-1, 2),
        size3d=np.array(sizes3d).reshape(-1, 3),
        angle_bin=np.array(bins, dtype=np.intp),
        angle_res=np.array(residuals),
        depth=np.array(depths),
        skipped=skipped,
    )


def _zero_scalar():
    return Tensor(np.zeros(()))


def focal_loss(pred, gt):
    """Penalty-reduced pixelwise focal loss, normalized by max(#pos, 1)."""
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise DimensionError(f"heatmap shapes differ: {pred.shape} vs {gt.shape}")
    pos = (gt == 1.0).astype(np.float64)
    npos = float(pos.sum())
    p = T.clip(pred, 1e-12, 1.0 - 1e-12)
    pos_term = T.log(p) * ((1.0 - p) ** FOCAL_ALPHA) * pos
    neg_term = T.log(1.0 - p) * (p**FOCAL_ALPHA) * ((1.0 - gt) ** FOCAL_BETA) * (1.0 - pos)
    return -(T.sum_(pos_term) + T.sum_(neg_term)) * (1.0 / max(npos, 1.0))


def l1_masked(pred, target):
    """Mean |pred - target| over all elements; 0 for empty input.

    perfbench's span tracer wraps this function by its name."""
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(f"shapes differ: {pred.shape} vs {target.shape}")
    if target.size == 0:
        return _zero_scalar()
    return T.sum_(T.absolute(pred - target)) * (1.0 / target.size)


def _log_softmax(logits):
    c = logits.data.max(axis=-1, keepdims=True)
    shifted = logits - c
    lse = T.log(T.sum_(T.exp(shifted), axis=-1, keepdims=True))
    return shifted - lse


def angle_loss(bin_logits, residuals, bin_gt, residual_gt):
    """Cross-entropy over heading bins + L1 on the true-bin residual."""
    bin_gt = np.asarray(bin_gt, dtype=np.intp)
    m = len(bin_gt)
    if m == 0:
        return _zero_scalar()
    if np.any(bin_gt < 0) or np.any(bin_gt >= bin_logits.shape[-1]):
        raise UsageError("angle bin index out of range")
    onehot = np.zeros(bin_logits.shape)
    onehot[np.arange(m), bin_gt] = 1.0
    ce = -T.sum_(_log_softmax(bin_logits) * onehot) * (1.0 / m)
    picked = T.sum_(residuals * onehot, axis=-1)
    l1 = T.sum_(T.absolute(picked - np.asarray(residual_gt))) * (1.0 / m)
    return ce + l1


def laplacian_nll(mu, sigma, target):
    """Mean of (sqrt(2)/sigma)|mu - target| + log(sigma); sigma floor 1e-6."""
    target = np.asarray(target, dtype=np.float64)
    if mu.shape != target.shape:
        raise DimensionError(f"shapes differ: {mu.shape} vs {target.shape}")
    m = int(np.prod(mu.shape)) if mu.ndim else 1
    if m == 0:
        return _zero_scalar()
    s = T.clip(sigma, 1e-6, None)
    per = (T.absolute(mu - target) / s) * math.sqrt(2.0) + T.log(s)
    return T.sum_(per) * (1.0 / m)


def depth_loss(depth_mu, depth_sigma, depth_gt):
    return laplacian_nll(depth_mu, depth_sigma, depth_gt)


@dataclass(frozen=True)
class TaskWeights:
    values: tuple  # aligned with LOSS_TERMS

    def __getitem__(self, term):
        return self.values[LOSS_TERMS.index(term)]


def make_weights(tier2=1.0, tier3=1.0):
    vals = []
    for term in LOSS_TERMS:
        if term in TIER1:
            vals.append(1.0)
        elif term in TIER2:
            vals.append(float(tier2))
        else:
            vals.append(float(tier3))
    return TaskWeights(tuple(vals))


def total_loss(terms, weights):
    """Weighted sum over the nine terms in fixed order + float report."""
    missing = [t for t in LOSS_TERMS if t not in terms]
    if missing:
        raise UsageError(f"missing loss terms: {missing}")
    total = _zero_scalar()
    report = {}
    for term in LOSS_TERMS:
        w = weights[term]
        value = terms[term]
        total = total + value * w
        report[term] = float(value.data)
        report[f"w_{term}"] = w
    return total, report


def _progress(history, terms, upto):
    """Mean fractional loss reduction of `terms` using epochs [0, upto)."""
    vals = []
    for term in terms:
        series = history.get(term, [])
        if upto < 1 or len(series) < upto:
            return 0.0
        initial = series[0]
        recent = series[upto - 1]
        if initial <= 0.0:
            vals.append(1.0)
        else:
            vals.append(min(max(1.0 - recent / initial, 0.0), 1.0))
    return float(np.mean(vals)) if vals else 0.0


def htl_weights(epoch, history, previous=None, ramp_epochs=20):
    """Tier weights at `epoch` given per-term loss history of prior epochs
    and `previous`, the weights at epoch - 1 (None before epoch 0).

    Tier 1 is always 1. Tiers 2 and 3 are a running max over epochs of
    ramp(e) * progress(e), where ramp rises linearly to 1 over
    ramp_epochs and progress is the clamped mean fractional improvement
    of the tier's prerequisite tasks since epoch 0: the previous weight
    or this epoch's value, whichever is larger. The running max makes
    the schedule monotone non-decreasing.
    """
    if epoch < 0:
        raise UsageError("epoch must be >= 0")
    w2, w3 = (0.0, 0.0) if previous is None else (previous["offset3d"], previous["depth"])
    ramp = min(epoch / float(ramp_epochs), 1.0)
    w2 = max(w2, ramp * _progress(history, TIER1, epoch))
    w3 = max(w3, ramp * _progress(history, TIER1 + TIER2, epoch))
    return make_weights(tier2=w2, tier3=w3)

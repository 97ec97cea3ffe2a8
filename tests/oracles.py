"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive (plain loops, series expansions) and
shares no code with the package paths it checks. The one exception to
"naive" is the scanline raster IoU, which counts lattice points per row by
interval so a 2000 x 2000 grid stays fast; it is itself checked against
`raster_iou_pointwise`, which tests every point. `matmul_batched` and
`softmax_lastdim` are ops of the engine that no model path records: they
record through the engine's `_record`, so that graphs built from them
backpropagate, and they are the unfused references for `attention` and
`linear`.
"""

import gc
import math

import numpy as np

from mono3d import tensor as T
from mono3d.errors import DimensionError


def live_graph_nodes(collect=True):
    """Autodiff graph nodes alive in the process, found by the garbage
    collector rather than by any counter of the engine. `collect=False`
    skips the collection, so only what reference counting freed is gone."""
    if collect:
        gc.collect()
    return sum(isinstance(o, T._Node) for o in gc.get_objects())


def conv2d_direct(x, w, b, stride, padding, groups=1):
    """Quadruple-loop cross-correlation, NCHW."""
    n, c, h, wd = x.shape
    o, cg, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, o, oh, ow))
    for bi in range(n):
        for oi in range(o):
            g = oi // (o // groups)
            for yi in range(oh):
                for xi in range(ow):
                    acc = 0.0
                    for ci in range(cg):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (
                                    xp[bi, g * cg + ci, yi * stride + ky, xi * stride + kx]
                                    * w[oi, ci, ky, kx]
                                )
                    out[bi, oi, yi, xi] = acc + (b[oi] if b is not None else 0.0)
    return out


def matmul_loops(a, b):
    """Triple-loop matmul over a shared batch dim."""
    batch, m, k = a.shape
    _, _, p = b.shape
    out = np.zeros((batch, m, p))
    for bi in range(batch):
        for i in range(m):
            for j in range(p):
                acc = 0.0
                for t in range(k):
                    acc += a[bi, i, t] * b[bi, t, j]
                out[bi, i, j] = acc
    return out


def matmul_batched(a, b):
    """Batched matmul of Tensors with broadcastable leading dims:
    [..., M, K] @ [..., K, P], recorded as "matmul"."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul operands need at least 2 dims")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"inner dims disagree: {a.shape} @ {b.shape}")

    def vjp(g):
        ga = T._reduce_broadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = T._reduce_broadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return T._record("matmul", a.data @ b.data, (a, b), vjp)


def softmax_lastdim(x):
    """Numerically stable softmax of a Tensor over its last dim (max
    subtraction), recorded as "softmax"."""
    if x.shape[-1] < 1:
        raise DimensionError("softmax needs a non-empty last dim")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = np.sum(g * out_data, axis=-1, keepdims=True)
        return (out_data * (g - dot),)

    return T._record("softmax", out_data, (x,), vjp)


def htl_weights_all_history(epoch, history, ramp_epochs=20):
    """(tier-2, tier-3) task weights at `epoch`, recomputed from the whole
    loss history: the max over epochs e = 1..epoch of ramp(e) * progress(e),
    progress being the clamped mean fractional loss reduction of the
    tier's prerequisite terms from epoch 0 to epoch e - 1."""
    tier1 = ("heatmap", "offset2d", "size2d")
    tier2 = ("offset3d", "w3d", "l3d", "h3d", "angle")

    def progress(terms, upto):
        vals = []
        for term in terms:
            series = history.get(term, [])
            if len(series) < upto:
                return 0.0
            first, last = series[0], series[upto - 1]
            vals.append(1.0 if first <= 0.0 else min(max(1.0 - last / first, 0.0), 1.0))
        return float(np.mean(vals))

    w2 = w3 = 0.0
    for e in range(1, epoch + 1):
        ramp = min(e / float(ramp_epochs), 1.0)
        w2 = max(w2, ramp * progress(tier1, e))
        w3 = max(w3, ramp * progress(tier1 + tier2, e))
    return w2, w3


def erf_series(x, terms=40):
    """erf via its Maclaurin series: 2/sqrt(pi) * sum (-1)^n x^(2n+1) / (n! (2n+1))."""
    acc = 0.0
    for n in range(terms):
        acc += (-1) ** n * x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * acc


def normal_cdf_series(x):
    return 0.5 * (1.0 + erf_series(x / math.sqrt(2.0)))


def bilinear_resize_direct(img, out_h, out_w):
    """Per-pixel bilinear weights, half-pixel centers, border clamp."""
    h, w = img.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        sy = min(max((i + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = int(math.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for j in range(out_w):
            sx = min(max((j + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0 = int(math.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            out[i, j] = (
                img[y0, x0] * (1 - fy) * (1 - fx)
                + img[y0, x1] * (1 - fy) * fx
                + img[y1, x0] * fy * (1 - fx)
                + img[y1, x1] * fy * fx
            )
    return out


def focal_loss_loops(pred, gt, alpha=2.0, beta=4.0):
    """Per-pixel penalty-reduced focal loss summed with explicit loops."""
    total = 0.0
    n_pos = 0
    flat_p = pred.reshape(-1)
    flat_g = gt.reshape(-1)
    for p, g in zip(flat_p, flat_g):
        p = min(max(p, 1e-12), 1 - 1e-12)
        if g == 1.0:
            total -= (1 - p) ** alpha * math.log(p)
            n_pos += 1
        else:
            total -= (1 - g) ** beta * p**alpha * math.log(1 - p)
    return total / max(n_pos, 1)


def cross_entropy_scalar(logits, target_idx):
    """Hand-rolled CE from raw logits."""
    m = max(logits)
    z = sum(math.exp(v - m) for v in logits)
    return -(logits[target_idx] - m - math.log(z))


def difficulty_reference(height_px, occlusion, truncation):
    """KITTI devkit difficulty buckets, written from the raw thresholds."""
    if height_px >= 40.0 and occlusion <= 0 and truncation <= 0.15:
        return "Easy"
    if height_px >= 25.0 and occlusion <= 1 and truncation <= 0.30:
        return "Moderate"
    if height_px >= 25.0 and occlusion <= 2 and truncation <= 0.50:
        return "Hard"
    return "Ignored"


def _difficulty_level(rec):
    name = difficulty_reference(rec.bbox[3] - rec.bbox[1], rec.occluded, rec.truncated)
    return {"Easy": 0, "Moderate": 1, "Hard": 2, "Ignored": 3}[name]


def _match_prefix(flat_prefix, gts_by_image, cls, target_level, pair_iou, iou_threshold):
    """Greedy matcher run from scratch on a score-sorted prediction prefix.

    Counted ground truth (difficulty level <= target) is preferred; a
    prediction that misses all counted boxes but overlaps an ignored one
    consumes it and is dropped from the count. Everything else is a false
    positive.
    """
    taken = set()
    tp = fp = 0
    for img, _, pred in flat_prefix:
        gts = gts_by_image.get(img, [])
        best_iou = -1.0
        best_j = -1
        for j, g in enumerate(gts):
            if g.type != cls or (img, j) in taken or _difficulty_level(g) > target_level:
                continue
            v = pair_iou(pred, g)
            if v > best_iou:
                best_iou, best_j = v, j
        if best_j >= 0 and best_iou >= iou_threshold:
            taken.add((img, best_j))
            tp += 1
            continue
        ign_iou = -1.0
        ign_j = -1
        for j, g in enumerate(gts):
            if g.type != cls or (img, j) in taken or _difficulty_level(g) <= target_level:
                continue
            v = pair_iou(pred, g)
            if v > ign_iou:
                ign_iou, ign_j = v, j
        if ign_j >= 0 and ign_iou >= iou_threshold:
            taken.add((img, ign_j))
            continue
        fp += 1
    return tp, fp


def _once_per_pair(pair_iou):
    """pair_iou, called once per (prediction, ground truth) record pair;
    later calls with the same two records return the first value."""
    values = {}

    def cached(pred, gt):
        key = (id(pred), id(gt))
        if key not in values:
            values[key] = pair_iou(pred, gt)
        return values[key]

    return cached


def match_counts_bruteforce(preds_by_image, gts_by_image, cls, difficulty, pair_iou, iou_threshold):
    """(counted GT, matched GT, class predictions) of one greedy pass
    over all predictions in descending score order (ties in input order)."""
    target_level = {"Easy": 0, "Moderate": 1, "Hard": 2, "Ignored": 3}[difficulty]
    images = sorted(set(preds_by_image) | set(gts_by_image))
    flat = [
        (img, idx, p)
        for img in images
        for idx, p in enumerate(preds_by_image.get(img, []))
        if p.type == cls
    ]
    flat.sort(key=lambda item: -item[2].score)
    npos = sum(
        1
        for img in images
        for g in gts_by_image.get(img, [])
        if g.type == cls and _difficulty_level(g) <= target_level
    )
    tp, _ = _match_prefix(flat, gts_by_image, cls, target_level, pair_iou, iou_threshold)
    return npos, tp, len(flat)


def ap_r40_bruteforce(preds_by_image, gts_by_image, cls, difficulty, pair_iou, iou_threshold):
    """AP|R40 by exhaustive re-matching of every score-prefix.

    For each k the greedy matcher is re-run from scratch on the top-k
    predictions, giving one PR point; each of the 40 recall levels then
    takes the max precision over all points at recall >= that level by a
    full scan. `pair_iou(pred_record, gt_record)` supplies the overlap.
    Returns None when no counted ground truth exists.
    """
    target_level = {"Easy": 0, "Moderate": 1, "Hard": 2, "Ignored": 3}[difficulty]
    images = sorted(set(preds_by_image) | set(gts_by_image))
    flat = []
    for img in images:
        for idx, p in enumerate(preds_by_image.get(img, [])):
            if p.type == cls:
                flat.append((img, idx, p))
    flat.sort(key=lambda item: -item[2].score)

    npos = 0
    for img in images:
        for g in gts_by_image.get(img, []):
            if g.type == cls and _difficulty_level(g) <= target_level:
                npos += 1
    if npos == 0:
        return None

    # every prefix re-matches from scratch; only the overlaps are reused
    pair_iou = _once_per_pair(pair_iou)
    points = []
    for k in range(1, len(flat) + 1):
        tp, fp = _match_prefix(flat[:k], gts_by_image, cls, target_level, pair_iou, iou_threshold)
        if tp + fp > 0:
            points.append((tp / npos, tp / (tp + fp)))

    total = 0.0
    for i in range(1, 41):
        r = i / 40.0
        best = 0.0
        for rec, prec in points:
            if rec >= r and prec > best:
                best = prec
        total += best
    return total / 40.0 * 100.0


def _lattice(a, b, n_grid):
    """Cell-center x [n_grid] and z [n_grid] coordinates of the lattice over
    the joint axis-aligned extent of two (cx, cz, half_l, half_w, yaw) rows,
    plus its left edge x0 and column step."""
    lo, hi = [], []
    for cx, cz, hl, hw, yaw in (a, b):
        c, s = np.cos(yaw), np.sin(yaw)
        ex = abs(c) * hl + abs(s) * hw
        ez = abs(s) * hl + abs(c) * hw
        lo.append((cx - ex, cz - ez))
        hi.append((cx + ex, cz + ez))
    x0, z0 = min(lo[0][0], lo[1][0]), min(lo[0][1], lo[1][1])
    x1, z1 = max(hi[0][0], hi[1][0]), max(hi[0][1], hi[1][1])
    xs = x0 + (np.arange(n_grid) + 0.5) * (x1 - x0) / n_grid
    zs = z0 + (np.arange(n_grid) + 0.5) * (z1 - z0) / n_grid
    return xs, zs, x0, (x1 - x0) / n_grid


def raster_iou_pointwise(boxes_a, boxes_b, n_grid):
    """Footprint IoU per box pair by testing every lattice point.

    Boxes are (cx, cz, half_l, half_w, yaw) rows. The lattice holds the
    n_grid x n_grid cell centers of each pair's joint bounding rectangle;
    a point is inside a box when both of its local coordinates are within
    the half extents (edges count as inside).
    """
    boxes_a = np.asarray(boxes_a, dtype=np.float64)
    boxes_b = np.asarray(boxes_b, dtype=np.float64)
    out = np.zeros(len(boxes_a))
    for p, (a, b) in enumerate(zip(boxes_a, boxes_b)):
        xs, zs, _, _ = _lattice(a, b, n_grid)
        px, pz = xs[None, :], zs[:, None]

        def inside(box):
            cx, cz, hl, hw, yaw = box
            c, s = np.cos(yaw), np.sin(yaw)
            dx = px - cx
            dz = pz - cz
            return (np.abs(c * dx - s * dz) <= hl) & (np.abs(s * dx + c * dz) <= hw)

        in_a = inside(a)
        in_b = inside(b)
        inter = np.count_nonzero(in_a & in_b)
        union = np.count_nonzero(in_a) + np.count_nonzero(in_b) - inter
        out[p] = inter / union if union > 0 else 0.0
    return out


def _first_index(hit, guess, n):
    """Per row, the smallest column j in [0, n] with hit(j) true.

    hit maps one column index per row to a bool per row and must be
    monotone along each row (false ... false, true ... true). A guess that
    its left neighbour confirms is exact; rows where it is off are bisected.
    """

    def at(j):
        return hit(np.minimum(j, n - 1))

    ok_at = (guess == n) | at(guess)  # answer <= guess
    ok_before = (guess == 0) | ~at(np.maximum(guess - 1, 0))  # answer >= guess
    lo = np.where(ok_at, np.where(ok_before, guess, 0), guess + 1)
    hi = np.where(ok_at, np.where(ok_before, guess, guess - 1), n)
    active = lo < hi
    while active.any():
        mid = (lo + hi) // 2
        h = at(mid)
        hi = np.where(active & h, mid, hi)
        lo = np.where(active & ~h, mid + 1, lo)
        active = lo < hi
    return lo


def _row_spans(box, xs, x0, step, zs):
    """Half-open column span [lo, hi) of the lattice points inside box, per row.

    A point is inside when |c*dx - s*dz| <= hl and |s*dx + c*dz| <= hw. Each
    of those is two half-planes, and along a row (fixed dz) each half-plane
    holds on a prefix or a suffix of the columns, since the rounded local
    coordinate is monotone in the column. Its end is first placed from the
    line equation, then confirmed with the point predicate itself, so the
    span is exactly the set a point-by-point test finds.
    """
    cx, cz, hl, hw, yaw = box
    c, s = np.cos(yaw), np.sin(yaw)
    n = xs.shape[0]
    dz = zs - cz
    lo = np.zeros(dz.shape, dtype=np.int64)
    hi = np.full(dz.shape, n, dtype=np.int64)
    for coef, half, local in (
        (c, hl, lambda dx: c * dx - s * dz),
        (s, hw, lambda dx: s * dx + c * dz),
    ):
        for sign in (1.0, -1.0):

            def inside(j):
                return sign * local(xs[j] - cx) <= half

            if coef == 0.0:  # the half-plane is parallel to the rows
                lo = np.where(inside(np.zeros_like(lo)), lo, n)
                continue
            # column where sign * local(dx) == half; NaN only on a zero-width lattice
            col = np.nan_to_num((cx + (sign * half - local(0.0)) / coef - x0) / step - 0.5)
            if sign * coef > 0.0:  # inside up to col: a prefix ends at the first miss
                guess = np.clip(np.floor(col) + 1.0, 0, n).astype(np.int64)
                hi = np.minimum(hi, _first_index(lambda j: ~inside(j), guess, n))
            else:  # inside from col on: a suffix starts at the first hit
                guess = np.clip(np.ceil(col), 0, n).astype(np.int64)
                lo = np.maximum(lo, _first_index(inside, guess, n))
    return lo, hi


def raster_iou(boxes_a, boxes_b, n_grid):
    """Monte-Carlo-free grid estimate of footprint IoU per box pair.

    Boxes are (cx, cz, half_l, half_w, yaw) rows; an n_grid x n_grid lattice
    of cell centers covers the joint bounding rectangle of each pair. The
    points inside a box form one column interval per lattice row, so they
    are counted per row by interval, not tested one by one: O(n_grid) per
    pair. Independent of the polygon-clipping path, so it serves as its check.
    """
    boxes_a = np.asarray(boxes_a, dtype=np.float64)
    boxes_b = np.asarray(boxes_b, dtype=np.float64)
    out = np.zeros(boxes_a.shape[0], dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for p in range(boxes_a.shape[0]):
            a, b = boxes_a[p], boxes_b[p]
            xs, zs, x0, step = _lattice(a, b, n_grid)
            lo_a, hi_a = _row_spans(a, xs, x0, step, zs)
            lo_b, hi_b = _row_spans(b, xs, x0, step, zs)
            n_a = np.maximum(hi_a - lo_a, 0).sum()
            n_b = np.maximum(hi_b - lo_b, 0).sum()
            inter = np.maximum(np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b), 0).sum()
            union = n_a + n_b - inter
            out[p] = inter / union if union > 0 else 0.0
    return out


def raster_iou_reference(boxes_a, boxes_b, n_grid=2000):
    """Grid-sampling estimate of footprint IoU, paired over two lists of
    box rows (x, y, z, h, w, l, yaw).

    Completely independent of the clipping path: the points of an
    n_grid x n_grid lattice over each pair's joint bounding rectangle that
    lie inside each rotated rectangle, and inside both, are counted per
    lattice row as one interval of columns, not tested one by one.
    """

    def rows(boxes):
        # (cx, cz, half_l, half_w, yaw)
        return [(x, z, l / 2.0, w / 2.0, yaw) for x, _, z, _, w, l, yaw in boxes]

    return raster_iou(rows(boxes_a), rows(boxes_b), n_grid)


def roi_align_pointwise(fmap, centers, sizes, image_index, stride, out_size):
    """RoIAlign crops one sample at a time -> [M, C, ry, rx].

    Box m is (center, size) in input pixels on image image_index[m] of
    fmap [N, C, h, w]. Its edges divide by the stride and are clipped to
    the map; sample (i, j) sits at the half-pixel center
    y1 + (i + 0.5) * (y2 - y1) / ry - 0.5 in index space (same for x),
    clamped to the border, and blends its four neighbours bilinearly.
    """
    _, c, h, w = fmap.shape
    ry, rx = out_size
    out = np.zeros((len(centers), c, ry, rx))
    for m, ((u, v), (bw, bh), n) in enumerate(zip(centers, sizes, image_index)):
        x1 = max((u - bw / 2.0) / stride, 0.0)
        x2 = min((u + bw / 2.0) / stride, float(w))
        y1 = max((v - bh / 2.0) / stride, 0.0)
        y2 = min((v + bh / 2.0) / stride, float(h))
        for i in range(ry):
            sy = min(max(y1 + (i + 0.5) * (y2 - y1) / ry - 0.5, 0.0), h - 1.0)
            r0 = int(math.floor(sy))
            r1 = min(r0 + 1, h - 1)
            fy = sy - r0
            for j in range(rx):
                sx = min(max(x1 + (j + 0.5) * (x2 - x1) / rx - 0.5, 0.0), w - 1.0)
                c0 = int(math.floor(sx))
                c1 = min(c0 + 1, w - 1)
                fx = sx - c0
                for ch in range(c):
                    img = fmap[n, ch]
                    out[m, ch, i, j] = (
                        img[r0, c0] * (1 - fy) * (1 - fx)
                        + img[r0, c1] * (1 - fy) * fx
                        + img[r1, c0] * fy * (1 - fx)
                        + img[r1, c1] * fy * fx
                    )
    return out


def bev_footprint_scalar(box):
    """One box row's counter-clockwise footprint [4, 2] in the (x, z) plane."""
    bx, _, bz, _, w, l, yaw = (float(v) for v in box)
    c, s = math.cos(yaw), math.sin(yaw)
    lx = np.array([l / 2.0, -l / 2.0, -l / 2.0, l / 2.0])
    lz = np.array([w / 2.0, w / 2.0, -w / 2.0, -w / 2.0])
    x = c * lx + s * lz + bx
    z = -s * lx + c * lz + bz
    return np.stack([x, z], axis=1)


def polygon_area_scalar(poly):
    """Shoelace area of one polygon, summed by np.sum."""
    poly = np.asarray(poly, dtype=np.float64)
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.concatenate((x[1:], x[:1])), np.concatenate((y[1:], y[:1]))
    return 0.5 * float(np.sum(x * yn - xn * y))


def convex_clip_scalar(subject, clip):
    """Sutherland-Hodgman on one pair, one vertex at a time: subject
    polygon clipped by a convex CCW polygon -> vertex list (empty when
    fewer than 3 remain, or when either input has fewer than 3)."""
    subject = [tuple(p) for p in np.asarray(subject, dtype=np.float64)] if len(subject) else []
    clip = np.asarray(clip, dtype=np.float64)
    if len(subject) < 3 or len(clip) < 3:
        return []
    output = subject
    for i in range(len(clip)):
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % len(clip)]
        ex, ey = bx - ax, by - ay
        inputs = output
        output = []
        if not inputs:
            break
        prev = inputs[-1]
        cp_prev = ex * (prev[1] - ay) - ey * (prev[0] - ax)
        for cur in inputs:
            cp_cur = ex * (cur[1] - ay) - ey * (cur[0] - ax)
            if (cp_cur >= 0.0) != (cp_prev >= 0.0):
                t = cp_prev / (cp_prev - cp_cur)
                output.append(
                    (prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1]))
                )
            if cp_cur >= 0.0:
                output.append(cur)
            prev, cp_prev = cur, cp_cur
    return [] if len(output) < 3 else [np.array(p) for p in output]


def iou_pairs_scalar(boxes_a, boxes_b):
    """(iou_3d [A, B], iou_bev [A, B]) of two lists of box rows with one
    scalar clip per pair; a zero-area footprint gives 0.0 with everything."""
    out_3d = np.zeros((len(boxes_a), len(boxes_b)))
    out_bev = np.zeros((len(boxes_a), len(boxes_b)))
    for i, a in enumerate(boxes_a):
        fa = bev_footprint_scalar(a)
        area_a = polygon_area_scalar(fa)
        if area_a <= 0.0:
            continue
        for j, b in enumerate(boxes_b):
            fb = bev_footprint_scalar(b)
            area_b = polygon_area_scalar(fb)
            if area_b <= 0.0:
                continue
            inter = max(polygon_area_scalar(convex_clip_scalar(fa, fb)), 0.0)
            union = area_a + area_b - inter
            out_bev[i, j] = inter / union if union > 0.0 else 0.0
            # y grows downward; a box occupies [y - h, y]
            top = max(a[1] - a[3], b[1] - b[3])
            bottom = min(a[1], b[1])
            inter_vol = inter * max(0.0, bottom - top)
            union = area_a * a[3] + area_b * b[3] - inter_vol
            out_3d[i, j] = inter_vol / union if union > 0.0 else 0.0
    return out_3d, out_bev


def decode_box3d_scalar(class_id, score, center, size, out3d, calib, row=0):
    """One 2D box and row `row` of its 3D head outputs, decoded alone in
    Python floats -> (class_id, score, (x, y, z, h, w, l, yaw), depth_sigma),
    or None when the projected depth is not positive. Depth is
    f_v * h3d / h2d + bias, with sigma sqrt((f_v * sigma_h / h2d)^2 + sigma_bias^2)."""
    from mono3d.heads import CLASS_PRIORS, NUM_ANGLE_BINS

    def wrap(a):
        return a - 2.0 * math.pi * math.ceil((a - math.pi) / (2.0 * math.pi))

    off = out3d.offset3d.data[row]
    u = float(center[0]) + float(off[0])
    v = float(center[1]) + float(off[1])
    dims = CLASS_PRIORS[class_id] + out3d.size_residuals.data[row, class_id]
    h3d, w3d, l3d = (float(x) for x in dims)
    h_sigma = float(np.exp(out3d.h_log_sigma.data[row]))
    bias_mu = float(out3d.bias_mu.data[row])
    bias_sigma = float(np.exp(out3d.bias_log_sigma.data[row]))
    scale = calib.f_v / float(size[1])
    z = h3d * scale + bias_mu
    s_h = h_sigma * scale
    depth_sigma = math.sqrt(s_h * s_h + bias_sigma * bias_sigma)
    if z <= 0.0:
        return None

    x = (u - calib.c_u) * z / calib.f_u
    y = (v - calib.c_v) * z / calib.f_v + h3d / 2.0
    b = int(np.argmax(out3d.angle_logits.data[row]))
    width = 2.0 * math.pi / NUM_ANGLE_BINS
    alpha = wrap(-math.pi + (b + 0.5) * width + float(out3d.angle_residuals.data[row, b]))
    yaw = wrap(alpha + math.atan2(x, z))
    score = float(score) * math.exp(-depth_sigma)
    return int(class_id), score, (x, y, z, h3d, w3d, l3d, yaw), depth_sigma


def convex_hull_qhull(points):
    """Counter-clockwise hull vertices [V, 2] from scipy's Qhull; empty
    [0, 2] where Qhull finds no 2-D hull (all points on one line)."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        return points[ConvexHull(points).vertices]
    except QhullError:
        return np.zeros((0, 2))

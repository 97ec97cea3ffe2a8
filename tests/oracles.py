"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive (plain loops, series expansions) and
shares no code with the package paths it checks.
"""

import gc
import math

import numpy as np


def live_graph_nodes(collect=True):
    """Autodiff graph nodes alive in the process, found by the garbage
    collector rather than by any counter of the engine. `collect=False`
    skips the collection, so only what reference counting freed is gone."""
    from mono3d.tensor import _Node

    if collect:
        gc.collect()
    return sum(isinstance(o, _Node) for o in gc.get_objects())


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


def raster_iou_pointwise(boxes_a, boxes_b, n_grid):
    """Footprint IoU per box pair by testing every lattice point.

    Boxes are (cx, cz, half_l, half_w, yaw) rows. The lattice holds the
    n_grid x n_grid cell centers of each pair's joint bounding rectangle;
    a point is inside a box when both of its local coordinates are within
    the half extents (edges count as inside).
    """

    def extent(box):
        cx, cz, hl, hw, yaw = box
        c, s = np.cos(yaw), np.sin(yaw)
        ex = abs(c) * hl + abs(s) * hw
        ez = abs(s) * hl + abs(c) * hw
        return cx - ex, cx + ex, cz - ez, cz + ez

    boxes_a = np.asarray(boxes_a, dtype=np.float64)
    boxes_b = np.asarray(boxes_b, dtype=np.float64)
    out = np.zeros(len(boxes_a))
    for p, (a, b) in enumerate(zip(boxes_a, boxes_b)):
        ax0, ax1, az0, az1 = extent(a)
        bx0, bx1, bz0, bz1 = extent(b)
        x0, x1 = min(ax0, bx0), max(ax1, bx1)
        z0, z1 = min(az0, bz0), max(az1, bz1)
        px = (x0 + (np.arange(n_grid) + 0.5) * (x1 - x0) / n_grid)[None, :]
        pz = (z0 + (np.arange(n_grid) + 0.5) * (z1 - z0) / n_grid)[:, None]

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

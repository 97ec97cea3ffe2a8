"""3D box geometry: corners, rotated footprint IoU, 3D IoU.

A box is a row (x, y, z, h, w, l, yaw): the location, the dimensions
and rotation_y of a KITTI label. Every function takes an array of rows
[N, 7]; `iou_bev` and `iou_3d` take two 7-vectors. Boxes follow the
KITTI camera-frame convention: y points down, the location is the
bottom-face center, yaw rotates around the camera Y axis. The footprint
(bird's-eye view) lives in the (x, z) ground plane; its rotated-rectangle
intersection is computed exactly by convex polygon clipping. Footprints,
areas and clips are batched: `pair_iou` takes two row arrays and the
index arrays of the pairs to compare, computes each footprint once per
box and clips all the pairs as arrays, with every value bit-equal to the
scalar Sutherland-Hodgman clip and `np.sum` area of one pair. Pairs
whose footprints' axis-aligned extents are apart are never clipped:
their IoU is 0.0. `iou_bev` and `iou_3d` are its one-pair case.
"""

import numpy as np

from .errors import DegenerateGeometryError

# corner layout: bottom face first (y=0 plane), then top (y=-h);
# x spans the length, z spans the width
_X_SIGNS = np.array([1, 1, -1, -1, 1, 1, -1, -1], dtype=np.float64)
_Y_LEVELS = np.array([0, 0, 0, 0, -1, -1, -1, -1], dtype=np.float64)
_Z_SIGNS = np.array([1, -1, -1, 1, 1, -1, -1, 1], dtype=np.float64)
# footprint corner signs along the length and the width
_FOOT_X = np.array([1.0, -1.0, -1.0, 1.0])
_FOOT_Z = np.array([1.0, 1.0, -1.0, -1.0])
# pairs per convex_clip call: bounds the working arrays, so memory does
# not grow with the number of pairs of a split
_CLIP_BLOCK = 256
# footprints whose axis-aligned extents are apart by more than this,
# times the larger of 1 and the largest coordinate magnitude of the
# pair, have an empty clip: the clip's rounding is ~1e-15 of that scale
_APART_MARGIN = 1e-9


def box3d_corners(rows):
    """Corners [N, 8, 3] of box rows [N, 7]; per box, rows 0-3 are the
    bottom face and 4-7 the top face."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 7)
    bad = np.flatnonzero((rows[:, 3:6] <= 0.0).any(axis=1))
    if len(bad):
        raise DegenerateGeometryError(f"non-positive dimensions {tuple(rows[bad[0], 3:6].tolist())}")
    c, s = np.cos(rows[:, 6:7]), np.sin(rows[:, 6:7])
    lx = _X_SIGNS * (rows[:, 5:6] / 2.0)
    ly = _Y_LEVELS * rows[:, 3:4]
    lz = _Z_SIGNS * (rows[:, 4:5] / 2.0)
    x = c * lx + s * lz
    z = -s * lx + c * lz
    return np.stack([x, ly, z], axis=2) + rows[:, None, 0:3]


def bev_footprints(rows):
    """Counter-clockwise footprint rectangles [N, 4, 2] in the (x, z) plane."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 7)
    c, s = np.cos(rows[:, 6:7]), np.sin(rows[:, 6:7])
    lx = (rows[:, 5:6] / 2.0) * _FOOT_X
    lz = (rows[:, 4:5] / 2.0) * _FOOT_Z
    x = c * lx + s * lz + rows[:, 0:1]
    z = -s * lx + c * lz + rows[:, 2:3]
    return np.stack([x, z], axis=2)


def _sum_like_numpy(terms, counts):
    """Row sums of terms [P, W] (0.0 past each row's count), each added in
    the order np.sum adds a 1-D float64 array of counts[p] terms.

    Under 8 terms numpy adds left to right from 0.0. From 8 terms on it
    keeps eight running sums over the whole blocks of 8, joins them as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), adds that to 0.0 and then the
    tail left to right. This holds up to 128 terms, numpy's pairwise block.
    """
    width = terms.shape[1]
    seq = np.zeros(len(terms))
    for k in range(width):
        seq = seq + terms[:, k]
    if width < 8:
        return seq
    whole = (counts - counts % 8)[:, None]
    r = terms[:, :8]
    for i in range(8, width - 7, 8):
        r = r + np.where(i + 8 <= whole, terms[:, i : i + 8], 0.0)
    tree = ((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])) + ((r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7]))
    res = 0.0 + tree
    for k in range(8, width):
        res = res + np.where(k >= whole[:, 0], terms[:, k], 0.0)
    return np.where(counts >= 8, res, seq)


def polygon_area(polys, counts):
    """Shoelace areas [P] of polygons polys[p, :counts[p]] (positive for
    counter-clockwise order); fewer than 3 vertices give 0.0.

    Each area is bit-equal to 0.5 * np.sum of that polygon's terms.
    """
    polys = np.asarray(polys, dtype=np.float64)
    counts = np.asarray(counts)
    col = np.arange(polys.shape[1])
    nxt = polys[np.arange(len(polys))[:, None], np.where(col + 1 < counts[:, None], col + 1, 0)]
    x, y = polys[..., 0], polys[..., 1]
    terms = np.where(col < counts[:, None], x * nxt[..., 1] - nxt[..., 0] * y, 0.0)
    return np.where(counts >= 3, 0.5 * _sum_like_numpy(terms, counts), 0.0)


def convex_clip(subjects, clips):
    """Sutherland-Hodgman, batched: subjects[p] clipped by the convex
    counter-clockwise polygon clips[p].

    subjects [P, m, 2], clips [P, k, 2] -> (vertices [P, W, 2], counts [P]).
    Row p's intersection is vertices[p, :counts[p]], in the order the
    scalar algorithm emits it, with zeros past the count. Results with
    fewer than 3 vertices, and inputs with m < 3 or k < 3, have count 0.
    W is the largest count: at most m + k in exact arithmetic, more where
    rounding puts vertices on both sides of an edge (a box clipped by its
    half-turn twin gives 9).
    """
    poly = np.asarray(subjects, dtype=np.float64)
    clips = np.asarray(clips, dtype=np.float64)
    n_pairs, m = poly.shape[:2]
    k = clips.shape[1]
    if m < 3 or k < 3:
        return np.zeros((n_pairs, 0, 2)), np.zeros(n_pairs, dtype=np.intp)
    counts = np.full(n_pairs, m, dtype=np.intp)
    rows = np.arange(n_pairs)[:, None]
    edges = clips[:, np.r_[1:k, 0]] - clips
    for i in range(k):
        ax, ay = clips[:, i, 0:1], clips[:, i, 1:2]
        ex, ey = edges[:, i, 0:1], edges[:, i, 1:2]
        width = poly.shape[1]
        col = np.arange(width)
        valid = col < counts[:, None]
        # cross(edge, p - a) >= 0 means p lies left of (inside) a CCW edge
        cp = ex * (poly[..., 1] - ay) - ey * (poly[..., 0] - ax)
        prev_idx = np.where(col == 0, counts[:, None] - 1, col - 1)
        cp_prev, prev = cp[rows, prev_idx], poly[rows, prev_idx]
        inside = cp >= 0.0
        # each vertex emits its crossing, then itself: two slots per vertex
        slots = np.empty((n_pairs, width, 2, 2))
        keep = np.empty((n_pairs, width, 2), dtype=bool)
        keep[..., 0] = valid & (inside != (cp_prev >= 0.0))
        keep[..., 1] = valid & inside
        # t is 0.0 in the dropped slots, which keeps them finite
        t = np.where(keep[..., 0], cp_prev, 0.0) / np.where(keep[..., 0], cp_prev - cp, 1.0)
        slots[:, :, 0] = prev + t[..., None] * (poly - prev)
        slots[:, :, 1] = poly
        keep = keep.reshape(n_pairs, 2 * width)
        counts = keep.sum(axis=1)
        # a stable compaction of the kept slots is the scalar output list
        order = np.argsort(~keep, axis=1, kind="stable")[:, : counts.max(initial=0)]
        poly = slots.reshape(n_pairs, 2 * width, 2)[rows, order]
    counts[counts < 3] = 0
    poly[np.arange(poly.shape[1]) >= counts[:, None]] = 0.0
    return poly, counts


def _box_arrays(rows):
    """Footprints [N, 4, 2], footprint areas [N], bottom y [N], height [N],
    footprint extents lo [N, 2] and hi [N, 2] in (x, z), and the largest
    coordinate magnitude [N] of each footprint."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 7)
    feet = bev_footprints(rows)
    area = polygon_area(feet, np.full(len(feet), 4))
    reach = np.abs(feet).max(axis=(1, 2), initial=1.0)
    return feet, area, rows[:, 1], rows[:, 3], feet.min(axis=1), feet.max(axis=1), reach


def _ratio(num, den):
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def pair_iou(rows_a, rows_b, ia, ib):
    """IoU of the box pairs (rows_a[ia[p]], rows_b[ib[p]]) of two row
    arrays [A, 7] and [B, 7] -> (iou_3d [P], iou_bev [P]).

    Footprints and their areas are computed once per box, and the exact
    footprint intersections clipped in blocks of _CLIP_BLOCK pairs; the
    BEV IoU and the volumetric IoU (footprint intersection x vertical
    overlap) are both derived from one intersection. A box with a
    zero-area footprint has IoU 0.0 with everything, and so has a pair
    whose footprints' axis-aligned extents are apart, in x or z, by more
    than _APART_MARGIN times the larger of 1 and the pair's largest
    coordinate magnitude; neither kind of pair is clipped. Every value
    is bit-equal to the scalar clip-and-sum of one pair.
    """
    feet_a, area_a, y_a, h_a, lo_a, hi_a, reach_a = _box_arrays(rows_a)
    feet_b, area_b, y_b, h_b, lo_b, hi_b, reach_b = _box_arrays(rows_b)
    ia = np.asarray(ia, dtype=np.intp)
    ib = np.asarray(ib, dtype=np.intp)
    margin = (_APART_MARGIN * np.maximum(reach_a[ia], reach_b[ib]))[:, None]
    apart = ((lo_b[ib] - hi_a[ia] > margin) | (lo_a[ia] - hi_b[ib] > margin)).any(axis=1)
    live = ~((area_a[ia] <= 0.0) | (area_b[ib] <= 0.0) | apart)
    ia, ib = ia[live], ib[live]
    inter = np.empty(len(ia))
    for start in range(0, len(ia), _CLIP_BLOCK):
        block = slice(start, start + _CLIP_BLOCK)
        inter[block] = polygon_area(*convex_clip(feet_a[ia[block]], feet_b[ib[block]]))
    # max/min as Python's max(a, b)/min(a, b) decide them (b only where
    # b > a, b < a), not np.maximum/np.minimum, so NaN and signed zeros
    # come out as in the one-pair formula; a negative area counts as 0.0
    inter = np.where(0.0 > inter, 0.0, inter)
    # y grows downward; a box occupies [y - h, y]
    top_a, top_b = y_a[ia] - h_a[ia], y_b[ib] - h_b[ib]
    top = np.where(top_b > top_a, top_b, top_a)
    bottom = np.where(y_b[ib] < y_a[ia], y_b[ib], y_a[ia])
    depth = bottom - top
    inter_vol = inter * np.where(depth > 0.0, depth, 0.0)
    out_3d, out_bev = np.zeros(len(live)), np.zeros(len(live))
    out_bev[live] = _ratio(inter, area_a[ia] + area_b[ib] - inter)
    union = area_a[ia] * h_a[ia] + area_b[ib] * h_b[ib] - inter_vol
    out_3d[live] = _ratio(inter_vol, union)
    return out_3d, out_bev


def iou_bev(row_a, row_b):
    """Exact rotated-footprint IoU of two 7-vectors via polygon clipping."""
    return float(pair_iou(row_a, row_b, [0], [0])[1][0])


def iou_3d(row_a, row_b):
    """Volumetric IoU of two 7-vectors: footprint intersection x vertical overlap."""
    return float(pair_iou(row_a, row_b, [0], [0])[0][0])


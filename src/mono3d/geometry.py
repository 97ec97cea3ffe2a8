"""3D box geometry: corners, rotated footprint IoU, 3D IoU.

Boxes follow the KITTI camera-frame convention: y points down, the
location is the bottom-face center, yaw rotates around the camera Y
axis. The footprint (bird's-eye view) lives in the (x, z) ground plane;
its rotated-rectangle intersection is computed exactly by convex polygon
clipping, with an independent rasterization estimate available as a
cross-check. `iou_pairs` computes the BEV and 3D IoU tables of two box
lists from one intersection per pair; `iou_bev` and `iou_3d` are its
1x1 case.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DegenerateGeometryError

# corner layout: bottom face first (y=0 plane), then top (y=-h);
# x spans the length, z spans the width
_X_SIGNS = np.array([1, 1, -1, -1, 1, 1, -1, -1], dtype=np.float64)
_Y_LEVELS = np.array([0, 0, 0, 0, -1, -1, -1, -1], dtype=np.float64)
_Z_SIGNS = np.array([1, -1, -1, 1, 1, -1, -1, 1], dtype=np.float64)


@dataclass
class Box3D:
    location: tuple  # (x, y, z) meters, y at bottom-face center
    dimensions: tuple  # (h, w, l) meters
    yaw: float  # radians in (-pi, pi]
    class_id: int = 0
    score: float = None


def box3d_corners(box):
    """8 corners [8, 3]; rows 0-3 bottom face, 4-7 top face."""
    h, w, l = box.dimensions
    if h <= 0 or w <= 0 or l <= 0:
        raise DegenerateGeometryError(f"non-positive dimensions {box.dimensions}")
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    lx = _X_SIGNS * (l / 2.0)
    ly = _Y_LEVELS * h
    lz = _Z_SIGNS * (w / 2.0)
    x = c * lx + s * lz
    z = -s * lx + c * lz
    loc = np.asarray(box.location, dtype=np.float64)
    return np.stack([x, ly, z], axis=1) + loc


def bev_footprint(box):
    """Counter-clockwise footprint rectangle [4, 2] in the (x, z) plane."""
    h, w, l = box.dimensions
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    lx = np.array([l / 2.0, -l / 2.0, -l / 2.0, l / 2.0])
    lz = np.array([w / 2.0, w / 2.0, -w / 2.0, -w / 2.0])
    x = c * lx + s * lz + box.location[0]
    z = -s * lx + c * lz + box.location[2]
    return np.stack([x, z], axis=1)


def polygon_area(poly):
    """Shoelace area; positive for counter-clockwise vertex order."""
    poly = np.asarray(poly, dtype=np.float64)
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.concatenate((x[1:], x[:1])), np.concatenate((y[1:], y[:1]))
    return 0.5 * float(np.sum(x * yn - xn * y))


def convex_clip(subject, clip):
    """Sutherland-Hodgman: subject polygon clipped by a convex CCW polygon.

    Returns the intersection vertex list (possibly empty). Inputs with
    fewer than 3 vertices yield an empty result.
    """
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
        # cross(edge, p - a) >= 0 means p lies left of (inside) a CCW edge
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


def _vertical_overlap(box_a, box_b):
    # y grows downward; a box occupies [y - h, y]
    top = max(box_a.location[1] - box_a.dimensions[0], box_b.location[1] - box_b.dimensions[0])
    bottom = min(box_a.location[1], box_b.location[1])
    return max(0.0, bottom - top)


def iou_pairs(boxes_a, boxes_b):
    """IoU of every pair of two box lists -> (iou_3d [A, B], iou_bev [A, B]).

    Each footprint and its area are computed once per box, and the exact
    footprint intersection (polygon clipping) once per pair; the BEV IoU
    and the volumetric IoU (footprint intersection x vertical overlap)
    are both derived from it. A box with a zero-area footprint has IoU
    0.0 with everything.
    """
    feet_a = [bev_footprint(b) for b in boxes_a]
    feet_b = [bev_footprint(b) for b in boxes_b]
    areas_a = [polygon_area(f) for f in feet_a]
    areas_b = [polygon_area(f) for f in feet_b]
    out_3d = np.zeros((len(boxes_a), len(boxes_b)))
    out_bev = np.zeros((len(boxes_a), len(boxes_b)))
    for i, (box_a, fa, area_a) in enumerate(zip(boxes_a, feet_a, areas_a)):
        if area_a <= 0.0:
            continue
        for j, (box_b, fb, area_b) in enumerate(zip(boxes_b, feet_b, areas_b)):
            if area_b <= 0.0:
                continue
            inter = max(polygon_area(convex_clip(fa, fb)), 0.0)
            union = area_a + area_b - inter
            out_bev[i, j] = inter / union if union > 0.0 else 0.0
            inter_vol = inter * _vertical_overlap(box_a, box_b)
            union = area_a * box_a.dimensions[0] + area_b * box_b.dimensions[0] - inter_vol
            out_3d[i, j] = inter_vol / union if union > 0.0 else 0.0
    return out_3d, out_bev


def iou_bev(box_a, box_b):
    """Exact rotated-footprint IoU via polygon clipping."""
    return float(iou_pairs([box_a], [box_b])[1][0, 0])


def iou_3d(box_a, box_b):
    """Volumetric IoU: footprint intersection x vertical overlap."""
    return float(iou_pairs([box_a], [box_b])[0][0, 0])


def _footprint_rows(boxes):
    rows = np.empty((len(boxes), 5), dtype=np.float64)
    for i, b in enumerate(boxes):
        h, w, l = b.dimensions
        rows[i] = (b.location[0], b.location[2], l / 2.0, w / 2.0, b.yaw)
    return rows


def raster_iou_reference(boxes_a, boxes_b, n_grid=2000):
    """Grid-sampling estimate of footprint IoU, paired over two box lists.

    Completely independent of the clipping path: the points of an
    n_grid x n_grid lattice over each pair's joint bounding rectangle that
    lie inside each rotated rectangle, and inside both, are counted per
    lattice row as one interval of columns, not tested one by one.
    """
    return kernels.raster_iou(_footprint_rows(boxes_a), _footprint_rows(boxes_b), n_grid)

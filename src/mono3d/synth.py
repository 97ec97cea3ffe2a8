"""Deterministic synthetic scenes: flat-shaded cuboids over noise.

Each object is a class-plausible 3D box in front of the camera whose
projected silhouette (convex hull of the eight projected corners) is
filled with a flat random color, far-to-near so nearer objects occlude.
Labels carry the exact sampled geometry; truncation is the clipped-away
fraction of the projected envelope and occlusion is bucketed from the
silhouette coverage by nearer objects.
"""

import math

import numpy as np

from .errors import UsageError
from .geometry import box3d_corners
from .heads import CLASS_NAMES, CLASS_PRIORS, OUTPUT_STRIDE, wrap_angle
from .kitti import CameraCalib, LabelRecord, compute_alpha
from .tensor import Tensor

# silhouette coverage fraction -> KITTI occlusion level
_OCCLUSION_EDGES = (0.15, 0.5, 0.8)


def make_default_calib(image_size, focal=700.0):
    """Pinhole calib centered on the image with a zero translation column."""
    width, height = image_size
    if width < 2 or height < 2 or focal <= 0:
        raise UsageError("image_size must be >= 2x2 with positive focal")
    p2 = np.array(
        [
            [focal, 0.0, width / 2.0, 0.0],
            [0.0, focal, height / 2.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    return CameraCalib(p2)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points):
    """Vertices of the convex hull of points [P, 2], counter-clockwise
    (x right, y up), collinear points left out: Andrew's monotone chain,
    in exact float comparisons (Qhull also merges a vertex that lies on
    an edge to rounding; the polygon is the same).

    Degenerate input (all points on one line) gives fewer than 3 vertices.
    """
    pts = sorted(map(tuple, np.asarray(points, dtype=np.float64).tolist()))
    chains = []
    for seq in (pts, pts[::-1]):  # lower hull, then upper
        chain = []
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0.0:
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    return np.array(chains[0] + chains[1]).reshape(-1, 2)


def _silhouette(pix, image_size):
    """(region slices, inside mask) for the hull of projected corners."""
    width, height = image_size
    verts = convex_hull(pix)
    if len(verts) < 3:
        lo = pix.min(axis=0)
        hi = pix.max(axis=0)
        verts = np.array([[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]])
    xmin = max(int(math.floor(verts[:, 0].min())), 0)
    xmax = min(int(math.ceil(verts[:, 0].max())), width - 1)
    ymin = max(int(math.floor(verts[:, 1].min())), 0)
    ymax = min(int(math.ceil(verts[:, 1].max())), height - 1)
    if xmin > xmax or ymin > ymax:
        return None, None
    px = np.arange(xmin, xmax + 1) + 0.5
    py = np.arange(ymin, ymax + 1) + 0.5
    inside = np.ones((len(py), len(px)), dtype=bool)
    for k in range(len(verts)):
        ax, ay = verts[k]
        bx, by = verts[(k + 1) % len(verts)]
        cross = (bx - ax) * (py[:, None] - ay) - (by - ay) * (px[None, :] - ax)
        inside &= cross >= 0.0
    return (slice(ymin, ymax + 1), slice(xmin, xmax + 1)), inside


def _occlusion_level(covered_fraction):
    for level, edge in enumerate(_OCCLUSION_EDGES):
        if covered_fraction < edge:
            return level
    return 3


def synth_scene(rng_seed, n_objects, calib, image_size, z_range=(5.0, 60.0)):
    """-> (image Tensor [3, H, W] in [0, 1], exact LabelRecord list).

    Fully deterministic per seed. Object centers land on distinct
    stride-4 cells (resampled on collision) so every label survives
    target assignment.
    """
    if n_objects < 0:
        raise UsageError("n_objects must be >= 0")
    if z_range[0] <= 0 or z_range[1] < z_range[0]:
        raise UsageError("z_range must be positive and ordered")
    width, height = image_size
    rng = np.random.default_rng(rng_seed)
    image = rng.uniform(0.0, 0.25, size=(3, height, width))

    objects = []
    taken_cells = set()
    for _ in range(n_objects):
        chosen = None
        for _attempt in range(100):
            cls = int(rng.integers(0, len(CLASS_NAMES)))
            dims = tuple(p * rng.uniform(0.85, 1.15) for p in CLASS_PRIORS[cls])
            z = rng.uniform(z_range[0], z_range[1])
            u = rng.uniform(0.12 * width, 0.88 * width)
            x = (u - calib.c_u) * z / calib.f_u
            y = rng.uniform(1.3, 1.8)
            yaw = wrap_angle(rng.uniform(-math.pi, math.pi))
            row = np.array([x, y, z, *dims, yaw])
            pix, _ = calib.project(box3d_corners(row))
            left = min(max(float(pix[:, 0].min()), 0.0), float(width))
            right = min(max(float(pix[:, 0].max()), 0.0), float(width))
            top = min(max(float(pix[:, 1].min()), 0.0), float(height))
            bottom = min(max(float(pix[:, 1].max()), 0.0), float(height))
            if right - left < 2.0 or bottom - top < 2.0:
                continue
            cell = (
                int((left + right) / 2.0 // OUTPUT_STRIDE),
                int((top + bottom) / 2.0 // OUTPUT_STRIDE),
            )
            if cell in taken_cells:
                continue
            chosen = (row, cls, pix, (left, top, right, bottom), cell)
            break
        if chosen is None:
            continue
        row, cls, pix, bbox, cell = chosen
        taken_cells.add(cell)
        full_w = float(pix[:, 0].max() - pix[:, 0].min())
        full_h = float(pix[:, 1].max() - pix[:, 1].min())
        visible = (bbox[2] - bbox[0]) * (bbox[3] - bbox[1])
        truncated = min(max(1.0 - visible / (full_w * full_h), 0.0), 1.0)
        color = rng.uniform(0.35, 0.95, size=3)
        objects.append({"row": row, "cls": cls, "pix": pix, "bbox": bbox, "trunc": truncated, "color": color})

    owner = np.full((height, width), -1, dtype=np.int64)
    own_total = [0] * len(objects)
    order = sorted(range(len(objects)), key=lambda i: -objects[i]["row"][2])
    for i in order:
        region, inside = _silhouette(objects[i]["pix"], image_size)
        if region is None:
            continue
        own_total[i] = int(inside.sum())
        image[:, region[0], region[1]][:, inside] = objects[i]["color"][:, None]
        patch = owner[region[0], region[1]]
        patch[inside] = i

    labels = []
    for i, obj in enumerate(objects):
        remaining = int(np.count_nonzero(owner == i))
        covered = 1.0 - remaining / own_total[i] if own_total[i] > 0 else 0.0
        x, y, z, h, w, l, yaw = obj["row"].tolist()
        labels.append(
            LabelRecord(
                type=CLASS_NAMES[obj["cls"]],
                truncated=obj["trunc"],
                occluded=_occlusion_level(covered),
                alpha=compute_alpha(yaw, x, z),
                bbox=obj["bbox"],
                dimensions=(h, w, l),
                location=(x, y, z),
                rotation_y=yaw,
            )
        )
    return Tensor(image), labels


def to_uint8(image):
    """[3, H, W] float tensor in [0, 1] -> H x W x 3 uint8 array."""
    data = image.data if isinstance(image, Tensor) else np.asarray(image)
    return np.round(np.clip(data, 0.0, 1.0) * 255.0).astype(np.uint8).transpose(1, 2, 0)

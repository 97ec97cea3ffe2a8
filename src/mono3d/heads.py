"""Detection heads on the stride-4 neck map.

Features are the neck's channels-last map [N, h, w, C]. 2D side: a
dense per-class center heatmap, peak decoding with 3x3
suppression, and the sub-cell center offset and box size heads, which
run only at the cells that are read: object centres in training, peaks
in inference. 3D side: RoI-
cropped features feed a shared conv trunk and small linear heads for the
projected-center offset, multi-bin heading, per-class size residuals
with height uncertainty, and a depth bias. Depth itself is not regressed
directly: it is projected from the estimated 3D height through the
camera geometry, with uncertainty propagated from the height and bias.

Both sparse reads of the map are tables for the one op T.taps: 3x3
cells of one tap (cell_patches) and RoIAlign samples of four bilinear
corners (roi_crop).
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .errors import DegenerateGeometryError, DimensionError, UsageError
from .nn import Conv2d, Linear, Module
from .tensor import Tensor

CLASS_NAMES = ("Car", "Pedestrian", "Cyclist")
# mean (h, w, l) per class in meters; standard KITTI training-split means
CLASS_PRIORS = np.array(
    [
        [1.52, 1.63, 3.88],
        [1.76, 0.66, 0.84],
        [1.73, 0.58, 1.77],
    ]
)
NUM_ANGLE_BINS = 12
OUTPUT_STRIDE = 4
ROI_SIZE = 7
HEATMAP_BIAS_INIT = -2.19  # sigmoid(-2.19) ~ 0.1, the usual focal-loss prior
MIN_H2D_PIXELS = 1.0
HEAD_WIDTH = 64  # hidden channels of every head


def wrap_angle(a):
    """Wrap to the half-open interval (-pi, pi]; elementwise on arrays."""
    return a - 2.0 * math.pi * np.ceil((a - math.pi) / (2.0 * math.pi))


def encode_angle(alpha):
    """Observation angle -> (bin index, residual); exact round trip."""
    a = wrap_angle(alpha)
    width = 2.0 * math.pi / NUM_ANGLE_BINS
    b = min(int((a + math.pi) // width), NUM_ANGLE_BINS - 1)
    center = -math.pi + (b + 0.5) * width
    return b, a - center


def decode_angle(bin_idx, residual):
    width = 2.0 * math.pi / NUM_ANGLE_BINS
    return wrap_angle(-math.pi + (bin_idx + 0.5) * width + residual)


class _Rows:
    """Dataclass of K objects as parallel arrays; x[rows] selects rows by index or mask."""

    def __len__(self):
        return len(self.class_id)

    def __getitem__(self, rows):
        return type(self)(*(getattr(self, f.name)[rows] for f in fields(self)))


@dataclass
class Boxes2D(_Rows):
    """K 2D boxes."""

    class_id: np.ndarray  # [K] int
    score: np.ndarray  # [K]
    center: np.ndarray  # [K, 2] (u, v) input-image pixels
    size: np.ndarray  # [K, 2] (w_2d, h_2d) input-image pixels


@dataclass
class Peaks(_Rows):
    """K heatmap peaks."""

    class_id: np.ndarray  # [K] int
    score: np.ndarray  # [K]
    row: np.ndarray  # [K] int, output-map cell
    col: np.ndarray  # [K] int

    def boxes(self, offset, size):
        """Boxes2D of these peaks from their sub-cell offsets [K, 2]
        (output-map pixels) and sizes [K, 2] (input pixels), read as
        float64: center (u, v) = (col, row) + offset, times the stride."""
        offset, size = (np.asarray(a, dtype=np.float64) for a in (offset, size))
        u = (self.col + offset[:, 0]) * OUTPUT_STRIDE
        v = (self.row + offset[:, 1]) * OUTPUT_STRIDE
        return Boxes2D(self.class_id, self.score, np.stack([u, v], axis=1), size)


@dataclass
class Heads3DOutput:
    offset3d: Tensor  # [M, 2] pixels
    angle_logits: Tensor  # [M, B]
    angle_residuals: Tensor  # [M, B] radians
    size_residuals: Tensor  # [M, C_cls, 3] meters, added to CLASS_PRIORS
    h_log_sigma: Tensor  # [M] log-sigma for the decoded 3D height
    bias_mu: Tensor  # [M] depth bias, meters
    bias_log_sigma: Tensor  # [M]

    __getitem__ = _Rows.__getitem__  # out[rows]: the outputs of those RoIs


@dataclass
class Detections3D(_Rows):
    """K 3D detections; location, dimensions and yaw are views of rows."""

    class_id: np.ndarray  # [K] int
    score: np.ndarray  # [K]
    rows: np.ndarray  # [K, 7] (x, y, z, h, w, l, yaw): camera-frame meters, y at bottom-center
    depth_sigma: np.ndarray  # [K] meters

    @classmethod
    def empty(cls):
        return cls(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros((0, 7)), np.zeros(0))

    location = property(lambda self: self.rows[..., 0:3])
    dimensions = property(lambda self: self.rows[..., 3:6])
    yaw = property(lambda self: self.rows[..., 6])  # r_y, radians in (-pi, pi]


class DenseHead(Module):
    """3x3 conv + ReLU + 1x1 conv."""

    def __init__(self, in_ch, out_ch, rng, bias_init=0.0):
        self.conv1 = Conv2d(in_ch, HEAD_WIDTH, 3, rng, padding=1)
        self.conv2 = Conv2d(HEAD_WIDTH, out_ch, 1, rng)
        self.conv2.bias.data[:] = bias_init

    def __call__(self, x):
        return self.conv2(T.relu(self.conv1(x)))

    def at(self, patches):
        """The head at M cells from their 3x3 patches [M, 9*C]
        (cell_patches) -> [M, out_ch]: the same parameters as linear layers."""

        def columns(conv):  # weight [O, C, k, k] -> [k*k*C, O], (tap, channel) rows
            return T.reshape(T.transpose(conv.weight, (2, 3, 1, 0)), (-1, conv.weight.shape[0]))

        h = T.relu(T.linear(patches, columns(self.conv1), self.conv1.bias))
        return T.linear(h, columns(self.conv2), self.conv2.bias)


class Heads2D(Module):
    def __init__(self, in_ch, rng):
        self.heat = DenseHead(in_ch, len(CLASS_NAMES), rng, bias_init=HEATMAP_BIAS_INIT)
        self.offset = DenseHead(in_ch, 2, rng)
        self.size = DenseHead(in_ch, 2, rng)

    def __call__(self, feat):
        """[N, h, w, C] -> post-sigmoid class heatmap [N, C_cls, h, w], the
        layout of the targets and of peak decoding."""
        return T.transpose(T.sigmoid(self.heat(feat)), (0, 3, 1, 2))

    def at(self, feat, image, row, col):
        """Sub-cell offsets (output-map pixels) and sizes (input pixels,
        (w, h)), each [M, 2], at the cells (image[m], row[m], col[m]) of
        feat; both heads run on one gather of the cells' 3x3 patches."""
        patches = cell_patches(feat, image, row, col)
        return self.offset.at(patches), self.size.at(patches)


def cell_patches(feat, image, row, col):
    """Zero-padded 3x3 neighbourhoods of feat [N, h, w, C] at the M cells
    (image[m], row[m], col[m]) -> [M, 9*C].

    Column (i*3 + j)*C + c holds feat[image, row + i - 1, col + j - 1, c],
    zero off the map: the (tap, channel) order of a 3x3 conv's patch
    matrix (kernels.im2col), so DenseHead.at is a padding-1 conv read at
    those cells only. A tap off the map has weight 0. Cells may repeat;
    the gradient scatter-adds into the owning image only.
    """
    image, row, col = (np.asarray(a, dtype=np.int64) for a in (image, row, col))
    if image.ndim != 1 or not (image.shape == row.shape == col.shape):
        raise DimensionError(f"expected equal [M] index arrays, got {image.shape}, {row.shape}, {col.shape}")
    h, w = feat.shape[1:3]
    if np.any((row < 0) | (row >= h) | (col < 0) | (col >= w)):
        raise UsageError(f"cells outside the {h}x{w} map")
    di, dj = np.divmod(np.arange(9), 3)
    ys, xs = row[:, None] + di - 1, col[:, None] + dj - 1  # [M, 9]
    on = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
    ys, xs = np.clip(ys, 0, h - 1)[..., None], np.clip(xs, 0, w - 1)[..., None]
    patches = T.taps(feat, image, ys, xs, on[..., None].astype(feat.dtype))  # [M, 9, C]
    return T.reshape(patches, (len(image), 9 * feat.shape[3]))


def suppress_non_peaks(hm):
    """Zero cells that are not 3x3-neighborhood maxima (ties kept)."""
    pad = np.pad(hm, [(0, 0)] * (hm.ndim - 2) + [(1, 1), (1, 1)], constant_values=-np.inf)
    windows = np.stack(
        [
            pad[..., di : di + hm.shape[-2], dj : dj + hm.shape[-1]]
            for di in range(3)
            for dj in range(3)
        ]
    )
    keep = hm >= windows.max(axis=0)
    return np.where(keep, hm, 0.0)


def decode_heatmap_peaks(hm, k=50, threshold=0.0):
    """Peaks of a single-image heatmap array [C, h, w] -> Peaks.

    Survivors of 3x3 suppression above threshold, top-k by score with ties
    broken by flat (class, row, col) index. The heatmap is read as
    float64, whatever the network's dtype; Peaks.boxes adds the offsets
    and sizes read at the peaks.
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    if not (0.0 <= threshold < 1.0):
        raise UsageError("threshold must lie in [0, 1)")
    if hm.ndim != 3:
        raise DimensionError(f"expected [C, h, w] heatmap, got shape {hm.shape}")
    flat = suppress_non_peaks(np.asarray(hm, dtype=np.float64)).reshape(-1)
    order = np.argsort(-flat, kind="stable")[:k]
    order = order[flat[order] > threshold]  # a prefix: scores descend
    cls, row, col = np.unravel_index(order, hm.shape)
    return Peaks(cls, flat[order], row, col)


def roi_crop(feat, boxes, image_index, out_size=(ROI_SIZE, ROI_SIZE)):
    """RoI-aligned bilinear crops of Boxes2D rows from the stride-4 map.

    Box m (input pixels) comes from image image_index[m] and maps to
    feature coords at 1/stride, clipped to the map: pixel edges, so the
    whole map is (0, 0, w, h). An ry x rx grid of half-pixel sample centers
    spans it, y = y1 + (i + 0.5) * (y2 - y1) / ry - 0.5 in index space,
    clamped at the border, each read as its 4 bilinear corners through
    T.taps. Returns (rois [V, ry, rx, C], valid [M] bool): a box with no
    area inside the map is invalid and gets no RoI, so rois holds the
    valid boxes in order. Differentiable w.r.t. feat, and each RoI's
    gradient flows only into its own image.
    """
    if feat.ndim != 4:
        raise DimensionError(f"expected [N, h, w, C] features, got {feat.shape}")
    image_index = np.asarray(image_index, dtype=np.int64)
    if image_index.shape != (len(boxes),):
        raise DimensionError(f"{len(boxes)} boxes but image_index of shape {image_index.shape}")
    h, w = feat.shape[1:3]
    u, v = boxes.center[:, 0], boxes.center[:, 1]
    bw, bh = boxes.size[:, 0], boxes.size[:, 1]
    x1 = np.maximum((u - bw / 2.0) / OUTPUT_STRIDE, 0.0)
    x2 = np.minimum((u + bw / 2.0) / OUTPUT_STRIDE, float(w))
    y1 = np.maximum((v - bh / 2.0) / OUTPUT_STRIDE, 0.0)
    y2 = np.minimum((v + bh / 2.0) / OUTPUT_STRIDE, float(h))
    valid = (x2 - x1 > 0.0) & (y2 - y1 > 0.0)
    x1, y1, x2, y2 = (a[valid, None] for a in (x1, y1, x2, y2))
    ry, rx = out_size
    iy0, iy1, fy = T._bilinear_axis(y1 + (np.arange(ry) + 0.5) * (y2 - y1) / ry - 0.5, h)
    ix0, ix1, fx = T._bilinear_axis(x1 + (np.arange(rx) + 0.5) * (x2 - x1) / rx - 0.5, w)
    fy, fx = fy.astype(feat.dtype, copy=False), fx.astype(feat.dtype, copy=False)
    # sample (i, j) is 4 taps, its corners 00, 01, 10, 11 in that order
    rows = np.stack([iy0, iy0, iy1, iy1], axis=-1)[:, :, None]  # [V, ry, 1, 4]
    cols = np.stack([ix0, ix1, ix0, ix1], axis=-1)[:, None]  # [V, 1, rx, 4]
    wy = np.stack([1.0 - fy, 1.0 - fy, fy, fy], axis=-1)[:, :, None]
    wx = np.stack([1.0 - fx, fx, 1.0 - fx, fx], axis=-1)[:, None]
    return T.taps(feat, image_index[valid], *np.broadcast_arrays(rows, cols, wy * wx)), valid


class Heads3D(Module):
    """Shared 3x3 conv trunk over [M, r, r, C] RoIs, then linear heads on
    its mean over the r*r cells."""

    def __init__(self, in_ch, rng):
        self.trunk = Conv2d(in_ch, HEAD_WIDTH, 3, rng, padding=1)
        self.fc_offset = Linear(HEAD_WIDTH, 2, rng)
        self.fc_angle = Linear(HEAD_WIDTH, 2 * NUM_ANGLE_BINS, rng)
        self.fc_size = Linear(HEAD_WIDTH, 3 * len(CLASS_NAMES) + 1, rng)
        self.fc_bias = Linear(HEAD_WIDTH, 2, rng)

    def __call__(self, rois):
        if rois.ndim != 4:
            raise DimensionError(f"expected [M, r, r, C] RoIs, got {rois.shape}")
        m = rois.shape[0]
        x = T.relu(self.trunk(rois))
        pooled = T.mean(T.reshape(x, (m, -1, x.shape[3])), axis=1)
        ang = self.fc_angle(pooled)
        size = self.fc_size(pooled)
        bias = self.fc_bias(pooled)
        return Heads3DOutput(
            offset3d=self.fc_offset(pooled),
            angle_logits=ang[:, :NUM_ANGLE_BINS],
            angle_residuals=ang[:, NUM_ANGLE_BINS:],
            size_residuals=T.reshape(size[:, :-1], (m, -1, 3)),
            h_log_sigma=size[:, -1],
            bias_mu=bias[:, 0],
            bias_log_sigma=bias[:, 1],
        )


def gup_depth(h3d_mu, h3d_sigma, h2d, f, bias_mu, bias_sigma):
    """Project depth from heights: mu = f*h3d/h2d + bias, with propagated
    sigma = sqrt((f*h3d_sigma/h2d)^2 + bias_sigma^2).

    Accepts floats or Tensors for the height/bias terms (h2d and f are
    plain geometry, never differentiated here; both may be arrays to
    project a batch of objects at once).
    """
    h2d = np.asarray(h2d, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if np.any(h2d <= 0.0):
        raise DegenerateGeometryError(f"2D height {h2d} px is not positive")
    if np.any(f <= 0.0):
        raise UsageError(f"focal length {f} must be positive")
    scale = f / h2d
    depth_mu = h3d_mu * scale + bias_mu
    var = (h3d_sigma * scale) ** 2.0 + bias_sigma**2.0
    return depth_mu, T.sqrt(var) if isinstance(var, Tensor) else np.sqrt(var)


def decode_box3d(boxes, out3d, calib):
    """Boxes2D + their 3D head outputs (row i for box i) + calib ->
    (Detections3D in box order, drop counts by reason). A box is dropped
    for a non-positive projected depth ("nonpositive_depth") or, failing
    that, for a non-positive decoded dimension ("nonpositive_dimension").

    Every box must have a positive 2D height. The head outputs are read
    as float64, whatever the network's dtype.
    """
    out = {f.name: getattr(out3d, f.name).data.astype(np.float64, copy=False) for f in fields(out3d)}
    rows = np.arange(len(boxes))
    cls = boxes.class_id
    u = boxes.center[:, 0] + out["offset3d"][:, 0]
    v = boxes.center[:, 1] + out["offset3d"][:, 1]
    dims = CLASS_PRIORS[cls] + out["size_residuals"][rows, cls]
    h3d = dims[:, 0]
    z, depth_sigma = gup_depth(
        h3d,
        np.exp(out["h_log_sigma"]),
        boxes.size[:, 1],
        calib.f_v,
        out["bias_mu"],
        np.exp(out["bias_log_sigma"]),
    )
    x = (u - calib.c_u) * z / calib.f_u
    y = (v - calib.c_v) * z / calib.f_v + h3d / 2.0

    b = np.argmax(out["angle_logits"], axis=1)
    alpha = decode_angle(b, out["angle_residuals"][rows, b])
    yaw = wrap_angle(alpha + np.arctan2(x, z))
    score = boxes.score * np.exp(-depth_sigma)
    behind = z <= 0.0
    flat = np.any(dims <= 0.0, axis=1) & ~behind
    drops = {"nonpositive_depth": int(behind.sum()), "nonpositive_dimension": int(flat.sum())}
    dets = Detections3D(cls, score, np.column_stack([x, y, z, dims, yaw]), depth_sigma)
    return dets[~(behind | flat)], {reason: n for reason, n in drops.items() if n}

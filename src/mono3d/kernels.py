"""Hot numeric kernels, one numpy implementation each.

im2col/col2im carry conv2d forward and backward; bilinear_gather and
bilinear_scatter carry grid resampling and its adjoint, roi_gather and
roi_scatter the batched RoI-align and its adjoint. `raster_iou`
counts lattice points per row by interval and is the independent check
on the polygon-clipping IoU in `geometry`.
"""

import numpy as np


def active_backend():
    """Always "numpy".

    Exists only because perfbench/run.py records it as the `kernel_backend`
    run fact, and perfbench/ is the frozen benchmark harness that program
    changes do not edit.
    """
    return "numpy"


def im2col(xp, kh, kw, sh, sw, oh, ow):
    """Patch matrix [N, C, kh*kw, oh*ow] from padded input [N, C, Hp, Wp]."""
    n, c, hp, wp = xp.shape
    sn, sc, sy, sx = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sy, sx, sy * sh, sx * sw),
        writeable=False,
    )
    return np.ascontiguousarray(view.reshape(n, c, kh * kw, oh * ow))


def col2im(cols, hp, wp, kh, kw, sh, sw, oh, ow):
    """Scatter-add inverse of im2col; returns padded-input gradient."""
    n, c = cols.shape[0], cols.shape[1]
    xp = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += cols6[:, :, i, j]
    return xp


def bilinear_gather(x, iy0, iy1, fy, ix0, ix1, fx):
    """Separable bilinear sampling on the last two axes.

    iy0/iy1 are floor/ceil row indices per output row, fy the fractional
    weight of iy1 (same for columns). Indices must be pre-clamped.
    """
    w00 = (1.0 - fy)[:, None] * (1.0 - fx)[None, :]
    w01 = (1.0 - fy)[:, None] * fx[None, :]
    w10 = fy[:, None] * (1.0 - fx)[None, :]
    w11 = fy[:, None] * fx[None, :]
    v00 = x[:, :, iy0[:, None], ix0[None, :]]
    v01 = x[:, :, iy0[:, None], ix1[None, :]]
    v10 = x[:, :, iy1[:, None], ix0[None, :]]
    v11 = x[:, :, iy1[:, None], ix1[None, :]]
    return v00 * w00 + v01 * w01 + v10 * w10 + v11 * w11


def bilinear_scatter(g, iy0, iy1, fy, ix0, ix1, fx, h, w):
    """Adjoint of bilinear_gather: scatter output grads to an HxW map."""
    n, c = g.shape[0], g.shape[1]
    w00 = (1.0 - fy)[:, None] * (1.0 - fx)[None, :]
    w01 = (1.0 - fy)[:, None] * fx[None, :]
    w10 = fy[:, None] * (1.0 - fx)[None, :]
    w11 = fy[:, None] * fx[None, :]
    dx = np.zeros((n, c, h, w), dtype=g.dtype)
    np.add.at(dx, (slice(None), slice(None), iy0[:, None], ix0[None, :]), g * w00)
    np.add.at(dx, (slice(None), slice(None), iy0[:, None], ix1[None, :]), g * w01)
    np.add.at(dx, (slice(None), slice(None), iy1[:, None], ix0[None, :]), g * w10)
    np.add.at(dx, (slice(None), slice(None), iy1[:, None], ix1[None, :]), g * w11)
    return dx


def _corner_weights(fy, fx):
    """Bilinear corner weights [M, ry, rx] per RoI, as in bilinear_gather."""
    w00 = (1.0 - fy)[:, :, None] * (1.0 - fx)[:, None, :]
    w01 = (1.0 - fy)[:, :, None] * fx[:, None, :]
    w10 = fy[:, :, None] * (1.0 - fx)[:, None, :]
    w11 = fy[:, :, None] * fx[:, None, :]
    return w00, w01, w10, w11


def roi_gather(x, bidx, iy0, iy1, fy, ix0, ix1, fx):
    """Per-RoI separable bilinear sampling: x [N, C, H, W] -> [M, C, ry, rx].

    RoI m reads only image bidx[m]; iy0/iy1/fy are its [M, ry] floor/ceil
    rows and fraction, ix0/ix1/fx its [M, rx] columns (pre-clamped). Each
    RoI gets the same float expressions as bilinear_gather on its image.
    """
    b = bidx[:, None, None]
    rows0, rows1 = iy0[:, :, None], iy1[:, :, None]
    cols0, cols1 = ix0[:, None, :], ix1[:, None, :]
    w00, w01, w10, w11 = (wk[..., None] for wk in _corner_weights(fy, fx))
    v00 = x[b, :, rows0, cols0]  # [M, ry, rx, C]
    v01 = x[b, :, rows0, cols1]
    v10 = x[b, :, rows1, cols0]
    v11 = x[b, :, rows1, cols1]
    out = v00 * w00 + v01 * w01 + v10 * w10 + v11 * w11
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def roi_scatter(g, bidx, iy0, iy1, fy, ix0, ix1, fx, n, h, w):
    """Adjoint of roi_gather: RoI grads [M, C, ry, rx] -> map grad [N, C, H, W].

    One weighted bincount over every RoI, corner and channel; RoI m adds
    only into image bidx[m].
    """
    c = g.shape[1]
    cell = bidx[:, None, None] * (h * w)
    chan = np.arange(c)[:, None, None, None] * (n * h * w)
    gc = g.transpose(1, 0, 2, 3)  # [C, M, ry, rx]: writes run along one channel
    corners = zip(
        ((iy0, ix0), (iy0, ix1), (iy1, ix0), (iy1, ix1)), _corner_weights(fy, fx)
    )
    flat, vals = [], []
    for (iy, ix), wk in corners:
        flat.append((chan + (cell + iy[:, :, None] * w + ix[:, None, :])).ravel())
        vals.append((gc * wk).ravel())
    dx = np.bincount(np.concatenate(flat), np.concatenate(vals), minlength=c * n * h * w)
    return np.ascontiguousarray(dx.reshape(c, n, h, w).transpose(1, 0, 2, 3))


def _footprint_extent(box):
    cx, cz, hl, hw, yaw = box
    c, s = np.cos(yaw), np.sin(yaw)
    ex = abs(c) * hl + abs(s) * hw
    ez = abs(s) * hl + abs(c) * hw
    return cx - ex, cx + ex, cz - ez, cz + ez


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


def _raster_iou_scanline(boxes_a, boxes_b, n_grid):
    out = np.zeros(boxes_a.shape[0], dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for p in range(boxes_a.shape[0]):
            a, b = boxes_a[p], boxes_b[p]
            ax0, ax1, az0, az1 = _footprint_extent(a)
            bx0, bx1, bz0, bz1 = _footprint_extent(b)
            x0, x1 = min(ax0, bx0), max(ax1, bx1)
            z0, z1 = min(az0, bz0), max(az1, bz1)
            xs = x0 + (np.arange(n_grid) + 0.5) * (x1 - x0) / n_grid
            zs = z0 + (np.arange(n_grid) + 0.5) * (z1 - z0) / n_grid
            step = (x1 - x0) / n_grid
            lo_a, hi_a = _row_spans(a, xs, x0, step, zs)
            lo_b, hi_b = _row_spans(b, xs, x0, step, zs)
            n_a = np.maximum(hi_a - lo_a, 0).sum()
            n_b = np.maximum(hi_b - lo_b, 0).sum()
            inter = np.maximum(np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b), 0).sum()
            union = n_a + n_b - inter
            out[p] = inter / union if union > 0 else 0.0
    return out


def raster_iou(boxes_a, boxes_b, n_grid):
    """Monte-Carlo-free grid estimate of footprint IoU per box pair.

    Boxes are (cx, cz, half_l, half_w, yaw) rows; an n_grid x n_grid lattice
    of cell centers covers the joint bounding rectangle of each pair. The
    points inside a box form one column interval per lattice row, so they
    are counted per row by interval, not tested one by one: O(n_grid) per
    pair. Independent of the polygon-clipping path, so it serves as its check.
    """
    return _raster_iou_scanline(
        np.ascontiguousarray(boxes_a, dtype=np.float64),
        np.ascontiguousarray(boxes_b, dtype=np.float64),
        n_grid,
    )

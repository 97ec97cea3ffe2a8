"""Hot numeric kernels, one numpy implementation each.

im2col and col2im carry the dense conv2d in one 2-D layout,
[C*kh*kw, N*oh*ow]. im2col builds the forward's patch matrix and, at
stride 1, the patch matrix of the output gradient's frame, which yields
both the input and the weight gradient. col2im, its adjoint, serves only
the input gradient of strided convs. Depthwise convs use neither.
bilinear_gather and bilinear_scatter are the resize `wy @ x @ wx.T` and
its adjoint `wy.T @ g @ wx` for the interpolation matrices of
`tensor.bilinear_resize`; they keep their names because perfbench wraps
them by name. roi_gather and roi_scatter carry the batched RoI-align and
its adjoint.
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
    """Channel-major patch matrix [C*kh*kw, N*oh*ow] of padded input [N, C, Hp, Wp].

    Row (c, i, j) holds tap (i, j) of channel c; column (n, y, x) is output
    pixel (y, x) of image n. So a dense conv forward is the one GEMM
    W[O, C*kh*kw] @ cols. Any strides of xp work, so a sliced view can
    be passed without a copy.
    """
    n, c, _, _ = xp.shape
    sn, sc, sy, sx = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(c, kh, kw, n, oh, ow),
        strides=(sc, sy, sx, sn, sy * sh, sx * sw),
        writeable=False,
    )
    return np.ascontiguousarray(view).reshape(c * kh * kw, n * oh * ow)


def col2im(cols, hp, wp, kh, kw, sh, sw, oh, ow):
    """Adjoint of im2col: [C*kh*kw, N*oh*ow] -> padded-input gradient [N, C, Hp, Wp].

    Adds the kh*kw shifted tap slices in place into a channel-major
    buffer and returns it as an NCHW view (not contiguous).
    """
    c, n = cols.shape[0] // (kh * kw), cols.shape[1] // (oh * ow)
    xp = np.zeros((c, n, hp, wp), dtype=cols.dtype)
    cols6 = cols.reshape(c, kh, kw, n, oh, ow)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += cols6[:, i, j]
    return xp.transpose(1, 0, 2, 3)


def bilinear_gather(x, wy, wx):
    """Separable resampling of the last two axes: wy @ x @ wx.T.

    wy [oh, H] and wx [ow, W] are interpolation matrices, so
    x [N, C, H, W] -> [N, C, oh, ow].
    """
    return wy @ x @ wx.T


def bilinear_scatter(g, wy, wx):
    """Adjoint of bilinear_gather: wy.T @ g @ wx, [N, C, oh, ow] -> [N, C, H, W]."""
    return wy.T @ g @ wx


def _corner_weights(fy, fx):
    """Bilinear weights [M, ry, rx] of the corners 00, 01, 10, 11 per RoI."""
    w00 = (1.0 - fy)[:, :, None] * (1.0 - fx)[:, None, :]
    w01 = (1.0 - fy)[:, :, None] * fx[:, None, :]
    w10 = fy[:, :, None] * (1.0 - fx)[:, None, :]
    w11 = fy[:, :, None] * fx[:, None, :]
    return w00, w01, w10, w11


def roi_gather(x, bidx, iy0, iy1, fy, ix0, ix1, fx):
    """Per-RoI separable bilinear sampling: x [N, C, H, W] -> [M, C, ry, rx].

    RoI m reads only image bidx[m]; iy0/iy1/fy are its [M, ry] floor/ceil
    rows and fraction, ix0/ix1/fx its [M, rx] columns (pre-clamped). Each
    sample is v00 * w00 + v01 * w01 + v10 * w10 + v11 * w11, summed in that
    order: vab = x[bidx, :, iya, ixb], w00 = (1 - fy) * (1 - fx),
    w01 = (1 - fy) * fx, w10 = fy * (1 - fx) and w11 = fy * fx.
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

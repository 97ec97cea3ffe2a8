"""Hot numeric kernels, one numpy implementation each.

im2col and col2im carry the dense conv2d in one 2-D layout,
[C*kh*kw, N*oh*ow]. im2col builds the forward's patch matrix and, at
stride 1, the patch matrix of the output gradient's frame, which yields
both the input and the weight gradient. col2im, its adjoint, serves only
the input gradient of strided convs. Depthwise convs use neither.
bilinear_gather and bilinear_scatter are the resize `wy @ x @ wx.T` and
its adjoint `wy.T @ g @ wx` for the interpolation matrices of
`tensor.bilinear_resize`; they keep their names because perfbench wraps
them by name. tap_gather sums a few weighted taps of one image per
output, and tap_scatter is its adjoint: they carry both the batched
RoI-align (4 bilinear corners) and `tensor.patches_at` (3x3 cells).
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


def tap_gather(x, image, ys, xs, weights):
    """Weighted taps of x [N, C, H, W] -> [M, C, S].

    Output (m, :, s) sums weights[m, s, k] * x[image[m], :, ys[m, s, k],
    xs[m, s, k]] over k, in k order; ys, xs and weights are [M, S, K].
    """
    img = image[:, None]
    out = x[img, :, ys[..., 0], xs[..., 0]] * weights[..., 0, None]  # [M, S, C]
    for k in range(1, ys.shape[2]):
        out += x[img, :, ys[..., k], xs[..., k]] * weights[..., k, None]
    return np.ascontiguousarray(out.transpose(0, 2, 1))


def tap_scatter(g, image, ys, xs, weights, n, h, w):
    """Adjoint of tap_gather: tap grads [M, C, S] -> map grad [N, C, H, W].

    One weighted bincount over contributions laid out [K, C, M, S], so each
    cell sums them in that order; tap m adds only into image image[m].
    """
    c = g.shape[1]
    cell = np.ascontiguousarray((image[:, None, None] * (c * h * w) + ys * w + xs).transpose(2, 0, 1))
    flat = cell[:, None] + (np.arange(c) * (h * w))[:, None, None]  # [K, C, M, S]
    vals = np.multiply(g.transpose(1, 0, 2), weights.transpose(2, 0, 1)[:, None], order="C")
    dx = np.bincount(flat.ravel(), vals.ravel(), minlength=n * c * h * w)
    return dx.reshape(n, c, h, w)

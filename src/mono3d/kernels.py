"""Hot numeric kernels, one numpy implementation each.

Maps are channels-last, [N, h, w, C], throughout. im2col builds the
patch rows of every dense conv, [pixels, kh*kw*C] in (tap, channel)
column order, for any kernel, stride and padding, from a zero frame of
only the rows and columns they read: the forward's and, at stride 1,
those of the output gradient's frame, which yield both the input and the
weight gradient. A stride-1 conv asks for one band of output pixels at a
time, so its frame stays in cache and its rows reuse one buffer. col2im,
its adjoint, serves only the input gradient of strided convs.
depthwise3x3 runs the nine shifted multiply-adds of a depthwise 3x3 conv
over one band's zero-padded frame, along rows of the band's pixels
times C.
bilinear_gather and bilinear_scatter resize along the two spatial axes
with the interpolation matrices of `tensor.bilinear_resize`, and back;
they keep their names because perfbench wraps them by name. tap_gather
sums a few weighted taps of one image per output, and tap_scatter is its
adjoint: they are the forward and backward of `tensor.taps`, which reads
both the batched RoI-align samples (4 bilinear corners) and the 3x3 cell
patches of the 2D heads.
erf serves the exact GELU.
"""

import numpy as np

# Cephes ndtr.c coefficients, highest power first, the ones scipy.special.erf
# evaluates: erf(x) = x T(x^2) / U(x^2) for |x| < 1, and
# sign(x) (1 - exp(-x^2) P(|x|) / Q(|x|)) otherwise. U and Q are monic.
# They are made 0-d arrays below: numpy converts a Python float operand on
# every call, and erf makes ~70 calls per block.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
          9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)
_ERF_T, _ERF_U, _ERF_P, _ERF_Q = (tuple(map(np.array, c)) for c in (_ERF_T, _ERF_U, _ERF_P, _ERF_Q))
# erf is computed this many elements at a time, so a block's float64
# temporaries stay in cache
_ERF_BLOCK = 16384


def active_backend():
    """Always "numpy".

    Exists only because perfbench/run.py records it as the `kernel_backend`
    run fact, and perfbench/ is the frozen benchmark harness that program
    changes do not edit.
    """
    return "numpy"


def im2col(x, kh, kw, stride, padding=(0, 0), shape=None, out=None):
    """Channels-last patch matrix [N*oh*ow, kh*kw*C] of x [N, h, w, C]
    framed by zeros: padding (top, left) zero rows and columns lie before
    x, and as many after it as the output grid shape (oh, ow) reads (by
    default oh = (h + 2*top - kh) // stride + 1, ow likewise); a negative
    padding skips rows or columns of x.

    Row (n, y, x) is output pixel (y, x) of image n; column (i*kw + j)*C + c
    holds x[n, y*stride + i - top, x*stride + j - left, c], or 0 where that
    falls outside x. Only the rows and columns the grid reads are framed
    (a view of x where they need no zeros), so the frame of one band of
    output pixels stays in cache; its patches are then one strided copy.
    Where a pixel's C channels are contiguous, a kernel row's kw taps are
    one kw*C-long run (21 elements for the 7x7 RGB stem), so the copy
    moves whole runs. A dense conv forward is this matrix times the
    weight's (tap, channel) columns. A 1x1 stride-1 patch matrix of a
    C-contiguous map with no padding is a view of it, not a copy.
    Otherwise the matrix is written to the front of out, a 1-D buffer of
    x's dtype, when one is given (the bands of one conv share one buffer).
    """
    n, h, w, c = x.shape
    top, left = padding
    oh, ow = shape or ((h + 2 * top - kh) // stride + 1, (w + 2 * left - kw) // stride + 1)
    if (kh, kw, stride, top, left, oh, ow) == (1, 1, 1, 0, 0, h, w):
        return x.reshape(n * h * w, c)
    frame = _framed(x, -top, (oh - 1) * stride + kh - top, -left, (ow - 1) * stride + kw - left)
    sn, sy, sx, sc = frame.strides
    view = np.lib.stride_tricks.as_strided(
        frame, (n, oh, ow, kh, kw, c), (sn, sy * stride, sx * stride, sy, sx, sc), writeable=False
    )
    if out is None:
        return np.ascontiguousarray(view).reshape(n * oh * ow, kh * kw * c)
    cols = out[: view.size].reshape(view.shape)
    np.copyto(cols, view)
    return cols.reshape(n * oh * ow, kh * kw * c)


def _framed(x, y0, y1, x0, x1):
    """Rows y0..y1 - 1 and columns x0..x1 - 1 of x [N, h, w, C], zero where
    they fall outside x: a view of x when none does, else a new array."""
    n, h, w, c = x.shape
    if 0 <= y0 and y1 <= h and 0 <= x0 and x1 <= w:
        return x if (y0, y1, x0, x1) == (0, h, 0, w) else x[:, y0:y1, x0:x1]
    (fy, sy), (fx, sx) = _window_overlap(y0, y1, h), _window_overlap(x0, x1, w)
    frame = np.zeros((n, y1 - y0, x1 - x0, c), dtype=x.dtype)
    frame[:, fy, fx] = x[:, sy, sx]
    return frame


def col2im(cols, hp, wp, kh, kw, stride):
    """Adjoint of im2col: [N*oh*ow, kh*kw*C] -> padded-map gradient [N, Hp, Wp, C].

    Adds the kh*kw shifted tap slices in place into one zero frame.
    """
    oh, ow = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    c, n = cols.shape[1] // (kh * kw), cols.shape[0] // (oh * ow)
    xp = np.zeros((n, hp, wp, c), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, kh, kw, c)
    for i in range(kh):
        for j in range(kw):
            xp[:, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols6[:, :, :, i, j]
    return xp


def bilinear_gather(x, wy, wx):
    """Separable resampling of the two spatial axes of x [N, H, W, C]:
    wy [oh, H] along H, then wx [ow, W] along W -> [N, oh, ow, C]."""
    n, h, w, c = x.shape
    t = (wy @ x.reshape(n, h, w * c)).reshape(-1, w, c)  # [N*oh, W, C]
    return (wx @ t).reshape(n, wy.shape[0], wx.shape[0], c)


def bilinear_scatter(g, wy, wx):
    """Adjoint of bilinear_gather: [N, oh, ow, C] -> [N, H, W, C]."""
    n, oh, ow, c = g.shape
    t = (wy.T @ g.reshape(n, oh, ow * c)).reshape(-1, ow, c)  # [N*H, ow, C]
    return (wx.T @ t).reshape(n, wy.shape[1], wx.shape[1], c)


def depthwise3x3(x, taps, rows, cols, out=None):
    """3x3 depthwise correlation of x [N, h, w, C], zero-padded by 1, over
    the output window rows x cols (slices of output rows and pixels) ->
    [N, len(rows), len(cols), C], written into out when it is given (its
    pixels C-contiguous runs).

    Only the window's zero-padded frame [N, rows + 2, (cols + 2)*C] is
    built, so it stays in cache. taps [9, >= len(cols)*C] holds tap
    k = (i, j)'s per-channel weights tiled along the row, so out[n, y, x, c]
    sums taps[k, x*C + c] * frame[n, y + i, (x + j)*C + c] over k in order
    0..8, and every numpy inner loop covers a whole (len(cols)*C)-long row.
    """
    n, h, w, c = x.shape
    (y0, y1), (x0, x1) = rows.indices(h)[:2], cols.indices(w)[:2]
    ry, wc = y1 - y0, (x1 - x0) * c
    frame = _framed(x, y0 - 1, y1 + 1, x0 - 1, x1 + 1).reshape(n, ry + 2, -1)
    o = None if out is None else np.reshape(out, (n, ry, wc), copy=False)
    o = np.multiply(frame[:, :ry, :wc], taps[0, :wc], out=o)
    term = np.empty_like(o)
    for k in range(1, 9):
        i, j = divmod(k, 3)
        o += np.multiply(frame[:, i : i + ry, j * c : j * c + wc], taps[k, :wc], out=term)
    return o.reshape(n, ry, x1 - x0, c)


def _window_overlap(a, b, n):
    """Slices (window, source) of the source indices a..b - 1 that fall in
    [0, n): window index t reads source index a + t."""
    lo, hi = max(a, 0), min(b, n)
    return slice(lo - a, max(hi, lo) - a), slice(lo, max(hi, lo))


def tap_gather(x, image, ys, xs, weights):
    """Weighted taps of x [N, H, W, C] -> [M, S, C].

    Output (m, s, :) sums weights[m, s, k] * x[image[m], ys[m, s, k],
    xs[m, s, k]] over k, in k order; ys, xs and weights are [M, S, K].
    """
    img = image[:, None]
    out = x[img, ys[..., 0], xs[..., 0]] * weights[..., 0, None]  # [M, S, C]
    for k in range(1, ys.shape[2]):
        out += x[img, ys[..., k], xs[..., k]] * weights[..., k, None]
    return out


def tap_scatter(g, image, ys, xs, weights, n, h, w):
    """Adjoint of tap_gather: tap grads [M, S, C] -> map grad [N, H, W, C].

    One weighted bincount over contributions laid out [K, M, S, C], so each
    cell sums them in (k, m, s) order; tap m adds only into image image[m].
    """
    c = g.shape[2]
    cell = np.ascontiguousarray((image[:, None, None] * (h * w) + ys * w + xs).transpose(2, 0, 1))
    flat = cell[..., None] * c + np.arange(c)  # [K, M, S, C]
    vals = np.multiply(g, weights.transpose(2, 0, 1)[..., None], order="C")
    dx = np.bincount(flat.ravel(), vals.ravel(), minlength=n * h * w * c)
    return dx.reshape(n, h, w, c)


def _horner(z, coefs):
    """coefs[0] z^n + ... + coefs[n] for n >= 1, as a new array."""
    out = z * coefs[0]
    out += coefs[1]
    for c in coefs[2:]:
        out *= z
        out += c
    return out


def erf(x):
    """Error function of a float32 or float64 array, in its dtype and layout.

    Every dtype is computed in float64 and rounded once. In each block the
    |x| < 1 rational runs over every element and the other branch only
    where |x| >= 1, with |x| clamped at 6, past which erf rounds to +-1.
    erf(+-0) keeps the sign, erf(+-inf) is +-1 and nan stays nan.
    """
    x = np.asarray(x)
    out = np.empty_like(x)
    # float64 blocks in x's memory order, so a transposed x (the GELU input
    # is one) is read without a copy and out is laid out like it
    blocks = np.nditer(
        [x, out], flags=["external_loop", "buffered", "zerosize_ok"], op_flags=[["readonly"], ["writeonly"]],
        op_dtypes=[np.float64, np.float64], casting="same_kind", buffersize=_ERF_BLOCK, order="K",
    )
    # +-inf (and overflowing squares) give nan in the |x| < 1 rational,
    # which the other branch then overwrites
    with blocks, np.errstate(over="ignore", invalid="ignore"):
        for xb, yb in blocks:
            z = xb * xb
            y = _horner(z, _ERF_T)
            y *= xb
            np.divide(y, _horner(z, _ERF_U), out=yb)
            tail = np.flatnonzero(z >= 1.0)
            if tail.size:
                xt = xb[tail]
                a = np.minimum(np.abs(xt), 6.0)
                yb[tail] = np.copysign(1.0 - np.exp(-a * a) * _horner(a, _ERF_P) / _horner(a, _ERF_Q), xt)
    return out

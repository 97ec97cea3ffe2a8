"""Dense tensors with reverse-mode differentiation.

Each op output that gradients can flow through owns its graph node
(routing refs to its inputs, vector-Jacobian product, sequence number).
A node refers to the nodes that produced its inputs and to the leaf
inputs that take a gradient, never to an op output Tensor, and each vjp
keeps only the arrays it reads, so an intermediate whose values no
backward rule needs is freed as soon as the forward drops it. Nodes do not point back at
their outputs, so a graph is freed with the last tensor that reaches it
and nothing is reset between training steps. `backward` runs
the nodes that receive a gradient in descending sequence order, the
reverse of recording order and so a valid topological order. Gradients
of intermediate values live in a per-call map, so repeated `backward`
calls on a live loss accumulate into leaf `.grad` buffers.

Tensors are float64 by default, and training and gradient checks run in
float64: finite-difference checks are not trustworthy below that. A
forward keeps its inputs' dtype, so a detector loaded from its float32
checkpoint runs its no-grad forward in float32 from the image to the
heads.
"""

import functools
import heapq
import math

import numpy as np

from . import kernels
from .errors import DimensionError, NumericError, UsageError

_recording = True
_seq = 0  # sequence number of the last recorded node
_seq_at_reset = 0

# the name each op records its nodes under
OP_NAMES = frozenset((
    "abs", "add", "attention", "bilinear", "clip", "conv2d", "exp", "gelu", "getitem",
    "layer_norm", "linear", "log", "mean", "mul", "patches_at", "power", "relu", "reshape",
    "roi_align", "sigmoid", "sqrt", "stack", "sum", "transpose",
))

# op names whose backward rule is deliberately corrupted (gradcheck negative
# control, wired to the CLI fault-injection flag)
_fault_ops = set()


def reset_tape():
    """Restart the `tape_length` count; frees nothing. Kept, like
    `kernels.active_backend`, only because perfbench/ reads it."""
    global _seq_at_reset
    _seq_at_reset = _seq


def tape_length():
    """Graph nodes recorded since the last `reset_tape` (perfbench counter)."""
    return _seq - _seq_at_reset


def inject_fault(op_name):
    if op_name not in OP_NAMES:
        raise UsageError(f"no op records the name {op_name!r}; known ops: {', '.join(sorted(OP_NAMES))}")
    _fault_ops.add(op_name)


def clear_faults():
    _fault_ops.clear()


class no_grad:
    """Context manager that disables graph recording."""

    def __enter__(self):
        global _recording
        self._prev = _recording
        _recording = False
        return self

    def __exit__(self, *exc):
        global _recording
        _recording = self._prev
        return False


class _Node:
    """One recorded op. `inputs` holds one routing ref per op input: the
    input's producing `_Node`, the input itself if it is a leaf that
    required a gradient when the op recorded, else None. `backward` sends
    each vjp output along its ref."""

    __slots__ = ("inputs", "vjp", "seq")

    def __init__(self, inputs, vjp, seq):
        self.inputs = inputs
        self.vjp = vjp
        self.seq = seq


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_node", "_made")

    def __init__(self, data, requires_grad=False, dtype=np.float64):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = requires_grad
        self.grad = None
        self._node = None  # set when produced by a recorded op
        self._made = False  # set on op outputs: scanned when made, never written

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other, self.dtype))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _as_tensor(other, self.dtype))

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, _as_tensor(-1.0, self.dtype))

    def __sub__(self, other):
        return add(self, -_as_tensor(other, self.dtype))

    def __rsub__(self, other):
        return add(_as_tensor(other, self.dtype), -self)

    def __truediv__(self, other):
        return mul(self, power(_as_tensor(other, self.dtype), -1.0))

    def __rtruediv__(self, other):
        return mul(_as_tensor(other, self.dtype), power(self, -1.0))

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis, keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, axes):
        return transpose(self, axes)


def _as_tensor(x, dtype=np.float64):
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


def _record(name, out_data, inputs, vjp, scan=True):
    """Wrap op output; give it a graph node when grads can flow.

    The output is scanned for non-finite values unless `scan` is False,
    which the view ops pass when their input is itself an op output: op
    outputs were scanned when made and nothing writes into them, while
    leaves (parameters, images) are written in place.
    """
    global _seq
    if scan and not np.isfinite(out_data).all():
        raise NumericError(f"non-finite values in output of {name}")
    out = Tensor(out_data, dtype=out_data.dtype)
    out._made = True
    if not _recording:
        return out
    refs = tuple(t._node or (t if t.requires_grad else None) for t in inputs)
    if any(r is not None for r in refs):
        out.requires_grad = True
        if name in _fault_ops:
            inner = vjp

            def vjp(g, _inner=inner):
                return tuple(None if gi is None else gi * 1.01 for gi in _inner(g))

        _seq += 1
        out._node = _Node(refs, vjp, _seq)
    return out


def _reduce_broadcast(g, shape):
    """Sum gradient g down to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------


def add(a, b):
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        return _reduce_broadcast(g, a_shape), _reduce_broadcast(g, b_shape)

    return _record("add", a.data + b.data, (a, b), vjp)


def mul(a, b):
    """a * b with broadcasting. A side that takes no gradient (no node and
    no requires_grad when the op records) gets None, and its product is
    not formed; the vjp keeps only the other side's array."""
    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if b.requires_grad or b._node is not None else None
    b_data = b.data if a.requires_grad or a._node is not None else None

    def vjp(g):
        return (
            None if b_data is None else _reduce_broadcast(g * b_data, a_shape),
            None if a_data is None else _reduce_broadcast(g * a_data, b_shape),
        )

    return _record("mul", a.data * b.data, (a, b), vjp)


def power(a, exponent):
    out_data = a.data**exponent

    def vjp(g):
        return (g * (exponent * a.data ** (exponent - 1)),)

    return _record("power", out_data, (a,), vjp)


def exp(a):
    out_data = np.exp(a.data)

    def vjp(g):
        return (g * out_data,)

    return _record("exp", out_data, (a,), vjp)


def log(a):
    def vjp(g):
        return (g / a.data,)

    return _record("log", np.log(a.data), (a,), vjp)


def sqrt(a):
    out_data = np.sqrt(a.data)

    def vjp(g):
        return (g * (0.5 / out_data),)

    return _record("sqrt", out_data, (a,), vjp)


def absolute(a):
    def vjp(g):
        return (g * np.sign(a.data),)

    return _record("abs", np.abs(a.data), (a,), vjp)


def clip(a, lo, hi):
    """Clamp (either bound may be None); gradient passes only inside."""
    mask = np.ones(a.shape, dtype=bool)
    if lo is not None:
        mask &= a.data >= lo
    if hi is not None:
        mask &= a.data <= hi

    def vjp(g):
        return (g * mask,)

    return _record("clip", np.clip(a.data, lo, hi), (a,), vjp)


def relu(a):
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return _record("relu", a.data * mask, (a,), vjp)


def sigmoid(a):
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def vjp(g):
        return (g * (out_data * (1.0 - out_data)),)

    return _record("sigmoid", out_data, (a,), vjp)


def gelu(a):
    """Exact-erf GELU: x * Phi(x)."""
    cdf = 0.5 * (1.0 + kernels.erf(a.data / math.sqrt(2.0)))

    def vjp(g):
        pdf = np.exp(-0.5 * a.data * a.data) / math.sqrt(2.0 * math.pi)
        return (g * (cdf + a.data * pdf),)

    return _record("gelu", a.data * cdf, (a,), vjp)


def reshape(a, shape):
    old = a.shape

    def vjp(g):
        return (g.reshape(old),)

    return _record("reshape", a.data.reshape(shape), (a,), vjp, scan=not a._made)


def transpose(a, axes):
    inv = np.argsort(axes)

    def vjp(g):
        return (g.transpose(inv),)

    return _record("transpose", a.data.transpose(axes), (a,), vjp, scan=not a._made)


def getitem(a, idx):
    """Slice or advanced-index; gradient scatter-adds into the source."""
    out_data = a.data[idx]
    shape, dtype = a.shape, a.dtype

    def vjp(g):
        ga = np.zeros(shape, dtype=dtype)
        np.add.at(ga, idx, g)
        return (ga,)

    return _record("getitem", np.ascontiguousarray(out_data), (a,), vjp, scan=not a._made)


def stack(tensors, axis=0):
    count = len(tensors)

    def vjp(g):
        parts = np.split(g, count, axis=axis)
        return tuple(np.ascontiguousarray(np.squeeze(p, axis=axis)) for p in parts)

    return _record(
        "stack", np.stack([t.data for t in tensors], axis=axis), tuple(tensors), vjp
    )


def sum_(a, axis=None, keepdims=False):
    in_shape = a.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape).copy(),)

    return _record("sum", np.sum(a.data, axis=axis, keepdims=keepdims), (a,), vjp)


def mean(a, axis=None, keepdims=False):
    in_shape = a.shape
    if axis is None:
        n = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([in_shape[ax] for ax in axes]))

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / n, in_shape).copy(),)

    return _record("mean", np.mean(a.data, axis=axis, keepdims=keepdims), (a,), vjp)


# ---------------------------------------------------------------------------
# linear algebra / nn ops
# ---------------------------------------------------------------------------


def linear(x, w, b=None):
    """x [..., C] @ w [C, O] (+ b [O]) -> [..., O] as one node.

    The leading dims are flattened, so the forward and each gradient is
    one 2-D GEMM: x2 @ w, gx = g2 @ w.T, gW = x2.T @ g2, and gb =
    g2.sum(0). The bias is added in place. gx is not computed when x
    needs no gradient; its slot is None.
    """
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise DimensionError(f"linear needs x [..., C] and w [C, O], got {x.shape} and {w.shape}")
    c, o = w.shape
    if b is not None and b.shape != (o,):
        raise DimensionError(f"linear bias must have shape ({o},), got {b.shape}")
    x2 = x.data.reshape(-1, c)
    out = x2 @ w.data
    if b is not None:
        out += b.data
    need_gx = x.requires_grad or x._node is not None
    x_shape = x.shape

    def vjp(g):
        g2 = g.reshape(-1, o)
        gx = (g2 @ w.data.T).reshape(x_shape) if need_gx else None
        gw = x2.T @ g2
        return (gx, gw) if b is None else (gx, gw, g2.sum(axis=0))

    inputs = (x, w) if b is None else (x, w, b)
    return _record("linear", out.reshape(x.shape[:-1] + (o,)), inputs, vjp)


ATTENTION_CHUNK = 2048  # query rows per block of attention logits
# bytes of a conv band's working set: the patch rows of a stride-1 dense
# conv's forward and backward, the in-flight arrays and taps of a depthwise conv
CONV_BAND_BYTES = 4 * 2**20


def _attention_probs(q, k_t, scale):
    """softmax(q @ k_t * scale) over the last dim, computed in place."""
    p = q @ k_t
    p *= p.dtype.type(scale)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def attention(q, kv, num_heads, scale):
    """Multi-head softmax attention as one node.

    q [N, T, C] holds the queries and kv [N, S, 2C] the keys, then the
    values, each laid out (heads, head_dim) along the channels. Returns
    the merged heads [N, T, C]: per head, softmax(q @ k.T * scale) @ v.
    The [T, S] probabilities exist one block of ATTENTION_CHUNK query rows
    at a time, scaled, max-subtracted, exponentiated and normalised in
    place, and the node keeps none of them: the backward recomputes each
    block's (Rabe & Staats, 2021; Dao et al., FlashAttention, 2022).
    """
    if q.ndim != 3 or kv.ndim != 3 or kv.shape[0] != q.shape[0] or kv.shape[2] != 2 * q.shape[2]:
        raise DimensionError(f"attention needs q [N, T, C] and kv [N, S, 2C], got {q.shape} and {kv.shape}")
    n, t, c = q.shape
    if num_heads < 1 or c % num_heads:
        raise DimensionError(f"{c} channels do not split into {num_heads} heads")
    s, hd = kv.shape[1], c // num_heads
    qh = q.data.reshape(n, t, num_heads, hd).transpose(0, 2, 1, 3)  # [N, H, T, hd]
    kvh = kv.data.reshape(n, s, 2, num_heads, hd).transpose(2, 0, 3, 1, 4)
    k, v = np.ascontiguousarray(kvh[0]), np.ascontiguousarray(kvh[1])  # [N, H, S, hd]
    k_t = k.transpose(0, 1, 3, 2)
    blocks = [slice(i, i + ATTENTION_CHUNK) for i in range(0, t, ATTENTION_CHUNK)]
    out = np.empty((n, t, num_heads, hd), dtype=q.dtype)
    for rows in blocks:
        out[:, rows] = (_attention_probs(qh[:, :, rows], k_t, scale) @ v).transpose(0, 2, 1, 3)

    def vjp(g):
        gh = g.reshape(n, t, num_heads, hd).transpose(0, 2, 1, 3)
        gq = np.empty((n, t, num_heads, hd), dtype=g.dtype)
        gk, gv = np.zeros_like(k), np.zeros_like(v)
        for rows in blocks:
            p = _attention_probs(qh[:, :, rows], k_t, scale)
            gr = gh[:, :, rows]
            gv += np.swapaxes(p, -1, -2) @ gr
            gl = gr @ np.swapaxes(v, -1, -2)  # gradient of p, then of the logits
            gl -= np.sum(gl * p, axis=-1, keepdims=True)
            gl *= p
            gl *= scale
            gq[:, rows] = (gl @ k).transpose(0, 2, 1, 3)
            gk += np.swapaxes(gl, -1, -2) @ qh[:, :, rows]
        gkv = np.stack([gk, gv], axis=2).transpose(0, 3, 2, 1, 4)  # [N, S, 2, H, hd]
        return gq.reshape(n, t, c), gkv.reshape(n, s, 2 * c)

    return _record("attention", out.reshape(n, t, c), (q, kv), vjp)


def layer_norm(x, gamma, beta, eps=1e-6):
    """Normalize the last dim to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise UsageError("layer_norm eps must be positive")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(f"gamma/beta must have shape ({d},)")
    # the ops of mean, (xc * xc).mean, 1 / sqrt(var + eps) and
    # xhat * gamma + beta, in order, on reused buffers: bit-equal to them
    mu = np.add.reduce(x.data, axis=-1, keepdims=True)
    mu /= d
    xhat = x.data - mu
    sq = np.multiply(xhat, xhat)
    inv = np.add.reduce(sq, axis=-1, keepdims=True)
    inv /= d
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    if sq.dtype == np.result_type(sq, gamma.data, beta.data):
        out_data = np.multiply(xhat, gamma.data, out=sq)
        out_data += beta.data
    else:
        out_data = xhat * gamma.data + beta.data

    def vjp(g):
        # gx = (g*gamma - mean(g*gamma) - xhat * mean(g*gamma*xhat)) * inv, with
        # the two row means as GEMVs with gamma and a = g * xhat formed once
        g2, xh2 = g.reshape(-1, d), xhat.reshape(-1, d)
        a = g2 * xh2
        g_gamma = a.sum(axis=0)
        m1 = (g2 @ gamma.data) / d
        m2 = (a @ gamma.data) / d
        gx = g2 * gamma.data
        gx -= m1[:, None]
        gx -= np.multiply(xh2, m2[:, None], out=a)
        gx *= inv.reshape(-1, 1)
        return gx.reshape(g.shape), g_gamma, g2.sum(axis=0)

    return _record("layer_norm", out_data, (x, gamma, beta), vjp)


def conv2d(x, weight, bias=None, stride=1, padding=0, groups=1):
    """2-D cross-correlation, channels last: x [N, h, w, C] -> [N, oh, ow, O],
    weight [O, C/groups, kH, kW].

    Dense (groups 1): the forward, gW and gx are 2-D GEMMs (Chellapilla et
    al., 2006). The forward multiplies the zero-padded input's patch rows
    [pixels, kh*kw*C] (kernels.im2col, which frames only the rows and
    columns they read) by the weight's (tap, channel) columns. At stride 1
    it runs one band of output pixels at a time, each band's patch rows at
    most CONV_BAND_BYTES (MEC, Cho & Brand, 2017): whole images while they
    fit, else bands of rows of one image, else runs of pixels of one row. A
    map that fits is one band, and a 1x1 conv with no padding multiplies x
    itself. The backward bands x's grid the same way: a band's patch rows
    of the zero-padded output gradient's frame times the flipped,
    channel-transposed kernel are its gx rows (Dumoulin & Visin, 2016), and
    their transpose times the band of x is its term of gW. Strided convs
    build one patch matrix, which the backward keeps for gW; gx is
    scattered through kernels.col2im.

    Depthwise (groups == C == O, weight [C, 1, 3, 3], stride 1, padding 1):
    nine shifted multiply-adds (kernels.depthwise3x3) over the zero-padded
    frame of one band at a time, whose frame, output, product term and
    tiled taps take at most CONV_BAND_BYTES (Zhang, Lo & Lu, 2020); gx runs
    the same kernel over the output gradient's bands with the taps
    reversed, and gW is one reduction per tap and band.

    Forward and gx are bit-equal to one band's whenever each band's GEMM
    is large enough for the BLAS library to sum it as it sums the whole;
    gW, summed band by band, differs by rounding.

    gx is not computed when x needs no gradient; its slot is None.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise DimensionError(f"conv2d expects x [N, h, w, C] and a 4-D weight, got {x.shape} and {weight.shape}")
    if stride < 1 or padding < 0:
        raise UsageError("conv2d needs stride >= 1 and padding >= 0")
    n, h, w, c = x.shape
    o, cg, kh, kw = weight.shape
    dense = groups == 1 and cg == c
    if not dense and not (groups == c == o and cg == 1 and (kh, kw, stride, padding) == (3, 3, 1, 1)):
        raise DimensionError(
            f"conv2d is dense (groups=1, weight [O, {c}, kH, kW]) or depthwise 3x3 with stride 1 and "
            f"padding 1 (groups={c}, weight [{c}, 1, 3, 3]); got groups={groups}, weight {weight.shape}, "
            f"stride {stride}, padding {padding}"
        )
    if bias is not None and bias.shape != (o,):
        raise DimensionError(f"conv2d bias must have shape ({o},), got {bias.shape}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise DimensionError(f"kernel {kh}x{kw} does not fit {h}x{w} input with padding {padding}")
    b = None if bias is None else bias.data
    need_gx = x.requires_grad or x._node is not None
    if dense:
        out, vjp = _conv_dense(x.data, weight.data, b, stride, padding, need_gx)
    else:
        out, vjp = _conv_depthwise(x.data, weight.data, b, need_gx)
    inputs = (x, weight) + ((bias,) if bias is not None else ())
    return _record("conv2d", out, inputs, vjp)


def _bands(n, h, w, pixel_bytes, extra_rows=0):
    """Windows (images, rows, pixels) of slices tiling an [n, h, w] output
    grid, each taking at most CONV_BAND_BYTES, where a window of r rows of
    p pixels takes (r + extra_rows) * p * pixel_bytes: whole images while
    one fits, else bands of whole rows of one image, else runs of pixels of
    one row (one pixel at the least). A grid that fits is one window; the
    others are cut into the fewest, most even pieces."""
    per = CONV_BAND_BYTES // pixel_bytes  # pixels, counting the extra rows
    k = per // ((h + extra_rows) * w)
    if k >= n:
        return [(slice(0, n), slice(0, h), slice(0, w))]
    if k >= 1:
        return [(ni, slice(0, h), slice(0, w)) for ni in _even_runs(n, k)]
    r = per // w - extra_rows
    if r >= 1:
        return [(slice(i, i + 1), yi, slice(0, w)) for i in range(n) for yi in _even_runs(h, r)]
    p = max(1, per // (1 + extra_rows))
    return [(slice(i, i + 1), slice(y, y + 1), xi) for i in range(n) for y in range(h) for xi in _even_runs(w, p)]


def _even_runs(n, k):
    """Slices cutting range(n) into the fewest runs of at most k, whose
    lengths differ by one at most."""
    m = -(-n // k)
    return [slice(i * n // m, (i + 1) * n // m) for i in range(m)]


def _patches(a, window, kh, kw, top, left, out=None):
    """kernels.im2col rows of one output window (images, rows, pixels) of a
    stride-1 conv of a [N, h, w, C] zero-padded by (top, left); out as there."""
    ni, yi, xi = window
    return kernels.im2col(
        a[ni], kh, kw, 1, (top - yi.start, left - xi.start), (yi.stop - yi.start, xi.stop - xi.start), out=out
    )


def _band_buffer(bands, row_size, dtype):
    """One 1-D buffer for the largest window's patch rows of row_size values
    each, so that a conv's bands reuse one allocation; None for one band,
    whose rows im2col allocates itself."""
    if len(bands) == 1:
        return None
    pixels = max((ni.stop - ni.start) * (yi.stop - yi.start) * (xi.stop - xi.start) for ni, yi, xi in bands)
    return np.empty(pixels * row_size, dtype=dtype)


def _gemm_t(a, bt):
    """a [M, K] @ bt.T -> [M, O], as the transposed view of bt @ a.T.

    Kept in that orientation, the forward's float32 sums are the ones the
    trained infer_toy reference was recorded with. It does not move
    memory: with 4 MB bands a toy training step's ru_maxrss reads ~88 MB
    either way.
    """
    return (bt @ a.T).T


def _conv_dense(x, wt, b, stride, padding, need_gx):
    """Output and vjp of a dense channels-last conv: 2-D GEMMs over the
    patch rows of each band (one band for a strided conv, whose backward
    reads the whole forward patch matrix for gW)."""
    n, h, w, c = x.shape
    o, _, kh, kw = wt.shape
    oh, ow = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
    w_cols = wt.transpose(0, 2, 3, 1).reshape(o, kh * kw * c)  # (tap, channel) columns
    item = np.result_type(x, wt).itemsize
    one_view = (kh, kw, padding) == (1, 1, 0)  # the patch matrix is x itself
    bands = [] if stride > 1 or one_view else _bands(n, oh, ow, kh * kw * c * item)
    if len(bands) < 2:  # one patch matrix, and the output allocated after it
        cols = kernels.im2col(x, kh, kw, stride, (padding, padding))
        out = np.ascontiguousarray(_gemm_t(cols, w_cols)).reshape(n, oh, ow, o)
    else:
        buf = _band_buffer(bands, kh * kw * c, x.dtype)
        out = np.empty((n, oh, ow, o), dtype=np.result_type(x, wt))
        for win in bands:
            dst = out[win]
            dst[...] = _gemm_t(_patches(x, win, kh, kw, padding, padding, buf), w_cols).reshape(dst.shape)
    if b is not None:
        out += b
    has_bias = b is not None

    if stride == 1:

        def vjp(g):
            # gx[y, x] is the patch of g at (y, x) with padding kh - 1 - padding
            # (negative: rows that see only padding are skipped) times the
            # flipped, channel-transposed kernel; gW sums the patches' outer
            # products with x, band by band
            gw = np.zeros((kh * kw * o, c), dtype=np.result_type(g, x))
            gx = np.empty(x.shape, dtype=np.result_type(g, wt)) if need_gx else None
            w_flip = wt[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(c, kh * kw * o)
            bands = [(slice(0, n), slice(0, h), slice(0, w))] if one_view else _bands(n, h, w, kh * kw * o * item)
            buf = _band_buffer(bands, kh * kw * o, g.dtype)
            for win in bands:
                gcols = _patches(g, win, kh, kw, kh - 1 - padding, kw - 1 - padding, buf)  # columns (i, j, o)
                gw += gcols.T @ x[win].reshape(-1, c)
                if need_gx:
                    dst = gx[win]
                    dst[...] = _gemm_t(gcols, w_flip).reshape(dst.shape)
            gw = gw.reshape(kh, kw, o, c)[::-1, ::-1].transpose(2, 3, 0, 1)
            return (gx, gw, g.reshape(-1, o).sum(axis=0)) if has_bias else (gx, gw)

        return out, vjp

    def vjp(g):
        g2 = g.reshape(-1, o)
        gw = (g2.T @ cols).reshape(o, kh, kw, c).transpose(0, 3, 1, 2)
        gx = None
        if need_gx:
            hp, wp = h + 2 * padding, w + 2 * padding
            gxp = kernels.col2im(g2 @ wt.transpose(0, 2, 3, 1).reshape(o, kh * kw * c), hp, wp, kh, kw, stride)
            gx = np.ascontiguousarray(gxp[:, padding : padding + h, padding : padding + w])
        return (gx, gw, g2.sum(axis=0)) if has_bias else (gx, gw)

    return out, vjp


def _tiled_taps(wt, w):
    """Depthwise weight [C, 1, 3, 3] -> [9, w*C]: tap k's weights tiled w times."""
    return np.tile(wt.reshape(len(wt), 9).T, (1, w))


def _conv_depthwise(x, wt, b, need_gx):
    """Output and vjp of a channels-last 3x3 depthwise conv, band by band.

    A band's working set is its padded frame, output and product term
    (three arrays of its size) and, as about four more rows of them, the
    frame's two halo rows and the nine tap rows."""
    n, h, w, c = x.shape
    bands = _bands(n, h, w, 3 * c * np.result_type(x, wt).itemsize, extra_rows=4)
    width = max(xi.stop - xi.start for _, _, xi in bands)  # pixels of the widest window
    out = _depthwise_bands(x, _tiled_taps(wt, width), bands)
    if b is not None:
        out += b

    def vjp(g):  # keeps x and wt, not the tiled taps
        gx = _depthwise_bands(g, _tiled_taps(wt, width)[::-1], bands) if need_gx else None
        gw = np.zeros((9, c), dtype=wt.dtype)
        for ni, yi, xi in bands:
            gb = g[ni, yi, xi]
            for k in range(9):
                i, j = divmod(k, 3)
                oy, sy = kernels._window_overlap(yi.start + i - 1, yi.stop + i - 1, h)
                ox, sx = kernels._window_overlap(xi.start + j - 1, xi.stop + j - 1, w)
                gw[k] += np.einsum("nyxc,nyxc->c", gb[:, oy, ox], x[ni, sy, sx])
        gw = gw.T.reshape(wt.shape)
        return (gx, gw) if b is None else (gx, gw, g.reshape(-1, c).sum(axis=0))

    return out, vjp


def _depthwise_bands(a, taps, bands):
    """kernels.depthwise3x3 of a [N, h, w, C] over each band -> [N, h, w, C];
    the kernel allocates a single band's output itself, after its frame."""
    if len(bands) == 1:
        return kernels.depthwise3x3(a, taps, *bands[0][1:])
    out = np.empty(a.shape, dtype=np.result_type(a, taps))
    for ni, yi, xi in bands:
        kernels.depthwise3x3(a[ni], taps, yi, xi, out[ni, yi, xi])
    return out


def patches_at(x, image, row, col):
    """Zero-padded 3x3 neighbourhoods of x [N, h, w, C] at the M cells
    (image[m], row[m], col[m]) -> [M, 9*C].

    Column (i*3 + j)*C + c holds x[image, row + i - 1, col + j - 1, c],
    zero off the map: the (tap, channel) order of a 3x3 conv's patch
    matrix (kernels.im2col), so patches @ W.transpose(2, 3, 1, 0).reshape(9C, O)
    is a padding-1 conv read at those cells only. Cells may repeat; the
    gradient scatter-adds into the owning image only.
    """
    if x.ndim != 4:
        raise DimensionError(f"expected [N, h, w, C] features, got {x.shape}")
    image, row, col = (np.asarray(a, dtype=np.int64) for a in (image, row, col))
    if image.ndim != 1 or not (image.shape == row.shape == col.shape):
        raise DimensionError(f"expected equal [M] index arrays, got {image.shape}, {row.shape}, {col.shape}")
    n, h, w, c = x.shape
    if np.any((image < 0) | (image >= n) | (row < 0) | (row >= h) | (col < 0) | (col >= w)):
        raise UsageError(f"cells outside the [{n}, {h}, {w}] map")
    di, dj = np.divmod(np.arange(9), 3)
    ys, xs = row[:, None] + di - 1, col[:, None] + dj - 1  # [M, 9]
    on = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
    ys, xs = np.clip(ys, 0, h - 1)[..., None], np.clip(xs, 0, w - 1)[..., None]
    weights = on[..., None].astype(x.dtype)  # [M, 9, 1] taps, weight 0 off the map
    m = len(image)
    out = kernels.tap_gather(x.data, image, ys, xs, weights)  # [M, 9, C]

    def vjp(g):
        return (kernels.tap_scatter(g.reshape(m, 9, c), image, ys, xs, weights, n, h, w),)

    return _record("patches_at", out.reshape(m, 9 * c), (x,), vjp)


def _bilinear_axis(src, limit):
    """Clamped floor/ceil indices and fraction for continuous index coords."""
    s = np.clip(src, 0.0, limit - 1.0)
    i0 = np.floor(s).astype(np.int64)
    i1 = np.minimum(i0 + 1, limit - 1)
    return i0, i1, s - i0


def roi_align(x, boxes, batch_idx, out_size=(7, 7)):
    """RoIAlign: each box of x [N, H, W, C] sampled on an ry x rx grid -> [M, ry, rx, C].

    boxes[M, 4] are (x1, y1, x2, y2) in map units, pixel edges (the whole
    map is (0, 0, W, H)); the half-pixel sample centers are
    y = y1 + (i + 0.5) * (y2 - y1) / ry - 0.5 in index space, clamped at
    the border. RoI m reads only image batch_idx[m], and its gradient
    flows only into that image.
    """
    if x.ndim != 4:
        raise DimensionError(f"expected [N, h, w, C] features, got {x.shape}")
    boxes = np.asarray(boxes, dtype=np.float64)
    batch_idx = np.asarray(batch_idx, dtype=np.int64)
    if boxes.ndim != 2 or boxes.shape[1] != 4 or batch_idx.shape != boxes.shape[:1]:
        raise DimensionError(
            f"expected boxes [M, 4] and batch_idx [M], got {boxes.shape} and {batch_idx.shape}"
        )
    n, h, w, c = x.shape
    if np.any((batch_idx < 0) | (batch_idx >= n)):
        raise UsageError(f"batch_idx outside [0, {n}): {batch_idx}")
    ry, rx = out_size
    x1, y1, x2, y2 = (boxes[:, k, None] for k in range(4))
    ys = y1 + (np.arange(ry) + 0.5) * (y2 - y1) / ry - 0.5
    xs = x1 + (np.arange(rx) + 0.5) * (x2 - x1) / rx - 0.5
    iy0, iy1, fy = _bilinear_axis(ys, h)
    ix0, ix1, fx = _bilinear_axis(xs, w)
    fy, fx = fy.astype(x.dtype, copy=False), fx.astype(x.dtype, copy=False)
    # sample (i, j) is 4 taps, its corners 00, 01, 10, 11 in that order
    m = len(batch_idx)
    grid = (m, ry, rx, 4)
    rows = np.stack([iy0, iy0, iy1, iy1], axis=-1)[:, :, None]  # [M, ry, 1, 4]
    cols = np.stack([ix0, ix1, ix0, ix1], axis=-1)[:, None]  # [M, 1, rx, 4]
    wy = np.stack([1.0 - fy, 1.0 - fy, fy, fy], axis=-1)[:, :, None]
    wx = np.stack([1.0 - fx, fx, 1.0 - fx, fx], axis=-1)[:, None]
    tys, txs, weights = (np.broadcast_to(a, grid).reshape(m, ry * rx, 4) for a in (rows, cols, wy * wx))
    out = kernels.tap_gather(x.data, batch_idx, tys, txs, weights).reshape(m, ry, rx, c)

    def vjp(g):
        return (kernels.tap_scatter(g.reshape(m, ry * rx, c), batch_idx, tys, txs, weights, n, h, w),)

    return _record("roi_align", out, (x,), vjp)


@functools.lru_cache(maxsize=256)
def _interp_matrix(out_n, n, dtype=np.float64):
    """[out_n, n] bilinear weights at half-pixel centers, clamped at the border.

    Row i holds 1 - f at floor(src) and f at floor(src) + 1, with
    src = (i + 0.5) * n / out_n - 0.5; where the clamp makes the two
    columns equal the weights add, so every row sums to 1. The weights are
    computed in float64 and returned in `dtype`. The result is cached per
    (out_n, n, dtype) and read-only.
    """
    i0, i1, f = _bilinear_axis((np.arange(out_n) + 0.5) * (n / out_n) - 0.5, n)
    rows = np.arange(out_n)
    m = np.zeros((out_n, n))
    m[rows, i0] += 1.0 - f
    m[rows, i1] += f
    m = m.astype(dtype, copy=False)
    m.flags.writeable = False
    return m


def bilinear_resize(x, out_h, out_w):
    """Resize maps [N, h, w, C] along axes 1 and 2 with exact bilinear
    weights: Wy along h, then Wx along w.

    Half-pixel centers, clamped to the border (see _interp_matrix); the
    matrices take x's dtype. out == in gives identity matrices, so the
    resize is then an exact identity.
    """
    if out_h < 1 or out_w < 1:
        raise DimensionError("bilinear_resize target size must be >= 1")
    h, w = x.shape[1:3]
    wy, wx = _interp_matrix(out_h, h, x.dtype), _interp_matrix(out_w, w, x.dtype)
    out = kernels.bilinear_gather(x.data, wy, wx)

    def vjp(g):
        return (kernels.bilinear_scatter(g, wy, wx),)

    return _record("bilinear", out, (x,), vjp)


# ---------------------------------------------------------------------------
# backward / verification
# ---------------------------------------------------------------------------


def backward(loss):
    """Populate .grad of every requires_grad leaf reachable from `loss`.

    Runs the nodes that receive a gradient in descending sequence order,
    the reverse of recording order: a max-heap on `seq` holds each node
    from its first gradient on, and every consumer of a node has a larger
    `seq`, so a node runs once all its gradient has arrived. Gradients go
    along each node's routing refs, so a leaf takes one only if it
    required a gradient when the op recorded: setting `requires_grad`
    later does not connect it to a graph already built. Leaf gradients
    accumulate across calls; use Tensor.zero_grad to reset.
    """
    if not isinstance(loss, Tensor) or loss.size != 1:
        raise UsageError("backward expects a scalar Tensor")
    if loss._node is None:
        raise UsageError("loss is not connected to a recorded graph")
    grads = {loss._node: np.ones_like(loss.data)}
    heap = [(-loss._node.seq, loss._node)]
    while heap:
        node = heapq.heappop(heap)[1]
        for ref, gi in zip(node.inputs, node.vjp(grads.pop(node))):
            if gi is None or ref is None:
                continue
            if isinstance(ref, _Node):
                if ref in grads:
                    grads[ref] = grads[ref] + gi
                else:
                    grads[ref] = gi
                    heapq.heappush(heap, (-ref.seq, ref))
            else:
                if ref.grad is None:
                    ref.grad = np.zeros_like(ref.data)
                ref.grad += gi


def grad_check(f, x, eps=1e-5, max_entries=None, rng=None, select="random"):
    """Max relative error between reverse-mode and central differences.

    f maps a Tensor to a scalar Tensor. Every element of x is probed unless
    max_entries caps it, in which case either a seeded random subset or the
    entries of largest analytic magnitude (select="largest") are used; the
    latter keeps deep-composite checks clear of the finite-difference noise
    floor, where |grad| approaches |f|*ulp/(2*eps) and the relative error
    of a correct gradient is dominated by roundoff. Relative error uses
    denominator max(|a|, |b|, 1e-8). x must be float64: central
    differences are not trustworthy below that.
    """
    if x.dtype != np.float64:
        raise UsageError(f"grad_check needs a float64 tensor, got {x.dtype}")
    if select not in ("random", "largest"):
        raise UsageError(f"unknown entry selection {select!r}")
    if not (1e-7 <= eps <= 1e-3):
        raise UsageError("eps outside the trustworthy range [1e-7, 1e-3]")
    flag, x.requires_grad = x.requires_grad, True
    x.zero_grad()
    try:
        out = f(x)
        if out.size != 1:
            raise UsageError("grad_check needs a scalar-valued function")
        backward(out)
        del out  # frees the graph before the finite-difference loop
    finally:
        x.requires_grad = flag
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    flat = x.data.reshape(-1)
    idxs = np.arange(flat.size)
    if max_entries is not None and flat.size > max_entries:
        if select == "largest":
            idxs = np.argsort(-np.abs(analytic.reshape(-1)), kind="stable")[:max_entries]
        else:
            rng = rng or np.random.default_rng(0)
            idxs = rng.choice(flat.size, size=max_entries, replace=False)
    worst = 0.0
    with no_grad():
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f(x).data)
            flat[i] = orig - eps
            fm = float(f(x).data)
            flat[i] = orig
            if not (math.isfinite(fp) and math.isfinite(fm)):
                raise NumericError("non-finite value during finite differencing")
            num = (fp - fm) / (2.0 * eps)
            ana = analytic.reshape(-1)[i]
            rel = abs(num - ana) / max(abs(num), abs(ana), 1e-8)
            worst = max(worst, rel)
    return worst

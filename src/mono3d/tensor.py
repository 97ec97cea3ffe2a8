"""Dense float64 tensors with reverse-mode differentiation.

Each op output that gradients can flow through owns its graph node
(inputs, vector-Jacobian product, sequence number). Nodes do not point
back at their outputs, so a graph is freed with the last tensor that
reaches it and nothing is reset between training steps. `backward` runs
the nodes reachable from the loss in descending sequence order, the
reverse of recording order and so a valid topological order. Gradients
of intermediate values live in a per-call map, so repeated `backward`
calls on a live loss accumulate into leaf `.grad` buffers.

Everything runs in float64 by default; finite-difference checks are not
trustworthy below that.
"""

import math

import numpy as np
from scipy.special import erf as _erf

from . import kernels
from .errors import DimensionError, NumericError, UsageError

_recording = True
_seq = 0  # sequence number of the last recorded node
_seq_at_reset = 0

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
    __slots__ = ("inputs", "vjp", "seq")

    def __init__(self, inputs, vjp, seq):
        self.inputs = inputs
        self.vjp = vjp
        self.seq = seq


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad=False, dtype=np.float64):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = requires_grad
        self.grad = None
        self._node = None  # set when produced by a recorded op

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
        other = _as_tensor(other)
        return mul(self, power(other, -1.0))

    def __rtruediv__(self, other):
        return mul(_as_tensor(other, self.dtype), power(self, -1.0))

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul_batched(self, other)

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
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=dtype))


def _record(name, out_data, inputs, vjp):
    """Wrap op output; give it a graph node when grads can flow."""
    global _seq
    if not np.all(np.isfinite(out_data)):
        raise NumericError(f"non-finite values in output of {name}")
    out = Tensor(out_data, dtype=out_data.dtype)
    needs = _recording and any(t.requires_grad or t._node is not None for t in inputs)
    if needs:
        out.requires_grad = True
        if name in _fault_ops:
            inner = vjp

            def vjp(g, _inner=inner):
                return tuple(None if gi is None else gi * 1.01 for gi in _inner(g))

        _seq += 1
        out._node = _Node(inputs, vjp, _seq)
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
    def vjp(g):
        return _reduce_broadcast(g, a.shape), _reduce_broadcast(g, b.shape)

    return _record("add", a.data + b.data, (a, b), vjp)


def mul(a, b):
    def vjp(g):
        return (
            _reduce_broadcast(g * b.data, a.shape),
            _reduce_broadcast(g * a.data, b.shape),
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
    cdf = 0.5 * (1.0 + _erf(a.data / math.sqrt(2.0)))

    def vjp(g):
        pdf = np.exp(-0.5 * a.data * a.data) / math.sqrt(2.0 * math.pi)
        return (g * (cdf + a.data * pdf),)

    return _record("gelu", a.data * cdf, (a,), vjp)


def reshape(a, shape):
    old = a.shape

    def vjp(g):
        return (g.reshape(old),)

    return _record("reshape", a.data.reshape(shape), (a,), vjp)


def transpose(a, axes):
    inv = np.argsort(axes)

    def vjp(g):
        return (g.transpose(inv),)

    return _record("transpose", a.data.transpose(axes), (a,), vjp)


def getitem(a, idx):
    """Slice or advanced-index; gradient scatter-adds into the source."""
    out_data = a.data[idx]

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return _record("getitem", np.ascontiguousarray(out_data), (a,), vjp)


def concat(tensors, axis=0):
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _record(
        "concat", np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), vjp
    )


def stack(tensors, axis=0):
    def vjp(g):
        parts = np.split(g, len(tensors), axis=axis)
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


def matmul_batched(a, b):
    """Batched matmul with broadcastable leading dims: [..., M, K] @ [..., K, P]."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul operands need at least 2 dims")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"inner dims disagree: {a.shape} @ {b.shape}")

    def vjp(g):
        ga = _reduce_broadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _reduce_broadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _record("matmul", a.data @ b.data, (a, b), vjp)


def softmax_lastdim(x):
    """Numerically stable softmax over the last dim (max subtraction)."""
    if x.shape[-1] < 1:
        raise DimensionError("softmax needs a non-empty last dim")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = np.sum(g * out_data, axis=-1, keepdims=True)
        return (out_data * (g - dot),)

    return _record("softmax", out_data, (x,), vjp)


def layer_norm(x, gamma, beta, eps=1e-6):
    """Normalize the last dim to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise UsageError("layer_norm eps must be positive")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(f"gamma/beta must have shape ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gamma.data + beta.data

    def vjp(g):
        gg = g * gamma.data
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        gx = (gg - m1 - xhat * m2) * inv
        axes = tuple(range(g.ndim - 1))
        return gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return _record("layer_norm", out_data, (x, gamma, beta), vjp)


def conv2d(x, weight, bias=None, stride=1, padding=0, groups=1):
    """2-D cross-correlation, NCHW layout, weight [O, C/groups, kH, kW]."""
    if x.ndim != 4 or weight.ndim != 4:
        raise DimensionError("conv2d expects 4-D input and weight")
    if stride < 1 or padding < 0:
        raise UsageError("conv2d needs stride >= 1 and padding >= 0")
    n, c, h, w = x.shape
    o, cg, kh, kw = weight.shape
    if c % groups or o % groups or cg != c // groups:
        raise DimensionError(
            f"channel/group mismatch: input C={c}, weight {weight.shape}, groups={groups}"
        )
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise DimensionError(f"kernel {kh}x{kw} does not fit {h}x{w} input with padding {padding}")

    if padding:
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x.data
    cols = kernels.im2col(xp, kh, kw, stride, stride, oh, ow)
    og = o // groups
    cols_g = cols.reshape(n, groups, cg * kh * kw, oh * ow)
    w_mat = weight.data.reshape(groups, og, cg * kh * kw)
    out = np.matmul(w_mat[None], cols_g).reshape(n, o, oh, ow)
    if bias is not None:
        out = out + bias.data[None, :, None, None]
    hp, wp = xp.shape[2], xp.shape[3]

    def vjp(g):
        g_mat = g.reshape(n, groups, og, oh * ow)
        gw = np.matmul(g_mat, np.swapaxes(cols_g, -1, -2)).sum(axis=0).reshape(weight.shape)
        gcols = np.matmul(np.swapaxes(w_mat, -1, -2)[None], g_mat)
        gxp = kernels.col2im(
            gcols.reshape(n, c, kh * kw, oh * ow), hp, wp, kh, kw, stride, stride, oh, ow
        )
        gx = gxp[:, :, padding : padding + h, padding : padding + w] if padding else gxp
        gb = g.sum(axis=(0, 2, 3)) if bias is not None else None
        return (np.ascontiguousarray(gx), gw) + ((gb,) if bias is not None else ())

    inputs = (x, weight) + ((bias,) if bias is not None else ())
    return _record("conv2d", out, inputs, vjp)


def _bilinear_axis(src, limit):
    """Clamped floor/ceil indices and fraction for continuous index coords."""
    s = np.clip(src, 0.0, limit - 1.0)
    i0 = np.floor(s).astype(np.int64)
    i1 = np.minimum(i0 + 1, limit - 1)
    return i0, i1, s - i0


def roi_align(x, boxes, batch_idx, out_size=(7, 7)):
    """RoIAlign: each box of x[N,C,H,W] sampled on an ry x rx grid -> [M,C,ry,rx].

    boxes[M, 4] are (x1, y1, x2, y2) in map units, pixel edges (the whole
    map is (0, 0, W, H)); the half-pixel sample centers are
    y = y1 + (i + 0.5) * (y2 - y1) / ry - 0.5 in index space, clamped at
    the border. RoI m reads only image batch_idx[m], and its gradient
    flows only into that image.
    """
    if x.ndim != 4:
        raise DimensionError(f"expected [N, C, h, w] features, got {x.shape}")
    boxes = np.asarray(boxes, dtype=np.float64)
    batch_idx = np.asarray(batch_idx, dtype=np.int64)
    if boxes.ndim != 2 or boxes.shape[1] != 4 or batch_idx.shape != boxes.shape[:1]:
        raise DimensionError(
            f"expected boxes [M, 4] and batch_idx [M], got {boxes.shape} and {batch_idx.shape}"
        )
    n, _, h, w = x.shape
    if np.any((batch_idx < 0) | (batch_idx >= n)):
        raise UsageError(f"batch_idx outside [0, {n}): {batch_idx}")
    ry, rx = out_size
    x1, y1, x2, y2 = (boxes[:, k, None] for k in range(4))
    ys = y1 + (np.arange(ry) + 0.5) * (y2 - y1) / ry - 0.5
    xs = x1 + (np.arange(rx) + 0.5) * (x2 - x1) / rx - 0.5
    iy0, iy1, fy = _bilinear_axis(ys, h)
    ix0, ix1, fx = _bilinear_axis(xs, w)
    out = kernels.roi_gather(x.data, batch_idx, iy0, iy1, fy, ix0, ix1, fx)

    def vjp(g):
        return (kernels.roi_scatter(g, batch_idx, iy0, iy1, fy, ix0, ix1, fx, n, h, w),)

    return _record("roi_align", out, (x,), vjp)


def _interp_matrix(out_n, n):
    """[out_n, n] bilinear weights at half-pixel centers, clamped at the border.

    Row i holds 1 - f at floor(src) and f at floor(src) + 1, with
    src = (i + 0.5) * n / out_n - 0.5; where the clamp makes the two
    columns equal the weights add, so every row sums to 1.
    """
    i0, i1, f = _bilinear_axis((np.arange(out_n) + 0.5) * (n / out_n) - 0.5, n)
    rows = np.arange(out_n)
    m = np.zeros((out_n, n))
    m[rows, i0] += 1.0 - f
    m[rows, i1] += f
    return m


def bilinear_resize(x, out_h, out_w):
    """Resize NCHW maps with exact bilinear weights: Wy @ x @ Wx.T.

    Half-pixel centers, clamped to the border (see _interp_matrix).
    out == in gives identity matrices, so the resize is then an exact
    identity.
    """
    if out_h < 1 or out_w < 1:
        raise DimensionError("bilinear_resize target size must be >= 1")
    _, _, h, w = x.shape
    wy, wx = _interp_matrix(out_h, h), _interp_matrix(out_w, w)
    out = kernels.bilinear_gather(x.data, wy, wx)

    def vjp(g):
        return (kernels.bilinear_scatter(g, wy, wx),)

    return _record("bilinear", out, (x,), vjp)


# ---------------------------------------------------------------------------
# backward / verification
# ---------------------------------------------------------------------------


def backward(loss):
    """Populate .grad of every requires_grad leaf reachable from `loss`.

    Runs the nodes reachable from the loss in descending sequence order,
    the reverse of recording order. Leaf gradients accumulate across
    calls; use Tensor.zero_grad to reset.
    """
    if not isinstance(loss, Tensor) or loss.size != 1:
        raise UsageError("backward expects a scalar Tensor")
    if loss._node is None:
        raise UsageError("loss is not connected to a recorded graph")
    seen, stack = {loss._node}, [loss._node]
    while stack:
        for t in stack.pop().inputs:
            if t._node is not None and t._node not in seen:
                seen.add(t._node)
                stack.append(t._node)
    grads = {loss._node: np.ones_like(loss.data)}
    for node in sorted(seen, key=lambda node: node.seq, reverse=True):
        g = grads.pop(node, None)
        if g is None:
            continue
        for t, gi in zip(node.inputs, node.vjp(g)):
            if gi is None:
                continue
            if t._node is not None:
                key = t._node
                if key in grads:
                    grads[key] = grads[key] + gi
                else:
                    grads[key] = gi
            elif t.requires_grad:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += gi


def grad_check(f, x, eps=1e-5, max_entries=None, rng=None, select="random"):
    """Max relative error between reverse-mode and central differences.

    f maps a Tensor to a scalar Tensor. Every element of x is probed unless
    max_entries caps it, in which case either a seeded random subset or the
    entries of largest analytic magnitude (select="largest") are used; the
    latter keeps deep-composite checks clear of the finite-difference noise
    floor, where |grad| approaches |f|*ulp/(2*eps) and the relative error
    of a correct gradient is dominated by roundoff. Relative error uses
    denominator max(|a|, |b|, 1e-8).
    """
    if select not in ("random", "largest"):
        raise UsageError(f"unknown entry selection {select!r}")
    if not (1e-7 <= eps <= 1e-3):
        raise UsageError("eps outside the trustworthy range [1e-7, 1e-3]")
    x.requires_grad = True
    x.zero_grad()
    out = f(x)
    if out.size != 1:
        raise UsageError("grad_check needs a scalar-valued function")
    backward(out)
    del out  # frees the graph before the finite-difference loop
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

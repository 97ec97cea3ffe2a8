import inspect
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from mono3d import kernels
from mono3d import tensor as T
from mono3d.errors import DimensionError, NumericError, UsageError
from mono3d.gradcheck import EPS, THRESHOLD, _projected, _t
from mono3d.losses import make_weights, total_loss
from mono3d.model import Detector
from mono3d.tensor import Tensor
from mono3d.train import build_synth_dataset

import oracles


def rt(rng, *shape):
    return Tensor(rng.uniform(-1, 1, shape), requires_grad=True)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


def _nhwc(a):
    """A C-contiguous channels-last copy of an [N, C, H, W] array."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def _conv_oracle(x, w, b, stride, padding, groups=1):
    """oracles.conv2d_direct (NCHW) of a channels-last x, channels-last out."""
    return _nhwc(oracles.conv2d_direct(x.transpose(0, 3, 1, 2), w, b, stride, padding, groups))


def test_conv2d_all_ones():
    x = Tensor(np.ones((1, 3, 3, 1)))
    w = Tensor(np.ones((1, 1, 2, 2)))
    out = T.conv2d(x, w)
    assert out.shape == (1, 2, 2, 1)
    assert np.array_equal(out.data, np.full((1, 2, 2, 1), 4.0))


def test_conv3x3_nhwc_depthwise_identity():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, 5, 6, 4)))
    w = np.zeros((4, 1, 3, 3))
    w[:, 0, 1, 1] = 1.0
    out = T.conv2d(x, Tensor(w), padding=1, groups=4)
    assert np.array_equal(out.data, x.data)


def test_conv2d_matches_direct_oracle():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, (2, 3, 8, 8))
    w = rng.uniform(-1, 1, (4, 3, 3, 3))
    b = rng.uniform(-1, 1, 4)
    expected = _nhwc(oracles.conv2d_direct(x, w, b, stride=2, padding=1))
    got = T.conv2d(Tensor(_nhwc(x)), Tensor(w), Tensor(b), stride=2, padding=1)
    assert got.shape == expected.shape
    assert np.max(np.abs(got.data - expected)) < 1e-10


# (kernel, stride, padding) on an odd-sized map: with the 3x3 stride-1 cases
# of test_conv3x3_nhwc_matches_direct_oracle, every kernel size the model
# runs (1x1 neck and heads, 2x2 stride-2 reduction, 3x3, 7x7 stride-4 stem)
ORACLE_CASES = {
    "1x1_s1_p0": (1, 1, 0),
    "2x2_s2_p0": (2, 2, 0),
    "3x3_s2_p1": (3, 2, 1),
    "7x7_s4_p3": (7, 4, 3),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_conv2d_matches_direct_oracle_in_its_dtype(case, dtype):
    """The channels-last output is the NCHW oracle transposed, in the input's dtype."""
    k, stride, padding = ORACLE_CASES[case]
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (2, 3, 13, 11))
    w = rng.uniform(-1, 1, (4, 3, k, k))
    b = rng.uniform(-1, 1, 4)
    x, w, b = (a.astype(dtype) for a in (x, w, b))
    expected = _nhwc(oracles.conv2d_direct(x, w, b, stride, padding))
    got = T.conv2d(Tensor(_nhwc(x), dtype=dtype), Tensor(w, dtype=dtype), Tensor(b, dtype=dtype), stride, padding)
    assert got.dtype == dtype and got.shape == expected.shape
    assert np.max(np.abs(got.data - expected)) < (1e-10 if dtype == np.float64 else 1e-5)


def test_im2col_of_a_1x1_stride1_conv_is_a_view_of_its_input():
    x = np.random.default_rng(4).normal(size=(2, 5, 7, 6))
    cols = kernels.im2col(x, 1, 1, 1)
    assert cols.shape == (2 * 5 * 7, 6)
    assert np.shares_memory(cols, x)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", ["dense", "depthwise"])
def test_conv3x3_nhwc_matches_direct_oracle(kind, dtype):
    """Odd h and w; the channels-last output is the NCHW oracle transposed,
    in the input's dtype."""
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, (2, 6, 7, 5))
    w = rng.uniform(-1, 1, (4, 6, 3, 3) if kind == "dense" else (6, 1, 3, 3))
    b = rng.uniform(-1, 1, w.shape[0])
    x, w, b = (a.astype(dtype) for a in (x, w, b))
    groups = 1 if kind == "dense" else 6
    expected = oracles.conv2d_direct(x, w, b, stride=1, padding=1, groups=groups).transpose(0, 2, 3, 1)
    got = T.conv2d(
        Tensor(x.transpose(0, 2, 3, 1), dtype=dtype), Tensor(w, dtype=dtype), Tensor(b, dtype=dtype),
        padding=1, groups=groups,
    )
    assert got.dtype == dtype and got.shape == expected.shape
    assert np.max(np.abs(got.data - expected)) < (1e-10 if dtype == np.float64 else 1e-5)


def test_conv2d_output_size_formula():
    x = Tensor(np.zeros((1, 11, 9, 2)))
    w = Tensor(np.zeros((3, 2, 3, 3)))
    out = T.conv2d(x, w, stride=2, padding=1)
    assert out.shape == (1, (11 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1, 3)


def test_conv2d_shape_errors():
    x = Tensor(np.zeros((1, 4, 4, 3)))
    w = Tensor(np.zeros((2, 4, 3, 3)))
    with pytest.raises(DimensionError):
        T.conv2d(x, w)
    with pytest.raises(DimensionError):
        T.conv2d(x, Tensor(np.zeros((2, 3, 3, 3))), groups=3)
    with pytest.raises(DimensionError, match="groups"):
        T.conv2d(Tensor(np.zeros((1, 5, 5, 4))), Tensor(np.zeros((4, 2, 3, 3))), padding=1, groups=2)
    # depthwise convs are 3x3 with stride 1 and padding 1
    with pytest.raises(DimensionError, match="depthwise"):
        T.conv2d(Tensor(np.zeros((1, 5, 5, 4))), Tensor(np.zeros((4, 1, 3, 3))), padding=0, groups=4)


def test_conv3x3_nhwc_shape_errors():
    x = Tensor(np.zeros((1, 5, 5, 4)))
    for w, groups in ((np.zeros((4, 2, 3, 3)), 1), (np.zeros((3, 1, 3, 3)), 4), (np.zeros((4, 3, 3)), 1)):
        with pytest.raises(DimensionError):
            T.conv2d(x, Tensor(w), padding=1, groups=groups)
    with pytest.raises(DimensionError):
        T.conv2d(Tensor(np.zeros((5, 5, 4))), Tensor(np.zeros((4, 4, 3, 3))), padding=1)
    with pytest.raises(DimensionError, match="bias"):
        T.conv2d(x, Tensor(np.zeros((2, 4, 3, 3))), Tensor(np.zeros(4)), padding=1)


def test_conv2d_nonfinite_input_raises():
    x = Tensor(np.full((1, 3, 3, 1), np.nan))
    w = Tensor(np.ones((1, 1, 2, 2)))
    with pytest.raises(NumericError):
        T.conv2d(x, w)


# (NCHW x shape, weight shape, stride, padding, groups): every conv2d branch;
# x is drawn in this shape and run channels-last
CONV_CASES = {
    "s1_p0": ((2, 3, 6, 7), (4, 3, 3, 3), 1, 0, 1),
    "s1_p1": ((2, 3, 6, 7), (4, 3, 3, 3), 1, 1, 1),
    "1x1_p1": ((2, 3, 5, 4), (4, 3, 1, 1), 1, 1, 1),  # padding > k-1
    "3x3_s2_p1": ((2, 3, 7, 8), (4, 3, 3, 3), 2, 1, 1),
    "7x7_s4_p3": ((1, 3, 13, 18), (4, 3, 7, 7), 4, 3, 1),  # the stem
    "2x2_s2": ((2, 3, 7, 9), (4, 3, 2, 2), 2, 0, 1),  # k == s spatial reduction
}


def _draw_nhwc(rng, shape, requires_grad=True):
    return Tensor(_nhwc(rng.uniform(-1, 1, shape)), requires_grad=requires_grad)


@pytest.mark.parametrize("case", sorted(CONV_CASES))
def test_conv2d_forward_and_adjoint_gradients(case):
    """Forward matches the direct loops; gx and gW satisfy the adjoint
    identities <conv(x, w), g> = <x, gx> = <w, gW> (conv is linear in each
    of x and w), and gb is g summed over N, H, W."""
    xs, ws, stride, padding, groups = CONV_CASES[case]
    rng = np.random.default_rng(sorted(CONV_CASES).index(case))
    x, w = _draw_nhwc(rng, xs), rt(rng, *ws)
    b = rt(rng, ws[0])
    expected = _conv_oracle(x.data, w.data, b.data, stride, padding, groups)
    out = T.conv2d(x, w, b, stride=stride, padding=padding, groups=groups)
    assert out.shape == expected.shape
    assert np.max(np.abs(out.data - expected)) < 1e-10

    g = rng.uniform(-1, 1, out.shape)
    T.backward(T.sum_(out * Tensor(g)))
    linear = np.sum((expected - b.data) * g)
    scale = np.sum(np.abs(expected) * np.abs(g)) + 1.0
    assert abs(np.sum(x.data * x.grad) - linear) < 1e-10 * scale
    assert abs(np.sum(w.data * w.grad) - linear) < 1e-10 * scale
    assert np.max(np.abs(b.grad - g.sum(axis=(0, 1, 2)))) < 1e-10


@pytest.mark.parametrize("xs, ws, padding", [
    ((2, 3, 6, 7), (4, 3, 3, 3), 1),
    ((2, 3, 5, 4), (4, 3, 1, 1), 0),  # the patch matrix has the size of x
    ((2, 3, 5, 4), (4, 3, 1, 1), 1),
])
def test_conv2d_stride1_vjp_holds_no_patch_matrix(xs, ws, padding):
    """A stride-1 dense conv's graph node keeps x and the weight, not the
    forward patch matrix [N*oh*ow, kh*kw*C]."""
    rng = np.random.default_rng(5)
    x, w = _draw_nhwc(rng, xs), rt(rng, *ws)
    out = T.conv2d(x, w, rt(rng, ws[0]), padding=padding)
    patch_size = ws[1] * ws[2] * ws[3] * xs[0] * out.shape[1] * out.shape[2]
    held = [c.cell_contents for c in out._node.vjp.__closure__]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    assert any(a is x.data for a in arrays)
    assert all(a is x.data or a.size < patch_size for a in arrays)


@pytest.mark.parametrize("case", ["s1_p1", "3x3_s2_p1", "7x7_s4_p3"])
def test_conv2d_skips_gx_of_an_input_without_gradient(case):
    """gx is None when x needs no gradient; gW still meets <w, gW> = <conv(x, w), g>."""
    xs, ws, stride, padding, groups = CONV_CASES[case]
    rng = np.random.default_rng(7)
    x, w = _draw_nhwc(rng, xs, requires_grad=False), rt(rng, *ws)
    out = T.conv2d(x, w, stride=stride, padding=padding, groups=groups)
    g = rng.uniform(-1, 1, out.shape)
    assert out._node.vjp(g)[0] is None
    T.backward(T.sum_(out * Tensor(g)))
    assert x.grad is None
    linear = np.sum(out.data * g)
    assert abs(np.sum(w.data * w.grad) - linear) < 1e-10 * (np.sum(np.abs(out.data * g)) + 1.0)


# channels-last x shape, weight shape: the dense and the depthwise 3x3 conv
# (stride 1, padding 1)
CONV3X3_CASES = {
    "dense": ((2, 5, 7, 3), (4, 3, 3, 3)),
    "depthwise": ((2, 7, 5, 4), (4, 1, 3, 3)),
}


def _conv3x3(x, w, b=None):
    return T.conv2d(x, w, b, padding=1, groups=1 if w.shape[1] == x.shape[3] else x.shape[3])


@pytest.mark.parametrize("case", sorted(CONV3X3_CASES))
def test_conv3x3_nhwc_forward_and_adjoint_gradients(case):
    """As for conv2d: the forward matches the direct loops, gx and gW meet
    <conv(x, w), g> = <x, gx> = <w, gW>, and gb is g summed over N, h, w."""
    xs, ws = CONV3X3_CASES[case]
    rng = np.random.default_rng(sorted(CONV3X3_CASES).index(case))
    x, w, b = rt(rng, *xs), rt(rng, *ws), rt(rng, ws[0])
    expected = _conv_oracle(x.data, w.data, b.data, 1, 1, 1 if ws[1] == xs[3] else xs[3])
    out = _conv3x3(x, w, b)
    assert out.shape == expected.shape
    assert np.max(np.abs(out.data - expected)) < 1e-10

    g = rng.uniform(-1, 1, out.shape)
    T.backward(T.sum_(out * Tensor(g)))
    linear = np.sum((expected - b.data) * g)
    scale = np.sum(np.abs(expected) * np.abs(g)) + 1.0
    assert abs(np.sum(x.data * x.grad) - linear) < 1e-10 * scale
    assert abs(np.sum(w.data * w.grad) - linear) < 1e-10 * scale
    assert np.max(np.abs(b.grad - g.sum(axis=(0, 1, 2)))) < 1e-10


@pytest.mark.parametrize("case", sorted(CONV3X3_CASES))
def test_conv3x3_nhwc_skips_gx_of_an_input_without_gradient(case):
    """gx is None when x needs no gradient; gW still meets <w, gW> = <conv(x, w), g>."""
    xs, ws = CONV3X3_CASES[case]
    rng = np.random.default_rng(7)
    x, w = Tensor(rng.uniform(-1, 1, xs)), rt(rng, *ws)
    out = _conv3x3(x, w)
    g = rng.uniform(-1, 1, out.shape)
    assert out._node.vjp(g)[0] is None
    T.backward(T.sum_(out * Tensor(g)))
    assert x.grad is None
    linear = np.sum(out.data * g)
    assert abs(np.sum(w.data * w.grad) - linear) < 1e-10 * (np.sum(np.abs(out.data * g)) + 1.0)


def test_conv3x3_nhwc_dense_vjp_holds_no_patch_matrix():
    """The dense 3x3 conv's graph node keeps x and the weight, not the
    [N*h*w, 9C] patch matrix: the backward rebuilds one from the gradient."""
    rng = np.random.default_rng(5)
    x, w = rt(rng, 4, 7, 7, 6), rt(rng, 5, 6, 3, 3)
    out = _conv3x3(x, w, rt(rng, 5))
    held = [c.cell_contents for c in out._node.vjp.__closure__]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    assert any(a is x.data for a in arrays)
    assert all(a is x.data or a.size < x.size for a in arrays)


# single images with odd h, by padding, and the budget each case is run
# under: it cuts the forward's and the backward's grid into several bands of
# whole rows, ~100 pixels each; a GEMM over only a few patch rows may take
# another summation order in the BLAS library
BAND_CASES = {
    "p0": ((1, 37, 16, 32), (32, 32, 3, 3), 0, 294912),
    "p1": ((1, 37, 16, 32), (32, 32, 3, 3), 1, 294912),
    "p2": ((1, 37, 16, 32), (32, 32, 3, 3), 2, 294912),
    "depthwise": ((1, 37, 16, 32), (32, 1, 3, 3), 1, 147456),
}


def _conv_in_bands(monkeypatch, budget, x, w, b, padding, g):
    """Forward and vjp of one conv under budget -> (out, gx, gW, gb)."""
    monkeypatch.setattr(T, "CONV_BAND_BYTES", budget)
    groups = x.shape[3] if w.shape[1] == 1 else 1
    out = T.conv2d(Tensor(x, requires_grad=True), Tensor(w), Tensor(b), padding=padding, groups=groups)
    return (out.data, *out._node.vjp(g))


def _assert_bands_match_one_band(split, whole):
    """Forward, gx and gb bit-equal; gW within 1e-13 of its largest entry,
    since the bands' partial sums over pixels are added band by band."""
    for got, want in zip(split, whole):
        assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(split[0], whole[0]) and np.array_equal(split[1], whole[1])
    assert np.max(np.abs(split[2] - whole[2])) <= 1e-13 * np.max(np.abs(whole[2]))
    assert np.array_equal(split[3], whole[3])


@pytest.mark.parametrize("case", sorted(BAND_CASES))
def test_conv_row_bands_match_one_band(case, monkeypatch):
    """The budget splits the single image into several bands of whole rows,
    forward and backward; each band runs the same taps (depthwise) or the
    same GEMM sums (dense) on the same zero-padded values as one band."""
    xs, ws, padding, budget = BAND_CASES[case]
    rng = np.random.default_rng(sorted(BAND_CASES).index(case))
    x, w, b = rng.normal(size=xs), rng.normal(size=ws), rng.normal(size=ws[0])
    n, h, wd, c = xs
    dense = ws[1] > 1
    oh, ow = (h + 2 * padding - 2, wd + 2 * padding - 2) if dense else (h, wd)
    g = rng.normal(size=(n, oh, ow, ws[0]))
    monkeypatch.setattr(T, "CONV_BAND_BYTES", budget)
    pixel_bytes, extra = (9 * c * 8, 0) if dense else (3 * c * 8, 4)
    for grid in ((oh, ow), (h, wd)):
        bands = T._bands(n, *grid, pixel_bytes, extra)
        assert len(bands) > 2 and all(ni == slice(0, 1) and xi == slice(0, grid[1]) for ni, _, xi in bands)
    split = _conv_in_bands(monkeypatch, budget, x, w, b, padding, g)
    whole = _conv_in_bands(monkeypatch, 2**40, x, w, b, padding, g)
    _assert_bands_match_one_band(split, whole)


def test_neck_conv_bands_are_bit_equal_to_one_band(monkeypatch):
    """The toy step's [8, 16, 24, 64] 64->64 3x3 conv runs in four bands of
    two images under the default budget; its forward and gx equal the one
    patch matrix's bit for bit."""
    rng = np.random.default_rng(8)
    x, w, b = rng.normal(size=(8, 16, 24, 64)), rng.normal(size=(64, 64, 3, 3)), rng.normal(size=64)
    g = rng.normal(size=(8, 16, 24, 64))
    assert len(T._bands(8, 16, 24, 9 * 64 * 8)) == 4
    split = _conv_in_bands(monkeypatch, T.CONV_BAND_BYTES, x, w, b, 1, g)
    whole = _conv_in_bands(monkeypatch, 2**40, x, w, b, 1, g)
    _assert_bands_match_one_band(split, whole)


def test_conv_bands_split_wide_rows_into_pixel_runs(monkeypatch):
    """A row wider than the budget runs as pixel runs of one row, and the
    depthwise conv stays bit-equal to one band."""
    monkeypatch.setattr(T, "CONV_BAND_BYTES", 4096)
    bands = T._bands(2, 3, 41, 3 * 8 * 8, extra_rows=4)
    assert {yi.stop - yi.start for _, yi, _ in bands} == {1} and len({xi.start for _, _, xi in bands}) > 2
    covered = np.zeros((2, 3, 41), dtype=int)
    for ni, yi, xi in bands:
        covered[ni, yi, xi] += 1
    assert np.all(covered == 1)
    rng = np.random.default_rng(9)
    x, w, b, g = rng.normal(size=(2, 3, 41, 8)), rng.normal(size=(8, 1, 3, 3)), rng.normal(size=8), rng.normal(size=(2, 3, 41, 8))
    split = _conv_in_bands(monkeypatch, 4096, x, w, b, 1, g)
    whole = _conv_in_bands(monkeypatch, 2**40, x, w, b, 1, g)
    _assert_bands_match_one_band(split, whole)


@pytest.mark.parametrize("padding, groups", [(0, 1), (1, 1), (2, 1), (1, 5)])
def test_conv2d_grad_check_in_several_bands(padding, groups, monkeypatch):
    """Central differences agree with the banded gx and gW."""
    monkeypatch.setattr(T, "CONV_BAND_BYTES", 2048)
    rng = np.random.default_rng(10 + padding + groups)
    x = Tensor(rng.uniform(-1, 1, (2, 9, 6, 5)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (4, 5, 3, 3) if groups == 1 else (5, 1, 3, 3)), requires_grad=True)
    if groups == 1:
        assert len(T._bands(2, 9 + 2 * padding - 2, 6 + 2 * padding - 2, 9 * 5 * 8)) > 2
    else:
        assert len(T._bands(2, 9, 6, 3 * 5 * 8, extra_rows=4)) > 2
    r = rng.uniform(-1, 1, T.conv2d(x, w, padding=padding, groups=groups).shape)
    T.reset_tape()
    loss = lambda a, b: T.sum_(T.conv2d(a, b, padding=padding, groups=groups) * Tensor(r))
    assert T.grad_check(lambda a: loss(a, w), x) < 1e-5
    assert T.grad_check(lambda b: loss(x, b), w) < 1e-5


def test_1x1_stride1_conv_runs_on_a_view_whatever_the_budget(monkeypatch):
    """A 1x1 stride-1 conv with no padding is one band whose patch matrix
    is its input (and, backward, its output gradient) seen as rows."""
    monkeypatch.setattr(T, "CONV_BAND_BYTES", 256)
    seen = []
    im2col = kernels.im2col
    monkeypatch.setattr(kernels, "im2col", lambda x, *a, **k: seen.append((x, im2col(x, *a, **k))) or seen[-1][1])
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(2, 5, 7, 6)), requires_grad=True)
    out = T.conv2d(x, Tensor(rng.normal(size=(4, 6, 1, 1)), requires_grad=True))
    out._node.vjp(rng.normal(size=out.shape))
    assert len(seen) == 2 and all(np.shares_memory(cols, src) for src, cols in seen)
    assert seen[0][0] is x.data or np.shares_memory(seen[0][0], x.data)


# x shape, kernel, stride, padding, and the patch rows a band holds under
# the patched budget (None: the default budget)
DENSE_PATHS = {
    "strided": ((2, 9, 13, 8), 3, 2, 1, None),
    "1x1 view": ((2, 9, 13, 8), 1, 1, 0, 1),
    "one band": ((2, 9, 13, 8), 3, 1, 1, None),
    "images": ((4, 12, 12, 32), 3, 1, 1, 300),
    "rows": ((1, 37, 16, 32), 3, 1, 1, 128),
    "pixel runs": ((1, 3, 300, 32), 3, 1, 1, 150),
}


def _band_kind(bands, n, h, w):
    """Which cut _bands made of an [n, h, w] grid."""
    if len(bands) == 1:
        return "one band"
    if all((yi, xi) == (slice(0, h), slice(0, w)) for _, yi, xi in bands):
        return "images"
    if all(xi == slice(0, w) for _, _, xi in bands):
        return "rows"
    return "pixel runs"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("path", list(DENSE_PATHS))
def test_dense_conv_writes_c_contiguous_rows_bit_equal_to_one_band(path, dtype, monkeypatch):
    """Every dense path returns a C-contiguous [N, oh, ow, O] output; the
    banded ones (whole images, row bands, pixel runs) write forward and gx
    bit-equal to one band's. Each band keeps 128+ patch rows: a GEMM of a
    few dozen rows may take another summation order in the BLAS library."""
    xs, k, stride, padding, pixels = DENSE_PATHS[path]
    n, h, w, c = xs
    oh, ow = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
    rng = np.random.default_rng(list(DENSE_PATHS).index(path))
    x, wt, b = (rng.normal(size=s).astype(dtype) for s in (xs, (c, c, k, k), c))
    g = rng.normal(size=(n, oh, ow, c)).astype(dtype)
    item = np.dtype(dtype).itemsize

    def conv(budget):
        monkeypatch.setattr(T, "CONV_BAND_BYTES", budget)
        out = T.conv2d(Tensor(x, True, dtype), Tensor(wt, dtype=dtype), Tensor(b, dtype=dtype), stride, padding)
        assert out.data.shape == (n, oh, ow, c) and out.dtype == dtype and out.data.flags.c_contiguous
        return out.data, out._node.vjp(g)[0]

    budget = T.CONV_BAND_BYTES if pixels is None else pixels * k * k * c * item
    banded = conv(budget)
    if stride == 1 and k > 1:
        for grid in ((oh, ow), (h, w)):  # forward, then gx
            assert _band_kind(T._bands(n, *grid, k * k * c * item), n, *grid) == path
        whole = conv(2**40)
        assert np.array_equal(banded[0], whole[0]) and np.array_equal(banded[1], whole[1])


def test_desk_toy_step_peaks_under_48_mb():
    """The toy batch's loss_terms and backward peak under 48 MB: the
    stride-1 convs build their patch rows one band at a time (53.1 MB with
    one [N*h*w, 9*64] patch matrix per conv)."""
    samples = build_synth_dataset(8, (96, 64), seed=7, n_objects=2, z_range=(4.5, 8.0), focal=120.0)
    images = T.stack([s.image for s in samples])
    targets, calibs = [s.targets for s in samples], [s.calib for s in samples]
    det = Detector("desk", seed=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        terms = det.loss_terms(images, targets, calibs)
        T.backward(total_loss(terms, make_weights())[0])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 48e6, f"{peak / 1e6:.1f} MB peak through loss_terms and backward"


def test_desk_loss_terms_forward_keeps_under_90_mb():
    """One toy batch (8 x 96x64) through the desk loss keeps its graph under
    90 MB: no stride-1 conv holds its forward patch matrix."""
    samples = build_synth_dataset(8, (96, 64), seed=7, n_objects=2, z_range=(4.5, 8.0), focal=120.0)
    images = T.stack([s.image for s in samples])
    targets, calibs = [s.targets for s in samples], [s.calib for s in samples]
    det = Detector("desk", seed=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        terms = det.loss_terms(images, targets, calibs)
        live = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(terms) == 9
    assert live < 90e6, f"{live / 1e6:.1f} MB live after the forward"


def test_desk_toy_step_keeps_only_what_backward_reads():
    """The same toy batch holds under 40 MB after the forward and peaks
    under 65 MB through loss_terms and backward: the graph keeps no input
    that no vjp reads (52.4 and 75.9 MB when every node kept its inputs)."""
    samples = build_synth_dataset(8, (96, 64), seed=7, n_objects=2, z_range=(4.5, 8.0), focal=120.0)
    images = T.stack([s.image for s in samples])
    targets, calibs = [s.targets for s in samples], [s.calib for s in samples]
    det = Detector("desk", seed=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        terms = det.loss_terms(images, targets, calibs)
        live = tracemalloc.get_traced_memory()[0] - base
        T.backward(total_loss(terms, make_weights())[0])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert live < 40e6, f"{live / 1e6:.1f} MB live after the forward"
    assert peak < 65e6, f"{peak / 1e6:.1f} MB peak through loss_terms and backward"


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    rng = np.random.default_rng(3)
    b = rng.normal(size=(3, 5))
    out = oracles.matmul_batched(Tensor(np.eye(3)), Tensor(b))
    assert np.array_equal(out.data, b)


def test_matmul_hand_case():
    out = oracles.matmul_batched(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_matches_loop_oracle():
    rng = np.random.default_rng(4)
    a = rng.uniform(-1, 1, (4, 5, 6))
    b = rng.uniform(-1, 1, (4, 6, 3))
    expected = oracles.matmul_loops(a, b)
    got = oracles.matmul_batched(Tensor(a), Tensor(b))
    assert np.max(np.abs(got.data - expected)) < 1e-12


def test_matmul_inner_dim_mismatch():
    with pytest.raises(DimensionError):
        oracles.matmul_batched(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def _check_matmul(rng):
    x, y = _t(rng, 2, 3, 4), _t(rng, 2, 4, 2)
    r = _t(rng, 2, 3, 2)
    worst = T.grad_check(_projected(lambda a: oracles.matmul_batched(a, y), r), x, eps=EPS)
    return max(worst, T.grad_check(_projected(lambda b: oracles.matmul_batched(x, b), r), y, eps=EPS))


def _check_softmax(rng):
    x, r = _t(rng, 2, 5), _t(rng, 2, 5)
    return T.grad_check(_projected(oracles.softmax_lastdim, r), x, eps=EPS)


def test_reference_matmul_and_softmax_pass_the_gradient_suite():
    # the unfused references' backward rules, checked as the suite checks
    # a component: 20 seeds under THRESHOLD, and a 1% fault is caught
    for check in (_check_matmul, _check_softmax):
        assert max(check(np.random.default_rng(s)) for s in range(20)) < THRESHOLD
    for name, check in (("matmul", _check_matmul), ("softmax", _check_softmax)):
        T._fault_ops.add(name)  # not an OP_NAMES op, so inject_fault refuses it
        assert check(np.random.default_rng(0)) >= THRESHOLD
        T.clear_faults()


# ---------------------------------------------------------------------------
# linear / attention
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_linear_equals_matmul_plus_bias_bitwise(dtype):
    rng = np.random.default_rng(41)
    x, w, b = (Tensor(rng.normal(size=shape), dtype=dtype) for shape in ((2, 5, 4), (4, 3), (3,)))
    got = T.linear(x, w, b)
    assert got.dtype == dtype and got.shape == (2, 5, 3)
    assert np.array_equal(got.data, (oracles.matmul_batched(x, w) + b).data)
    assert np.array_equal(T.linear(x, w).data, oracles.matmul_batched(x, w).data)


def test_linear_is_one_node_with_the_chain_gradients():
    rng = np.random.default_rng(42)
    x, w, b = (rt(rng, *shape) for shape in ((2, 5, 4), (4, 3), (3,)))
    r = rng.normal(size=(2, 5, 3))
    T.reset_tape()
    T.backward(T.sum_(T.linear(x, w, b) * r))
    assert T.tape_length() == 3  # linear, mul, sum
    fused = [t.grad.copy() for t in (x, w, b)]
    for t in (x, w, b):
        t.zero_grad()
    T.backward(T.sum_((oracles.matmul_batched(x, w) + b) * r))
    for got, t in zip(fused, (x, w, b)):
        np.testing.assert_allclose(got, t.grad, rtol=1e-13, atol=1e-15)


def test_mul_skips_the_product_of_a_constant_side():
    """A side that takes no gradient when mul records gets a None slot; the
    other side's gradient is g times the constant, bitwise."""
    rng = np.random.default_rng(43)
    x, c, g = rt(rng, 2, 3), Tensor(rng.normal(size=(1, 3))), rng.normal(size=(2, 3))
    for out, slot in ((x * c, 1), (c * x, 0)):
        grads = out._node.vjp(g)
        assert grads[slot] is None
        assert np.array_equal(grads[1 - slot], g * c.data)
    both = T.mul(x, rt(rng, 2, 3))
    assert all(gi is not None for gi in both._node.vjp(g))


def test_linear_shape_errors():
    with pytest.raises(DimensionError):
        T.linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 2))))
    with pytest.raises(DimensionError):
        T.linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(3)))


def _unfused_attention(q, kv, num_heads, scale):
    """The attention as separate ops: heads split by views, matmul, `*
    scale`, softmax_lastdim, matmul, heads merged."""
    n, t, c = q.shape
    s, hd = kv.shape[1], c // num_heads
    qh = T.transpose(T.reshape(q, (n, t, num_heads, hd)), (0, 2, 1, 3))
    kvh = T.transpose(T.reshape(kv, (n, s, 2, num_heads, hd)), (2, 0, 3, 1, 4))
    k, v = kvh[0], kvh[1]
    attn = oracles.softmax_lastdim(oracles.matmul_batched(qh, T.transpose(k, (0, 1, 3, 2))) * scale)
    return T.reshape(T.transpose(oracles.matmul_batched(attn, v), (0, 2, 1, 3)), (n, t, c))


# one query block, and two with a short second one
ATTENTION_ROWS = (37, T.ATTENTION_CHUNK + 5)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("t", ATTENTION_ROWS)
def test_attention_equals_unfused_chain_bitwise(dtype, t):
    rng = np.random.default_rng(43)
    q = Tensor(rng.normal(size=(2, t, 8)) * 2.0, dtype=dtype)
    kv = Tensor(rng.normal(size=(2, 6, 16)) * 2.0, dtype=dtype)
    got = T.attention(q, kv, 2, 0.5)
    assert got.dtype == dtype and got.shape == (2, t, 8)
    assert np.array_equal(got.data, _unfused_attention(q, kv, 2, 0.5).data)


@pytest.mark.parametrize("t", ATTENTION_ROWS)
def test_attention_gradients_match_unfused_chain(t):
    rng = np.random.default_rng(44)
    q, kv = rt(rng, 2, t, 8), rt(rng, 2, 6, 16)
    r = rng.normal(size=(2, t, 8))
    T.reset_tape()
    T.backward(T.sum_(T.attention(q, kv, 2, 0.5) * r))
    assert T.tape_length() == 3  # attention, mul, sum
    fused = [q.grad.copy(), kv.grad.copy()]
    q.zero_grad()
    kv.zero_grad()
    T.backward(T.sum_(_unfused_attention(q, kv, 2, 0.5) * r))
    for got, want in zip(fused, (q.grad, kv.grad)):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)


def test_attention_graph_keeps_no_logits():
    # the node holds q and kv, not a [T, S] array per head
    rng = np.random.default_rng(45)
    q, kv = rt(rng, 1, 512, 8), rt(rng, 1, 256, 16)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = T.attention(q, kv, 2, 0.5)
        live = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert out._node is not None
    logits = 2 * 512 * 256 * 8  # bytes of one [T, S] array per head
    assert live < logits / 10  # the output and the heads' k and v


def test_attention_shape_errors():
    q = Tensor(np.zeros((1, 4, 8)))
    with pytest.raises(DimensionError):
        T.attention(q, Tensor(np.zeros((1, 3, 8))), 2, 0.5)
    with pytest.raises(DimensionError):
        T.attention(q, Tensor(np.zeros((1, 3, 16))), 3, 0.5)


# ---------------------------------------------------------------------------
# softmax / layer_norm / gelu
# ---------------------------------------------------------------------------


def test_softmax_constant_slice_uniform():
    out = oracles.softmax_lastdim(Tensor(np.full((2, 7), 3.3)))
    assert np.allclose(out.data, 1.0 / 7, atol=1e-15)


def test_softmax_extreme_logits_stable():
    out = oracles.softmax_lastdim(Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(1.0)
    assert out.data[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_sums_and_order():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 9))
    out = oracles.softmax_lastdim(Tensor(x)).data
    assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12
    for row_in, row_out in zip(x, out):
        assert np.array_equal(np.argsort(row_in), np.argsort(row_out))


def test_softmax_empty_lastdim():
    with pytest.raises(DimensionError):
        oracles.softmax_lastdim(Tensor(np.zeros((3, 0))))


def test_layer_norm_constant_slice():
    g, b = Tensor(np.ones(5)), Tensor(np.zeros(5))
    out = T.layer_norm(Tensor(np.full((2, 5), 4.2)), g, b, eps=1e-6)
    assert np.allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_already_normalized():
    g, b = Tensor(np.ones(2)), Tensor(np.zeros(2))
    out = T.layer_norm(Tensor([-1.0, 1.0]), g, b, eps=1e-12)
    assert np.allclose(out.data, [-1.0, 1.0], atol=1e-6)


def test_layer_norm_zero_gamma_gives_beta():
    rng = np.random.default_rng(6)
    beta = rng.normal(size=4)
    out = T.layer_norm(Tensor(rng.normal(size=(3, 4))), Tensor(np.zeros(4)), Tensor(beta))
    assert np.allclose(out.data, np.broadcast_to(beta, (3, 4)))


def test_layer_norm_mean_property():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 11))
    out = T.layer_norm(Tensor(x), Tensor(np.ones(11)), Tensor(np.zeros(11)))
    assert np.max(np.abs(out.data.mean(axis=-1))) < 1e-10


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [16, 32, 64, 128])
@pytest.mark.parametrize("lead", [(3, 5), (2, 3, 4)])
def test_layer_norm_forward_is_bit_equal_to_the_textbook_expression(dtype, d, lead):
    rng = np.random.default_rng(d + len(lead))
    x = (rng.normal(size=lead + (d,)) * 3.0 + 0.7).astype(dtype)
    gamma, beta = rng.normal(size=d).astype(dtype), rng.normal(size=d).astype(dtype)
    eps = 1e-6
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, -1, keepdims=True)
    xhat = xc * (1 / np.sqrt(var + eps))
    want = xhat * gamma + beta
    got = T.layer_norm(Tensor(x, dtype=dtype), Tensor(gamma, dtype=dtype), Tensor(beta, dtype=dtype), eps)
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got.data, want)


def test_gelu_values():
    assert T.gelu(Tensor(0.0)).item() == 0.0
    assert T.gelu(Tensor(20.0)).item() == pytest.approx(20.0, abs=1e-12)
    assert T.gelu(Tensor(-20.0)).item() == pytest.approx(0.0, abs=1e-12)
    # expected value computed from an independent erf series
    expected = 1.0 * oracles.normal_cdf_series(1.0)
    assert expected == pytest.approx(0.8413, abs=1e-4)
    assert T.gelu(Tensor(1.0)).item() == pytest.approx(expected, abs=1e-12)


def _erf_points():
    """A dense grid over [-8, 8] plus the branch edge (1), the clamp (6) and far out."""
    edges = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 6.0, 40.0]
    pos = np.concatenate([np.linspace(0.0, 8.0, 100_001)[1:], edges])
    return np.concatenate([-pos[::-1], [-0.0, 0.0], pos])


def _erf_ulps(got, x):
    want = np.array([math.erf(v) for v in x])
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_erf_float64_within_4_ulp_of_math_erf():
    x = _erf_points()
    got = kernels.erf(x)
    assert got.dtype == np.float64
    assert np.max(_erf_ulps(got, x)) <= 4


def test_erf_special_values():
    got = kernels.erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
    assert list(np.signbit(got[:2])) == [False, True] and list(got[:2]) == [0.0, 0.0]
    assert list(got[2:4]) == [1.0, -1.0]
    assert np.isnan(got[4])


def test_erf_float32_is_the_float64_value_rounded_once():
    x = _erf_points().astype(np.float32)
    got = kernels.erf(x)
    assert got.dtype == np.float32
    assert np.array_equal(got, np.array([np.float32(math.erf(v)) for v in x.tolist()]))


def test_erf_covers_every_element_at_block_edges_and_keeps_shape_and_layout():
    block = kernels._ERF_BLOCK
    for n in (0, 1, block - 1, block, block + 1):
        x = np.linspace(-3.0, 3.0, n)
        got = kernels.erf(x)
        assert got.shape == (n,) and np.max(_erf_ulps(got, x), initial=0.0) <= 4, n
    cube = np.linspace(-3.0, 3.0, 5 * 7 * 937).reshape(5, 7, 937)  # two blocks and a part
    got = kernels.erf(cube)
    assert got.shape == cube.shape
    assert np.max(_erf_ulps(got.ravel(), cube.ravel())) <= 4
    assert kernels.erf(cube.T).flags.f_contiguous  # laid out like its input
    for view in (cube.T, cube[:, ::2, ::-3]):
        assert np.array_equal(kernels.erf(view), kernels.erf(np.ascontiguousarray(view)))


# ---------------------------------------------------------------------------
# bilinear resize
# ---------------------------------------------------------------------------


def test_bilinear_identity():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, 5, 7, 2))
    out = T.bilinear_resize(Tensor(x), 5, 7)
    assert np.array_equal(out.data, x)


def test_bilinear_constant():
    out = T.bilinear_resize(Tensor(np.full((1, 3, 3, 1), 2.5)), 8, 5)
    assert np.allclose(out.data, 2.5, atol=1e-14)


# (h, w, out_h, out_w): the neck's toy-step upsamplings, a non-integer
# ratio, a downscale and a 1x1 target
_RESIZE_CASES = ((2, 3, 4, 6), (8, 12, 16, 24), (5, 7, 8, 11), (6, 6, 4, 3), (4, 5, 1, 1))


def test_bilinear_2x2_to_4x4_golden():
    img = np.array([[0.0, 1.0], [2.0, 3.0]])
    expected = oracles.bilinear_resize_direct(img, 4, 4)
    out = T.bilinear_resize(Tensor(img[None, :, :, None]), 4, 4)
    assert np.max(np.abs(out.data[0, :, :, 0] - expected)) < 1e-14
    # corners replicate, centers interpolate at quarter weights
    assert out.data[0, 0, 0, 0] == 0.0
    assert out.data[0, 3, 3, 0] == 3.0
    assert out.data[0, 1, 1, 0] == pytest.approx(0.75 * 0.75 * 0 + 0.75 * 0.25 * 1 + 0.25 * 0.75 * 2 + 0.25 * 0.25 * 3)
    # the same oracle at the other shapes
    rng = np.random.default_rng(9)
    for h, w, oh, ow in _RESIZE_CASES:
        img = rng.normal(size=(h, w))
        out = T.bilinear_resize(Tensor(img[None, :, :, None]), oh, ow)
        assert out.shape == (1, oh, ow, 1)
        err = np.max(np.abs(out.data[0, :, :, 0] - oracles.bilinear_resize_direct(img, oh, ow)))
        assert err < 1e-12, ((h, w, oh, ow), err)


def test_bilinear_resize_adjoint():
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(3, 5, 7, 4)), requires_grad=True)
    g = rng.normal(size=(3, 8, 11, 4))
    out = T.bilinear_resize(x, 8, 11)
    T.backward(T.sum_(out * Tensor(g)))
    assert abs(np.sum(out.data * g) - np.sum(x.data * x.grad)) < 1e-12


def test_bilinear_resize_keeps_float32():
    x = np.random.default_rng(11).normal(size=(2, 5, 7, 3))
    got = T.bilinear_resize(Tensor(x, dtype=np.float32), 8, 11)
    assert got.dtype == np.float32
    want = T.bilinear_resize(Tensor(x), 8, 11)
    assert want.dtype == np.float64
    np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-6)


def test_interp_matrices_are_cached_read_only():
    for dtype in (np.float64, np.float32):
        m = T._interp_matrix(11, 7, np.dtype(dtype))
        assert m is T._interp_matrix(11, 7, np.dtype(dtype)) and m.dtype == dtype
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
        # the cached weights are the ones a fresh build gives
        assert np.array_equal(m, T._interp_matrix.__wrapped__(11, 7, dtype))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_bilinear_resize_with_cached_matrices_is_unchanged(dtype):
    rng = np.random.default_rng(13)
    for h, w, oh, ow in _RESIZE_CASES:
        x = rng.normal(size=(2, h, w, 3)).astype(dtype)
        g = rng.normal(size=(2, oh, ow, 3)).astype(dtype)
        wy, wx = (T._interp_matrix.__wrapped__(o, n, dtype) for o, n in ((oh, h), (ow, w)))
        for _ in range(2):  # the first call may build the matrices, the second reads the cache
            xt = Tensor(x, requires_grad=True, dtype=dtype)
            out = T.bilinear_resize(xt, oh, ow)
            T.backward(T.sum_(out * Tensor(g, dtype=dtype)))
            assert np.array_equal(out.data, kernels.bilinear_gather(x, wy, wx))
            assert np.array_equal(xt.grad, kernels.bilinear_scatter(g, wy, wx))


def _taps(rng, image, s, k, h, w):
    """[M, S, K] taps on an h x w map, with a repeated tap and zero weights."""
    m = len(image)
    ys, xs = rng.integers(0, h, (m, s, k)), rng.integers(0, w, (m, s, k))
    ys[0, 1], xs[0, 1] = ys[0, 0], xs[0, 0]  # the same taps at two samples
    ys[-1], xs[-1] = ys[0], xs[0]  # and at two outputs of one image
    weights = rng.normal(size=(m, s, k))
    weights[1, 2] = 0.0
    return image, ys, xs, weights


@pytest.mark.parametrize("k", [4, 1])
def test_tap_gather_sums_weighted_taps_and_scatter_is_its_adjoint(k):
    rng = np.random.default_rng(14)
    n, c, h, w, s = 2, 3, 5, 6, 7
    x, g = rng.normal(size=(n, h, w, c)), rng.normal(size=(4, s, c))
    image, ys, xs, weights = _taps(rng, np.array([0, 1, 1, 0]), s, k, h, w)
    out = kernels.tap_gather(x, image, ys, xs, weights)
    want = np.zeros((4, s, c))
    for m, si, ki in np.ndindex(4, s, k):
        want[m, si] += weights[m, si, ki] * x[image[m], ys[m, si, ki], xs[m, si, ki]]
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
    dx = kernels.tap_scatter(g, image, ys, xs, weights, n, h, w)
    assert dx.shape == x.shape
    assert abs(np.vdot(out, g) - np.vdot(x, dx)) < 1e-12


def test_tap_scatter_writes_only_into_the_taps_image():
    rng = np.random.default_rng(15)
    image, ys, xs, weights = _taps(rng, np.zeros(3, dtype=np.int64), 5, 4, 4, 4)
    dx = kernels.tap_scatter(rng.normal(size=(3, 5, 2)), image, ys, xs, weights, 2, 4, 4)
    assert np.any(dx[0] != 0.0) and not np.any(dx[1])


def test_tap_gather_keeps_float32():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(2, 5, 6, 3)).astype(np.float32)
    image, ys, xs, weights = _taps(rng, np.array([1, 0]), 3, 4, 5, 6)
    out = kernels.tap_gather(x, image, ys, xs, weights.astype(np.float32))
    assert out.dtype == np.float32 and out.shape == (2, 3, 3)  # [M, S, C]


# ---------------------------------------------------------------------------
# backward / grad_check
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    T.backward(T.sum_(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_quadratic_gives_2x():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    T.backward(T.sum_(x * x))
    assert np.array_equal(x.grad, 2 * x.data)


def test_backward_accumulates_until_reset():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = T.sum_(x * x)
    T.backward(loss)
    T.backward(loss)
    assert np.array_equal(x.grad, 4 * np.ones(3))
    x.zero_grad()
    T.backward(loss)
    assert np.array_equal(x.grad, 2 * np.ones(3))


def test_leaf_grads_are_writable_copies_in_the_leaf_dtype():
    # add's vjp hands both leaves the same gradient array
    a, b = (Tensor(np.ones((2, 3)), requires_grad=True) for _ in range(2))
    T.backward(T.sum_(a + b))
    assert not np.shares_memory(a.grad, b.grad)
    a.grad += 1.0
    assert np.array_equal(a.grad, np.full((2, 3), 2.0)) and np.array_equal(b.grad, np.ones((2, 3)))
    # a float32 leaf times a float64 tensor takes a float64 gradient
    x = Tensor(np.ones(3), requires_grad=True, dtype=np.float32)
    T.backward(T.sum_(x * Tensor(np.full(3, 0.1))))
    assert x.grad.dtype == np.float32 and np.array_equal(x.grad, np.full(3, 0.1, dtype=np.float32))


def test_backward_runs_each_node_once_after_its_consumers():
    # `a` feeds three consumers; its vjp must run once, on their summed gradient
    x = Tensor(np.arange(1.0, 4.0), requires_grad=True)
    a = x * 2.0
    loss = T.sum_(a * T.exp(a) + a)
    calls, stack = {}, [loss._node]
    while stack:
        node = stack.pop()
        if node in calls:
            continue
        calls[node] = 0

        def counted(g, _vjp=node.vjp, _node=node):
            calls[_node] += 1
            return _vjp(g)

        node.vjp = counted
        stack.extend(r for r in node.inputs if isinstance(r, T._Node))
    T.backward(loss)
    assert len(calls) == 5 and set(calls.values()) == {1}
    ea = np.exp(2 * x.data)
    assert np.allclose(x.grad, 2 * (ea + 2 * x.data * ea + 1), rtol=1e-14, atol=0)


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones(3), requires_grad=True)
    y = x * x
    with pytest.raises(UsageError):
        T.backward(y)


def test_backward_disconnected_loss():
    with pytest.raises(UsageError):
        T.backward(Tensor(1.0, requires_grad=True))


def test_backward_through_nodes_recorded_before_reset_tape():
    c = np.array([5.0, 7.0])
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = w * c
    T.reset_tape()
    T.backward(T.sum_(y))
    assert np.array_equal(w.grad, c)


def test_tape_length_counts_nodes_since_reset():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    T.reset_tape()
    y = T.sum_(w * 3.0)
    with T.no_grad():
        w * 3.0
    assert T.tape_length() == 2
    T.backward(y)
    T.reset_tape()
    assert T.tape_length() == 0


def test_graph_freed_with_its_last_tensor():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    assert oracles.live_graph_nodes() == 0
    y = w * 2.0
    loss = T.sum_(T.exp(y) + y)
    assert oracles.live_graph_nodes() == 4
    del y
    assert oracles.live_graph_nodes() == 4  # the loss still reaches y's node
    T.backward(loss)
    del loss
    # freed by reference counting alone: the graph holds no cycle
    assert oracles.live_graph_nodes(collect=False) == 0


def _graph_over_unread_intermediates():
    """A loss over intermediates that no vjp reads: an add output under
    relu, an op output seen only through reshape and transpose, and that
    view, the non-contiguous input of linear (which keeps its own copy)."""
    rng = np.random.default_rng(12)
    x, w = rt(rng, 4, 6), rt(rng, 4, 5)
    named = {"added": x + Tensor(rng.uniform(-1, 1, 6))}
    named["made"] = T.relu(named["added"]) * 2.0
    named["strided"] = T.transpose(T.reshape(named["made"], (2, 3, 4)), (1, 0, 2))
    loss = T.sum_(T.linear(named["strided"], w))
    return loss, (x, w), named


def test_graph_frees_what_no_backward_reads():
    loss, (x, w), named = _graph_over_unread_intermediates()
    assert not named["strided"].data.flags.c_contiguous
    refs = {k: weakref.ref(t.data) for k, t in named.items()}
    named.clear()
    assert [k for k, r in refs.items() if r() is not None] == []
    T.backward(loss)
    kept_loss, (kx, kw), kept = _graph_over_unread_intermediates()  # names live through backward
    T.backward(kept_loss)
    assert np.array_equal(x.grad, kx.grad) and np.array_equal(w.grad, kw.grad)
    assert float(loss.data) == float(kept_loss.data)


def test_requires_grad_is_read_when_the_op_records():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    w = Tensor(np.array([4.0, 5.0, 6.0]))
    loss = T.sum_(x * w)
    w.requires_grad = True  # after `mul` recorded: w is not in its graph
    T.backward(loss)
    assert w.grad is None
    assert np.array_equal(x.grad, w.data)
    # grad_check sets the probe's flag before it records and restores it
    w.requires_grad = False
    assert T.grad_check(lambda t: T.sum_(t * x), w) < 1e-9
    assert w.requires_grad is False and np.array_equal(w.grad, x.data)


def test_failed_forward_leaves_no_nodes():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with pytest.raises(NumericError):
        (w - 5.0) * np.inf
    assert oracles.live_graph_nodes() == 0


def test_grad_check_linear_is_exact():
    x = Tensor(np.linspace(-1, 1, 8), requires_grad=True)
    err = T.grad_check(lambda t: T.sum_(t * 3.0), x)
    assert err < 1e-9


def test_grad_check_composite_graph():
    rng = np.random.default_rng(9)
    x = _draw_nhwc(rng, (1, 2, 6, 6))
    w = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)))
    g = Tensor(np.ones(6 * 6), requires_grad=False)
    b = Tensor(np.zeros(6 * 6), requires_grad=False)

    def f(t):
        y = T.conv2d(t, w, padding=1)
        y = T.reshape(T.transpose(y, (0, 3, 1, 2)), (1, 3, 36))
        y = T.layer_norm(y, g, b)
        y = oracles.softmax_lastdim(y)
        return T.sum_(y * y)

    assert T.grad_check(f, x) < 1e-4


VIEWS = {
    "reshape": lambda a: T.reshape(a, (3, 2)),
    "transpose": lambda a: T.transpose(a, (1, 0)),
    "getitem": lambda a: a[:, 1:],
}


@pytest.mark.parametrize("name", sorted(VIEWS))
def test_view_of_a_nonfinite_leaf_raises_naming_the_view(name):
    # leaves are written in place (parameters, images), so a view of one is
    # scanned; a view of an op output is not, since ops scan what they make
    leaf = Tensor(np.array([[1.0, np.nan, 2.0], [3.0, 4.0, 5.0]]))
    with pytest.raises(NumericError, match=f"output of {name}$"):
        VIEWS[name](leaf)


@pytest.mark.parametrize("name", sorted(VIEWS))
def test_view_of_an_op_output_is_not_scanned(name, monkeypatch):
    made = Tensor(np.arange(6.0).reshape(2, 3)) * 2.0
    scans = []
    isfinite = np.isfinite
    monkeypatch.setattr(T.np, "isfinite", lambda a: scans.append(a.shape) or isfinite(a))
    VIEWS[name](made)
    assert scans == []


def test_op_names_are_the_recorded_names():
    source = inspect.getsource(T)
    assert set(re.findall(r'_record\(\s*"(\w+)"', source)) == T.OP_NAMES


def test_grad_check_negative_control():
    T.inject_fault("gelu")
    rng = np.random.default_rng(10)
    x = rt(rng, 5)
    err = T.grad_check(lambda t: T.sum_(T.gelu(t)), x)
    # a 1% gradient perturbation must land far above the 1e-4 pass tolerance
    assert err > 1e-3


def test_grad_check_restores_the_probe_flag():
    w = Tensor(np.ones(3))
    p = Tensor(np.full(3, 2.0), requires_grad=True)
    assert T.grad_check(lambda t: T.sum_(t * p), w) < 1e-9
    assert w.requires_grad is False
    assert T.grad_check(lambda t: T.sum_(t * w), p) < 1e-9
    assert p.requires_grad is True
    with pytest.raises(UsageError):
        T.grad_check(lambda t: t * p, w)
    assert w.requires_grad is False


def test_grad_check_refuses_float32():
    x = Tensor(np.ones(3), dtype=np.float32)
    with pytest.raises(UsageError, match="float64"):
        T.grad_check(lambda t: T.sum_(t * t), x)
    assert x.requires_grad is False and x.grad is None


SCALAR_ARITHMETIC = {
    "add": lambda t: t + 0.3,
    "radd": lambda t: 0.3 + t,
    "sub": lambda t: t - 0.3,
    "rsub": lambda t: 0.3 - t,
    "mul": lambda t: t * 0.3,
    "rmul": lambda t: 0.3 * t,
    "truediv": lambda t: t / 0.3,
    "rtruediv": lambda t: 0.3 / t,
}


@pytest.mark.parametrize("op", sorted(SCALAR_ARITHMETIC))
def test_python_scalar_arithmetic_keeps_float32(op):
    values = np.array([0.5, 1.5, -2.0])
    f = SCALAR_ARITHMETIC[op]
    got = f(Tensor(values, dtype=np.float32))
    assert got.dtype == np.float32
    want = f(Tensor(values))
    assert want.dtype == np.float64
    np.testing.assert_allclose(got.data, want.data, rtol=1e-6)


@pytest.mark.parametrize("seed", range(20))
def test_grad_check_core_ops_many_seeds(seed):
    rng = np.random.default_rng(100 + seed)
    x = _draw_nhwc(rng, (2, 3, 5, 4))
    w = Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)))
    bias = Tensor(rng.uniform(-1, 1, 4))
    assert T.grad_check(lambda t: T.sum_(T.conv2d(t, w, bias, stride=2, padding=1) ** 2), x) < 1e-4

    a = rt(rng, 3, 4)
    m = Tensor(rng.uniform(-1, 1, (4, 5)))
    # sum of a softmax is constant, so square it to get a usable loss
    assert T.grad_check(lambda t: T.sum_(oracles.softmax_lastdim(oracles.matmul_batched(t, m)) ** 2), a) < 1e-4

    v = rt(rng, 4, 6)
    gm = Tensor(rng.uniform(0.5, 1.5, 6))
    bt = Tensor(rng.uniform(-0.5, 0.5, 6))
    assert T.grad_check(lambda t: T.sum_(T.layer_norm(t, gm, bt) ** 3), v) < 1e-4

    u = rt(rng, 3, 7)
    assert T.grad_check(lambda t: T.sum_(T.gelu(t)), u) < 1e-4
    assert T.grad_check(lambda t: T.sum_(T.sigmoid(t) * t), u) < 1e-4

    im = _draw_nhwc(rng, (1, 2, 4, 5))
    assert T.grad_check(lambda t: T.sum_(T.bilinear_resize(t, 7, 3) ** 2), im) < 1e-4


def test_grad_check_weight_and_bias_paths():
    rng = np.random.default_rng(11)
    x = _draw_nhwc(rng, (2, 2, 5, 5), requires_grad=False)
    w = rt(rng, 3, 2, 3, 3)
    assert T.grad_check(lambda t: T.sum_(T.conv2d(x, t, padding=1) ** 2), w) < 1e-4
    b = rt(rng, 3)
    wf = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)))
    assert T.grad_check(lambda t: T.sum_(T.conv2d(x, wf, t) ** 2), b) < 1e-4


def test_grad_check_structural_ops():
    rng = np.random.default_rng(12)
    x = rt(rng, 4, 6)

    def f(t):
        top = t[:2]
        bottom = t[2:]
        joined = T.reshape(T.stack([top * 2.0, bottom], axis=0), (4, 6))
        moved = T.transpose(joined, (1, 0))
        return T.sum_(T.absolute(moved) ** 2) + T.mean(t) + T.sum_(T.exp(t * 0.1)) + T.sum_(
            T.sqrt(T.clip(t, 0.01, 10.0) + 2.0)
        )

    assert T.grad_check(f, x) < 1e-4


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_forward_determinism_bitwise():
    def run():
        rng = np.random.default_rng(77)
        x = _draw_nhwc(rng, (2, 3, 9, 9), requires_grad=False)
        w = Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)))
        y = T.conv2d(x, w, stride=2, padding=1)
        y = oracles.softmax_lastdim(T.reshape(y, (2, 4, 25)))
        return y.data.copy()

    assert np.array_equal(run(), run())


import numpy as np
import pytest

from mono3d import tensor as T
from mono3d.errors import DimensionError, NumericError, UsageError
from mono3d.tensor import Tensor

import oracles


def rt(rng, *shape):
    return Tensor(rng.uniform(-1, 1, shape), requires_grad=True)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


def test_conv2d_all_ones():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 2, 2)))
    out = T.conv2d(x, w)
    assert out.shape == (1, 1, 2, 2)
    assert np.array_equal(out.data, np.full((1, 1, 2, 2), 4.0))


def test_conv2d_depthwise_identity():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, 4, 5, 6)))
    w = Tensor(np.ones((4, 1, 1, 1)))
    out = T.conv2d(x, w, groups=4)
    assert np.array_equal(out.data, x.data)


def test_conv2d_matches_direct_oracle():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, (2, 3, 8, 8))
    w = rng.uniform(-1, 1, (4, 3, 3, 3))
    b = rng.uniform(-1, 1, 4)
    expected = oracles.conv2d_direct(x, w, b, stride=2, padding=1)
    got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1)
    assert got.shape == expected.shape
    assert np.max(np.abs(got.data - expected)) < 1e-10


def test_conv2d_grouped_matches_direct_oracle():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, (2, 6, 7, 5))
    w = rng.uniform(-1, 1, (6, 1, 3, 3))
    expected = oracles.conv2d_direct(x, w, None, stride=1, padding=1, groups=6)
    got = T.conv2d(Tensor(x), Tensor(w), padding=1, groups=6)
    assert np.max(np.abs(got.data - expected)) < 1e-10


def test_conv2d_output_size_formula():
    x = Tensor(np.zeros((1, 2, 11, 9)))
    w = Tensor(np.zeros((3, 2, 3, 3)))
    out = T.conv2d(x, w, stride=2, padding=1)
    assert out.shape == (1, 3, (11 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)


def test_conv2d_shape_errors():
    x = Tensor(np.zeros((1, 3, 4, 4)))
    w = Tensor(np.zeros((2, 4, 3, 3)))
    with pytest.raises(DimensionError):
        T.conv2d(x, w)
    with pytest.raises(DimensionError):
        T.conv2d(x, Tensor(np.zeros((2, 3, 3, 3))), groups=3)


def test_conv2d_nonfinite_input_raises():
    x = Tensor(np.full((1, 1, 3, 3), np.nan))
    w = Tensor(np.ones((1, 1, 2, 2)))
    with pytest.raises(NumericError):
        T.conv2d(x, w)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    rng = np.random.default_rng(3)
    b = rng.normal(size=(3, 5))
    out = T.matmul_batched(Tensor(np.eye(3)), Tensor(b))
    assert np.array_equal(out.data, b)


def test_matmul_hand_case():
    out = T.matmul_batched(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_matches_loop_oracle():
    rng = np.random.default_rng(4)
    a = rng.uniform(-1, 1, (4, 5, 6))
    b = rng.uniform(-1, 1, (4, 6, 3))
    expected = oracles.matmul_loops(a, b)
    got = T.matmul_batched(Tensor(a), Tensor(b))
    assert np.max(np.abs(got.data - expected)) < 1e-12


def test_matmul_inner_dim_mismatch():
    with pytest.raises(DimensionError):
        T.matmul_batched(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


# ---------------------------------------------------------------------------
# softmax / layer_norm / gelu
# ---------------------------------------------------------------------------


def test_softmax_constant_slice_uniform():
    out = T.softmax_lastdim(Tensor(np.full((2, 7), 3.3)))
    assert np.allclose(out.data, 1.0 / 7, atol=1e-15)


def test_softmax_extreme_logits_stable():
    out = T.softmax_lastdim(Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(1.0)
    assert out.data[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_sums_and_order():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 9))
    out = T.softmax_lastdim(Tensor(x)).data
    assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12
    for row_in, row_out in zip(x, out):
        assert np.array_equal(np.argsort(row_in), np.argsort(row_out))


def test_softmax_empty_lastdim():
    with pytest.raises(DimensionError):
        T.softmax_lastdim(Tensor(np.zeros((3, 0))))


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


def test_gelu_values():
    assert T.gelu(Tensor(0.0)).item() == 0.0
    assert T.gelu(Tensor(20.0)).item() == pytest.approx(20.0, abs=1e-12)
    assert T.gelu(Tensor(-20.0)).item() == pytest.approx(0.0, abs=1e-12)
    # expected value computed from an independent erf series
    expected = 1.0 * oracles.normal_cdf_series(1.0)
    assert expected == pytest.approx(0.8413, abs=1e-4)
    assert T.gelu(Tensor(1.0)).item() == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# bilinear resize
# ---------------------------------------------------------------------------


def test_bilinear_identity():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, 2, 5, 7))
    out = T.bilinear_resize(Tensor(x), 5, 7)
    assert np.array_equal(out.data, x)


def test_bilinear_constant():
    out = T.bilinear_resize(Tensor(np.full((1, 1, 3, 3), 2.5)), 8, 5)
    assert np.allclose(out.data, 2.5, atol=1e-14)


# (h, w, out_h, out_w): the neck's toy-step upsamplings, a non-integer
# ratio, a downscale and a 1x1 target
_RESIZE_CASES = ((2, 3, 4, 6), (8, 12, 16, 24), (5, 7, 8, 11), (6, 6, 4, 3), (4, 5, 1, 1))


def test_bilinear_2x2_to_4x4_golden():
    img = np.array([[0.0, 1.0], [2.0, 3.0]])
    expected = oracles.bilinear_resize_direct(img, 4, 4)
    out = T.bilinear_resize(Tensor(img[None, None]), 4, 4)
    assert np.max(np.abs(out.data[0, 0] - expected)) < 1e-14
    # corners replicate, centers interpolate at quarter weights
    assert out.data[0, 0, 0, 0] == 0.0
    assert out.data[0, 0, 3, 3] == 3.0
    assert out.data[0, 0, 1, 1] == pytest.approx(0.75 * 0.75 * 0 + 0.75 * 0.25 * 1 + 0.25 * 0.75 * 2 + 0.25 * 0.25 * 3)
    # the same oracle at the other shapes
    rng = np.random.default_rng(9)
    for h, w, oh, ow in _RESIZE_CASES:
        img = rng.normal(size=(h, w))
        out = T.bilinear_resize(Tensor(img[None, None]), oh, ow)
        assert out.shape == (1, 1, oh, ow)
        err = np.max(np.abs(out.data[0, 0] - oracles.bilinear_resize_direct(img, oh, ow)))
        assert err < 1e-12, ((h, w, oh, ow), err)


def test_bilinear_resize_adjoint():
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(3, 4, 5, 7)), requires_grad=True)
    g = rng.normal(size=(3, 4, 8, 11))
    out = T.bilinear_resize(x, 8, 11)
    T.backward(T.sum_(out * Tensor(g)))
    assert abs(np.sum(out.data * g) - np.sum(x.data * x.grad)) < 1e-12


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
    x = rt(rng, 1, 2, 6, 6)
    w = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)))
    g = Tensor(np.ones(6 * 6), requires_grad=False)
    b = Tensor(np.zeros(6 * 6), requires_grad=False)

    def f(t):
        y = T.conv2d(t, w, padding=1)
        y = T.reshape(y, (1, 3, 36))
        y = T.layer_norm(y, g, b)
        y = T.softmax_lastdim(y)
        return T.sum_(y * y)

    assert T.grad_check(f, x) < 1e-4


def test_grad_check_negative_control():
    T.inject_fault("gelu")
    rng = np.random.default_rng(10)
    x = rt(rng, 5)
    err = T.grad_check(lambda t: T.sum_(T.gelu(t)), x)
    # a 1% gradient perturbation must land far above the 1e-4 pass tolerance
    assert err > 1e-3


@pytest.mark.parametrize("seed", range(20))
def test_grad_check_core_ops_many_seeds(seed):
    rng = np.random.default_rng(100 + seed)
    x = rt(rng, 2, 3, 5, 4)
    w = Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)))
    bias = Tensor(rng.uniform(-1, 1, 4))
    assert T.grad_check(lambda t: T.sum_(T.conv2d(t, w, bias, stride=2, padding=1) ** 2), x) < 1e-4

    a = rt(rng, 3, 4)
    m = Tensor(rng.uniform(-1, 1, (4, 5)))
    # sum of a softmax is constant, so square it to get a usable loss
    assert T.grad_check(lambda t: T.sum_(T.softmax_lastdim(t @ m) ** 2), a) < 1e-4

    v = rt(rng, 4, 6)
    gm = Tensor(rng.uniform(0.5, 1.5, 6))
    bt = Tensor(rng.uniform(-0.5, 0.5, 6))
    assert T.grad_check(lambda t: T.sum_(T.layer_norm(t, gm, bt) ** 3), v) < 1e-4

    u = rt(rng, 3, 7)
    assert T.grad_check(lambda t: T.sum_(T.gelu(t)), u) < 1e-4
    assert T.grad_check(lambda t: T.sum_(T.sigmoid(t) * t), u) < 1e-4

    im = rt(rng, 1, 2, 4, 5)
    assert T.grad_check(lambda t: T.sum_(T.bilinear_resize(t, 7, 3) ** 2), im) < 1e-4


def test_grad_check_weight_and_bias_paths():
    rng = np.random.default_rng(11)
    x = Tensor(rng.uniform(-1, 1, (2, 2, 5, 5)))
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
        joined = T.concat([top * 2.0, bottom], axis=0)
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
        x = Tensor(rng.uniform(-1, 1, (2, 3, 9, 9)))
        w = Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)))
        y = T.conv2d(x, w, stride=2, padding=1)
        y = T.softmax_lastdim(T.reshape(y, (2, 4, 25)))
        return y.data.copy()

    assert np.array_equal(run(), run())


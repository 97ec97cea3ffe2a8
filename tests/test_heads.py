import math

import numpy as np
import pytest

from mono3d import tensor as T
from mono3d.errors import DegenerateGeometryError, DimensionError, UsageError
from mono3d.heads import (
    CLASS_PRIORS,
    NUM_ANGLE_BINS,
    OUTPUT_STRIDE,
    Boxes2D,
    Heads2D,
    Heads3D,
    Heads3DOutput,
    decode_angle,
    decode_box3d,
    decode_heatmap_peaks,
    encode_angle,
    gup_depth,
    roi_crop,
    suppress_non_peaks,
    wrap_angle,
)
from mono3d.kitti import CameraCalib
from mono3d.tensor import Tensor

import oracles


def _map(rng, n, c, h, w):
    """A channels-last map [n, h, w, c] of the normals drawn as [n, c, h, w]."""
    return rng.normal(size=(n, c, h, w)).transpose(0, 2, 3, 1).copy()


def _zero_params(module):
    for p in module.parameters():
        p.data[...] = 0.0


# ---------------------------------------------------------------------------
# 2D heads
# ---------------------------------------------------------------------------


# 2 images of a 4x6 map: corners, edges, an interior cell, and (1, 3, 5) twice
CELLS = (np.array([0, 1, 0, 1, 1, 0, 1]), np.array([0, 3, 2, 0, 3, 3, 1]), np.array([0, 5, 0, 3, 5, 2, 4]))


def test_heads2d_zero_weights():
    heads = Heads2D(8, np.random.default_rng(0))
    _zero_params(heads)
    x = Tensor(_map(np.random.default_rng(1), 2, 8, 4, 6))
    assert np.allclose(heads(x).data, 0.5)
    offset, size = heads.at(x, *CELLS)
    assert np.array_equal(offset.data, np.zeros((7, 2)))
    assert np.array_equal(size.data, np.zeros((7, 2)))


def test_heads2d_focal_bias_init():
    heads = Heads2D(8, np.random.default_rng(2))
    heatmap = heads(Tensor(np.zeros((1, 4, 4, 8))))
    # zero input isolates the init bias: sigmoid(-2.19) ~ 0.1
    assert np.allclose(heatmap.data, 1.0 / (1.0 + math.exp(2.19)))
    assert abs(heatmap.data[0, 0, 0, 0] - 0.1) < 2e-3


def test_heads2d_range_and_shapes():
    heads = Heads2D(8, np.random.default_rng(3))
    x = Tensor(_map(np.random.default_rng(4), 2, 8, 5, 7))
    heatmap = heads(x)
    offset, size = heads.at(x, [0, 1, 1], [0, 4, 2], [6, 0, 3])
    assert heatmap.shape == (2, 3, 5, 7)
    assert offset.shape == (3, 2)
    assert size.shape == (3, 2)
    assert np.all(heatmap.data > 0) and np.all(heatmap.data < 1)


@pytest.mark.parametrize("head_name", ["heat", "offset", "size"])
def test_heads2d_grad_check(head_name):
    heads = Heads2D(4, np.random.default_rng(5))
    x = Tensor(_map(np.random.default_rng(6), 2, 4, 4, 6), requires_grad=True)
    shape = {"heat": (2, 3, 4, 6), "offset": (7, 2), "size": (7, 2)}[head_name]
    r = Tensor(np.random.default_rng(7).normal(size=shape))

    def f(t):
        if head_name == "heat":
            return T.sum_(heads(t) * r)
        offset, size = heads.at(t, *CELLS)
        return T.sum_({"offset": offset, "size": size}[head_name] * r)

    assert T.grad_check(f, x, max_entries=24, rng=np.random.default_rng(8)) < 1e-4


def test_patches_at_matches_padded_slices():
    x = _map(np.random.default_rng(10), 2, 3, 4, 6)
    got = T.patches_at(Tensor(x), *CELLS).data
    padded = np.pad(x, [(0, 0), (1, 1), (1, 1), (0, 0)])
    want = [padded[n, r : r + 3, c : c + 3].reshape(-1) for n, r, c in zip(*CELLS)]
    assert np.array_equal(got, want)


def test_patches_at_gradient_is_the_adjoint():
    # <patches_at(x), g> == <x, vjp(g)>, so each tap's gradient lands on the
    # cell it read, in its own image, and repeated cells add up
    rng = np.random.default_rng(11)
    x = Tensor(_map(rng, 2, 3, 4, 6), requires_grad=True)
    g = rng.normal(size=(7, 27))
    T.backward(T.sum_(T.patches_at(x, *CELLS) * Tensor(g)))
    padded = np.zeros((2, 6, 8, 3))
    for (n, r, c), gm in zip(zip(*CELLS), g):
        padded[n, r : r + 3, c : c + 3] += gm.reshape(3, 3, 3)
    np.testing.assert_allclose(x.grad, padded[:, 1:-1, 1:-1], rtol=1e-13, atol=1e-13)


def test_patches_at_validation():
    x = Tensor(np.zeros((2, 4, 6, 3)))
    assert T.patches_at(x, [], [], []).shape == (0, 27)
    for cells in (([2], [0], [0]), ([0], [4], [0]), ([0], [0], [-1])):
        with pytest.raises(UsageError):
            T.patches_at(x, *cells)
    with pytest.raises(DimensionError):
        T.patches_at(x, [0, 1], [0], [0])
    with pytest.raises(DimensionError):
        T.patches_at(Tensor(np.zeros((3, 4, 6))), [0], [0], [0])


def _dense_then_index(heads, x):
    """The offset and size heads run densely, then read at CELLS."""
    n, r, c = CELLS
    return heads.offset(x)[n, r, c], heads.size(x)[n, r, c]


def test_heads2d_at_matches_dense_heads_at_the_cells():
    heads = Heads2D(8, np.random.default_rng(12))
    x = Tensor(_map(np.random.default_rng(13), 2, 8, 4, 6))
    for got, want in zip(heads.at(x, *CELLS), _dense_then_index(heads, x)):
        assert got.dtype == np.float64
        np.testing.assert_allclose(got.data, want.data, rtol=1e-12, atol=1e-12)


def test_heads2d_at_gradients_match_dense_heads():
    heads = Heads2D(8, np.random.default_rng(14))
    rng = np.random.default_rng(15)
    x = Tensor(_map(rng, 2, 8, 4, 6), requires_grad=True)
    probes = [Tensor(rng.normal(size=(7, 2))) for _ in range(2)]
    params = [x] + heads.offset.parameters() + heads.size.parameters()
    grads = []
    for outputs in (heads.at(x, *CELLS), _dense_then_index(heads, x)):
        for p in params:
            p.zero_grad()
        T.backward(sum(T.sum_(out * probe) for out, probe in zip(outputs, probes)))
        grads.append([p.grad.copy() for p in params])
    for got, want in zip(*grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------------------
# peak decoding
# ---------------------------------------------------------------------------


def _dense(c=1, h=6, w=8, fill=0.0):
    return np.full((c, h, w), fill), np.zeros((2, h, w)), np.zeros((2, h, w))


def _decode(hm, off, size, **kw):
    """Peaks of hm, boxed with the dense off and size maps read at them."""
    peaks = decode_heatmap_peaks(hm, **kw)
    return peaks.boxes(off[:, peaks.row, peaks.col].T, size[:, peaks.row, peaks.col].T)


def test_decode_single_spike():
    hm, off, size = _dense()
    hm[0, 2, 5] = 1.0
    size[0, 2, 5] = 20.0
    size[1, 2, 5] = 12.0
    dets = _decode(hm, off, size, k=10, threshold=0.1)
    assert len(dets) == 1
    assert dets.class_id.tolist() == [0] and dets.score.tolist() == [1.0]
    # cell (row 2, col 5), zero offset -> input pixel (u, v) = (4*5, 4*2)
    assert dets.center.tolist() == [[20.0, 8.0]]
    assert dets.size.tolist() == [[20.0, 12.0]]


def test_decode_offset_applied():
    hm, off, size = _dense()
    hm[0, 2, 5] = 0.8
    off[0, 2, 5] = 0.25
    off[1, 2, 5] = 0.5
    dets = _decode(hm, off, size, k=5, threshold=0.1)
    assert dets.center.tolist() == [[(5 + 0.25) * 4, (2 + 0.5) * 4]]


def test_decode_adjacent_suppression():
    hm, off, size = _dense()
    hm[0, 3, 3] = 0.9
    hm[0, 3, 4] = 0.8
    dets = _decode(hm, off, size, k=10, threshold=0.1)
    assert dets.score.tolist() == [0.9]


def test_decode_equal_ties_kept():
    hm, off, size = _dense()
    hm[0, 3, 3] = 0.9
    hm[0, 3, 4] = 0.9
    dets = _decode(hm, off, size, k=10, threshold=0.1)
    # equal scores keep flat-index order
    assert dets.center.tolist() == [[12.0, 12.0], [16.0, 12.0]]


def test_decode_uniform_below_threshold_empty():
    hm, off, size = _dense(fill=0.3)
    empty = _decode(hm, off, size, k=10, threshold=0.5)
    assert len(empty) == 0 and empty.center.shape == (0, 2) and empty.size.shape == (0, 2)


def test_decode_topk_and_order():
    hm, off, size = _dense(h=10, w=10)
    rng = np.random.default_rng(9)
    rows = np.arange(0, 10, 3)
    cols = np.arange(0, 10, 3)
    scores = rng.uniform(0.2, 1.0, (len(rows), len(cols)))
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            hm[0, r, c] = scores[i, j]
    dets = _decode(hm, off, size, k=5, threshold=0.0)
    assert len(dets) == 5
    got = dets.score.tolist()
    assert got == sorted(got, reverse=True)
    assert np.allclose(got, np.sort(scores.reshape(-1))[::-1][:5])


def test_decode_multiclass_channel_mapping():
    hm, off, size = _dense(c=3)
    hm[2, 1, 1] = 0.7
    dets = _decode(hm, off, size, k=3, threshold=0.2)
    assert dets.class_id.tolist() == [2]


def test_decode_validation():
    hm, off, size = _dense()
    with pytest.raises(UsageError):
        decode_heatmap_peaks(hm, k=0)
    with pytest.raises(UsageError):
        decode_heatmap_peaks(hm, k=3, threshold=1.0)


def test_suppression_keeps_plateau_cells():
    hm = np.zeros((1, 4, 4))
    hm[0, 1, 1] = hm[0, 1, 2] = 0.6
    kept = suppress_non_peaks(hm)
    assert kept[0, 1, 1] == 0.6 and kept[0, 1, 2] == 0.6


# ---------------------------------------------------------------------------
# RoI crop
# ---------------------------------------------------------------------------


def _boxes(*specs):
    """(center, size) pairs in input pixels -> Boxes2D of class 0."""
    n = len(specs)
    return Boxes2D(
        class_id=np.zeros(n, dtype=np.intp),
        score=np.ones(n),
        center=np.array([c for c, _ in specs], dtype=np.float64).reshape(n, 2),
        size=np.array([s for _, s in specs], dtype=np.float64).reshape(n, 2),
    )


def test_roi_whole_map_identity():
    rng = np.random.default_rng(10)
    fmap = _map(rng, 2, 3, 7, 7)
    # box spanning the full 7x7 map in input pixels (28x28 box centered at 14)
    box = ((14.0, 14.0), (28.0, 28.0))
    out, valid = roi_crop(Tensor(fmap), _boxes(box, box), [1, 0], out_size=(7, 7))
    assert valid.tolist() == [True, True]
    assert np.max(np.abs(out.data - fmap[::-1])) < 1e-12


def test_roi_constant_map():
    fmap = np.full((2, 6, 6, 2), 3.25)
    boxes = _boxes(((9.0, 13.0), (6.0, 9.0)), ((2.0, 22.0), (12.0, 9.0)))
    out, _ = roi_crop(Tensor(fmap), boxes, [0, 1], out_size=(5, 5))
    assert out.shape == (2, 5, 5, 2)
    assert np.allclose(out.data, 3.25, atol=1e-12)


def test_roi_half_pixel_ramp_shift():
    # ramp f[y][x] = x in feature coords; shifting the box by half a feature
    # pixel (2 input px) must shift every sample by exactly 0.5
    fmap = np.tile(np.arange(16.0)[:, None], (1, 16, 1, 1))
    base = ((24.0, 32.0), (16.0, 16.0))
    shifted = ((26.0, 32.0), (16.0, 16.0))
    out, _ = roi_crop(Tensor(fmap), _boxes(base, shifted), [0, 0], out_size=(4, 4))
    assert np.max(np.abs((out.data[1] - out.data[0]) - 0.5)) < 1e-12


def test_roi_zero_area_rejected():
    fmap = Tensor(_map(np.random.default_rng(9), 1, 2, 6, 6))
    outside = ((-40.0, 12.0), (8.0, 8.0))
    flat = ((12.0, 12.0), (0.0, 8.0))
    inside = ((12.0, 12.0), (8.0, 8.0))
    out, valid = roi_crop(fmap, _boxes(outside, inside, flat), [0, 0, 0])
    assert valid.tolist() == [False, True, False]
    alone, _ = roi_crop(fmap, _boxes(inside), [0])
    assert out.shape == (1, 7, 7, 2) and np.array_equal(out.data, alone.data)
    none, valid = roi_crop(fmap, _boxes(), [])
    assert none.shape == (0, 7, 7, 2) and valid.shape == (0,)


def test_roi_rejects_mismatched_image_index():
    fmap = Tensor(np.zeros((2, 6, 6, 2)))
    box = ((12.0, 12.0), (8.0, 8.0))
    with pytest.raises(DimensionError):
        roi_crop(fmap, _boxes(box, box), [0])
    with pytest.raises(UsageError):
        roi_crop(fmap, _boxes(box), [2])


def _border_boxes():
    """Boxes on a 10x12 map (40x48 input px) clipped at every border, plus interior ones."""
    return [
        ((-3.0, 20.0), (14.0, 10.0)),  # left
        ((45.0, 17.0), (12.0, 9.0)),  # right
        ((20.0, -2.0), (10.0, 13.0)),  # top
        ((18.0, 37.0), (9.0, 11.0)),  # bottom
        ((1.0, 39.0), (11.0, 8.0)),  # bottom-left corner
        ((24.0, 20.0), (60.0, 50.0)),  # whole map and past it
        ((13.0, 17.0), (10.0, 12.0)),
        ((30.5, 9.25), (3.0, 2.5)),  # smaller than a feature pixel
    ]


def test_roi_crop_matches_pointwise_oracle():
    fmap = np.random.default_rng(30).normal(size=(3, 4, 10, 12))
    spec = _border_boxes()
    image_index = [0, 1, 2, 0, 1, 2, 1, 0]
    out, valid = roi_crop(Tensor(fmap.transpose(0, 2, 3, 1)), _boxes(*spec), image_index, out_size=(7, 5))
    assert valid.all()
    expected = oracles.roi_align_pointwise(
        fmap, [c for c, _ in spec], [s for _, s in spec], image_index, OUTPUT_STRIDE, (7, 5)
    ).transpose(0, 2, 3, 1)
    assert out.shape == expected.shape
    assert np.max(np.abs(out.data - expected)) < 1e-12


def test_roi_grad_only_into_owning_images():
    feat = Tensor(_map(np.random.default_rng(31), 3, 4, 10, 12), requires_grad=True)
    image_index = [0, 2, 2, 0, 2, 0, 0, 2]
    out, _ = roi_crop(feat, _boxes(*_border_boxes()), image_index)
    probe = np.random.default_rng(32).normal(size=out.shape)
    T.backward(T.sum_(out * probe))
    assert np.all(feat.grad[1] == 0.0)
    assert np.all(np.any(feat.grad[[0, 2]] != 0.0, axis=(1, 2, 3)))
    # the gradient is the adjoint of the crop: <crop(x), p> = <x, grad>
    assert abs(np.sum(out.data * probe) - np.sum(feat.data * feat.grad)) < 1e-9


def test_roi_grad_check():
    feat = Tensor(_map(np.random.default_rng(11), 2, 2, 8, 8), requires_grad=True)
    probe = Tensor(np.random.default_rng(12).normal(size=(3, 2, 7, 7)).transpose(0, 2, 3, 1))
    boxes = _boxes(
        ((13.0, 17.0), (14.0, 10.0)),
        ((22.0, 8.0), (12.0, 14.0)),
        ((5.0, 27.0), (10.0, 9.0)),
    )

    def f(t):
        return T.sum_(roi_crop(t, boxes, [1, 0, 1])[0] * probe)

    assert T.grad_check(f, feat, max_entries=30, rng=np.random.default_rng(13)) < 1e-4


# ---------------------------------------------------------------------------
# 3D heads
# ---------------------------------------------------------------------------


def test_heads3d_shapes():
    heads = Heads3D(8, np.random.default_rng(14))
    out = heads(Tensor(np.random.default_rng(15).normal(size=(5, 7, 7, 8))))
    assert out.offset3d.shape == (5, 2)
    assert out.angle_logits.shape == (5, NUM_ANGLE_BINS)
    assert out.angle_residuals.shape == (5, NUM_ANGLE_BINS)
    assert out.size_residuals.shape == (5, 3, 3)
    assert out.h_log_sigma.shape == (5,)
    assert out.bias_mu.shape == (5,)


def test_heads3d_rejects_unbatched_roi():
    heads = Heads3D(8, np.random.default_rng(16))
    with pytest.raises(DimensionError):
        heads(Tensor(np.random.default_rng(17).normal(size=(7, 7, 8))))


def test_heads3d_zero_weights_give_priors_and_uniform_bins():
    heads = Heads3D(8, np.random.default_rng(18))
    _zero_params(heads)
    out = heads(Tensor(np.random.default_rng(19).normal(size=(2, 7, 7, 8))))
    assert np.array_equal(out.size_residuals.data, np.zeros((2, 3, 3)))
    assert np.array_equal(out.angle_logits.data, np.zeros((2, NUM_ANGLE_BINS)))
    probs = oracles.softmax_lastdim(out.angle_logits).data
    assert np.allclose(probs, 1.0 / NUM_ANGLE_BINS)


def test_heads3d_grad_check():
    heads = Heads3D(4, np.random.default_rng(20))
    roi = Tensor(_map(np.random.default_rng(21), 2, 4, 7, 7), requires_grad=True)
    rngp = np.random.default_rng(22)
    probes = [Tensor(rngp.normal(size=s)) for s in [(2, 2), (2, 12), (2, 12), (2, 3, 3), (2,), (2,), (2,)]]

    def f(t):
        o = heads(t)
        fields = [o.offset3d, o.angle_logits, o.angle_residuals, o.size_residuals,
                  o.h_log_sigma, o.bias_mu, o.bias_log_sigma]
        total = T.sum_(fields[0] * probes[0])
        for fld, p in zip(fields[1:], probes[1:]):
            total = total + T.sum_(fld * p)
        return total

    assert T.grad_check(f, roi, max_entries=24, rng=np.random.default_rng(23)) < 1e-4


# ---------------------------------------------------------------------------
# GUP depth
# ---------------------------------------------------------------------------


def test_gup_depth_arithmetic():
    mu, sigma = gup_depth(1.4, 0.0, 70.0, 700.0, 0.0, 0.0)
    assert mu == 14.0
    assert sigma == 0.0


def test_gup_depth_sigma_propagation():
    mu, sigma = gup_depth(1.4, 0.1, 70.0, 700.0, 0.0, 1.0)
    assert abs(sigma - math.sqrt(2.0)) < 1e-15


def test_gup_depth_machine_precision_formula():
    rng = np.random.default_rng(24)
    for _ in range(200):
        h3 = rng.uniform(0.5, 3.0)
        s3 = rng.uniform(0.0, 0.5)
        h2 = rng.uniform(2.0, 300.0)
        f = rng.uniform(100.0, 1500.0)
        bm = rng.uniform(-2.0, 2.0)
        bs = rng.uniform(0.0, 2.0)
        mu, sigma = gup_depth(h3, s3, h2, f, bm, bs)
        assert mu == f / h2 * h3 + bm or abs(mu - (f * h3 / h2 + bm)) < 1e-12
        assert abs(sigma - math.hypot(f * s3 / h2, bs)) < 1e-12


def test_gup_depth_monotonicity():
    rng = np.random.default_rng(25)
    for _ in range(100):
        h3 = rng.uniform(0.5, 3.0)
        h2 = rng.uniform(5.0, 300.0)
        f = rng.uniform(100.0, 1500.0)
        base, _ = gup_depth(h3, 0.0, h2, f, 0.0, 0.0)
        up, _ = gup_depth(h3 + 0.1, 0.0, h2, f, 0.0, 0.0)
        wider, _ = gup_depth(h3, 0.0, h2 + 5.0, f, 0.0, 0.0)
        assert up > base
        assert wider < base


def test_gup_depth_tensor_path_differentiable():
    h3 = Tensor(np.array([1.5]), requires_grad=True)

    def f(t):
        mu, sigma = gup_depth(t, t * 0.1, 50.0, 700.0, Tensor(np.array([0.3])), 0.5)
        return T.sum_(mu + sigma)

    assert T.grad_check(f, h3) < 1e-4


def test_gup_depth_degenerate_h2d():
    with pytest.raises(DegenerateGeometryError):
        gup_depth(1.5, 0.1, 0.0, 700.0, 0.0, 0.0)
    with pytest.raises(DegenerateGeometryError):
        gup_depth(1.5, 0.1, -3.0, 700.0, 0.0, 0.0)
    with pytest.raises(UsageError):
        gup_depth(1.5, 0.1, 70.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# angles
# ---------------------------------------------------------------------------


def test_wrap_angle_interval():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert abs(wrap_angle(1.5 * math.pi) + 0.5 * math.pi) < 1e-12
    rng = np.random.default_rng(26)
    for a in rng.uniform(-20, 20, 500):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert abs(math.sin(w - a)) < 1e-9


def test_angle_encode_decode_round_trip():
    rng = np.random.default_rng(27)
    for a in rng.uniform(-math.pi, math.pi, 1000):
        b, res = encode_angle(a)
        assert 0 <= b < NUM_ANGLE_BINS
        assert abs(res) <= math.pi / NUM_ANGLE_BINS + 1e-12
        assert abs(decode_angle(b, res) - wrap_angle(a)) < 1e-12


def test_angle_bin_boundary():
    b, res = encode_angle(math.pi)
    assert b == NUM_ANGLE_BINS - 1
    assert abs(decode_angle(b, res) - math.pi) < 1e-12


# ---------------------------------------------------------------------------
# 3D decode
# ---------------------------------------------------------------------------


def _out3d_from_values(offset=(0.0, 0.0), bin_idx=0, residual=0.0, size_res=None,
                       h_log_sigma=0.0, bias_mu=0.0, bias_log_sigma=-30.0):
    logits = np.full((1, NUM_ANGLE_BINS), -5.0)
    logits[0, bin_idx] = 5.0
    residuals = np.zeros((1, NUM_ANGLE_BINS))
    residuals[0, bin_idx] = residual
    return Heads3DOutput(
        offset3d=Tensor(np.array([offset])),
        angle_logits=Tensor(logits),
        angle_residuals=Tensor(residuals),
        size_residuals=Tensor(np.zeros((1, 3, 3)) if size_res is None else size_res),
        h_log_sigma=Tensor(np.array([h_log_sigma])),
        bias_mu=Tensor(np.array([bias_mu])),
        bias_log_sigma=Tensor(np.array([bias_log_sigma])),
    )


def _calib():
    return CameraCalib(np.array([[700.0, 0, 620, 0], [0, 700.0, 190, 0], [0, 0, 1, 0]]))


def _decode_one(score, center, size, out, calib):
    """One class-0 box through the batched decode -> its detection row."""
    box = Boxes2D(np.zeros(1, dtype=np.intp), np.array([score]), np.array([center]), np.array([size]))
    dets, drops = decode_box3d(box, out, calib)
    assert drops == {} and len(dets) == 1
    return dets[0]


def test_decode_box3d_pinhole_identity():
    calib = _calib()
    prior_h = CLASS_PRIORS[0, 0]
    h2d = 70.0
    out = _out3d_from_values(h_log_sigma=-30.0)
    d = _decode_one(0.9, (calib.c_u, calib.c_v), (100.0, h2d), out, calib)
    x, y, z = d.location
    assert abs(x) < 1e-12
    expected_z = 700.0 * prior_h / h2d
    assert abs(z - expected_z) < 1e-12
    # principal ray: y = h/2 above.. the ray passes through box center
    assert abs(y - prior_h / 2.0) < 1e-12
    assert np.array_equal(d.dimensions, CLASS_PRIORS[0])


def test_decode_box3d_yaw_zero_case():
    calib = _calib()
    bin_idx, res = encode_angle(0.0)
    out = _out3d_from_values(bin_idx=bin_idx, residual=res)
    d = _decode_one(0.9, (calib.c_u, calib.c_v), (100.0, 70.0), out, calib)
    assert abs(d.yaw - 0.0) < 1e-12


def test_decode_box3d_score_uncertainty_discount():
    calib = _calib()
    center, size = (calib.c_u, calib.c_v), (100.0, 70.0)
    d = _decode_one(0.8, center, size, _out3d_from_values(h_log_sigma=-30.0, bias_log_sigma=-30.0), calib)
    assert abs(d.score - 0.8) < 1e-6
    d2 = _decode_one(0.8, center, size, _out3d_from_values(h_log_sigma=-30.0, bias_log_sigma=0.0), calib)
    assert abs(d2.score - 0.8 * math.exp(-1.0)) < 1e-9


def test_decode_box3d_yaw_in_range():
    calib = _calib()
    rng = np.random.default_rng(28)
    for _ in range(50):
        u = rng.uniform(0, 1240)
        bin_idx = int(rng.integers(0, NUM_ANGLE_BINS))
        res = rng.uniform(-0.25, 0.25)
        out = _out3d_from_values(bin_idx=bin_idx, residual=res)
        d = _decode_one(0.5, (u, 200.0), (80.0, 60.0), out, calib)
        assert -math.pi < d.yaw <= math.pi
        assert d.location[2] > 0


def test_decode_box3d_batch_drops_nonpositive_depth_in_order():
    calib = _calib()
    rng = np.random.default_rng(29)
    m, behind = 7, 3
    boxes = Boxes2D(
        class_id=rng.integers(0, len(CLASS_PRIORS), m),
        score=rng.uniform(0.1, 1.0, m),
        center=np.stack([rng.uniform(0, 1240, m), rng.uniform(0, 375, m)], axis=1),
        size=rng.uniform(5.0, 120.0, (m, 2)),
    )
    bias_mu = rng.normal(size=m)
    # the projected depth f_v * h3d / h2d is at most ~250 m here
    bias_mu[behind] = -1e4
    out = Heads3DOutput(
        offset3d=Tensor(rng.normal(scale=3.0, size=(m, 2))),
        angle_logits=Tensor(rng.normal(size=(m, NUM_ANGLE_BINS))),
        angle_residuals=Tensor(rng.uniform(-0.3, 0.3, (m, NUM_ANGLE_BINS))),
        size_residuals=Tensor(rng.normal(scale=0.1, size=(m, len(CLASS_PRIORS), 3))),
        h_log_sigma=Tensor(rng.normal(scale=0.5, size=m)),
        bias_mu=Tensor(bias_mu),
        bias_log_sigma=Tensor(rng.normal(scale=0.5, size=m)),
    )
    dets, drops = decode_box3d(boxes, out, calib)
    assert drops == {"nonpositive_depth": 1}
    want = [
        oracles.decode_box3d_scalar(
            boxes.class_id[i], boxes.score[i], boxes.center[i], boxes.size[i], out, calib, row=i
        )
        for i in range(m)
    ]
    assert [w is None for w in want] == [i == behind for i in range(m)]
    want = [w for w in want if w is not None]
    assert len(dets) == len(want) == m - 1
    assert dets.class_id.tolist() == [w[0] for w in want]
    np.testing.assert_allclose(
        np.column_stack([dets.rows, dets.score, dets.depth_sigma]),
        [(*row, score, sigma) for _, score, row, sigma in want],
        rtol=1e-12,
        atol=0.0,
    )


def test_decode_box3d_drops_nonpositive_dimensions_once_per_row():
    calib = _calib()
    m = 4
    boxes = Boxes2D(
        class_id=np.ones(m, dtype=np.intp),  # Pedestrian
        score=np.full(m, 0.9),
        center=np.tile([calib.c_u, calib.c_v], (m, 1)),
        size=np.tile([40.0, 70.0], (m, 1)),
    )
    size_res = np.zeros((m, len(CLASS_PRIORS), 3))
    size_res[1, 1, 1] = -0.7  # width 0.66 - 0.7 < 0
    size_res[2, 1, 2] = -CLASS_PRIORS[1, 2]  # length exactly 0
    size_res[3, 1, 1] = -0.7  # and this row is also behind the camera
    bias_mu = np.zeros(m)
    bias_mu[3] = -1e4
    out = Heads3DOutput(
        offset3d=Tensor(np.zeros((m, 2))),
        angle_logits=Tensor(np.zeros((m, NUM_ANGLE_BINS))),
        angle_residuals=Tensor(np.zeros((m, NUM_ANGLE_BINS))),
        size_residuals=Tensor(size_res),
        h_log_sigma=Tensor(np.full(m, -30.0)),
        bias_mu=Tensor(bias_mu),
        bias_log_sigma=Tensor(np.full(m, -30.0)),
    )
    dets, drops = decode_box3d(boxes, out, calib)
    assert drops == {"nonpositive_depth": 1, "nonpositive_dimension": 2}
    assert len(dets) == 1
    assert np.array_equal(dets.dimensions, CLASS_PRIORS[1:2])

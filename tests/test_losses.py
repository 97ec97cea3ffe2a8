import math

import numpy as np
import pytest

from mono3d import tensor as T
from mono3d.errors import DimensionError, UsageError
from mono3d.heads import (
    CLASS_PRIORS,
    NUM_ANGLE_BINS,
    Heads3DOutput,
    decode_box3d,
    decode_heatmap_peaks,
    encode_angle,
)
from mono3d.kitti import CameraCalib, LabelRecord
from mono3d.losses import (
    LOSS_TERMS,
    TIER1,
    TIER2,
    TaskWeights,
    angle_loss,
    assign_targets,
    depth_loss,
    draw_gaussian,
    focal_loss,
    gaussian_radius,
    htl_weights,
    l1_masked,
    laplacian_nll,
    make_weights,
    total_loss,
)
from mono3d.geometry import box3d_corners
from mono3d.tensor import Tensor

import oracles


def _calib():
    return CameraCalib(np.array([[700.0, 0, 620, 0], [0, 700.0, 190, 0], [0, 0, 1, 0]]))


def _label_for_box(row, calib, cls="Car"):
    pix, _ = calib.project(box3d_corners(row))
    x, y, z, h, w, l, yaw = row
    alpha = yaw - math.atan2(x, z)
    return LabelRecord(
        type=cls,
        truncated=0.0,
        occluded=0,
        alpha=alpha,
        bbox=(pix[:, 0].min(), pix[:, 1].min(), pix[:, 0].max(), pix[:, 1].max()),
        dimensions=(h, w, l),
        location=(x, y, z),
        rotation_y=yaw,
    )


# ---------------------------------------------------------------------------
# target assignment
# ---------------------------------------------------------------------------


def _label_at(cu, cv, w2d=40.0, h2d=24.0, cls="Car"):
    return LabelRecord(
        type=cls,
        truncated=0.0,
        occluded=0,
        alpha=0.1,
        bbox=(cu - w2d / 2, cv - h2d / 2, cu + w2d / 2, cv + h2d / 2),
        dimensions=(1.5, 1.6, 3.9),
        location=(1.0, 1.5, 20.0),
        rotation_y=0.2,
    )


def test_assign_center_cell_exact_division():
    targets = assign_targets([_label_at(40.0, 80.0)], _calib(), (1280, 384))
    assert targets.n_objects == 1
    assert targets.cell.tolist() == [[20, 10]]
    assert targets.heatmap[0, 20, 10] == 1.0
    assert np.array_equal(targets.offset2d, [[0.0, 0.0]])


def test_assign_fractional_offsets():
    targets = assign_targets([_label_at(41.0, 82.0)], _calib(), (1280, 384))
    assert targets.cell.tolist() == [[20, 10]]
    assert targets.heatmap[0, 20, 10] == 1.0
    assert np.allclose(targets.offset2d, [[0.25, 0.5]])


def test_assign_two_distant_objects():
    labels = [_label_at(40.0, 80.0), _label_at(400.0, 240.0, cls="Pedestrian")]
    targets = assign_targets(labels, _calib(), (1280, 384))
    assert targets.n_objects == 2
    assert targets.heatmap[0, 20, 10] == 1.0
    assert targets.heatmap[1, 60, 100] == 1.0
    assert np.all(targets.heatmap <= 1.0) and np.all(targets.heatmap >= 0.0)


def test_assign_skips_unknown_and_outside():
    labels = [
        _label_at(40.0, 80.0),
        _label_at(40.0, 80.0, cls="Van"),
        _label_at(-50.0, 80.0),
    ]
    targets = assign_targets(labels, _calib(), (1280, 384))
    assert targets.n_objects == 1
    assert targets.skipped == {"unknown_class": 1, "center_outside_image": 1}


def test_assign_size_targets_input_pixels():
    targets = assign_targets([_label_at(40.0, 80.0, w2d=52.0, h2d=30.0)], _calib(), (1280, 384))
    assert targets.cell.tolist() == [[20, 10]]
    assert np.allclose(targets.size2d, [[52.0, 30.0]])


def test_gaussian_radius_properties():
    # larger boxes tolerate larger shifts; radius positive for real boxes
    small = gaussian_radius((6.0, 10.0))
    large = gaussian_radius((24.0, 40.0))
    assert 0.0 < small < large


def test_draw_gaussian_peak_and_decay():
    hm = np.zeros((20, 20))
    draw_gaussian(hm, 10, 10, 3)
    assert hm[10, 10] == 1.0
    assert hm[10, 11] < 1.0
    assert hm[10, 13] < hm[10, 11]
    draw_gaussian(hm, 10, 12, 3)
    # max-combine never lowers existing values
    assert hm[10, 10] == 1.0


# ---------------------------------------------------------------------------
# focal loss
# ---------------------------------------------------------------------------


def test_focal_single_cell_half():
    pred = Tensor(np.array([[[0.5]]]))
    gt = np.array([[[1.0]]])
    expected = -0.25 * math.log(0.5)
    got = float(focal_loss(pred, gt).data)
    assert abs(got - expected) < 1e-12
    assert abs(got - 0.1733) < 1e-4


def test_focal_perfect_prediction_near_zero():
    gt = np.zeros((1, 4, 4))
    gt[0, 1, 1] = 1.0
    pred = np.where(gt == 1.0, 1.0 - 1e-9, 1e-9)
    val = float(focal_loss(Tensor(pred), gt).data)
    assert 0.0 <= val < 1e-6


def test_focal_matches_loop_oracle():
    rng = np.random.default_rng(0)
    gt = np.zeros((3, 8, 8))
    for _ in range(6):
        c, r, cl = rng.integers(0, 8), rng.integers(0, 8), rng.integers(0, 3)
        draw_gaussian(gt[cl], int(r), int(c), 2)
        gt[cl, r, c] = 1.0
    pred = rng.uniform(0.01, 0.99, gt.shape)
    got = float(focal_loss(Tensor(pred), gt).data)
    assert abs(got - oracles.focal_loss_loops(pred, gt)) < 1e-10


def test_focal_normalized_by_positives():
    gt = np.zeros((1, 4, 4))
    gt[0, 0, 0] = gt[0, 2, 2] = 1.0
    pred = np.full_like(gt, 0.5)
    two = float(focal_loss(Tensor(pred), gt).data)
    assert abs(two - oracles.focal_loss_loops(pred, gt)) < 1e-12


def test_focal_shape_mismatch():
    with pytest.raises(DimensionError):
        focal_loss(Tensor(np.zeros((1, 2, 2))), np.zeros((1, 3, 3)))


def test_focal_grad_check():
    rng = np.random.default_rng(1)
    gt = np.zeros((1, 5, 5))
    gt[0, 2, 2] = 1.0
    draw_gaussian(gt[0], 2, 2, 1)
    raw = Tensor(rng.normal(size=(1, 5, 5)), requires_grad=True)

    def f(t):
        return focal_loss(T.sigmoid(t), gt)

    assert T.grad_check(f, raw) < 1e-4


# ---------------------------------------------------------------------------
# L1
# ---------------------------------------------------------------------------


def test_l1_exact_match_zero():
    pred = Tensor(np.ones((2, 4, 4)))
    assert float(l1_masked(pred, np.ones((2, 4, 4))).data) == 0.0


def test_l1_single_cell():
    # one object's (x, y) row; the mean runs over both elements
    pred = Tensor(np.zeros((1, 2)))
    assert abs(float(l1_masked(pred, [[0.3, 0.0]]).data) - 0.15) < 1e-15


def test_l1_empty_input_zero_loss_and_grad():
    pred = Tensor(np.zeros((0, 2)), requires_grad=True)
    out = l1_masked(pred, np.zeros((0, 2)))
    assert float(out.data) == 0.0
    assert out._node is None  # constant: not connected to a graph


def test_l1_grad_check():
    rng = np.random.default_rng(3)
    pred = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
    target = rng.normal(size=(2, 4, 4)) + 3.0  # keep |diff| away from 0
    assert T.grad_check(lambda t: l1_masked(t, target), pred) < 1e-4


# ---------------------------------------------------------------------------
# angle loss
# ---------------------------------------------------------------------------


def test_angle_uniform_logits_ln_bins():
    logits = Tensor(np.zeros((1, NUM_ANGLE_BINS)))
    residuals = Tensor(np.zeros((1, NUM_ANGLE_BINS)))
    got = float(angle_loss(logits, residuals, [3], [0.0]).data)
    assert abs(got - math.log(NUM_ANGLE_BINS)) < 1e-9


def test_angle_perfect_prediction():
    logits = np.full((1, NUM_ANGLE_BINS), -40.0)
    logits[0, 5] = 40.0
    residuals = np.zeros((1, NUM_ANGLE_BINS))
    residuals[0, 5] = 0.21
    got = float(angle_loss(Tensor(logits), Tensor(residuals), [5], [0.21]).data)
    assert got < 1e-12


def test_angle_matches_scalar_oracle():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(3, NUM_ANGLE_BINS))
    residuals = rng.normal(size=(3, NUM_ANGLE_BINS)) * 0.2
    bins = [2, 7, 11]
    res_gt = [0.1, -0.05, 0.2]
    expected = np.mean(
        [oracles.cross_entropy_scalar(list(logits[i]), bins[i]) for i in range(3)]
    ) + np.mean([abs(residuals[i, bins[i]] - res_gt[i]) for i in range(3)])
    got = float(angle_loss(Tensor(logits), Tensor(residuals), bins, res_gt).data)
    assert abs(got - expected) < 1e-12


def test_angle_empty_batch():
    out = angle_loss(Tensor(np.zeros((0, 12))), Tensor(np.zeros((0, 12))), [], [])
    assert float(out.data) == 0.0


def test_angle_bad_bin_rejected():
    with pytest.raises(UsageError):
        angle_loss(Tensor(np.zeros((1, 12))), Tensor(np.zeros((1, 12))), [12], [0.0])


def test_angle_residual_grads_restricted_to_gt_bin():
    residuals = Tensor(np.random.default_rng(5).normal(size=(2, 12)), requires_grad=True)
    logits = Tensor(np.zeros((2, 12)))
    loss = angle_loss(logits, residuals, [4, 9], [5.0, -5.0])
    T.backward(loss)
    grad = residuals.grad
    picked = np.zeros((2, 12), dtype=bool)
    picked[0, 4] = picked[1, 9] = True
    assert np.all(grad[~picked] == 0.0)
    assert np.all(grad[picked] != 0.0)


def test_angle_grad_check():
    rng = np.random.default_rng(6)
    logits = Tensor(rng.normal(size=(3, 12)), requires_grad=True)
    residuals = Tensor(rng.normal(size=(3, 12)), requires_grad=True)
    bins = [0, 5, 11]
    res_gt = [2.0, -2.0, 2.0]  # keep |residual diff| away from 0
    assert T.grad_check(lambda t: angle_loss(t, residuals, bins, res_gt), logits) < 1e-4
    assert T.grad_check(lambda t: angle_loss(logits, t, bins, res_gt), residuals) < 1e-4


# ---------------------------------------------------------------------------
# Laplacian NLL (depth / h3d)
# ---------------------------------------------------------------------------


def test_nll_perfect_unit_sigma_zero():
    out = depth_loss(Tensor(np.array([14.0])), Tensor(np.array([1.0])), [14.0])
    assert float(out.data) == 0.0


def test_nll_perfect_sigma_e_one():
    out = depth_loss(Tensor(np.array([14.0])), Tensor(np.array([math.e])), [14.0])
    assert abs(float(out.data) - 1.0) < 1e-12


def test_nll_minimizer_by_fd_sweep():
    # d loss / d sigma vanishes at sigma = sqrt(2)*|mu - d*|
    diff = 0.8
    expected = math.sqrt(2.0) * diff
    sigmas = np.linspace(0.2, 3.0, 561)

    def loss_at(s):
        return float(depth_loss(Tensor(np.array([diff])), Tensor(np.array([s])), [0.0]).data)

    values = np.array([loss_at(s) for s in sigmas])
    derivs = (values[2:] - values[:-2]) / (sigmas[2:] - sigmas[:-2])
    signs = np.sign(derivs)
    flips = np.where(np.diff(signs) > 0)[0]
    assert len(flips) == 1
    bracket = (sigmas[1 + flips[0]], sigmas[2 + flips[0]])
    assert bracket[0] <= expected <= bracket[1]
    # and the analytic lower bound holds everywhere
    assert np.all(values >= 1.0 + math.log(expected) - 1e-12)


def test_nll_sigma_floor():
    out = depth_loss(Tensor(np.array([5.0])), Tensor(np.array([0.0])), [5.0])
    assert float(out.data) == pytest.approx(math.log(1e-6))


def test_nll_empty():
    assert float(depth_loss(Tensor(np.zeros(0)), Tensor(np.zeros(0)), []).data) == 0.0


def test_nll_grad_check():
    rng = np.random.default_rng(7)
    mu = Tensor(rng.normal(size=4) + 10.0, requires_grad=True)
    log_sigma = Tensor(rng.normal(size=4) * 0.3, requires_grad=True)
    gt = rng.normal(size=4) + 12.0
    assert T.grad_check(lambda t: laplacian_nll(t, T.exp(log_sigma), gt), mu) < 1e-4
    assert T.grad_check(lambda t: laplacian_nll(mu, T.exp(t), gt), log_sigma) < 1e-4


# ---------------------------------------------------------------------------
# total loss and HTL
# ---------------------------------------------------------------------------


def _random_terms(rng):
    return {term: Tensor(np.array(rng.uniform(0.0, 3.0))) for term in LOSS_TERMS}


def test_total_additivity():
    rng = np.random.default_rng(8)
    terms = _random_terms(rng)
    weights = TaskWeights(tuple(rng.uniform(0.0, 1.0) for _ in LOSS_TERMS))
    total, report = total_loss(terms, weights)
    manual = 0.0
    for term in LOSS_TERMS:
        manual = manual + float(terms[term].data) * weights[term]
    assert abs(float(total.data) - manual) < 1e-12
    for term in LOSS_TERMS:
        assert report[term] == float(terms[term].data)
        assert report[f"w_{term}"] == weights[term]


def test_total_heatmap_only():
    rng = np.random.default_rng(9)
    terms = _random_terms(rng)
    weights = TaskWeights(tuple(1.0 if t == "heatmap" else 0.0 for t in LOSS_TERMS))
    total, _ = total_loss(terms, weights)
    assert float(total.data) == float(terms["heatmap"].data)


def test_total_missing_term_rejected():
    terms = _random_terms(np.random.default_rng(10))
    del terms["depth"]
    with pytest.raises(UsageError):
        total_loss(terms, make_weights())


def test_htl_epoch_zero():
    w = htl_weights(0, {})
    for term in TIER1:
        assert w[term] == 1.0
    for term in TIER2 + ("depth",):
        assert w[term] == 0.0


def test_htl_stalled_pretasks_stay_zero():
    history = {t: [2.0] * 30 for t in LOSS_TERMS}
    w = htl_weights(25, history)
    assert w["offset3d"] == 0.0
    assert w["depth"] == 0.0


def test_htl_full_progress_reaches_one():
    history = {}
    for t in LOSS_TERMS:
        history[t] = [1.0] + [0.0] * 39
    w = htl_weights(40, history, ramp_epochs=20)
    assert all(w[t] == 1.0 for t in LOSS_TERMS)


def test_htl_monotone_in_epoch():
    rng = np.random.default_rng(11)
    n = 40
    history = {t: list(np.abs(rng.normal(size=n)) + 0.01) for t in LOSS_TERMS}
    prev2 = prev3 = -1.0
    for e in range(n):
        w = htl_weights(e, history)
        assert w["offset3d"] >= prev2
        assert w["depth"] >= prev3
        prev2, prev3 = w["offset3d"], w["depth"]
        assert 0.0 <= w["offset3d"] <= 1.0
        assert 0.0 <= w["depth"] <= 1.0


def test_htl_rejects_negative_epoch():
    with pytest.raises(UsageError):
        htl_weights(-1, {})


# ---------------------------------------------------------------------------
# encode -> decode round trip through real decode machinery
# ---------------------------------------------------------------------------


def test_target_decode_round_trip():
    calib = _calib()
    box = np.array([2.0, 1.2, 20.0, 1.5, 1.7, 4.0, 0.5])
    label = _label_for_box(box, calib)
    targets = assign_targets([label], calib, (1280, 384))
    assert targets.n_objects == 1

    # the offset and size heads' outputs, right at the one center cell
    map_shape = (2,) + targets.heatmap.shape[1:]
    offset2d, size2d = np.zeros(map_shape), np.zeros(map_shape)
    row, col = targets.cell[0]
    offset2d[:, row, col] = targets.offset2d[0]
    size2d[:, row, col] = targets.size2d[0]
    dets2d = decode_heatmap_peaks(targets.heatmap, offset2d, size2d, k=5, threshold=0.5)
    assert len(dets2d) == 1
    assert abs(dets2d.center[0, 0] - targets.center2d[0, 0]) < 1e-9
    assert abs(dets2d.center[0, 1] - targets.center2d[0, 1]) < 1e-9

    h2d = targets.size2d[0, 1]
    h3d = box[3]
    bias_gt = box[2] - calib.f_v * h3d / h2d
    logits = np.full((1, NUM_ANGLE_BINS), -30.0)
    logits[0, targets.angle_bin[0]] = 30.0
    residuals = np.zeros((1, NUM_ANGLE_BINS))
    residuals[0, targets.angle_bin[0]] = targets.angle_res[0]
    size_res = np.zeros((1, 3, 3))
    size_res[0, 0] = box[3:6] - CLASS_PRIORS[0]
    perfect = Heads3DOutput(
        offset3d=Tensor(targets.offset3d[:1]),
        angle_logits=Tensor(logits),
        angle_residuals=Tensor(residuals),
        size_residuals=Tensor(size_res),
        h_log_sigma=Tensor(np.array([-40.0])),
        bias_mu=Tensor(np.array([bias_gt])),
        bias_log_sigma=Tensor(np.array([-40.0])),
    )
    decoded_all, drops = decode_box3d(dets2d, perfect, calib)
    assert drops == {} and len(decoded_all) == 1
    decoded = decoded_all[0]
    assert np.max(np.abs(np.array(decoded.location) - box[:3])) < 1e-6
    assert np.max(np.abs(np.array(decoded.dimensions) - box[3:6])) < 1e-6
    assert abs(decoded.yaw - box[6]) < 1e-6

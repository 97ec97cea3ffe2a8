"""Top-level acceptance: ten pinned behavioral contracts, one test each.

Each test is a complete statement of one contract (tolerances and time
budgets included), so `pytest -v tests/test_acceptance.py` reads as the
pass/fail scorecard for the package.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from test_evaluation import _ap, _corpus, _pair_iou, _row

from mono3d import tensor as T
from mono3d.backbone import Backbone, backbone_config
from mono3d.cli import main
from mono3d.errors import ParseError, UsageError
from mono3d.evaluation import DIFFICULTIES, OFFICIAL_IOU, RELAXED_IOU
from mono3d.geometry import box3d_corners, iou_3d, iou_bev, pair_iou
from mono3d.gradcheck import run_suite
from mono3d.heads import (
    CLASS_NAMES,
    CLASS_PRIORS,
    NUM_ANGLE_BINS,
    Boxes2D,
    Heads3DOutput,
    decode_box3d,
    gup_depth,
    wrap_angle,
)
from mono3d.kitti import CameraCalib, LabelRecord, parse_calib_file, parse_label_file, write_calib, write_labels
from mono3d.losses import LOSS_TERMS, angle_loss, assign_targets, depth_loss, focal_loss, htl_weights, make_weights, total_loss
from mono3d.tensor import Tensor


def _read(path):
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


# -- 1: gradient suite --------------------------------------------------------


def test_criterion_01_gradient_suite():
    # every op and the end-to-end desk pipeline: rel err < 1e-4 over 20 seeds
    # (64-bit central differences, eps 1e-5) in under two minutes
    t0 = time.perf_counter()
    result = run_suite(seeds=20, include_pipeline=True)
    elapsed = time.perf_counter() - t0
    assert result.threshold == 1e-4
    assert all(err < 1e-4 for _, err in result.rows), result.failing()
    assert result.passed
    assert elapsed < 120.0
    # negative control: a corrupted backward rule must trip the same suite
    faulted = run_suite(seeds=2, include_pipeline=False, fault_op="conv2d")
    assert not faulted.passed and "conv2d" in faulted.failing()


def test_gradient_suite_catches_a_fault_in_every_op():
    for op in sorted(T.OP_NAMES):
        result = run_suite(seeds=1, include_pipeline=False, fault_op=op)
        assert not result.passed and op in result.failing(), (op, result.failing())
    # the suite's component names are not all op names, and matmul and
    # softmax are test references that no model path records: those are refused
    for name in ("matmul", "softmax", "matmul_batched", "softmax_lastdim", "bilinear_resize", "attentoin"):
        with pytest.raises(UsageError, match="known ops"):
            run_suite(seeds=1, include_pipeline=False, fault_op=name)


# -- 2: pyramid shape contract ------------------------------------------------


def test_criterion_02_pyramid_ceil_contract():
    strides = (4, 8, 16, 32)
    bb = Backbone(backbone_config("desk"), np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for _ in range(50):
        h, w = (int(v) for v in rng.integers(32, 161, size=2))
        with T.no_grad():
            feats = bb(Tensor(rng.normal(size=(1, 3, h, w))))
        got = [f.data.shape[1:3] for f in feats]  # channels-last maps [N, h, w, C]
        want = [(-(-h // s), -(-w // s)) for s in strides]
        assert got == want, (h, w, got)
    b2 = Backbone(backbone_config("b2"), np.random.default_rng(2))
    with T.no_grad():
        feats = b2(Tensor(np.random.default_rng(3).normal(size=(1, 3, 380, 1280))))
    assert [f.data.shape[1:] for f in feats] == [
        (95, 320, 64),
        (48, 160, 128),
        (24, 80, 320),
        (12, 40, 512),
    ]


# -- 3: rotated IoU vs rasterization ------------------------------------------


def _rand_box(rng):
    """A box row (x, y, z, h, w, l, yaw)."""
    return np.array(
        [
            rng.uniform(-10, 10), rng.uniform(1, 2), rng.uniform(5, 40),
            rng.uniform(1, 2), rng.uniform(0.5, 1.2), rng.uniform(2.5, 4.5),
            rng.uniform(-math.pi, math.pi),
        ]
    )


def test_criterion_03_rotated_iou_vs_raster_oracle():
    rng = np.random.default_rng(7)
    boxes_a, boxes_b = [], []
    for _ in range(1000):
        a = _rand_box(rng)
        if rng.uniform() < 0.5:  # bias half the pairs toward overlap
            x, z = a[0] + rng.normal(scale=1.0), a[2] + rng.normal(scale=1.0)
            dims = [d * rng.uniform(0.8, 1.2) for d in a[3:6]]
            b = np.array([x, a[1], z, *dims, wrap_angle(a[6] + rng.normal(scale=0.5))])
        else:
            b = _rand_box(rng)
        boxes_a.append(a)
        boxes_b.append(b)
    t0 = time.perf_counter()
    raster = oracles.raster_iou_reference(boxes_a, boxes_b, n_grid=2000)
    elapsed = time.perf_counter() - t0
    pairs = np.arange(len(boxes_a))
    analytic = pair_iou(boxes_a, boxes_b, pairs, pairs)[1]
    assert np.max(np.abs(analytic - raster)) < 2e-3
    assert elapsed < 60.0
    # co-centered unit squares at 45 degrees: octagon overlap, IoU = 1/sqrt(2)
    sq = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0])
    sq45 = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, math.pi / 4.0])
    assert abs(iou_bev(sq, sq45) - 0.70711) < 1e-5


# -- 4: AP oracle equivalence --------------------------------------------------


def test_criterion_04_ap_bitwise_vs_bruteforce():
    gt, preds = _corpus(np.random.default_rng(123), n_images=20)
    cells = tuple(OFFICIAL_IOU) + tuple(RELAXED_IOU)
    checked = 0
    for metric in ("3D", "BEV"):
        pair = _pair_iou(metric)
        for cls, thr in cells:
            for diff in DIFFICULTIES:
                got = _ap(preds, gt, cls, diff, metric, thr)
                want = oracles.ap_r40_bruteforce(preds, gt, cls, diff, pair, thr)
                assert got == want if want is not None else got is None
                checked += got is not None
    assert checked >= 24
    # ground truth scored 1.0 is a perfect detector on every defined cell
    perfect = {img: [replace(r, score=1.0) for r in recs] for img, recs in gt.items()}
    defined = 0
    for metric in ("3D", "BEV"):
        for cls, thr in cells:
            for diff in DIFFICULTIES:
                ap = _ap(perfect, gt, cls, diff, metric, thr)
                if ap is not None:
                    assert ap == 100.0
                    defined += 1
    assert defined > 0
    # and an empty prediction set scores exactly zero there
    for metric in ("3D", "BEV"):
        for cls, thr in cells:
            for diff in DIFFICULTIES:
                if _ap(perfect, gt, cls, diff, metric, thr) is not None:
                    assert _ap({}, gt, cls, diff, metric, thr) == 0.0


# -- 5: box codec round trip and depth projection ------------------------------


def _clip_bbox(pix, width, height):
    left = min(max(float(pix[:, 0].min()), 0.0), float(width))
    right = min(max(float(pix[:, 0].max()), 0.0), float(width))
    top = min(max(float(pix[:, 1].min()), 0.0), float(height))
    bottom = min(max(float(pix[:, 1].max()), 0.0), float(height))
    return left, top, right, bottom


def test_criterion_05_encode_decode_round_trip():
    calib = CameraCalib(np.array([[700.0, 0, 620, 0], [0, 700.0, 190, 0], [0, 0, 1, 0]]))
    width, height = 1280, 384
    rng = np.random.default_rng(11)
    labels, boxes = [], []
    while len(boxes) < 1000:
        z = rng.uniform(4.5, 60.0)
        x = (rng.uniform(100.0, 1180.0) - calib.c_u) * z / calib.f_u
        y = rng.uniform(1.0, 2.0)
        cls = int(rng.integers(0, len(CLASS_NAMES)))
        dims = tuple(p * rng.uniform(0.85, 1.15) for p in CLASS_PRIORS[cls])
        yaw = float(rng.uniform(-math.pi, math.pi))
        box = np.array([x, y, z, *dims, yaw])
        pix, _ = calib.project(box3d_corners(box))
        bbox = _clip_bbox(pix, width, height)
        if bbox[2] - bbox[0] < 2.0 or bbox[3] - bbox[1] < 2.0:
            continue
        labels.append(
            LabelRecord(
                type=CLASS_NAMES[cls],
                truncated=0.0,
                occluded=0,
                alpha=wrap_angle(yaw - math.atan2(x, z)),
                bbox=bbox,
                dimensions=dims,
                location=(x, y, z),
                rotation_y=yaw,
            )
        )
        boxes.append(box)
    targets = assign_targets(labels, calib, (width, height))
    assert targets.skipped == {} and len(targets.depth) == 1000

    m = len(boxes)
    logits = np.full((m, NUM_ANGLE_BINS), -5.0)
    residuals = np.zeros((m, NUM_ANGLE_BINS))
    logits[np.arange(m), targets.angle_bin] = 5.0
    residuals[np.arange(m), targets.angle_bin] = targets.angle_res
    size_res = np.zeros((m, len(CLASS_NAMES), 3))
    size_res[np.arange(m), targets.class_ids] = targets.size3d - CLASS_PRIORS[targets.class_ids]
    h2d = targets.size2d[:, 1]
    bias = targets.depth - calib.f_v * targets.size3d[:, 0] / h2d
    out = Heads3DOutput(
        offset3d=Tensor(targets.offset3d),
        angle_logits=Tensor(logits),
        angle_residuals=Tensor(residuals),
        size_residuals=Tensor(size_res),
        h_log_sigma=Tensor(np.full(m, -30.0)),
        bias_mu=Tensor(bias),
        bias_log_sigma=Tensor(np.full(m, -30.0)),
    )
    boxes2d = Boxes2D(targets.class_ids, np.ones(m), targets.center2d, targets.size2d)
    dets, drops = decode_box3d(boxes2d, out, calib)
    assert drops == {} and len(dets) == m
    boxes = np.array(boxes)
    assert np.max(np.abs(dets.location - boxes[:, :3])) <= 1e-6
    assert np.max(np.abs(dets.dimensions - boxes[:, 3:6])) <= 1e-6
    assert np.max(np.abs(wrap_angle(dets.yaw - boxes[:, 6]))) <= 1e-6


def test_criterion_05_depth_projection_exact_and_monotone():
    rng = np.random.default_rng(13)
    n = 10_000
    h3d = rng.uniform(1.0, 2.0, n)
    sig_h = rng.uniform(0.01, 0.5, n)
    h2d = rng.uniform(10.0, 100.0, n)
    f = rng.uniform(500.0, 900.0, n)
    bias = rng.uniform(-1.0, 1.0, n)
    sig_b = rng.uniform(0.01, 0.5, n)
    mu, sigma = gup_depth(h3d, sig_h, h2d, f, bias, sig_b)
    np.testing.assert_allclose(mu, f * h3d / h2d + bias, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(
        sigma, np.sqrt((sig_h * f / h2d) ** 2 + sig_b**2), rtol=1e-14, atol=0.0
    )
    # projection depth grows with 3D height and focal, shrinks with 2D height
    assert np.all(gup_depth(h3d + 0.1, sig_h, h2d, f, bias, sig_b)[0] > mu)
    assert np.all(gup_depth(h3d, sig_h, h2d, f + 50.0, bias, sig_b)[0] > mu)
    assert np.all(gup_depth(h3d, sig_h, h2d * 1.1, f, bias, sig_b)[0] < mu)
    # spread grows with either input uncertainty, shrinks with 2D height
    assert np.all(gup_depth(h3d, sig_h + 0.1, h2d, f, bias, sig_b)[1] > sigma)
    assert np.all(gup_depth(h3d, sig_h, h2d, f, bias, sig_b + 0.1)[1] > sigma)
    assert np.all(gup_depth(h3d, sig_h, h2d * 1.1, f, bias, sig_b)[1] < sigma)


# -- 6: loss values pinned ------------------------------------------------------


def test_criterion_06_loss_values():
    # weighted sum decomposes additively over the nine terms
    rng = np.random.default_rng(17)
    vals = rng.uniform(0.1, 2.0, len(LOSS_TERMS))
    terms = {t: Tensor(np.array(v)) for t, v in zip(LOSS_TERMS, vals)}
    weights = make_weights(tier2=0.7, tier3=0.3)
    total, _ = total_loss(terms, weights)
    expected = sum(w * v for w, v in zip(weights.values, vals))
    assert abs(float(total.data) - expected) <= 1e-12

    # single positive cell at p=0.5: (1-p)^2 * -log(p) = 0.1733
    got = float(focal_loss(Tensor(np.full((1, 1, 1), 0.5)), np.ones((1, 1, 1))).data)
    assert abs(got - 0.1733) <= 1e-4

    # uniform logits over the angle bins cost exactly ln(num_bins)
    got = float(
        angle_loss(Tensor(np.zeros((1, NUM_ANGLE_BINS))), Tensor(np.zeros((1, NUM_ANGLE_BINS))), [0], [0.0]).data
    )
    assert abs(got - math.log(NUM_ANGLE_BINS)) <= 1e-9

    # depth NLL is minimized in mu exactly at the target depth
    target, sig = 10.0, 2.0
    mus = np.linspace(8.0, 12.0, 4001)
    values = np.array(
        [float(depth_loss(Tensor(np.array([m])), Tensor(np.array([sig])), [target]).data) for m in mus]
    )
    derivs = (values[2:] - values[:-2]) / (mus[2:] - mus[:-2])
    step = mus[1] - mus[0]
    idx = int(np.argmin(values))
    assert abs(mus[idx] - target) <= step
    # strictly downhill left of the target, strictly uphill right of it
    assert np.all(derivs[mus[1:-1] < target - step] < 0)
    assert np.all(derivs[mus[1:-1] > target + step] > 0)


# -- 7: task tier schedule -------------------------------------------------------


def test_criterion_07_task_tier_schedule():
    n_terms = len(LOSS_TERMS)
    # epoch 0, no history: 2D tier only
    assert htl_weights(0, {}).values == (1.0, 1.0, 1.0) + (0.0,) * (n_terms - 3)
    # weights never decrease, even under a noisy loss history
    rng = np.random.default_rng(19)
    history = {
        t: list(np.maximum(np.linspace(1.0, 0.05, 40) + rng.normal(scale=0.1, size=40), 0.0))
        for t in LOSS_TERMS
    }
    # (the weights carried from epoch to epoch, as train_detector carries them)
    prev = htl_weights(0, history)
    for epoch in range(1, 41):
        cur = htl_weights(epoch, history, prev, ramp_epochs=20)
        assert all(c >= p for c, p in zip(cur.values, prev.values))
        prev = cur
    # vanished prerequisite losses + completed ramp: every weight is 1
    done = {t: [1.0] + [0.0] * 39 for t in LOSS_TERMS}
    assert htl_weights(40, done, ramp_epochs=20).values == (1.0,) * n_terms


# -- 8: attention range ablation --------------------------------------------------


def _far_pixel_response(use_attention):
    bb = Backbone(backbone_config("desk", use_attention=use_attention), np.random.default_rng(11))
    x = np.random.default_rng(12).normal(size=(1, 3, 128, 256))
    x_pert = x.copy()
    x_pert[0, :, 120:, 248:] += 1.0
    with T.no_grad():
        base = bb(Tensor(x))[3].data[0, :, 0, 0]
        pert = bb(Tensor(x_pert))[3].data[0, :, 0, 0]
    return float(np.max(np.abs(pert - base)))


def test_criterion_08_attention_range_ablation():
    # a bottom-right bump must reach the top-left deepest cell only through
    # attention; the conv-only ablation is exactly local
    assert _far_pixel_response(use_attention=True) > 0.0
    assert _far_pixel_response(use_attention=False) == 0.0


# -- 9: toy overfit end to end ------------------------------------------------------


def test_criterion_09_toy_overfit_end_to_end(tmp_path):
    run1, run2, inf = tmp_path / "run1", tmp_path / "run2", tmp_path / "inf"
    t0 = time.perf_counter()
    assert main(["train-toy", "--out", str(run1)]) == 0
    rows = [line.split(",") for line in _read(run1 / "loss.csv").splitlines()]
    heat = rows[0].index("heatmap")
    assert len(rows) == 201  # header + 200 epochs
    ratio = float(rows[-1][heat]) / float(rows[1][heat])
    assert ratio < 0.10, ratio

    image_id = "000003"
    code = main(
        [
            "infer",
            "--checkpoint", str(run1 / "model.ckpt"),
            "--image", str(run1 / "images" / f"{image_id}.ppm"),
            "--calib", str(run1 / "calibs" / f"{image_id}.txt"),
            "--out", str(inf),
        ]
    )
    assert code == 0
    elapsed = time.perf_counter() - t0
    preds = parse_label_file(_read(inf / "predictions" / f"{image_id}.txt"))
    gts = parse_label_file(_read(run1 / "labels" / f"{image_id}.txt"))
    assert preds and gts
    best = max(
        iou_3d(_row(p), _row(g))
        for p in preds
        for g in gts
    )
    assert best >= 0.5, best
    assert elapsed < 600.0

    # bit-identical artifacts on a repeat run with the same seeds
    assert main(["train-toy", "--out", str(run2)]) == 0
    assert _read(run2 / "loss.csv") == _read(run1 / "loss.csv")
    with open(run1 / "model.ckpt", "rb") as fa, open(run2 / "model.ckpt", "rb") as fb:
        assert fa.read() == fb.read()


# -- 10: format fidelity ---------------------------------------------------------


def test_criterion_10_format_fidelity():
    rng = np.random.default_rng(23)
    recs = []
    for i in range(20):
        recs.append(
            LabelRecord(
                type=CLASS_NAMES[i % 3],
                truncated=round(float(rng.uniform(0, 0.9)), 2),
                occluded=int(rng.integers(0, 4)),
                alpha=round(float(rng.uniform(-math.pi, math.pi)), 2),
                bbox=tuple(round(float(v), 2) for v in sorted(rng.uniform(0, 1200, 4))),
                dimensions=tuple(round(float(v), 2) for v in rng.uniform(0.5, 4.0, 3)),
                location=tuple(round(float(v), 2) for v in rng.uniform(-20, 60, 3)),
                rotation_y=round(float(rng.uniform(-math.pi, math.pi)), 2),
                score=round(float(rng.uniform(0, 1)), 6) if i % 2 else None,
            )
        )
    text = write_labels(recs)
    parsed = parse_label_file(text)
    assert parsed == recs
    assert write_labels(parsed) == text

    calib = CameraCalib(np.array([[707.05, 0.0, 604.08, 45.76], [0.0, 707.05, 180.51, -0.35], [0.0, 0.0, 1.0, 0.005]]))
    ctext = write_calib(calib)
    reparsed = parse_calib_file(ctext)
    assert write_calib(reparsed) == ctext
    assert np.array_equal(reparsed.P2, parse_calib_file(write_calib(reparsed)).P2)

    # malformed inputs carry the offending line (and column), never crash
    good = write_labels(recs[:1])
    with pytest.raises(ParseError) as exc:
        parse_label_file(good + "Car 0.0 0 bad 1 2 3 4 1 1 1 0 0 10 0\n")
    assert exc.value.line == 2 and exc.value.column is not None
    with pytest.raises(ParseError) as exc:
        parse_label_file("Car 0.0 0\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_calib_file("P2: 1 2 3\n")
    assert exc.value.line == 1

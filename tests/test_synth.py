import math
from dataclasses import replace

import numpy as np
import pytest

from mono3d.errors import UsageError
from mono3d.evaluation import evaluate_split
from mono3d.geometry import box3d_corners
from mono3d.heads import CLASS_NAMES
from mono3d.kitti import write_labels
from mono3d.losses import assign_targets
from mono3d import synth
from mono3d.synth import convex_hull, make_default_calib, synth_scene, to_uint8

import oracles

IMAGE_SIZE = (640, 192)


def test_default_calib_centered_pinhole():
    calib = make_default_calib(IMAGE_SIZE)
    assert calib.f_u == 700.0 and calib.f_v == 700.0
    assert calib.c_u == 320.0 and calib.c_v == 96.0
    assert np.all(calib.P2[:, 3] == 0.0)
    pix, depth = calib.project(np.array([[0.0, 0.0, 10.0]]))
    assert np.allclose(pix[0], [320.0, 96.0]) and depth[0] == 10.0


def test_default_calib_validation():
    with pytest.raises(UsageError):
        make_default_calib((1, 100))
    with pytest.raises(UsageError):
        make_default_calib(IMAGE_SIZE, focal=0.0)


def test_deterministic_per_seed():
    calib = make_default_calib(IMAGE_SIZE)
    img_a, labels_a = synth_scene(7, 4, calib, IMAGE_SIZE)
    img_b, labels_b = synth_scene(7, 4, calib, IMAGE_SIZE)
    assert np.array_equal(img_a.data, img_b.data)
    assert labels_a == labels_b
    img_c, _ = synth_scene(8, 4, calib, IMAGE_SIZE)
    assert not np.array_equal(img_a.data, img_c.data)


def test_empty_scene():
    calib = make_default_calib(IMAGE_SIZE)
    image, labels = synth_scene(3, 0, calib, IMAGE_SIZE)
    assert labels == []
    assert image.shape == (3, IMAGE_SIZE[1], IMAGE_SIZE[0])
    assert float(image.data.max()) <= 0.25


def test_argument_validation():
    calib = make_default_calib(IMAGE_SIZE)
    with pytest.raises(UsageError):
        synth_scene(0, -1, calib, IMAGE_SIZE)
    with pytest.raises(UsageError):
        synth_scene(0, 1, calib, IMAGE_SIZE, z_range=(0.0, 10.0))
    with pytest.raises(UsageError):
        synth_scene(0, 1, calib, IMAGE_SIZE, z_range=(10.0, 5.0))


def test_label_contract():
    calib = make_default_calib(IMAGE_SIZE)
    width, height = IMAGE_SIZE
    _, labels = synth_scene(11, 6, calib, IMAGE_SIZE)
    assert len(labels) == 6
    cells = set()
    for rec in labels:
        assert rec.type in CLASS_NAMES
        assert 5.0 <= rec.location[2] <= 60.0
        assert -math.pi < rec.rotation_y <= math.pi
        assert all(d > 0 for d in rec.dimensions)
        left, top, right, bottom = rec.bbox
        assert 0.0 <= left < right <= width
        assert 0.0 <= top < bottom <= height
        assert rec.occluded in (0, 1, 2, 3)
        assert 0.0 <= rec.truncated < 1.0
        cells.add((int((left + right) / 2 // 4), int((top + bottom) / 2 // 4)))
    assert len(cells) == len(labels)


def test_labels_survive_target_assignment():
    calib = make_default_calib(IMAGE_SIZE)
    _, labels = synth_scene(12, 5, calib, IMAGE_SIZE)
    targets = assign_targets(labels, calib, IMAGE_SIZE)
    assert targets.n_objects == len(labels)
    assert targets.skipped == {}


def test_reprojection_and_truncation_consistency():
    calib = make_default_calib(IMAGE_SIZE)
    width, height = IMAGE_SIZE
    _, labels = synth_scene(13, 6, calib, IMAGE_SIZE)
    for rec in labels:
        pix, _ = calib.project(box3d_corners([*rec.location, *rec.dimensions, rec.rotation_y]))
        full = (pix[:, 0].min(), pix[:, 1].min(), pix[:, 0].max(), pix[:, 1].max())
        clamped = (
            min(max(full[0], 0.0), width),
            min(max(full[1], 0.0), height),
            min(max(full[2], 0.0), width),
            min(max(full[3], 0.0), height),
        )
        assert rec.bbox == pytest.approx((clamped[0], clamped[1], clamped[2], clamped[3]), abs=1e-9)
        full_area = (full[2] - full[0]) * (full[3] - full[1])
        vis_area = (clamped[2] - clamped[0]) * (clamped[3] - clamped[1])
        assert rec.truncated == pytest.approx(1.0 - vis_area / full_area, abs=1e-12)


def test_silhouette_painted_inside_bbox_only():
    calib = make_default_calib(IMAGE_SIZE)
    image, labels = synth_scene(21, 1, calib, IMAGE_SIZE)
    assert len(labels) == 1
    assert labels[0].occluded == 0
    left, top, right, bottom = labels[0].bbox
    bright = image.data.max(axis=0) > 0.3  # background noise tops out at 0.25
    assert bright.any()
    rows, cols = np.nonzero(bright)
    assert rows.min() >= math.floor(top) and rows.max() <= math.ceil(bottom)
    assert cols.min() >= math.floor(left) and cols.max() <= math.ceil(right)


def _same_hull(got, want):
    """got lists want's vertices in the same cyclic order, plus perhaps
    vertices that lie on one of its edges to rounding, which Qhull merges
    away (a box's top face projected onto one image row, say)."""
    shared = np.array([np.any(np.all(want == p, axis=1)) for p in got], dtype=bool)
    for i in np.flatnonzero(~shared):
        a, p, b = got[i - 1], got[i], got[(i + 1) % len(got)]
        cross = (p[0] - a[0]) * (b[1] - a[1]) - (p[1] - a[1]) * (b[0] - a[0])
        if abs(cross) > 1e-9 * np.sum((b - a) ** 2):
            return False
    got = got[shared]
    if len(got) != len(want):
        return False
    start = int(np.flatnonzero(np.all(want == got[0], axis=1))[0]) if len(got) else 0
    return np.array_equal(got, np.roll(want, -start, axis=0))


def test_convex_hull_matches_qhull():
    rng = np.random.default_rng(0)
    calib = make_default_calib(IMAGE_SIZE)
    for _ in range(200):
        row = np.array([rng.uniform(-8, 8), 1.5, rng.uniform(4, 40), 1.5, 1.6, 3.9, rng.uniform(-3, 3)])
        box_corners = calib.project(box3d_corners(row))[0]
        for pts in (box_corners, rng.normal(size=(8, 2)) * 50.0, rng.integers(0, 4, size=(8, 2)) * 1.0):
            got, want = convex_hull(pts), oracles.convex_hull_qhull(pts)
            assert _same_hull(got, want), (pts, got, want)


@pytest.mark.parametrize(
    "pts",
    [np.ones((8, 2)), np.column_stack([np.arange(8.0), 2.0 * np.arange(8.0) + 1.0]), np.zeros((2, 2))],
)
def test_convex_hull_of_a_line_has_fewer_than_three_vertices(pts):
    assert len(convex_hull(pts)) < 3


def test_scenes_match_qhull_silhouettes(monkeypatch):
    calib = make_default_calib(IMAGE_SIZE)
    got = [synth_scene(seed, 6, calib, IMAGE_SIZE, z_range=(5.0, 60.0)) for seed in range(20)]
    monkeypatch.setattr(synth, "convex_hull", oracles.convex_hull_qhull)
    for seed, (image, labels) in enumerate(got):
        want_image, want_labels = synth_scene(seed, 6, calib, IMAGE_SIZE, z_range=(5.0, 60.0))
        assert np.array_equal(image.data, want_image.data) and labels == want_labels


def test_to_uint8_layout():
    calib = make_default_calib(IMAGE_SIZE)
    image, _ = synth_scene(5, 2, calib, IMAGE_SIZE)
    arr = to_uint8(image)
    assert arr.shape == (IMAGE_SIZE[1], IMAGE_SIZE[0], 3)
    assert arr.dtype == np.uint8


def test_labels_as_predictions_reach_ap_100(tmp_path):
    calib = make_default_calib(IMAGE_SIZE)
    gt_dir = tmp_path / "label_2"
    pred_dir = tmp_path / "preds"
    gt_dir.mkdir()
    pred_dir.mkdir()
    for i in range(6):
        _, labels = synth_scene(100 + i, 4, calib, IMAGE_SIZE)
        (gt_dir / f"{i:06d}.txt").write_text(write_labels(labels))
        preds = [replace(r, score=1.0) for r in labels]
        (pred_dir / f"{i:06d}.txt").write_text(write_labels(preds))
    report = evaluate_split(str(pred_dir), str(gt_dir))
    assert report.errors == []
    defined = [c for c in report.cells.values() if c.ap is not None]
    assert defined
    assert all(c.ap == 100.0 for c in defined)

import math

import numpy as np
import pytest

from mono3d import geometry
from mono3d.errors import DegenerateGeometryError
from mono3d.geometry import (
    bev_footprints,
    box3d_corners,
    convex_clip,
    iou_3d,
    iou_bev,
    pair_iou,
    polygon_area,
)

import oracles


def iou_pairs(rows_a, rows_b):
    """pair_iou over every (a, b) pair -> (iou_3d [A, B], iou_bev [A, B])."""
    rows_a, rows_b = np.asarray(rows_a), np.asarray(rows_b)
    ia = np.repeat(np.arange(len(rows_a)), len(rows_b))
    ib = np.tile(np.arange(len(rows_b)), len(rows_a))
    return tuple(t.reshape(len(rows_a), len(rows_b)) for t in pair_iou(rows_a, rows_b, ia, ib))


def _box(x=0.0, y=0.0, z=0.0, h=1.0, w=1.0, l=1.0, yaw=0.0):
    """One box row (x, y, z, h, w, l, yaw)."""
    return np.array([x, y, z, h, w, l, yaw])


def _rand_box(rng):
    return np.array(
        [
            rng.uniform(-10, 10), rng.uniform(-2, 2), rng.uniform(-10, 10),
            rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 6),
            rng.uniform(-math.pi, math.pi),
        ]
    )


def _rand_rows(rng, n):
    return np.array([_rand_box(rng) for _ in range(n)])


def _feet(*boxes):
    return bev_footprints(np.array(boxes))


def _areas(verts, counts=None):
    """Areas of a [P, n, 2] polygon batch; every vertex counts by default."""
    verts = np.asarray(verts, dtype=np.float64)
    if counts is None:
        counts = np.full(len(verts), verts.shape[1])
    return polygon_area(verts, counts)


# ---------------------------------------------------------------------------
# corners and footprints
# ---------------------------------------------------------------------------


def test_unit_cube_corners():
    (corners,) = box3d_corners(_box())
    assert corners.shape == (8, 3)
    assert sorted(set(np.round(corners[:, 0], 12))) == [-0.5, 0.5]
    assert sorted(set(np.round(corners[:, 1], 12))) == [-1.0, 0.0]
    assert sorted(set(np.round(corners[:, 2], 12))) == [-0.5, 0.5]
    # bottom face first, then top
    assert np.array_equal(corners[:4, 1], np.zeros(4))
    assert np.array_equal(corners[4:, 1], -np.ones(4))


def test_yaw_quarter_turn_swaps_footprint_axes():
    a, b = box3d_corners([_box(w=1.0, l=4.0, yaw=0.0), _box(w=1.0, l=4.0, yaw=math.pi / 2)])
    assert np.ptp(a[:, 0]) == pytest.approx(4.0)
    assert np.ptp(a[:, 2]) == pytest.approx(1.0)
    assert np.ptp(b[:, 0]) == pytest.approx(1.0)
    assert np.ptp(b[:, 2]) == pytest.approx(4.0)


def test_yaw_pi_same_footprint():
    a, b = _feet(_box(w=1.0, l=3.0, yaw=0.0), _box(w=1.0, l=3.0, yaw=math.pi))
    assert sorted(map(tuple, np.round(a, 12))) == sorted(map(tuple, np.round(b, 12)))


def test_corner_translation():
    base, moved = box3d_corners([_box(), _box(x=2.0, y=-1.0, z=7.0)])
    assert np.allclose(moved - base, [2.0, -1.0, 7.0])


def test_footprint_is_ccw():
    rng = np.random.default_rng(0)
    feet = bev_footprints(_rand_rows(rng, 50))
    assert feet.shape == (50, 4, 2)
    assert np.all(_areas(feet) > 0)
    assert bev_footprints(np.zeros((0, 7))).shape == (0, 4, 2)
    assert box3d_corners(np.zeros((0, 7))).shape == (0, 8, 3)


def test_degenerate_dimensions_rejected():
    with pytest.raises(DegenerateGeometryError):
        box3d_corners(_box(h=0.0))
    # one degenerate row in a batch: the error names that row's dimensions
    rows = np.array([_box(), _box(x=3.0, w=2.0), _box(h=1.5, w=-0.5, l=4.0), _box(z=5.0)])
    with pytest.raises(DegenerateGeometryError, match=r"\(1\.5, -0\.5, 4\.0\)"):
        box3d_corners(rows)
    assert box3d_corners(rows[[0, 1, 3]]).shape == (3, 8, 3)


# ---------------------------------------------------------------------------
# convex clipping
# ---------------------------------------------------------------------------


def test_clip_by_itself_preserves_area():
    rng = np.random.default_rng(1)
    feet = bev_footprints(_rand_rows(rng, 30))
    verts, counts = convex_clip(feet, feet)
    assert np.all(counts >= 4)
    assert np.max(np.abs(_areas(verts, counts) - _areas(feet))) < 1e-12


def test_clip_disjoint_squares_empty():
    verts, counts = convex_clip(_feet(_box(x=0.0, z=0.0)), _feet(_box(x=5.0, z=0.0)))
    assert counts.tolist() == [0]
    assert not verts.any()
    assert _areas(verts, counts).tolist() == [0.0]


def test_clip_degenerate_inputs_empty():
    square = _feet(_box())
    for subject, clip in ((square[:, :0], square), (square[:, :2], square), (square, square[:, :1])):
        verts, counts = convex_clip(subject, clip)
        assert counts.tolist() == [0]
        assert _areas(verts, counts).tolist() == [0.0]
    # no pairs at all
    verts, counts = convex_clip(square[:0], square[:0])
    assert counts.shape == (0,) and _areas(verts, counts).shape == (0,)


def test_clip_unit_square_45_degrees_octagon():
    # analytic: the intersection is a regular octagon of area 2*(sqrt(2)-1)
    verts, counts = convex_clip(_feet(_box(yaw=0.0)), _feet(_box(yaw=math.pi / 4)))
    assert counts.tolist() == [8]
    assert verts.shape == (1, 8, 2)
    assert abs(_areas(verts, counts)[0] - 2.0 * (math.sqrt(2.0) - 1.0)) < 1e-12


def test_clip_area_bounded_by_inputs():
    rng = np.random.default_rng(2)
    fa = bev_footprints(_rand_rows(rng, 100))
    fb = bev_footprints(_rand_rows(rng, 100))
    inter = _areas(*convex_clip(fa, fb))
    assert np.all(inter <= np.minimum(_areas(fa), _areas(fb)) + 1e-12)
    assert np.all(inter >= -1e-12)


def test_clip_contained_square():
    outer, inner = _feet(_box(w=4.0, l=4.0), _box(w=1.0, l=1.0))
    got = _areas(*convex_clip(np.stack([inner, outer]), np.stack([outer, inner])))
    assert np.max(np.abs(got - 1.0)) < 1e-12


def test_batched_clip_area_and_iou_bitwise_vs_scalar_oracle():
    rng = np.random.default_rng(12)
    same = _rand_box(rng)
    special = [
        # the 45 degree octagon: 8 vertices, numpy's tree-summed area
        (_box(), _box(yaw=math.pi / 4)),
        # a box and its half-turn twin: rounding leaves 9 vertices
        (_box(w=1.0, l=2.0, yaw=1.0), _box(w=1.0, l=2.0, yaw=1.0 + math.pi)),
        # contained, both ways; identical; disjoint
        (_box(w=1.0, l=1.0), _box(w=4.0, l=4.0)),
        (_box(w=4.0, l=4.0, yaw=0.3), _box(w=1.0, l=1.0)),
        (same, same),
        (_box(), _box(x=5.0)),
        # a shared edge, axis-aligned and rotated
        (_box(w=1.0, l=2.0), _box(x=2.0, w=1.0, l=2.0)),
        (
            _box(w=1.0, l=2.0, yaw=0.7),
            _box(x=math.sin(0.7), z=math.cos(0.7), w=1.0, l=2.0, yaw=0.7),
        ),
        # zero-width and zero-length footprints
        (_box(w=0.0, yaw=0.4), _box()),
        (_box(), _box(l=0.0, x=0.1)),
    ]
    pairs = special + [(_rand_box(rng), _rand_box(rng)) for _ in range(200)]
    # random pairs with nearby centres, so that most of them overlap
    for a, b in pairs[len(special) : len(special) + 100]:
        b[0] = a[0] + rng.normal()
        b[2] = a[2] + rng.normal()
    boxes_a, boxes_b = np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])
    fa, fb = bev_footprints(boxes_a), bev_footprints(boxes_b)
    verts, counts = convex_clip(fa, fb)
    areas = polygon_area(verts, counts)
    want_areas = []
    for p in range(len(pairs)):
        want = oracles.convex_clip_scalar(fa[p], fb[p])
        assert counts[p] == len(want), p
        assert np.array_equal(verts[p, : counts[p]], np.reshape(want, (-1, 2))), p
        assert not verts[p, counts[p] :].any()
        want_areas.append(oracles.polygon_area_scalar(want))
    assert np.array_equal(areas, want_areas)
    assert np.array_equal(_areas(fa), [oracles.polygon_area_scalar(f) for f in fa])
    assert counts[0] == 8 and counts[1] == 9 and counts[5] == 0
    assert np.count_nonzero(counts[len(special) :]) >= 80
    # footprints and corners of every box, and of random rows at yaw 0,
    # +-pi and pi/2, against one box at a time
    axis = _rand_rows(rng, 40)
    axis[:, 6] = np.resize([0.0, math.pi, -math.pi, math.pi / 2], 40)
    rows = np.vstack([boxes_a, boxes_b, axis])
    for row, foot in zip(rows, bev_footprints(rows)):
        assert np.array_equal(foot, oracles.bev_footprint_scalar(row))
    rows = rows[(rows[:, 3:6] > 0.0).all(axis=1)]
    for row, corners in zip(rows, box3d_corners(rows)):
        assert np.array_equal(corners, box3d_corners(row)[0])
    # the IoU tables of the special boxes and 20 random ones, and the pairs
    got = iou_pairs(boxes_a[:30], boxes_b[:30])
    want = oracles.iou_pairs_scalar(boxes_a[:30], boxes_b[:30])
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    diag = pair_iou(boxes_a[:30], boxes_b[:30], np.arange(30), np.arange(30))
    for g, w in zip(diag, want):
        assert np.array_equal(g, np.diag(w))


def test_separated_pairs_skip_the_clip_and_stay_bitwise(monkeypatch):
    clipped = []
    clip = geometry.convex_clip

    def counting_clip(subjects, clips):
        clipped.append(len(subjects))
        return clip(subjects, clips)

    monkeypatch.setattr(geometry, "convex_clip", counting_clip)
    n_culled = n_clipped = 0
    # near the origin and 1 km out, where the margin scales with the coordinates
    for x0, z0 in ((0.0, 0.0), (1000.0, 40.0)):
        for yaw_a, yaw_b in ((0.0, 0.0), (0.3, -1.1)):
            a = _box(x=x0, y=1.5, z=z0, h=1.5, w=1.6, l=3.9, yaw=yaw_a)
            foot_a, foot_b = bev_footprints([a, _box(w=1.6, l=3.9, yaw=yaw_b)])
            lo_a, hi_a = foot_a.min(axis=0), foot_a.max(axis=0)
            lo_b, hi_b = foot_b.min(axis=0), foot_b.max(axis=0)
            for axis in (0, 1):
                for side in (1, -1):
                    # 0 is touching edges, 1e-9 is _APART_MARGIN
                    for gap in (0.0, 1e-12, 1e-9, 1e-6, 1e-3):
                        at = [x0, z0]
                        if side > 0:
                            at[axis] = hi_a[axis] - lo_b[axis] + gap
                        else:
                            at[axis] = lo_a[axis] - hi_b[axis] - gap
                        b = _box(x=at[0], y=1.2, z=at[1], h=1.5, w=1.6, l=3.9, yaw=yaw_b)
                        scale = max(1.0, np.abs(bev_footprints([a, b])).max())
                        clipped.clear()
                        got = pair_iou([a], [b], [0], [0])
                        want = oracles.iou_pairs_scalar([a], [b])
                        for g, w in zip(got, want):
                            assert np.array_equal(g, w[0]) and g[0] == 0.0
                        if gap > 2 * geometry._APART_MARGIN * scale:
                            assert sum(clipped) == 0, (x0, yaw_a, axis, side, gap)
                            n_culled += 1
                        elif gap < geometry._APART_MARGIN * scale / 2:
                            assert sum(clipped) == 1, (x0, yaw_a, axis, side, gap)
                            n_clipped += 1
    # the rest are within a factor 2 of the margin: bitwise either way
    assert n_culled == 24 and n_clipped == 48
    # a touching axis-aligned edge is clipped and has area exactly 0.0
    a, b = _box(w=1.6, l=3.9), _box(x=3.9, w=1.6, l=3.9)
    assert bev_footprints([b])[0].min(axis=0)[0] == bev_footprints([a])[0].max(axis=0)[0]
    clipped.clear()
    assert pair_iou([a], [b], [0], [0])[1][0] == 0.0 and clipped == [1]


# ---------------------------------------------------------------------------
# BEV / 3D IoU
# ---------------------------------------------------------------------------


def test_iou_identical_boxes():
    rng = np.random.default_rng(3)
    for _ in range(20):
        b = _rand_box(rng)
        assert iou_bev(b, b) == pytest.approx(1.0, abs=1e-12)
        assert iou_3d(b, b) == pytest.approx(1.0, abs=1e-12)


def test_iou_offset_squares_third():
    a = _box(w=2.0, l=2.0)
    b = _box(x=1.0, w=2.0, l=2.0)
    assert iou_bev(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_iou_45_degree_case():
    a = _box()
    b = _box(yaw=math.pi / 4)
    oct_area = 2.0 * (math.sqrt(2.0) - 1.0)
    assert iou_bev(a, b) == pytest.approx(oct_area / (2.0 - oct_area), abs=1e-12)
    assert abs(iou_bev(a, b) - 0.70711) < 1e-5


def test_iou3d_disjoint_heights():
    a = _box(y=0.0, h=1.0)
    b = _box(y=2.0, h=1.0)
    assert iou_3d(a, b) == 0.0


def test_iou3d_half_height_overlap():
    a = _box(y=0.0, h=1.0)
    b = _box(y=0.5, h=1.0)
    assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_iou_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b = _rand_box(rng), _rand_box(rng)
        assert abs(iou_bev(a, b) - iou_bev(b, a)) < 1e-12
        assert abs(iou_3d(a, b) - iou_3d(b, a)) < 1e-12
    # the pair tables: B x A is the transpose of A x B, both metrics
    boxes_a = _rand_rows(rng, 7)
    boxes_b = np.vstack([boxes_a[:3] + [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3], _rand_rows(rng, 6)])
    for ab, ba in zip(iou_pairs(boxes_a, boxes_b), iou_pairs(boxes_b, boxes_a)):
        assert ab.shape == (7, 9) and ba.shape == (9, 7)
        assert np.max(np.abs(ab - ba.T)) < 1e-12
        assert np.count_nonzero(ab) >= 3


def test_iou_pairs_empty_and_zero_area():
    boxes = np.array([_box(), _box(x=0.5, yaw=0.3), _box(z=0.2, h=2.0)])
    for table in iou_pairs(boxes[:0], boxes):
        assert table.shape == (0, 3)
    for table in iou_pairs(boxes, boxes[:0]):
        assert table.shape == (3, 0)
    # a zero-width or zero-length footprint has zero area: IoU exactly 0.0
    for flat in (_box(w=0.0, yaw=0.4), _box(l=0.0, x=0.1)):
        for row in iou_pairs([flat], boxes):
            assert row.tolist() == [[0.0, 0.0, 0.0]]
        for col in iou_pairs(boxes, [flat]):
            assert col.tolist() == [[0.0], [0.0], [0.0]]
        assert iou_bev(flat, boxes[0]) == 0.0 and iou_3d(boxes[0], flat) == 0.0


def test_iou_rigid_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = _rand_box(rng), _rand_box(rng)
        dx, dz = rng.uniform(-20, 20, 2)
        dyaw = rng.uniform(-math.pi, math.pi)
        base = iou_bev(a, b)

        def spin(box):
            c, s = math.cos(dyaw), math.sin(dyaw)
            x, y, z, h, w, l, yaw = box
            # rotate the center with the same BEV convention, then shift
            nx = c * x + s * z + dx
            nz = -s * x + c * z + dz
            return np.array([nx, y, nz, h, w, l, yaw + dyaw])

        assert abs(iou_bev(spin(a), spin(b)) - base) < 1e-9


def test_iou_range():
    rng = np.random.default_rng(6)
    for _ in range(200):
        v = iou_bev(_rand_box(rng), _rand_box(rng))
        assert 0.0 <= v <= 1.0


def test_iou_matches_raster_oracle():
    rng = np.random.default_rng(7)
    boxes_a, boxes_b = [], []
    for _ in range(100):
        a = _rand_box(rng)
        b = _rand_box(rng)
        # bias half the pairs toward overlap so nonzero IoU is exercised
        if rng.uniform() < 0.5:
            b[0] = a[0] + rng.uniform(-1, 1)
            b[2] = a[2] + rng.uniform(-1, 1)
        boxes_a.append(a)
        boxes_b.append(b)
    boxes_a, boxes_b = np.array(boxes_a), np.array(boxes_b)
    pairs = np.arange(len(boxes_a))
    analytic = pair_iou(boxes_a, boxes_b, pairs, pairs)[1]
    raster = oracles.raster_iou_reference(boxes_a, boxes_b, n_grid=2000)
    assert np.max(np.abs(analytic - raster)) < 2e-3


def test_raster_oracle_45_degree_case():
    a = _box()
    b = _box(yaw=math.pi / 4)
    est = oracles.raster_iou_reference([a], [b], n_grid=2000)[0]
    assert abs(est - 0.70711) < 1e-3


def test_raster_scanline_counts_equal_pointwise_oracle():
    # footprint rows (cx, cz, half_l, half_w, yaw)
    rng = np.random.default_rng(11)
    n = 120

    def rand_rows():
        return np.column_stack(
            [
                rng.uniform(-3, 3, (n, 2)),
                rng.uniform(0.2, 2.5, (n, 2)),
                rng.uniform(-math.pi, math.pi, n),
            ]
        )

    boxes_a, boxes_b = rand_rows(), rand_rows()
    # nearby centers for half of the pairs, so both overlap and disjoint occur
    boxes_b[: n // 2, :2] = boxes_a[: n // 2, :2] + rng.normal(scale=0.7, size=(n // 2, 2))
    # axis-aligned and quarter-turn yaws on a third of the boxes
    axis_yaws = [0.0, math.pi / 2, -math.pi / 2]
    boxes_a[::3, 4] = rng.choice(axis_yaws, len(boxes_a[::3]))
    boxes_b[::3, 4] = rng.choice(axis_yaws, len(boxes_b[::3]))
    # pairs that share an edge: along x at yaw 0, along z at yaw pi/2
    shared = np.array(
        [
            [0.0, 0.0, 1.0, 0.5, 0.0],
            [2.0, 0.0, 1.0, 0.5, 0.0],
            [0.0, 0.0, 1.0, 0.5, math.pi / 2],
            [0.0, 2.0, 1.0, 0.5, math.pi / 2],
            [0.0, 0.0, 1.0, 0.5, -math.pi / 2],
            [0.0, -2.0, 1.0, 0.5, -math.pi / 2],
        ]
    )
    boxes_a = np.vstack([boxes_a, shared[0::2]])
    boxes_b = np.vstack([boxes_b, shared[1::2]])
    for n_grid in (1, 3, 7, 64, 257):
        want = oracles.raster_iou_pointwise(boxes_a, boxes_b, n_grid)
        got = oracles.raster_iou(boxes_a, boxes_b, n_grid)
        assert np.array_equal(got, want), n_grid
        if n_grid >= 64:
            assert np.any(want[:n] > 0.0) and np.any(want[:n] == 0.0)
    # an odd lattice puts a column exactly on the shared x edge: IoU 3 / 9
    assert oracles.raster_iou(shared[0:1], shared[1:2], 3)[0] == 1.0 / 3.0

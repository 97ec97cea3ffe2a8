import math
from dataclasses import replace

import numpy as np
import pytest

from mono3d.errors import UsageError
from mono3d.evaluation import (
    DIFFICULTIES,
    METRICS,
    EvalConfig,
    OFFICIAL_IOU,
    RELAXED_IOU,
    _match,
    _mean_envelope,
    _prepare,
    difficulty_levels,
    evaluate_split,
)
from mono3d.geometry import iou_3d, iou_bev
from mono3d.heads import CLASS_NAMES, wrap_angle
from mono3d.kitti import CameraCalib, LabelRecord, parse_label_file, write_calib, write_labels

import oracles
from test_geometry import iou_pairs

_BASE_DIMS = {
    "Car": (1.5, 1.6, 3.9),
    "Pedestrian": (1.8, 0.7, 0.9),
    "Cyclist": (1.7, 0.6, 1.8),
}


def _record(cls="Car", loc=(0.0, 1.5, 20.0), dims=(1.5, 1.6, 3.9), yaw=0.1,
            h2d=50.0, occ=0, trunc=0.0, score=None):
    left, top = 400.0, 150.0
    return LabelRecord(
        type=cls,
        truncated=trunc,
        occluded=occ,
        alpha=0.0,
        bbox=(left, top, left + h2d * 1.2, top + h2d),
        dimensions=dims,
        location=loc,
        rotation_y=yaw,
        score=score,
    )


def _corpus(rng, n_images=20):
    """Seeded label corpus: perturbed copies of GT plus stray false positives."""
    gt, preds = {}, {}
    for i in range(n_images):
        img = f"{i:06d}"
        gts, prs = [], []
        for _ in range(int(rng.integers(0, 6))):
            cls = CLASS_NAMES[int(rng.integers(0, len(CLASS_NAMES)))]
            dims = tuple(d * rng.uniform(0.9, 1.1) for d in _BASE_DIMS[cls])
            loc = (rng.uniform(-25, 25), rng.uniform(1.2, 1.9), rng.uniform(5, 60))
            yaw = float(rng.uniform(-math.pi, math.pi))
            h2d = rng.uniform(18, 90)
            occ = int(rng.integers(0, 4)) if rng.uniform() < 0.4 else 0
            trunc = float(rng.uniform(0, 0.6)) if rng.uniform() < 0.3 else 0.0
            rec = LabelRecord(
                type=cls,
                truncated=trunc,
                occluded=occ,
                alpha=0.0,
                bbox=(300.0, 120.0, 300.0 + 1.1 * h2d, 120.0 + h2d),
                dimensions=dims,
                location=loc,
                rotation_y=yaw,
            )
            gts.append(rec)
            if rng.uniform() < 0.8:
                # small jitter usually survives the IoU gate, large rarely
                scale = 0.08 if rng.uniform() < 0.65 else 1.2
                score = float(rng.uniform(0.05, 1.0))
                if rng.uniform() < 0.3:
                    score = round(score, 1)  # exercise score ties
                prs.append(
                    replace(
                        rec,
                        location=tuple(v + rng.normal() * scale for v in loc),
                        dimensions=tuple(
                            max(d + rng.normal() * scale * 0.3, 0.2) for d in dims
                        ),
                        rotation_y=wrap_angle(yaw + rng.normal() * scale * 0.5),
                        score=score,
                    )
                )
        for _ in range(int(rng.integers(0, 3))):
            cls = CLASS_NAMES[int(rng.integers(0, len(CLASS_NAMES)))]
            prs.append(
                _record(
                    cls=cls,
                    loc=(rng.uniform(-25, 25), 1.5, rng.uniform(5, 60)),
                    dims=_BASE_DIMS[cls],
                    yaw=float(rng.uniform(-math.pi, math.pi)),
                    score=float(rng.uniform(0.05, 1.0)),
                )
            )
        gt[img] = gts
        preds[img] = prs
    return gt, preds


def _row(rec):
    """A label record's box row (x, y, z, h, w, l, yaw)."""
    return (*rec.location, *rec.dimensions, rec.rotation_y)


def _pair_iou(metric):
    fn = iou_3d if metric == "3D" else iou_bev
    return lambda p, g: fn(_row(p), _row(g))


def _table(records):
    """LabelRecords -> a label table, as kitti.parse_label_table gives."""
    numbers = [
        (r.truncated, r.occluded, r.alpha, *r.bbox, *r.dimensions, *r.location, r.rotation_y,
         np.nan if r.score is None else r.score)
        for r in records
    ]
    return [r.type for r in records], np.array(numbers, dtype=np.float64).reshape(-1, 15)


def _ap(predictions, ground_truth, cls, difficulty, metric, iou_threshold):
    """AP of one report cell of the images of `predictions` and
    `ground_truth` (image id -> records), through evaluate_split's path;
    None when the cell has no counted ground truth."""
    images = sorted(set(predictions) | set(ground_truth))
    split = _prepare([_table(predictions.get(img, [])) for img in images],
                     [_table(ground_truth.get(img, [])) for img in images])
    recalls, precisions, npos, _, _ = _match(split, cls, metric, iou_threshold)[DIFFICULTIES.index(difficulty)]
    return _mean_envelope(recalls, precisions) if npos else None


# ---------------------------------------------------------------------------
# difficulty buckets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "h2d,occ,trunc,expected",
    [
        (50.0, 0, 0.0, "Easy"),
        (30.0, 1, 0.2, "Moderate"),
        (20.0, 0, 0.0, "Ignored"),
        (40.0, 0, 0.15, "Easy"),
        (39.0, 0, 0.0, "Moderate"),
        (25.0, 2, 0.50, "Hard"),
        (50.0, 3, 0.0, "Ignored"),
        (50.0, 0, 0.6, "Ignored"),
        (50.0, 1, 0.0, "Moderate"),
    ],
)
def test_assign_difficulty(h2d, occ, trunc, expected):
    level = difficulty_levels(np.array([h2d]), np.array([occ]), np.array([trunc]))[0]
    assert (*DIFFICULTIES, "Ignored")[level] == expected
    assert oracles.difficulty_reference(h2d, occ, trunc) == expected


def test_vectorised_difficulty_levels_at_the_boundaries():
    def below(v):
        return float(np.nextafter(v, -np.inf))

    def above(v):
        return float(np.nextafter(v, np.inf))

    heights = [25.0, below(25.0), 40.0, below(40.0), 60.0, 10.0, -1.0]
    occlusions = [-1, 0, 1, 2, 3]
    truncations = [-1.0, 0.0, 0.15, above(0.15), 0.30, above(0.30), 0.50, above(0.50)]
    grid = [(h, o, t) for h in heights for o in occlusions for t in truncations]
    h, o, t = (np.array(v, dtype=np.float64) for v in zip(*grid))
    levels = difficulty_levels(h, o, t).tolist()
    names = (*DIFFICULTIES, "Ignored")
    # DontCare-style boxes carry -1 for truncation and occlusion; a box
    # from the image's top row has its height as its bottom, exactly
    records = [replace(_record(occ=oo, trunc=tt), bbox=(0.0, 0.0, 10.0, hh)) for hh, oo, tt in grid]
    for (hh, oo, tt), level in zip(grid, levels):
        assert names[level] == oracles.difficulty_reference(hh, oo, tt)
    # the evaluator reads the height off the stacked table's bbox columns
    split = _prepare([_table([])], [_table(records)])
    assert split.gt_level.tolist() == levels
    assert sorted(set(levels)) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# single-cell AP pinned instances
# ---------------------------------------------------------------------------


def test_exact_match_plus_false_positive_is_50():
    a = _record(loc=(0.0, 1.5, 20.0))
    b = _record(loc=(10.0, 1.5, 40.0))
    fp = _record(loc=(-10.0, 1.5, 50.0), score=0.8)
    gt = {"000000": [a, b]}
    preds = {"000000": [replace(a, score=0.9), fp]}
    assert _ap(preds, gt, "Car", "Easy", "3D", 0.7) == 50.0


def test_no_predictions_zero_ap():
    gt = {"000000": [_record()]}
    assert _ap({}, gt, "Car", "Easy", "3D", 0.7) == 0.0


def test_no_gt_not_applicable():
    preds = {"000000": [_record(score=0.9)]}
    assert _ap(preds, {}, "Car", "Easy", "3D", 0.7) is None
    gt = {"000000": [_record(h2d=20.0)]}  # below every height threshold
    assert _ap({}, gt, "Car", "Easy", "3D", 0.7) is None


def test_ignored_gt_neither_fn_nor_fp():
    easy = _record(loc=(0.0, 1.5, 20.0))
    hidden = _record(loc=(10.0, 1.5, 40.0), occ=3)  # ignored at every difficulty
    gt = {"000000": [easy, hidden]}
    preds = {"000000": [replace(hidden, score=0.9), replace(easy, score=0.8)]}
    # the hit on the ignored box is dropped from the count entirely
    assert _ap(preds, gt, "Car", "Easy", "3D", 0.7) == 100.0
    assert _ap(preds, gt, "Car", "Hard", "3D", 0.7) == 100.0


def test_duplicate_prediction_counts_as_fp():
    a = _record(loc=(0.0, 1.5, 20.0))
    b = _record(loc=(10.0, 1.5, 40.0))
    gt = {"000000": [a, b]}
    preds = {
        "000000": [
            replace(a, score=0.9),
            replace(a, score=0.85),  # second hit on a taken box
            replace(b, score=0.8),
        ]
    }
    ap = _ap(preds, gt, "Car", "Easy", "3D", 0.7)
    # envelope: 1.0 up to recall 0.5, then 2/3
    assert ap == pytest.approx((20 * 1.0 + 20 * (2.0 / 3.0)) / 40.0 * 100.0, abs=1e-12)


def test_gt_as_predictions_is_100_everywhere():
    rng = np.random.default_rng(7)
    gt, _ = _corpus(rng, n_images=12)
    preds = {img: [replace(r, score=1.0) for r in recs] for img, recs in gt.items()}
    defined = 0
    for metric in ("3D", "BEV"):
        for cls, thr in OFFICIAL_IOU:
            for diff in DIFFICULTIES:
                ap = _ap(preds, gt, cls, diff, metric, thr)
                if ap is not None:
                    assert ap == 100.0
                    defined += 1
    assert defined > 0


# ---------------------------------------------------------------------------
# brute-force oracle equivalence and order properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("metric", ["3D", "BEV"])
def test_ap_bitwise_vs_bruteforce(metric):
    rng = np.random.default_rng(123)
    gt, preds = _corpus(rng, n_images=20)
    pair = _pair_iou(metric)
    checked = 0
    for cls, thr in tuple(OFFICIAL_IOU) + tuple(RELAXED_IOU):
        for diff in DIFFICULTIES:
            got = _ap(preds, gt, cls, diff, metric, thr)
            want = oracles.ap_r40_bruteforce(preds, gt, cls, diff, pair, thr)
            if want is None:
                assert got is None
            else:
                assert got == want
                checked += 1
    assert checked >= 12


def test_score_monotone_invariance():
    rng = np.random.default_rng(5)
    gt, preds = _corpus(rng, n_images=8)
    transformed = {
        img: [replace(r, score=math.exp(2.0 * r.score + 1.0)) for r in recs]
        for img, recs in preds.items()
    }
    for cls, thr in (("Car", 0.7), ("Pedestrian", 0.5)):
        for diff in DIFFICULTIES:
            a = _ap(preds, gt, cls, diff, "3D", thr)
            b = _ap(transformed, gt, cls, diff, "3D", thr)
            assert a == b or (a is None and b is None)


def test_adding_false_positive_never_increases_ap():
    rng = np.random.default_rng(6)
    gt, preds = _corpus(rng, n_images=10)
    far_fp = _record(loc=(500.0, 1.5, 900.0), score=0.55)
    with_fp = {img: list(recs) for img, recs in preds.items()}
    with_fp["000000"] = with_fp["000000"] + [far_fp]
    for diff in DIFFICULTIES:
        base = _ap(preds, gt, "Car", diff, "3D", 0.7)
        worse = _ap(with_fp, gt, "Car", diff, "3D", 0.7)
        if base is not None:
            assert worse <= base


# ---------------------------------------------------------------------------
# argument validation
# ---------------------------------------------------------------------------


def test_eval_config_threshold_validation():
    with pytest.raises(UsageError):
        EvalConfig(threshold_sets=(("bad", (("Car", 0.0), ("Pedestrian", 0.5), ("Cyclist", 0.5))),))
    with pytest.raises(UsageError):  # Pedestrian and Cyclist left out
        EvalConfig(threshold_sets=(("x", (("Car", 0.7),)),))
    with pytest.raises(UsageError):  # a class the evaluator does not know
        EvalConfig(threshold_sets=(("x", OFFICIAL_IOU + (("Truck", 0.7),)),))
    with pytest.raises(UsageError):  # Car given twice
        EvalConfig(threshold_sets=(("x", OFFICIAL_IOU + (("Car", 0.5),)),))


# ---------------------------------------------------------------------------
# evaluate_split on real files
# ---------------------------------------------------------------------------


def _write_split(tmp_path, gt, preds):
    gt_dir = tmp_path / "label_2"
    pred_dir = tmp_path / "preds"
    gt_dir.mkdir()
    pred_dir.mkdir()
    for img, recs in gt.items():
        (gt_dir / f"{img}.txt").write_text(write_labels(recs))
    for img, recs in (preds or {}).items():
        (pred_dir / f"{img}.txt").write_text(write_labels(recs))
    return str(pred_dir), str(gt_dir)


def test_split_gt_as_predictions_all_100(tmp_path):
    rng = np.random.default_rng(8)
    gt, _ = _corpus(rng, n_images=4)
    preds = {img: [replace(r, score=1.0) for r in recs] for img, recs in gt.items()}
    pred_dir, gt_dir = _write_split(tmp_path, gt, preds)
    report = evaluate_split(pred_dir, gt_dir)
    assert report.errors == []
    assert report.n_images == 4
    assert len(report.cells) == 2 * 2 * 3 * 3
    defined = [c for c in report.cells.values() if c.ap is not None]
    assert defined and all(c.ap == 100.0 for c in defined)
    assert all(c.missed == 0 for c in defined)


def test_split_cells_bitwise_vs_bruteforce(tmp_path):
    rng = np.random.default_rng(15)
    gt, preds = _corpus(rng, n_images=12)
    ped, cyc = _BASE_DIMS["Pedestrian"], _BASE_DIMS["Cyclist"]
    # predictions of a class (Cyclist) with no ground truth in the image;
    # the top Car prediction has the right footprint at the wrong height,
    # a hit in BEV but not in 3D
    gt["000100"] = [_record()]
    preds["000100"] = [
        _record(loc=(0.0, 0.7, 20.0), score=0.85),
        _record(loc=(0.1, 1.5, 20.1), score=0.8),
        _record(cls="Cyclist", dims=cyc, loc=(4.0, 1.5, 15.0), score=0.6),
    ]
    # ground truth with no prediction of its class (Pedestrian)
    gt["000101"] = [
        _record(cls="Pedestrian", dims=ped, loc=(2.0, 1.6, 12.0)),
        _record(loc=(5.0, 1.5, 30.0)),
    ]
    preds["000101"] = [_record(loc=(5.1, 1.5, 30.2), score=0.5)]
    # tied top scores, a false positive between two hits, and a zero-width
    # prediction (zero-area footprint) on a ground-truth box: its IoU row
    # is all 0.0
    gt["000102"] = [_record(), _record(loc=(3.0, 1.5, 20.0), h2d=30.0, occ=1)]
    preds["000102"] = [
        _record(loc=(0.2, 1.5, 20.0), score=1.0),
        _record(loc=(-9.0, 1.5, 40.0), score=1.0),
        _record(loc=(3.0, 1.5, 20.3), score=1.0),
        _record(dims=(1.5, 0.0, 3.9), score=0.9),
    ]
    # two predictions on one ignored box: only the first drops out
    gt["000103"] = [_record(loc=(9.0, 1.5, 25.0), h2d=20.0)]
    preds["000103"] = [
        _record(loc=(9.0, 1.5, 25.1), score=0.85),
        _record(loc=(9.1, 1.5, 25.0), score=0.8),
    ]
    # duplicate ground truth (a Moderate box and an Easy copy: equal IoUs,
    # so the first-index tie-break decides) next to an ignored box; the
    # top prediction overlaps all three equally, the last one mostly the
    # ignored box
    gt["000104"] = [
        _record(h2d=30.0, occ=1),
        _record(),
        _record(loc=(1.2, 1.5, 20.0), h2d=20.0),
    ]
    preds["000104"] = [
        _record(loc=(0.6, 1.5, 20.0), score=0.95),
        _record(loc=(0.05, 1.5, 20.0), score=0.9),
        _record(loc=(1.1, 1.5, 20.0), score=0.7),
    ]
    # what is on disk: labels are written to two decimals
    gt = {img: parse_label_file(write_labels(recs)) for img, recs in gt.items()}
    preds = {img: parse_label_file(write_labels(recs)) for img, recs in preds.items()}
    pred_dir, gt_dir = _write_split(tmp_path, gt, preds)
    report = evaluate_split(pred_dir, gt_dir)
    assert report.errors == [] and len(report.cells) == 36
    checked = 0
    for (set_name, metric, cls, diff), cell in report.cells.items():
        thr = dict(OFFICIAL_IOU if set_name == "official" else RELAXED_IOU)[cls]
        pair = _pair_iou(metric)
        want = oracles.ap_r40_bruteforce(preds, gt, cls, diff, pair, thr)
        n_gt, matched, n_pred = oracles.match_counts_bruteforce(preds, gt, cls, diff, pair, thr)
        assert (cell.n_gt, cell.matched, cell.n_pred) == (n_gt, matched, n_pred)
        if want is None:
            assert cell.ap is None and n_gt == 0
        else:
            assert cell.ap == want
            checked += 1
    assert checked >= 24


def _contested_split():
    """Car labels where the order of the greedy walk decides the outcome."""
    gt, preds = {}, {}
    # equal scores: ties keep input order, so the first of two tied
    # predictions on one box takes it and the second is a false positive
    gt["000000"] = [_record(), _record(loc=(8.0, 1.5, 30.0))]
    preds["000000"] = [
        _record(loc=(0.1, 1.5, 20.0), score=0.8),
        _record(loc=(-0.1, 1.5, 20.0), score=0.8),
        _record(loc=(8.0, 1.5, 30.1), score=0.8),
    ]
    # equal IoUs against two ground-truth boxes: duplicate boxes, the first
    # index wins, and the next prediction takes the copy; a Moderate box
    # before its Easy copy is ignored at Easy, where the copy is counted
    gt["000001"] = [_record(), _record(), _record(loc=(6.0, 1.5, 25.0), h2d=30.0, occ=1),
                    _record(loc=(6.0, 1.5, 25.0))]
    preds["000001"] = [
        _record(loc=(0.2, 1.5, 20.0), score=0.9),
        _record(loc=(0.0, 1.5, 20.2), score=0.7),
        _record(loc=(6.1, 1.5, 25.0), score=0.6),
        _record(loc=(6.0, 1.5, 25.1), score=0.5),
    ]
    # two predictions claiming one box: the higher score takes it even with
    # the lower IoU, and the other is false. At 0.5 the third one reaches
    # both boxes equally and takes the second, the first being taken, so
    # the last one, which reaches only the second, is false
    gt["000002"] = [_record(), _record(loc=(1.6, 1.5, 20.0))]
    preds["000002"] = [
        _record(loc=(0.3, 1.5, 20.0), score=0.95),
        _record(loc=(0.05, 1.5, 20.0), score=0.9),
        _record(loc=(0.8, 1.5, 20.0), score=0.85),
        _record(loc=(1.5, 1.5, 20.0), score=0.4),
    ]
    # an ignored box overlapping a counted one: the counted box is taken
    # first even at a lower IoU, a match to the ignored box consumes it and
    # drops the prediction, and a third prediction finds both taken
    gt["000003"] = [_record(), _record(loc=(0.5, 1.5, 20.0), h2d=20.0)]
    preds["000003"] = [
        _record(loc=(0.45, 1.5, 20.0), score=0.75),
        _record(loc=(0.5, 1.5, 20.05), score=0.65),
        _record(loc=(0.25, 1.5, 20.0), score=0.55),
    ]
    # equal IoUs that decide a later match: the top prediction lies inside
    # two boxes of one size, so both IoUs are its volume over theirs; with
    # axis-aligned boxes and binary fractions that is bit for bit. It takes
    # the first box, the only one the second prediction reaches at 0.7.
    # Counted boxes, then the same with ignored boxes, where the second
    # prediction is left false, not dropped, ahead of every hit
    big = (1.5, 4.0, 8.0)
    for img, h2d, scores in (("000004", 50.0, (0.45, 0.35)), ("000005", 20.0, (0.99, 0.98))):
        gt[img] = [_record(loc=(-0.25, 1.5, 20.0), dims=big, yaw=0.0, h2d=h2d),
                   _record(loc=(0.25, 1.5, 20.0), dims=big, yaw=0.0, h2d=h2d)]
        preds[img] = [_record(dims=(1.5, 3.5, 7.0), yaw=0.0, score=scores[0]),
                      _record(loc=(-1.5, 1.5, 20.0), dims=big, yaw=0.0, score=scores[1])]
    # and a match no other prediction contests, to an ignored box: it
    # drops out ahead of every hit
    gt["000006"] = [_record(h2d=20.0)]
    preds["000006"] = [_record(loc=(0.1, 1.5, 20.0), score=0.97)]
    return gt, preds


def test_contested_split_cells_bitwise_vs_bruteforce(tmp_path):
    gt, preds = _contested_split()
    # what is on disk: labels are written to two decimals
    gt = {img: parse_label_file(write_labels(recs)) for img, recs in gt.items()}
    preds = {img: parse_label_file(write_labels(recs)) for img, recs in preds.items()}
    # the walk has work: boxes that two predictions reach at the threshold
    for metric, thr in (("3D", 0.7), ("BEV", 0.7), ("3D", 0.5)):
        pair = _pair_iou(metric)
        reached = [
            sum(pair(p, g) >= thr for p in preds[img])
            for img in gt for g in gt[img]
        ]
        assert sum(n > 1 for n in reached) >= 4
        for img in ("000004", "000005"):
            (top, second), (first, other) = preds[img], gt[img]
            assert pair(top, first) == pair(top, other) >= 0.7
            assert pair(second, first) >= 0.7 > pair(second, other) > 0.5
    pred_dir, gt_dir = _write_split(tmp_path, gt, preds)
    report = evaluate_split(pred_dir, gt_dir)
    assert report.errors == [] and len(report.cells) == 36
    checked = 0
    for (set_name, metric, cls, diff), cell in report.cells.items():
        thr = dict(OFFICIAL_IOU if set_name == "official" else RELAXED_IOU)[cls]
        pair = _pair_iou(metric)
        want = oracles.ap_r40_bruteforce(preds, gt, cls, diff, pair, thr)
        counts = oracles.match_counts_bruteforce(preds, gt, cls, diff, pair, thr)
        assert (cell.n_gt, cell.matched, cell.n_pred) == counts
        assert cell.ap == want
        if cls == "Car":
            assert cell.ap == _ap(preds, gt, cls, diff, metric, thr)
            assert 0.0 < want < 100.0
            checked += 1
    assert checked == 12


@pytest.mark.parametrize("metric", METRICS)
def test_contested_split_pinned_counts(metric):
    gt, preds = _contested_split()
    # at 0.7 every counted box but 000004's second is matched. Of the 19
    # predictions, six are false: 000000's second (tied) one, 000002's
    # second and third, 000003's last, and the second of 000004 and of
    # 000005. 000003's second and the top ones of 000005 and 000006 drop
    # out on ignored boxes, and at Easy so does 000001's last, on the
    # Moderate duplicate that Moderate counts
    for diff, want in (("Easy", (10, 9, 19)), ("Moderate", (11, 10, 19)), ("Hard", (11, 10, 19))):
        pair = _pair_iou(metric)
        assert oracles.match_counts_bruteforce(preds, gt, "Car", diff, pair, 0.7) == want
        got = _ap(preds, gt, "Car", diff, metric, 0.7)
        assert got == oracles.ap_r40_bruteforce(preds, gt, "Car", diff, pair, 0.7)


def test_prepare_split_tables_equal_per_image_iou_pairs():
    rng = np.random.default_rng(16)
    gt, preds = _corpus(rng, n_images=60)
    ped = _BASE_DIMS["Pedestrian"]
    # predictions only, ground truth only, and a zero-area (zero-length)
    # prediction on a ground-truth box
    gt["000900"], preds["000900"] = [], [_record(score=0.7), _record(cls="Cyclist", score=0.2)]
    gt["000901"] = [_record(), _record(cls="Pedestrian", dims=ped, loc=(2.0, 1.6, 12.0))]
    gt["000902"] = [_record(), _record(loc=(3.0, 1.5, 20.0))]
    preds["000902"] = [_record(dims=(1.5, 1.6, 0.0), score=0.9), _record(loc=(0.1, 1.5, 20.0), score=0.5)]
    images = sorted(set(gt) | set(preds))
    split = _prepare([_table(preds.get(img, [])) for img in images], [_table(gt.get(img, [])) for img in images])
    # the oracle: per image and class, the iou_pairs table; a prediction's
    # rank is its place in the class's score order (ties in input order),
    # a ground-truth box's index its place in the stacked split
    gt_index, start = {}, 0
    for img in images:
        gt_index[img] = start
        start += len(gt.get(img, []))
    n_pairs = n_kept = 0
    rank_of = {}
    for cls in CLASS_NAMES:
        want = {"3D": [], "BEV": []}
        flat = [(img, k, r) for img in images for k, r in enumerate(preds.get(img, [])) if r.type == cls]
        rank = {(img, k): n for n, (img, k, _) in enumerate(sorted(flat, key=lambda e: -e[2].score))}
        for img in images:
            p = [(k, r) for k, r in enumerate(preds.get(img, [])) if r.type == cls]
            g = [(j, r) for j, r in enumerate(gt.get(img, [])) if r.type == cls]
            if p and g:
                t3d, tbev = iou_pairs([_row(r) for _, r in p], [_row(r) for _, r in g])
                for metric, table in (("3D", t3d), ("BEV", tbev)):
                    for (k, _), row in zip(p, table.tolist()):
                        want[metric] += [
                            (rank[img, k], gt_index[img] + j, v) for (j, _), v in zip(g, row) if v > 0.0
                        ]
                n_pairs += len(p) * len(g)
                n_kept += np.count_nonzero(tbev)
            rank_of.update({(cls, img, k): rank[img, k] for k, _ in p})
        for metric in METRICS:
            got = list(zip(*(a.tolist() for a in split.pairs[cls, metric])))
            # == on floats > 0 is bit equality; ranks and indices are ints
            assert got == sorted(want[metric])
            assert all(type(r) is int and type(j) is int and type(v) is float for r, j, v in got)
    # the split's pairs cross a clip-block boundary (256 pairs), and most
    # of them do not overlap
    assert n_pairs > 256 and 0 < n_kept < n_pairs // 2
    # no pair touches an image with predictions only or ground truth only
    gt_only = {gt_index["000901"], gt_index["000901"] + 1}
    pred_only = {("Car", rank_of["Car", "000900", 0]), ("Cyclist", rank_of["Cyclist", "000900", 1])}
    for (cls, _), (ranks, gts, _) in split.pairs.items():
        assert not gt_only & set(gts.tolist())
        assert not pred_only & {(cls, r) for r in ranks.tolist()}
    # the zero-area prediction has no pair; the one beside it overlaps
    # the image's first box
    zero_area, beside = rank_of["Car", "000902", 0], rank_of["Car", "000902", 1]
    for metric in METRICS:
        assert zero_area not in split.pairs["Car", metric][0].tolist()
    ranks, gts, ious = split.pairs["Car", "BEV"]
    at = np.flatnonzero(ranks == beside)[0]
    assert gts[at] == gt_index["000902"] and ious[at] > 0.5


def test_split_empty_prediction_dir(tmp_path):
    rng = np.random.default_rng(9)
    gt, _ = _corpus(rng, n_images=3)
    pred_dir, gt_dir = _write_split(tmp_path, gt, None)
    report = evaluate_split(pred_dir, gt_dir)
    assert len(report.errors) == 3
    assert all("missing prediction file" in e for e in report.errors)
    defined = [c for c in report.cells.values() if c.ap is not None]
    assert defined and all(c.ap == 0.0 for c in defined)
    assert all(c.matched == 0 and c.missed == c.n_gt for c in defined)


def test_split_malformed_pred_itemized(tmp_path):
    rng = np.random.default_rng(10)
    gt, _ = _corpus(rng, n_images=3)
    preds = {img: [replace(r, score=1.0) for r in recs] for img, recs in gt.items()}
    pred_dir, gt_dir = _write_split(tmp_path, gt, preds)
    bad = f"{sorted(gt)[0]}.txt"
    with open(f"{pred_dir}/{bad}", "w") as fh:
        fh.write("Car not a number\n")
    report = evaluate_split(pred_dir, gt_dir)
    assert len(report.errors) == 1
    assert bad in report.errors[0]
    assert report.n_images == 3  # evaluation continued


@pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
def test_split_non_finite_occlusion_itemized(tmp_path, token):
    rng = np.random.default_rng(10)
    gt, _ = _corpus(rng, n_images=3)
    preds = {img: [replace(r, score=1.0) for r in recs] for img, recs in gt.items()}
    pred_dir, gt_dir = _write_split(tmp_path, gt, preds)
    bad = f"{sorted(gt)[0]}.txt"
    with open(f"{pred_dir}/{bad}", "w") as fh:
        fh.write(f"Car 0.00 {token} -1.58 587.01 173.33 614.12 200.12 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59 0.9\n")
    report = evaluate_split(pred_dir, gt_dir)
    assert len(report.errors) == 1
    assert bad in report.errors[0] and "line 1, column" in report.errors[0]
    assert report.n_images == 3


@pytest.mark.parametrize("score", ["nan", "inf", "1e400"])
def test_split_non_finite_score_itemized(tmp_path, score):
    rng = np.random.default_rng(10)
    gt, _ = _corpus(rng, n_images=3)
    preds = {img: [replace(r, score=1.0) for r in recs] for img, recs in gt.items()}
    pred_dir, gt_dir = _write_split(tmp_path, gt, preds)
    bad = f"{sorted(gt)[0]}.txt"
    line = f"Car 0.00 0 -1.58 587.01 173.33 614.12 200.12 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59 {score}"
    with open(f"{pred_dir}/{bad}", "w") as fh:
        fh.write(line + "\n")
    report = evaluate_split(pred_dir, gt_dir)
    assert len(report.errors) == 1
    assert bad in report.errors[0] and f"line 1, column {line.index(score) + 1}" in report.errors[0]
    assert report.n_images == 3


def test_split_malformed_gt_drops_image(tmp_path):
    rng = np.random.default_rng(11)
    gt, _ = _corpus(rng, n_images=3)
    preds = {img: [replace(r, score=1.0) for r in recs] for img, recs in gt.items()}
    pred_dir, gt_dir = _write_split(tmp_path, gt, preds)
    bad = f"{sorted(gt)[0]}.txt"
    with open(f"{gt_dir}/{bad}", "w") as fh:
        fh.write("garbage\n")
    report = evaluate_split(pred_dir, gt_dir)
    assert report.n_images == 2
    assert any(bad in e for e in report.errors)


def test_split_calib_validation(tmp_path):
    rng = np.random.default_rng(12)
    gt, _ = _corpus(rng, n_images=2)
    preds = {img: [replace(r, score=1.0) for r in recs] for img, recs in gt.items()}
    pred_dir, gt_dir = _write_split(tmp_path, gt, preds)
    calib_dir = tmp_path / "calib"
    calib_dir.mkdir()
    ids = sorted(gt)
    calib = CameraCalib(np.array([[700.0, 0, 620, 0], [0, 700.0, 190, 0], [0, 0, 1, 0]]))
    (calib_dir / f"{ids[0]}.txt").write_text(write_calib(calib))
    (calib_dir / f"{ids[1]}.txt").write_text("P2: nope\n")
    report = evaluate_split(pred_dir, gt_dir, str(calib_dir))
    assert len(report.errors) == 1
    assert ids[1] in report.errors[0]


@pytest.mark.parametrize(
    "p2, message",
    [
        ("0 0 48 0 0 700 190 0 0 0 1 0", "focal lengths must be positive"),
        ("700 0 620 0 0 700 nan 0 0 0 1 0", "finite"),
    ],
)
def test_split_bad_calib_values_itemized(tmp_path, p2, message):
    rng = np.random.default_rng(12)
    gt, _ = _corpus(rng, n_images=2)
    preds = {img: [replace(r, score=1.0) for r in recs] for img, recs in gt.items()}
    pred_dir, gt_dir = _write_split(tmp_path, gt, preds)
    calib_dir = tmp_path / "calib"
    calib_dir.mkdir()
    ids = sorted(gt)
    calib = CameraCalib(np.array([[700.0, 0, 620, 0], [0, 700.0, 190, 0], [0, 0, 1, 0]]))
    (calib_dir / f"{ids[0]}.txt").write_text(write_calib(calib))
    (calib_dir / f"{ids[1]}.txt").write_text("P2: " + p2 + "\n")
    report = evaluate_split(pred_dir, gt_dir, str(calib_dir))
    assert len(report.errors) == 1
    assert ids[1] in report.errors[0] and message in report.errors[0]
    assert "(line 1" in report.errors[0]


def test_split_missing_gt_dir_raises(tmp_path):
    with pytest.raises(UsageError):
        evaluate_split(str(tmp_path), str(tmp_path / "nope"))
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(UsageError):
        evaluate_split(str(tmp_path), str(empty))


def test_split_report_outputs(tmp_path):
    rng = np.random.default_rng(13)
    gt, preds_raw = _corpus(rng, n_images=4)
    pred_dir, gt_dir = _write_split(tmp_path, gt, preds_raw)
    report = evaluate_split(pred_dir, gt_dir)
    text = report.to_text()
    assert "thresholds" in text and "official" in text and "relaxed" in text
    records = report.to_records()
    assert len(records) == 36
    assert {r["metric"] for r in records} == {"3D", "BEV"}


def test_split_deterministic(tmp_path):
    rng = np.random.default_rng(14)
    gt, preds_raw = _corpus(rng, n_images=4)
    pred_dir, gt_dir = _write_split(tmp_path, gt, preds_raw)
    assert evaluate_split(pred_dir, gt_dir) == evaluate_split(pred_dir, gt_dir)

import math

import numpy as np
import pytest

from mono3d.errors import ParseError, UsageError
from mono3d.geometry import box3d_corners, Box3D
from mono3d.heads import CLASS_NAMES, Detection3D, wrap_angle
from mono3d.kitti import (
    CameraCalib,
    LabelRecord,
    compute_alpha,
    format_label_line,
    parse_calib_file,
    parse_label_file,
    read_ppm,
    write_calib,
    write_labels,
    write_ppm,
    write_predictions,
)

REFERENCE_LINE = (
    "Car 0.00 0 -1.58 587.01 173.33 614.12 200.12 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59"
)


def _calib():
    return CameraCalib(np.array([[700.0, 0, 620, 0], [0, 700.0, 190, 0], [0, 0, 1, 0]]))


# ---------------------------------------------------------------------------
# label parsing
# ---------------------------------------------------------------------------


def test_reference_line_field_mapping():
    (rec,) = parse_label_file(REFERENCE_LINE + "\n")
    assert rec.type == "Car"
    assert rec.truncated == 0.0
    assert rec.occluded == 0
    assert rec.alpha == -1.58
    assert rec.bbox == (587.01, 173.33, 614.12, 200.12)
    assert rec.dimensions == (1.65, 1.67, 3.64)
    assert rec.location == (-0.65, 1.71, 46.70)
    assert rec.location[2] == 46.70
    assert rec.rotation_y == -1.59
    assert rec.score is None


def test_empty_text_and_blank_lines():
    assert parse_label_file("") == []
    assert parse_label_file("\n\n  \n") == []
    recs = parse_label_file("\n" + REFERENCE_LINE + "\n\n")
    assert len(recs) == 1


def test_sixteen_field_prediction_line():
    (rec,) = parse_label_file(REFERENCE_LINE + " 0.912345\n")
    assert rec.score == 0.912345


def test_unknown_class_preserved():
    line = REFERENCE_LINE.replace("Car", "DontCare", 1)
    (rec,) = parse_label_file(line)
    assert rec.type == "DontCare"


def test_fourteen_field_line_rejected():
    line = REFERENCE_LINE.rsplit(" ", 1)[0]
    with pytest.raises(ParseError) as exc_info:
        parse_label_file("\n" + line + "\n")
    assert exc_info.value.line == 2
    assert "14" in str(exc_info.value)


def test_bad_number_locates_line_and_column():
    line = REFERENCE_LINE.replace("46.70", "fortysix")
    with pytest.raises(ParseError) as exc_info:
        parse_label_file(REFERENCE_LINE + "\n" + line + "\n")
    assert exc_info.value.line == 2
    assert exc_info.value.column == line.index("fortysix") + 1


def test_non_integer_occlusion_rejected():
    line = "Car 0.00 0.5 " + REFERENCE_LINE.split(" ", 3)[3]
    with pytest.raises(ParseError) as exc_info:
        parse_label_file(line)
    assert exc_info.value.column == line.index("0.5") + 1


def test_parse_never_crashes_on_noise():
    for text in ("Car", "1 2 3", "\x00\x01", "Car " + "x " * 14):
        with pytest.raises(ParseError) as exc_info:
            parse_label_file(text)
        assert exc_info.value.line is not None


# ---------------------------------------------------------------------------
# label writing round trips
# ---------------------------------------------------------------------------


def test_write_parse_round_trip_is_fixed_point():
    rng = np.random.default_rng(0)
    records = []
    for _ in range(25):
        left, top = rng.uniform(0, 1000), rng.uniform(0, 300)
        records.append(
            LabelRecord(
                type=CLASS_NAMES[int(rng.integers(0, 3))],
                truncated=float(rng.uniform(0, 1)),
                occluded=int(rng.integers(0, 4)),
                alpha=float(rng.uniform(-math.pi, math.pi)),
                bbox=(left, top, left + rng.uniform(5, 200), top + rng.uniform(5, 100)),
                dimensions=tuple(rng.uniform(0.5, 4, size=3)),
                location=tuple(rng.uniform(-20, 60, size=3)),
                rotation_y=float(rng.uniform(-math.pi, math.pi)),
                score=float(rng.uniform(0, 1)),
            )
        )
    text = write_labels(records)
    parsed = parse_label_file(text)
    assert len(parsed) == len(records)
    for orig, rec in zip(records, parsed):
        assert rec.type == orig.type
        assert rec.truncated == pytest.approx(orig.truncated, abs=0.005)
        assert rec.occluded == orig.occluded
        assert rec.bbox == pytest.approx(orig.bbox, abs=0.005)
        assert rec.dimensions == pytest.approx(orig.dimensions, abs=0.005)
        assert rec.location == pytest.approx(orig.location, abs=0.005)
        assert rec.rotation_y == pytest.approx(orig.rotation_y, abs=0.005)
        assert rec.score == pytest.approx(orig.score, abs=5e-7)
    # formatted text is a fixed point of write(parse(.))
    assert write_labels(parsed) == text


def test_score_written_with_six_decimals():
    (rec,) = parse_label_file(REFERENCE_LINE + " 0.5\n")
    assert format_label_line(rec).endswith(" 0.500000")


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def test_calib_parse_example():
    calib = parse_calib_file("P2: 700 0 620 0 0 700 190 0 0 0 1 0\n")
    assert calib.f_u == 700.0 and calib.c_u == 620.0
    assert calib.f_v == 700.0 and calib.c_v == 190.0
    pix, depth = calib.project(np.array([[0.0, 0.0, 10.0]]))
    assert np.allclose(pix[0], [620.0, 190.0])
    assert depth[0] == 10.0


def test_calib_found_among_other_lines():
    text = (
        "P0: " + " ".join(["1"] * 12) + "\n"
        "R0_rect: 1 0 0 0 1 0 0 0 1\n"
        "P2: 700 0 620 0 0 700 190 0 0 0 1 0\n"
    )
    assert parse_calib_file(text).f_u == 700.0


def test_calib_round_trip_bit_exact():
    rng = np.random.default_rng(1)
    p2 = rng.normal(size=(3, 4)) * 100.0
    p2[0, 0] = abs(p2[0, 0]) + 1.0
    p2[1, 1] = abs(p2[1, 1]) + 1.0
    calib = CameraCalib(p2)
    text = write_calib(calib)
    parsed = parse_calib_file(text)
    assert np.array_equal(parsed.P2, calib.P2)
    assert write_calib(parsed) == text


def test_calib_errors():
    with pytest.raises(ParseError):
        parse_calib_file("P0: 1 2 3\n")  # no P2 at all
    with pytest.raises(ParseError) as exc_info:
        parse_calib_file("P2: 1 2 3\n")
    assert "12" in str(exc_info.value)
    with pytest.raises(ParseError):
        parse_calib_file("P2: " + " ".join(["x"] * 12))
    with pytest.raises(UsageError):
        CameraCalib(np.zeros((3, 4)))  # non-positive focal
    with pytest.raises(UsageError):
        CameraCalib(np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# predictions
# ---------------------------------------------------------------------------


def _detection(loc=(2.0, 1.5, 20.0), yaw=0.4, score=0.9):
    return Detection3D(
        class_id=0,
        score=score,
        location=loc,
        dimensions=(1.5, 1.7, 4.0),
        yaw=yaw,
        depth_sigma=0.1,
    )


def test_write_predictions_round_trip():
    calib = _calib()
    det = _detection()
    text = write_predictions([det], calib, (1242, 375), CLASS_NAMES)
    (rec,) = parse_label_file(text)
    assert rec.type == "Car"
    assert rec.location == pytest.approx(det.location, abs=0.005)
    assert rec.dimensions == pytest.approx(det.dimensions, abs=0.005)
    assert rec.rotation_y == pytest.approx(det.yaw, abs=0.005)
    assert rec.score == pytest.approx(det.score, abs=5e-7)
    # bbox is the clamped envelope of the projected corners
    box = Box3D(location=det.location, dimensions=det.dimensions, yaw=det.yaw)
    pix, _ = calib.project(box3d_corners(box))
    expected = (
        min(max(pix[:, 0].min(), 0.0), 1242.0),
        min(max(pix[:, 1].min(), 0.0), 375.0),
        min(max(pix[:, 0].max(), 0.0), 1242.0),
        min(max(pix[:, 1].max(), 0.0), 375.0),
    )
    assert rec.bbox == pytest.approx(expected, abs=0.005)


def test_written_alpha_consistent_with_yaw():
    calib = _calib()
    rng = np.random.default_rng(2)
    for _ in range(20):
        det = _detection(
            loc=(float(rng.uniform(-15, 15)), 1.5, float(rng.uniform(8, 50))),
            yaw=float(rng.uniform(-math.pi, math.pi)),
        )
        text = write_predictions([det], calib, (1242, 375), CLASS_NAMES)
        (rec,) = parse_label_file(text)
        x, _, z = det.location
        expected = wrap_angle(det.yaw - math.atan2(x, z))
        assert rec.alpha == pytest.approx(expected, abs=0.005)
        assert compute_alpha(det.yaw, x, z) == pytest.approx(expected, abs=1e-12)


def test_behind_camera_excluded_with_diagnostic():
    calib = _calib()
    drops = {}
    text = write_predictions(
        [_detection(loc=(0.0, 1.5, -5.0)), _detection(loc=(0.0, 1.5, 1.0))],
        calib,
        (1242, 375),
        CLASS_NAMES,
        drop_count=drops,
    )
    # second box is close enough that a corner crosses z=0 (l=4.0)
    assert text == ""
    assert drops == {"behind_camera": 2}


def test_write_predictions_empty():
    assert write_predictions([], _calib(), (1242, 375), CLASS_NAMES) == ""


# ---------------------------------------------------------------------------
# PPM images
# ---------------------------------------------------------------------------


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(24, 32, 3), dtype=np.uint8)
    path = str(tmp_path / "scene.ppm")
    write_ppm(path, img)
    assert np.array_equal(read_ppm(path), img)


def test_ppm_header_comment_tolerated(tmp_path):
    img = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n# a comment\n3 2\n255\n" + img.tobytes())
    assert np.array_equal(read_ppm(str(path)), img)


def test_ppm_rejects_other_formats(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n3 2\n255\n" + bytes(6))
    with pytest.raises(ParseError):
        read_ppm(str(path))
    path.write_bytes(b"P6\n3 2\n511\n" + bytes(18))
    with pytest.raises(ParseError):
        read_ppm(str(path))
    path.write_bytes(b"P6\n3 2\n255\n" + bytes(5))  # truncated pixels
    with pytest.raises(ParseError):
        read_ppm(str(path))


def test_ppm_writer_validates_input(tmp_path):
    with pytest.raises(UsageError):
        write_ppm(str(tmp_path / "x.ppm"), np.zeros((4, 4, 3), dtype=np.float64))
    with pytest.raises(UsageError):
        write_ppm(str(tmp_path / "y.ppm"), np.zeros((4, 4), dtype=np.uint8))

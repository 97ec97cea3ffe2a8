import math

import numpy as np
import pytest

from mono3d.errors import ParseError, UsageError
from mono3d.geometry import box3d_corners
from mono3d.heads import CLASS_NAMES, Detections3D, wrap_angle
from mono3d.kitti import (
    CameraCalib,
    LabelRecord,
    compute_alpha,
    format_label_line,
    parse_calib_file,
    parse_label_file,
    parse_label_table,
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


@pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
def test_non_finite_occlusion_rejected_with_column(token):
    line = f"Car 0.00 {token} " + REFERENCE_LINE.split(" ", 3)[3]
    with pytest.raises(ParseError) as exc_info:
        parse_label_file(REFERENCE_LINE + "\n" + line + "\n")
    assert exc_info.value.line == 2
    assert exc_info.value.column == line.index(token) + 1


# field index (0 is the type) of a dimension (w), a location (z) and the score
@pytest.mark.parametrize("field", [9, 13, 15])
@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_field_rejected_with_column(field, token):
    tokens = (REFERENCE_LINE + " 0.9").split(" ")
    tokens[field] = token
    line = " ".join(tokens)
    with pytest.raises(ParseError) as exc_info:
        parse_label_file(REFERENCE_LINE + "\n" + line + "\n")
    assert exc_info.value.line == 2
    assert exc_info.value.column == len(" ".join(tokens[:field])) + 2
    assert "finite" in str(exc_info.value)


def test_finite_fields_whose_sum_overflows_accepted():
    tokens = REFERENCE_LINE.split(" ")
    tokens[4] = tokens[5] = "1e308"
    (rec,) = parse_label_file(" ".join(tokens))
    assert rec.bbox[:2] == (1e308, 1e308)


def test_parse_never_crashes_on_noise():
    for text in ("Car", "1 2 3", "\x00\x01", "Car " + "x " * 14):
        with pytest.raises(ParseError) as exc_info:
            parse_label_file(text)
        assert exc_info.value.line is not None


def _bits(v):
    """A float's bit pattern; equal patterns are bit-identical values."""
    return np.float64(v).view(np.uint64).item()


def _reference_record(score=None):
    return LabelRecord(
        type="Car",
        truncated=0.0,
        occluded=0,
        alpha=-1.58,
        bbox=(587.01, 173.33, 614.12, 200.12),
        dimensions=(1.65, 1.67, 3.64),
        location=(-0.65, 1.71, 46.70),
        rotation_y=-1.59,
        score=score,
    )


def test_mixed_fifteen_and_sixteen_field_lines():
    text = "\n".join([REFERENCE_LINE + " 0.25", REFERENCE_LINE, REFERENCE_LINE + " -0.0"]) + "\n"
    records = parse_label_file(text)
    assert records == [_reference_record(0.25), _reference_record(), _reference_record(-0.0)]
    assert math.copysign(1.0, records[2].score) == -1.0
    types, numbers = parse_label_table(text)
    assert types == ["Car"] * 3 and numbers.shape == (3, 15) and numbers.dtype == np.float64
    assert numbers[0, 14] == 0.25 and math.isnan(numbers[1, 14]) and numbers[2, 14] == 0.0
    assert np.array_equal(numbers[:, :14], np.repeat(numbers[:1, :14], 3, axis=0))


def test_blank_whitespace_and_crlf_lines():
    text = "\r\n" + REFERENCE_LINE + "\r\n \t \r\n\n" + REFERENCE_LINE + " 0.5\r\n   \r\n"
    assert parse_label_file(text) == [_reference_record(), _reference_record(0.5)]
    assert parse_label_file("\r\n  \t\r\n") == []
    types, numbers = parse_label_table(" \n\r\n")
    assert types == [] and numbers.shape == (0, 15)
    # blank lines still count: a bad field is placed on its own line
    with pytest.raises(ParseError) as exc_info:
        parse_label_file(text + "Car 0.00 0 x\r\n")
    assert exc_info.value.line == 7 and exc_info.value.column == 1


_OCCLUDED_LINE = "Car 0.00 2.5 " + REFERENCE_LINE.split(" ", 3)[3]


@pytest.mark.parametrize(
    "line, token, message",
    [
        (REFERENCE_LINE.replace("587.01", "57x.01"), "57x.01", "expected a number"),
        (REFERENCE_LINE.replace("46.70", "inf"), "inf", "finite"),
        (_OCCLUDED_LINE, "2.5", "integer"),
        (REFERENCE_LINE + " 0.5 0.9", "Car", "expected 15 or 16 fields, got 17"),
    ],
)
def test_bad_field_on_line_three_of_a_regular_file(line, token, message):
    for regular in (REFERENCE_LINE, REFERENCE_LINE + " 0.5"):
        text = "\n".join([regular] * 2 + [line] + [regular] * 3) + "\n"
        with pytest.raises(ParseError) as exc_info:
            parse_label_table(text)
        assert exc_info.value.line == 3 and message in str(exc_info.value)
        assert exc_info.value.column == line.index(token) + 1
        with pytest.raises(ParseError) as again:
            parse_label_file(text)
        assert str(again.value) == str(exc_info.value)


def test_label_table_agrees_with_records_bit_for_bit():
    rng = np.random.default_rng(3)
    lines = []
    for k in range(40):
        values = rng.normal(scale=50.0, size=14)
        values[1] = int(rng.integers(-1, 4))
        cls = CLASS_NAMES[k % 3] if k % 7 else "DontCare"
        line = " ".join([cls] + [repr(float(v)) for v in values])
        if k % 3:
            line += f" {rng.uniform():.17g}"
        lines.append(line)
    types, numbers = parse_label_table("\n".join(lines))
    records = parse_label_file("\n".join(lines))
    assert types == [r.type for r in records]
    for rec, row in zip(records, numbers.tolist()):
        fields = (rec.truncated, rec.occluded, rec.alpha, *rec.bbox, *rec.dimensions,
                  *rec.location, rec.rotation_y)
        assert [_bits(v) for v in fields] == [_bits(v) for v in row[:14]]
        assert (rec.score is None) == math.isnan(row[14])
        assert rec.score is None or _bits(rec.score) == _bits(row[14])
    # and every field is the text's float, bit for bit
    flat = [float(tok) for line in lines for tok in line.split()[1:]]
    assert [_bits(v) for v in flat] == [_bits(v) for v in numbers[~np.isnan(numbers)]]


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


@pytest.mark.parametrize(
    "p2, message",
    [
        ("0 0 48 0 0 700 190 0 0 0 1 0", "focal lengths must be positive"),
        ("nan 0 620 0 0 700 190 0 0 0 1 0", "finite"),
        ("700 0 620 0 0 700 inf 0 0 0 1 0", "finite"),
    ],
)
def test_calib_bad_p2_is_parse_error_at_its_line(p2, message):
    with pytest.raises(ParseError, match=message) as exc_info:
        parse_calib_file("P0: 1 0 0 0 0 1 0 0 0 0 1 0\nP2: " + p2 + "\n")
    assert exc_info.value.line == 2


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
        CameraCalib(np.array([[700.0, 0, 620, 0], [0, 700.0, np.nan, 0], [0, 0, 1, 0]]))
    with pytest.raises(UsageError):
        CameraCalib(np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# predictions
# ---------------------------------------------------------------------------


def _detections(*boxes):
    """Class-0 Detections3D of (location, yaw, score) triples, dimensions (1.5, 1.7, 4.0)."""
    rows = np.array([(*loc, 1.5, 1.7, 4.0, yaw) for loc, yaw, _ in boxes])
    scores = np.array([score for _, _, score in boxes])
    return Detections3D(np.zeros(len(boxes), dtype=np.intp), scores, rows, np.full(len(boxes), 0.1))


def _detection(loc=(2.0, 1.5, 20.0), yaw=0.4, score=0.9):
    return _detections((loc, yaw, score))


def _box(rec):
    return (*rec.location, *rec.dimensions, rec.rotation_y)


def _envelope(det, calib, width=1242.0, height=375.0):
    """Image-clamped envelope of one detection's projected corners."""
    pix, _ = calib.project(box3d_corners(det.rows))
    return (
        min(max(pix[:, 0].min(), 0.0), width),
        min(max(pix[:, 1].min(), 0.0), height),
        min(max(pix[:, 0].max(), 0.0), width),
        min(max(pix[:, 1].max(), 0.0), height),
    )


def test_write_predictions_round_trip():
    calib = _calib()
    det = _detection()
    text = write_predictions(det, calib, (1242, 375), CLASS_NAMES)
    (rec,) = parse_label_file(text)
    assert rec.type == "Car"
    assert _box(rec) == pytest.approx(det.rows[0], abs=0.005)
    assert rec.score == pytest.approx(det.score[0], abs=5e-7)
    # bbox is the clamped envelope of the projected corners
    assert rec.bbox == pytest.approx(_envelope(det, calib), abs=0.005)


def test_written_alpha_consistent_with_yaw():
    calib = _calib()
    rng = np.random.default_rng(2)
    for _ in range(20):
        det = _detection(
            loc=(float(rng.uniform(-15, 15)), 1.5, float(rng.uniform(8, 50))),
            yaw=float(rng.uniform(-math.pi, math.pi)),
        )
        text = write_predictions(det, calib, (1242, 375), CLASS_NAMES)
        (rec,) = parse_label_file(text)
        x, _, z, _, _, _, yaw = det.rows[0].tolist()
        expected = wrap_angle(yaw - math.atan2(x, z))
        assert rec.alpha == pytest.approx(expected, abs=0.005)
        assert compute_alpha(yaw, x, z) == pytest.approx(expected, abs=1e-12)


def test_compute_alpha_equals_scalar_ceil_formula():
    # an independent scalar reference: Python floats and math.ceil, no numpy
    def scalar(yaw, x, z):
        a = yaw - math.atan2(x, z)
        return a - 2.0 * math.pi * math.ceil((a - math.pi) / (2.0 * math.pi))

    rng = np.random.default_rng(31)
    cases = rng.uniform((-4 * math.pi, -30.0, -5.0), (4 * math.pi, 30.0, 60.0), (10000, 3)).tolist()
    # exact multiples of pi, with atan2 giving 0, -0.0, pi and +-pi/2
    axes = ((0.0, 1.0), (0.0, -1.0), (-0.0, 5.0), (0.0, 0.0), (3.0, 0.0), (-3.0, 0.0))
    cases += [(k * math.pi, x, z) for k in range(-6, 7) for x, z in axes]
    for yaw, x, z in cases:
        got, want = compute_alpha(yaw, x, z), scalar(yaw, x, z)
        assert type(got) is float and got.hex() == want.hex(), (yaw, x, z)


def test_behind_camera_excluded_with_diagnostic():
    calib = _calib()
    drops = {}
    valid = ((-3.0, 1.6, 25.0), -1.1, 0.7)
    text = write_predictions(
        _detections(((0.0, 1.5, -5.0), 0.4, 0.9), valid, ((0.0, 1.5, 1.0), 0.4, 0.9)),
        calib,
        (1242, 375),
        CLASS_NAMES,
        drop_count=drops,
    )
    # the third box is close enough that a corner crosses z=0 (l=4.0)
    assert drops == {"behind_camera": 2}
    (rec,) = parse_label_file(text)
    assert rec.type == "Car"
    kept = _detections(valid)
    assert _box(rec) == pytest.approx(kept.rows[0], abs=0.005)
    assert rec.score == pytest.approx(kept.score[0], abs=5e-7)
    # its own corners' envelope, which differs from the dropped boxes'
    assert rec.bbox == pytest.approx(_envelope(kept, calib), abs=0.005)
    for other in ((0.0, 1.5, -5.0), (0.0, 1.5, 1.0)):
        assert rec.bbox != pytest.approx(_envelope(_detection(loc=other), calib), abs=0.5)


def _fstring_line(rec):
    """A label line one f-string field at a time, as KITTI's devkit writes it."""
    numbers = (rec.alpha, *rec.bbox, *rec.dimensions, *rec.location, rec.rotation_y)
    line = f"{rec.type} {rec.truncated:.2f} {int(rec.occluded)} " + " ".join(f"{v:.2f}" for v in numbers)
    return line if rec.score is None else line + f" {rec.score:.6f}"


def test_write_predictions_equals_label_record_rendering():
    calib, (width, height) = _calib(), (1242, 375)
    rng = np.random.default_rng(41)
    n = 400
    rows = np.column_stack([
        rng.uniform(-25.0, 25.0, n), rng.uniform(0.5, 2.5, n), rng.uniform(-6.0, 60.0, n),
        rng.uniform(0.3, 4.5, (n, 3)), rng.uniform(-math.pi, math.pi, n),
    ])
    score = rng.uniform(0.0, 1.0, n)
    # fields that print as -0.00, exact binary halves x.xx5 (round half to
    # even at 2 decimals), scores with 6 decimals and halves at the 7th
    rows[0:40, 0] = rng.choice([-0.004, -0.0, -0.001, 0.004], 40)
    rows[40:80, 1] = rng.choice([-0.0049, -0.0], 40)
    rows[80:160, 3:6] = rng.choice([0.125, 0.375, 1.125, 2.625, 3.875], (80, 3))
    rows[160:200, 6] = rng.choice([-0.004, 0.125, -1.375, 2.875], 40)
    score[200:260] = np.round(score[200:260], 6)
    score[260:300] = rng.choice([0.5000005, 0.0000005, 0.25, 0.9999995], 40)
    dets = Detections3D(rng.integers(0, 3, n), score, rows, np.full(n, 0.2))

    drops = {}
    text = write_predictions(dets, calib, (width, height), CLASS_NAMES, drop_count=drops)
    want = []
    for det in (dets[[i]] for i in range(n)):
        pix, depth = calib.project(box3d_corners(det.rows))
        if det.rows[0, 2] <= 0.0 or np.any(depth <= 0.0):
            continue
        x, y, z, h, w, length, yaw = det.rows[0].tolist()
        rec = LabelRecord(
            type=CLASS_NAMES[int(det.class_id[0])], truncated=0.0, occluded=0,
            alpha=compute_alpha(yaw, x, z), bbox=_envelope(det, calib, width, height),
            dimensions=(h, w, length), location=(x, y, z), rotation_y=yaw, score=float(det.score[0]),
        )
        assert format_label_line(rec) == _fstring_line(rec)
        want.append(format_label_line(rec) + "\n")
    assert 0 < drops["behind_camera"] == n - len(want)
    assert text == "".join(want)
    assert " -0.00 " in text and " 1.12 " in text and " 0.500000\n" in text


def test_write_predictions_empty():
    assert write_predictions(Detections3D.empty(), _calib(), (1242, 375), CLASS_NAMES) == ""


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

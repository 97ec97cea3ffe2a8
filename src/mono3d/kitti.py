"""KITTI-format text I/O: labels, calibration, predictions, PPM.

Label lines are 15 whitespace-separated fields (16 with a trailing score
for predictions): type, truncated, occluded, alpha, bbox (left top right
bottom), dimensions (h w l), location (x y z), rotation_y [, score].
All numbers are written with 2 decimals except the score (6).
Predictions are written from a heads.Detections3D. Parsers report
malformed input with 1-based line and column, never by crashing.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, UsageError
from .geometry import box3d_corners
from .heads import wrap_angle

LABEL_FIELDS_GT = 15
LABEL_FIELDS_PRED = 16


@dataclass
class CameraCalib:
    P2: np.ndarray  # 3x4 row-major projection matrix

    def __post_init__(self):
        self.P2 = np.asarray(self.P2, dtype=np.float64)
        if self.P2.shape != (3, 4):
            raise UsageError(f"P2 must be 3x4, got {self.P2.shape}")
        if not np.isfinite(self.P2).all():
            raise UsageError("P2 entries must be finite")
        if self.f_u <= 0 or self.f_v <= 0:
            raise UsageError(f"focal lengths must be positive, got {self.f_u}, {self.f_v}")

    @property
    def f_u(self):
        return float(self.P2[0, 0])

    @property
    def f_v(self):
        return float(self.P2[1, 1])

    @property
    def c_u(self):
        return float(self.P2[0, 2])

    @property
    def c_v(self):
        return float(self.P2[1, 2])

    def project(self, points):
        """Camera-frame points [N, 3] -> pixel coords [N, 2] and depths [N]."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        homo = np.concatenate([pts, np.ones((len(pts), 1))], axis=1)
        proj = homo @ self.P2.T
        depth = proj[:, 2]
        return proj[:, :2] / depth[:, None], depth


@dataclass
class LabelRecord:
    type: str
    truncated: float
    occluded: int
    alpha: float
    bbox: tuple  # (left, top, right, bottom) pixels
    dimensions: tuple  # (h, w, l) meters
    location: tuple  # (x, y, z) meters
    rotation_y: float
    score: float = None


def _token_columns(line):
    """(1-based column, token) of each whitespace-separated token; only
    error paths call it, to place a ParseError."""
    cols = []
    i = 0
    while i < len(line):
        if line[i].isspace():
            i += 1
            continue
        start = i
        while i < len(line) and not line[i].isspace():
            i += 1
        cols.append((start + 1, line[start:i]))
    return cols


def _parse_float(tokens, k, line, line_no):
    try:
        return float(tokens[k])
    except ValueError:
        raise ParseError(
            f"expected a number, got {tokens[k]!r}", line_no, _token_columns(line)[k][0]
        ) from None


def _raise_at_first_bad_field(text):
    """Walk the label lines one by one and raise a ParseError at the first
    line and column that breaks a rule of parse_label_table."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) not in (LABEL_FIELDS_GT, LABEL_FIELDS_PRED):
            raise ParseError(
                f"expected {LABEL_FIELDS_GT} or {LABEL_FIELDS_PRED} fields, got {len(tokens)}",
                line_no,
                _token_columns(line)[0][0],
            )
        nums = [_parse_float(tokens, k, line, line_no) for k in range(1, len(tokens))]
        for k, v in enumerate(nums, start=1):
            if not math.isfinite(v):
                raise ParseError(
                    f"expected a finite number, got {tokens[k]!r}",
                    line_no,
                    _token_columns(line)[k][0],
                )
        if not nums[1].is_integer():
            raise ParseError(
                f"expected an integer, got {tokens[2]!r}", line_no, _token_columns(line)[2][0]
            )


def parse_label_table(text):
    """Text -> (types, numbers): the type of each label line, and its number
    fields as a float64 array [n, 15] (NaN in the score column of a
    15-field line). Blank lines are skipped. A line must have 15 or 16
    fields, every number field must be finite and the occlusion field an
    integer; otherwise a ParseError names the first bad line and column.
    """
    rows = [tokens for tokens in map(str.split, text.splitlines()) if tokens]
    widths = set(map(len, rows))
    try:
        if not widths <= {LABEL_FIELDS_GT, LABEL_FIELDS_PRED}:
            raise ValueError("irregular field count")
        flat = np.array(list(map(float, [tok for tokens in rows for tok in tokens[1:]])))
        if not np.isfinite(flat).all():
            raise ValueError("non-finite field")
        if widths == {LABEL_FIELDS_PRED}:
            numbers = flat.reshape(len(rows), LABEL_FIELDS_PRED - 1)
        else:  # row by row: each line's fields, then NaN in a missing score
            numbers = np.full((len(rows), LABEL_FIELDS_PRED - 1), np.nan)
            width = np.array(list(map(len, rows)))[:, None]
            numbers[np.arange(1, LABEL_FIELDS_PRED) < width] = flat
        if not all(map(float.is_integer, numbers[:, 1].tolist())):
            raise ValueError("fractional occlusion")
    except ValueError:
        _raise_at_first_bad_field(text)
        raise
    return [tokens[0] for tokens in rows], numbers


def _label_records(types, numbers):
    """A label table -> list of LabelRecord (score None where it is NaN)."""
    return [
        LabelRecord(
            type=cls,
            truncated=row[0],
            occluded=int(row[1]),
            alpha=row[2],
            bbox=tuple(row[3:7]),
            dimensions=tuple(row[7:10]),
            location=tuple(row[10:13]),
            rotation_y=row[13],
            score=None if math.isnan(row[14]) else row[14],
        )
        for cls, row in zip(types, numbers.tolist())
    ]


def parse_label_file(text):
    """Text -> list of LabelRecord; 15 fields per line, 16 with a score.
    Every number field must be finite."""
    return _label_records(*parse_label_table(text))


# type, truncated, occluded, alpha, bbox (4), dimensions (3), location (3),
# rotation_y; a prediction line adds _SCORE_FIELD
_LABEL_LINE = "{} {:.2f} {:d}" + " {:.2f}" * 12
_SCORE_FIELD = " {:.6f}"


def format_label_line(rec):
    line = _LABEL_LINE.format(
        rec.type, rec.truncated, int(rec.occluded), rec.alpha,
        *rec.bbox, *rec.dimensions, *rec.location, rec.rotation_y,
    )
    return line if rec.score is None else line + _SCORE_FIELD.format(rec.score)


def write_labels(records):
    return "".join(format_label_line(r) + "\n" for r in records)


def parse_calib_file(text):
    """Find the P2 line (12 reals) and build the calibration."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].rstrip(":") != "P2":
            continue
        n_vals = len(tokens) - 1
        if n_vals != 12:
            raise ParseError(f"P2 needs 12 values, got {n_vals}", line_no, _token_columns(line)[0][0])
        vals = [_parse_float(tokens, k, line, line_no) for k in range(1, 13)]
        try:
            return CameraCalib(np.array(vals).reshape(3, 4))
        except UsageError as exc:
            raise ParseError(str(exc), line_no, _token_columns(line)[0][0]) from None
    raise ParseError("no P2 line found in calibration text")


def write_calib(calib):
    # 17 significant digits make float64 -> text -> float64 the identity
    return "P2: " + " ".join(f"{v:.17g}" for v in calib.P2.reshape(-1)) + "\n"


def compute_alpha(yaw, x, z):
    """Observation angle from global yaw: alpha = r_y - atan2(x, z)."""
    return float(wrap_angle(yaw - math.atan2(x, z)))


def write_predictions(dets, calib, image_size, class_names, drop_count=None):
    """Detections3D -> KITTI 16-field prediction text.

    The 2D bbox is the image-clamped envelope of the projected 3D
    corners. Detections behind the camera are excluded (counted in
    drop_count["behind_camera"] when a dict is given).
    """
    width, height = image_size
    corners = box3d_corners(dets.rows)
    behind = (dets.rows[:, 2] <= 0.0) | (corners[:, :, 2] <= 0.0).any(axis=1)
    if drop_count is not None and behind.any():
        drop_count["behind_camera"] = drop_count.get("behind_camera", 0) + int(behind.sum())
    pix, _ = calib.project(corners[~behind])
    pix = pix.reshape(-1, 8, 2)
    kept = dets[~behind]
    x, z, yaw = (kept.rows[:, j] for j in (0, 2, 6))
    # compute_alpha's ops, one row at a time for math.atan2, then elementwise
    alpha = wrap_angle(yaw - np.array([math.atan2(a, b) for a, b in zip(x.tolist(), z.tolist())]))
    # (left, top, right, bottom), clamped to the image as min(max(v, 0), limit)
    bbox = np.concatenate([pix.min(axis=1), pix.max(axis=1)], axis=1)
    limit = np.array([width, height, width, height], dtype=np.float64)
    bbox = np.where(bbox < 0.0, 0.0, bbox)
    bbox = np.where(limit < bbox, limit, bbox)
    # _LABEL_LINE's numeric fields after occluded, then the score
    table = np.column_stack([alpha, bbox, kept.rows[:, [3, 4, 5, 0, 1, 2, 6]], kept.score]).tolist()
    line = _LABEL_LINE + _SCORE_FIELD + "\n"
    return "".join(
        line.format(class_names[c], 0.0, 0, *values) for c, values in zip(kept.class_id.tolist(), table)
    )


def write_ppm(path, image):
    """uint8 image [H, W, 3] -> binary PPM (P6, maxval 255)."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise UsageError(f"PPM writer needs uint8 [H, W, 3], got {img.dtype} {img.shape}")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def read_ppm(path):
    """Binary PPM (P6) -> uint8 image [H, W, 3]. Header comments allowed."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P6"):
        raise ParseError(f"{path}: not a P6 PPM file", 1, 1)
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise ParseError(f"{path}: bad PPM header token {token!r}", 1, start + 1)
        fields.append(int(token))
    width, height, maxval = fields
    if maxval != 255:
        raise ParseError(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace after maxval
    raw = data[pos : pos + width * height * 3]
    if len(raw) != width * height * 3:
        raise ParseError(f"{path}: truncated pixel data")
    return np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3).copy()

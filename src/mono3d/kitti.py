"""KITTI-format text I/O: labels, calibration, predictions, PPM.

Label lines are 15 whitespace-separated fields (16 with a trailing score
for predictions): type, truncated, occluded, alpha, bbox (left top right
bottom), dimensions (h w l), location (x y z), rotation_y [, score].
All numbers are written with 2 decimals except the score (6). Parsers
report malformed input with 1-based line and column, never by crashing.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, UsageError
from .geometry import box3d_corners

LABEL_FIELDS_GT = 15
LABEL_FIELDS_PRED = 16


@dataclass
class CameraCalib:
    P2: np.ndarray  # 3x4 row-major projection matrix

    def __post_init__(self):
        self.P2 = np.asarray(self.P2, dtype=np.float64)
        if self.P2.shape != (3, 4):
            raise UsageError(f"P2 must be 3x4, got {self.P2.shape}")
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


def _parse_int(tokens, k, line, line_no):
    value = _parse_float(tokens, k, line, line_no)
    if value != int(value):
        raise ParseError(
            f"expected an integer, got {tokens[k]!r}", line_no, _token_columns(line)[k][0]
        )
    return int(value)


def parse_label_file(text):
    """Text -> list of LabelRecord; 15 fields per line, 16 with a score."""
    records = []
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
        records.append(
            LabelRecord(
                type=tokens[0],
                truncated=nums[0],
                occluded=_parse_int(tokens, 2, line, line_no),
                alpha=nums[2],
                bbox=tuple(nums[3:7]),
                dimensions=tuple(nums[7:10]),
                location=tuple(nums[10:13]),
                rotation_y=nums[13],
                score=nums[14] if len(nums) > 14 else None,
            )
        )
    return records


def format_label_line(rec):
    parts = [
        rec.type,
        f"{rec.truncated:.2f}",
        str(int(rec.occluded)),
        f"{rec.alpha:.2f}",
        *(f"{v:.2f}" for v in rec.bbox),
        *(f"{v:.2f}" for v in rec.dimensions),
        *(f"{v:.2f}" for v in rec.location),
        f"{rec.rotation_y:.2f}",
    ]
    if rec.score is not None:
        parts.append(f"{rec.score:.6f}")
    return " ".join(parts)


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
        return CameraCalib(np.array(vals).reshape(3, 4))
    raise ParseError("no P2 line found in calibration text")


def write_calib(calib):
    # 17 significant digits make float64 -> text -> float64 the identity
    return "P2: " + " ".join(f"{v:.17g}" for v in calib.P2.reshape(-1)) + "\n"


def compute_alpha(yaw, x, z):
    """Observation angle from global yaw: alpha = r_y - atan2(x, z)."""
    a = yaw - math.atan2(x, z)
    return a - 2.0 * math.pi * math.ceil((a - math.pi) / (2.0 * math.pi))


def write_predictions(dets, calib, image_size, class_names, drop_count=None):
    """Detection3D list -> KITTI 16-field prediction text.

    The 2D bbox is the image-clamped envelope of the projected 3D
    corners. Detections behind the camera are excluded (counted in
    drop_count["behind_camera"] when a dict is given).
    """
    width, height = image_size
    lines = []
    for det in dets:
        box = _det_to_box(det)
        corners = box3d_corners(box)
        if det.location[2] <= 0.0 or np.any(corners[:, 2] <= 0.0):
            if drop_count is not None:
                drop_count["behind_camera"] = drop_count.get("behind_camera", 0) + 1
            continue
        pix, _ = calib.project(corners)
        left = min(max(float(pix[:, 0].min()), 0.0), float(width))
        right = min(max(float(pix[:, 0].max()), 0.0), float(width))
        top = min(max(float(pix[:, 1].min()), 0.0), float(height))
        bottom = min(max(float(pix[:, 1].max()), 0.0), float(height))
        x, y, z = det.location
        rec = LabelRecord(
            type=class_names[det.class_id],
            truncated=0.0,
            occluded=0,
            alpha=compute_alpha(det.yaw, x, z),
            bbox=(left, top, right, bottom),
            dimensions=det.dimensions,
            location=det.location,
            rotation_y=det.yaw,
            score=det.score,
        )
        lines.append(format_label_line(rec))
    return "".join(line + "\n" for line in lines)


def _det_to_box(det):
    from .geometry import Box3D

    return Box3D(
        location=det.location,
        dimensions=det.dimensions,
        yaw=det.yaw,
        class_id=det.class_id,
        score=det.score,
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

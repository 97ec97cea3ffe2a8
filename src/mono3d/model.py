"""Full monocular 3D detector and its checkpoint format.

Assembles the attention-pyramid backbone, the top-down aggregation neck,
and the dense 2D / RoI 3D heads into one module; provides the nine named
training loss terms over a batch, single-image inference to one
Detections3D, and a flat little-endian float32 checkpoint with a JSON
sidecar manifest mapping parameter names to (offset, shape). The
manifest's variant, attention flag and class count define the model:
`load_detector` builds it from them.

A detector computes in its parameters' dtype. A fresh one is float64,
which training and gradient checks need. Loading a checkpoint keeps its
float32 values, so `infer` then runs the network in float32 (half the
bytes, twice the GEMM rate) and decodes its outputs in float64.
"""

import json

import numpy as np

from . import tensor as T
from .backbone import Backbone, BackboneConfig, backbone_config
from .errors import ConfigError, DegenerateGeometryError, DimensionError, UsageError
from .heads import (
    CLASS_NAMES,
    CLASS_PRIORS,
    MIN_H2D_PIXELS,
    Boxes2D,
    Detections3D,
    Heads2D,
    Heads3D,
    decode_box3d,
    decode_heatmap_peaks,
    gup_depth,
    roi_crop,
)
from .losses import LOSS_TERMS, _zero_scalar, angle_loss, depth_loss, focal_loss, l1_masked, laplacian_nll
from .neck import Neck
from .nn import Module
from .tensor import Tensor

CHECKPOINT_DTYPE = "<f4"
CHECKPOINT_FORMAT = "mono3d-flat-f32"


class Detector(Module):
    """Monocular image -> 3D boxes through one shared stride-4 feature map."""

    def __init__(self, variant="desk", use_attention=True, seed=0, num_classes=len(CLASS_NAMES)):
        if isinstance(variant, BackboneConfig):
            cfg = variant
        else:
            cfg = backbone_config(variant, use_attention)
        rng = np.random.default_rng(seed)
        self.config = cfg
        self.variant = cfg.name
        self.use_attention = cfg.use_attention
        self.num_classes = int(num_classes)
        self.seed = int(seed)
        self.backbone = Backbone(cfg, rng)
        self.neck = Neck([s.dim for s in cfg.stages], rng)
        self.heads2d = Heads2D(self.neck.width, self.num_classes, rng)
        self.heads3d = Heads3D(self.neck.width, self.num_classes, rng)

    @property
    def dtype(self):
        """The parameters' dtype: float64 when built, float32 once loaded."""
        return next(self.named_parameters())[1].dtype

    def features(self, images):
        """[N, 3, H, W] (or [3, H, W]) -> stride-4 feature map [N, h, w, 64],
        channels last.

        A Tensor is used as it is; anything else is read in the detector's dtype.
        """
        if not isinstance(images, Tensor):
            images = Tensor(images, dtype=self.dtype)
        if images.ndim == 3:
            images = T.reshape(images, (1,) + images.shape)
        if images.ndim != 4 or images.shape[1] != 3:
            raise DimensionError(f"expected [N, 3, H, W] images, got {images.shape}")
        return self.neck(self.backbone(images))

    def infer(self, image, calib, k=50, score_threshold=0.0):
        """One image -> (Detections3D, drop-count dict), no gradients.

        The image is cast to the detector's dtype; decoding runs in float64.
        The 2D offset and size heads run only at the heatmap's peaks.
        """
        with T.no_grad():
            feat = self.features(image.data if isinstance(image, Tensor) else image)
            if feat.shape[0] != 1:
                raise UsageError(f"infer takes a single image, got batch of {feat.shape[0]}")
            heatmap = self.heads2d(feat)
            peaks = decode_heatmap_peaks(heatmap.data[0], k=k, threshold=score_threshold)
            offset, size = self.heads2d.at(feat, np.zeros(len(peaks), dtype=np.int64), peaks.row, peaks.col)
            boxes = peaks.boxes(offset.data, size.data)
            drops = {}
            flat = boxes.size[:, 1] <= MIN_H2D_PIXELS
            if flat.any():
                drops["h2d_degenerate"] = int(np.sum(flat))
            kept = boxes[~flat]
            rois, valid = roi_crop(feat, kept, np.zeros(len(kept), dtype=np.int64))
            if not valid.all():
                drops["roi_degenerate"] = int(np.sum(~valid))
            dets3d = Detections3D.empty()
            if valid.any():
                dets3d, dropped = decode_box3d(kept[valid], self.heads3d(rois), calib)
                drops.update(dropped)
        return dets3d, drops

    def loss_terms(self, images, targets, calibs):
        """Batch + per-image TargetMaps + calibs -> the nine scalar loss Tensors.

        The heatmap term is dense over the stacked maps; the 2D offset and
        size heads run only at each object's center cell, and the 3D terms run
        the RoI head on ground-truth boxes, with depth projected through
        the camera from the predicted height and the ground-truth 2D height.
        The parameters must be float64: a loaded checkpoint is for inference.
        """
        if self.dtype != np.float64:
            raise UsageError(
                f"loss_terms needs float64 parameters, got {self.dtype}; "
                f"a detector loaded from a checkpoint is for inference only"
            )
        feat = self.features(images)
        b = feat.shape[0]
        if len(targets) != b:
            raise UsageError(f"{b} images but {len(targets)} target sets")
        if not isinstance(calibs, (list, tuple)):
            calibs = [calibs] * b
        if len(calibs) != b:
            raise UsageError(f"{b} images but {len(calibs)} calibs")

        terms = {"heatmap": focal_loss(self.heads2d(feat), np.stack([t.heatmap for t in targets]))}
        counts = [t.n_objects for t in targets]
        m_total = sum(counts)
        if m_total == 0:
            for term in LOSS_TERMS[1:]:
                terms[term] = _zero_scalar()
            return terms

        def gather(field):
            return np.concatenate([getattr(t, field) for t in targets])

        gt = Boxes2D(
            class_id=gather("class_ids"),
            score=np.ones(m_total),
            center=gather("center2d"),
            size=gather("size2d"),
        )
        image_index = np.repeat(np.arange(b), counts)
        row, col = gather("cell").T
        offset, size = self.heads2d.at(feat, image_index, row, col)
        terms["offset2d"] = l1_masked(offset, gather("offset2d"))
        terms["size2d"] = l1_masked(size, gt.size)
        rois, valid = roi_crop(feat, gt, image_index)
        if not valid.all():
            bad = int(np.argmin(valid))
            raise DegenerateGeometryError(
                f"ground-truth box {tuple(gt.center[bad])}+-{tuple(gt.size[bad])} has no area "
                f"inside the {feat.shape[1]}x{feat.shape[2]} map"
            )
        out3d = self.heads3d(rois)
        cls = gt.class_id
        dims = out3d.size_residuals[np.arange(m_total), cls] + CLASS_PRIORS[cls]
        size3 = gather("size3d")
        terms["offset3d"] = l1_masked(out3d.offset3d, gather("offset3d"))
        terms["w3d"] = l1_masked(dims[:, 1], size3[:, 1])
        terms["l3d"] = l1_masked(dims[:, 2], size3[:, 2])
        h_sigma = T.exp(out3d.h_log_sigma)
        terms["h3d"] = laplacian_nll(dims[:, 0], h_sigma, size3[:, 0])
        terms["angle"] = angle_loss(
            out3d.angle_logits, out3d.angle_residuals, gather("angle_bin"), gather("angle_res")
        )
        depth_mu, depth_sigma = gup_depth(
            dims[:, 0],
            h_sigma,
            gt.size[:, 1],
            np.repeat([c.f_v for c in calibs], counts),
            out3d.bias_mu,
            T.exp(out3d.bias_log_sigma),
        )
        terms["depth"] = depth_loss(depth_mu, depth_sigma, gather("depth"))
        return {term: terms[term] for term in LOSS_TERMS}


def manifest_path(path):
    return str(path) + ".json"


def save_checkpoint(path, detector):
    """Write parameters as flat little-endian float32 plus a JSON manifest.

    The manifest maps each parameter name to its element offset and shape;
    offsets index float32 elements, not bytes. save -> load -> save is
    bit-identical for both files.
    """
    entries = {}
    chunks = []
    offset = 0
    for name, p in detector.named_parameters():
        entries[name] = {"offset": offset, "shape": list(p.shape)}
        chunks.append(np.ascontiguousarray(p.data, dtype=CHECKPOINT_DTYPE).tobytes())
        offset += int(p.data.size)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "dtype": CHECKPOINT_DTYPE,
        "variant": detector.variant,
        "use_attention": detector.use_attention,
        "num_classes": detector.num_classes,
        "total_elements": offset,
        "params": entries,
    }
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))
    with open(manifest_path(path), "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_manifest(path):
    """Checkpoint `path`'s manifest, checked to hold every field
    load_checkpoint reads, with dtype CHECKPOINT_DTYPE, a string variant,
    a boolean attention flag, a class count >= 1 and non-negative integer
    offsets, dims and total; UsageError naming the manifest otherwise."""
    mpath = manifest_path(path)
    with open(mpath, "r", encoding="ascii") as fh:
        try:
            manifest = json.load(fh)
            absent = {"format", "dtype", "variant", "use_attention", "num_classes"} - set(manifest)
            if absent:
                raise KeyError(sorted(absent))
            if manifest["dtype"] != CHECKPOINT_DTYPE:
                raise ValueError(f"dtype {manifest['dtype']!r} is not {CHECKPOINT_DTYPE!r}")
            if type(manifest["variant"]) is not str:
                raise ValueError(f"variant {manifest['variant']!r} is not a string")
            if type(manifest["use_attention"]) is not bool:
                raise ValueError(f"use_attention {manifest['use_attention']!r} is not a boolean")
            if type(manifest["num_classes"]) is not int or manifest["num_classes"] < 1:
                raise ValueError(f"num_classes {manifest['num_classes']!r} is not an integer >= 1")
            counts = [manifest["total_elements"]]
            for entry in manifest["params"].values():
                counts += [entry["offset"], *entry["shape"]]
            if not all(type(v) is int and v >= 0 for v in counts):
                raise ValueError("offsets, dims and total_elements must be non-negative integers")
        except KeyError as exc:
            raise UsageError(f"checkpoint manifest {mpath} lacks {exc}") from None
        except (ValueError, TypeError, AttributeError) as exc:
            raise UsageError(f"checkpoint manifest {mpath} is malformed: {exc}") from None
    return manifest


def load_checkpoint(path, detector):
    """Load a checkpoint written by save_checkpoint into a matching detector.

    Variant, attention setting, class count, parameter names, and shapes
    must all match; mismatch errors name both the checkpoint's and the
    model's side. In offset order the entries must tile [0, total_elements)
    exactly, as save_checkpoint writes them. Each parameter becomes the
    file's float32 values, so the detector then infers in float32 and
    `loss_terms` refuses it.
    """
    manifest = _read_manifest(path)
    if manifest["format"] != CHECKPOINT_FORMAT:
        raise UsageError(f"unrecognized checkpoint format {manifest['format']!r}")
    ck_variant = manifest["variant"]
    ck_attention = manifest["use_attention"]
    ck_classes = manifest["num_classes"]
    if ck_variant != detector.variant or ck_attention != detector.use_attention:
        raise UsageError(
            f"checkpoint holds variant {ck_variant!r} (attention={ck_attention}), "
            f"model is variant {detector.variant!r} (attention={detector.use_attention})"
        )
    if ck_classes != detector.num_classes:
        raise UsageError(
            f"checkpoint holds {ck_classes} classes, model has {detector.num_classes}"
        )

    params = dict(detector.named_parameters())
    entries = manifest["params"]
    missing = sorted(set(params) - set(entries))
    unexpected = sorted(set(entries) - set(params))
    if missing or unexpected:
        raise UsageError(
            f"checkpoint parameter names do not match the model: "
            f"missing {missing}, unexpected {unexpected}"
        )
    # in offset order, each entry starts where the one before it ends
    spans, end, mpath = [], 0, manifest_path(path)
    for lo, name in sorted((entry["offset"], name) for name, entry in entries.items()):
        p, shape = params[name], tuple(entries[name]["shape"])
        if shape != p.shape:
            raise UsageError(f"checkpoint parameter {name!r} has shape {shape}, model has {p.shape}")
        if lo != end:
            raise UsageError(f"checkpoint manifest {mpath}: {name!r} starts at {lo}, not {end}")
        spans.append((p, lo))
        end += p.data.size
    if end != manifest["total_elements"]:
        raise UsageError(f"checkpoint manifest {mpath}: entries end at {end}, not at total_elements")
    data = np.fromfile(path, dtype=CHECKPOINT_DTYPE)
    if data.size != end:
        raise UsageError(f"checkpoint holds {data.size} float32 values, manifest expects {end}")
    for p, lo in spans:
        p.data = data[lo : lo + p.data.size].reshape(p.shape).copy()
    return manifest


def load_detector(path):
    """The Detector that checkpoint `path` describes, with its parameters loaded.

    The manifest's variant, attention setting and class count define the
    model; a variant outside the backbone table is a UsageError naming the
    manifest. The detector infers in float32 (see load_checkpoint).
    """
    manifest = _read_manifest(path)
    try:
        detector = Detector(
            manifest["variant"], manifest["use_attention"], num_classes=manifest["num_classes"]
        )
    except ConfigError as exc:
        raise UsageError(f"checkpoint manifest {manifest_path(path)}: {exc}") from None
    load_checkpoint(path, detector)
    return detector

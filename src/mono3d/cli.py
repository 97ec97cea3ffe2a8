"""Command line entry point: gradcheck | train-toy | infer | eval | synth.

Every command resolves its configuration as defaults <- profile <-
--config file <- flags, echoes the resolved config into the output
directory, writes only inside that directory, and is deterministic given
(config, seed). Exit codes: 0 success, 1 failed check or pipeline error,
2 bad invocation (flags, config file, missing inputs).
"""

import argparse
import json
import os
import sys

import numpy as np

from .config import TOY_PROFILE, echo_config, load_config_file, resolve_config
from .errors import (
    ConfigError,
    DegenerateGeometryError,
    DimensionError,
    NumericError,
    ParseError,
    UsageError,
)
from .evaluation import OFFICIAL_IOU, RELAXED_IOU, EvalConfig, evaluate_split
from .geometry import box3d_corners, Box3D
from .gradcheck import run_suite
from .heads import CLASS_NAMES
from .kitti import parse_calib_file, read_ppm, write_calib, write_labels, write_ppm, write_predictions
from .model import Detector, load_checkpoint, save_checkpoint
from .synth import to_uint8
from .tensor import Tensor
from .train import build_synth_dataset, train_detector

_CLASS_COLORS = ((255, 64, 64), (64, 255, 64), (64, 128, 255))


def _ensure_out(cfg):
    os.makedirs(cfg["out_dir"], exist_ok=True)
    return cfg["out_dir"]


def _write_text(path, text):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _write_scenes(out_dir, samples):
    """Images, labels, calibs, and a split file for a list of SynthSamples."""
    for sub in ("images", "labels", "calibs"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    ids = []
    for i, s in enumerate(samples):
        image_id = f"{i:06d}"
        ids.append(image_id)
        write_ppm(os.path.join(out_dir, "images", image_id + ".ppm"), to_uint8(s.image))
        _write_text(os.path.join(out_dir, "labels", image_id + ".txt"), write_labels(s.labels))
        _write_text(os.path.join(out_dir, "calibs", image_id + ".txt"), write_calib(s.calib))
    _write_text(os.path.join(out_dir, "split.txt"), "".join(i + "\n" for i in ids))
    return ids


def draw_wireframe(image, corners_px, color):
    """Rasterize the 12 box edges into an HxWx3 uint8 image, in place."""
    h, w = image.shape[:2]
    edges = (
        (0, 1), (1, 2), (2, 3), (3, 0),
        (4, 5), (5, 6), (6, 7), (7, 4),
        (0, 4), (1, 5), (2, 6), (3, 7),
    )
    for a, b in edges:
        ua, va = corners_px[a]
        ub, vb = corners_px[b]
        n = int(max(abs(ub - ua), abs(vb - va))) + 1
        us = np.rint(np.linspace(ua, ub, n)).astype(int)
        vs = np.rint(np.linspace(va, vb, n)).astype(int)
        keep = (us >= 0) & (us < w) & (vs >= 0) & (vs < h)
        image[vs[keep], us[keep]] = color
    return image


def render_overlay(image, dets, calib):
    """Projected 3D wireframes for every detection over a copy of the image."""
    out = np.array(image, dtype=np.uint8, copy=True)
    for det in dets:
        box = Box3D(location=det.location, dimensions=det.dimensions, yaw=det.yaw)
        corners = box3d_corners(box)
        if np.any(corners[:, 2] <= 0.0):
            continue
        pix, _ = calib.project(corners)
        draw_wireframe(out, pix, _CLASS_COLORS[det.class_id % len(_CLASS_COLORS)])
    return out


def _read_text(path):
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def cmd_synth(cfg):
    out_dir = _ensure_out(cfg)
    samples = build_synth_dataset(
        cfg["n_images"],
        (cfg["image_width"], cfg["image_height"]),
        seed=cfg["data_seed"],
        n_objects=cfg["n_objects"],
        z_range=(cfg["z_min"], cfg["z_max"]),
        focal=cfg["focal"],
    )
    ids = _write_scenes(out_dir, samples)
    echo_config(cfg, out_dir)
    n_objects = sum(len(s.labels) for s in samples)
    print(f"wrote {len(ids)} scenes ({n_objects} objects) under {out_dir}")
    return 0


def cmd_train_toy(cfg):
    out_dir = _ensure_out(cfg)
    samples = build_synth_dataset(
        cfg["n_images"],
        (cfg["image_width"], cfg["image_height"]),
        seed=cfg["data_seed"],
        n_objects=cfg["n_objects"],
        z_range=(cfg["z_min"], cfg["z_max"]),
        focal=cfg["focal"],
    )
    detector = Detector(cfg["variant"], use_attention=cfg["attention"], seed=cfg["seed"])
    result = train_detector(
        detector,
        samples,
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        lr=cfg["lr"],
        warmup_epochs=cfg["warmup_epochs"],
        decay_epochs=tuple(cfg["decay_epochs"]),
        decay=cfg["decay"],
        htl_ramp=cfg["htl_ramp"],
        seed=cfg["seed"],
        csv_path=os.path.join(out_dir, "loss.csv"),
    )
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    save_checkpoint(ckpt_path, detector)
    _write_scenes(out_dir, samples)
    echo_config(cfg, out_dir)
    heat = result.history["heatmap"]
    print(f"trained {cfg['variant']} for {cfg['epochs']} epochs on {len(samples)} scenes")
    print(f"heatmap loss: epoch-1 {heat[0]:.6g} -> final {heat[-1]:.6g} (ratio {heat[-1] / heat[0]:.4g})")
    print(f"task weights: {[f'{w:.3g}' for w in result.final_weights.values]}")
    print(f"checkpoint {ckpt_path}")
    print(f"loss csv {os.path.join(out_dir, 'loss.csv')}")
    return 0


def cmd_infer(cfg):
    if not cfg["checkpoint"]:
        raise ConfigError("infer needs --checkpoint")
    if not cfg["image"]:
        raise ConfigError("infer needs --image")
    if not cfg["calib"]:
        raise ConfigError("infer needs --calib")
    out_dir = _ensure_out(cfg)
    image_u8 = read_ppm(cfg["image"])
    calib = parse_calib_file(_read_text(cfg["calib"]))
    detector = Detector(cfg["variant"], use_attention=cfg["attention"], seed=cfg["seed"])
    load_checkpoint(cfg["checkpoint"], detector)
    image = Tensor(image_u8.astype(np.float64).transpose(2, 0, 1) / 255.0)
    dets, drops = detector.infer(image, calib, k=cfg["k"], score_threshold=cfg["score_threshold"])
    height, width = image_u8.shape[:2]
    pred_drops = {}
    text = write_predictions(dets, calib, (width, height), CLASS_NAMES, drop_count=pred_drops)
    stem = os.path.splitext(os.path.basename(cfg["image"]))[0]
    os.makedirs(os.path.join(out_dir, "predictions"), exist_ok=True)
    pred_path = os.path.join(out_dir, "predictions", stem + ".txt")
    _write_text(pred_path, text)
    echo_config(cfg, out_dir)
    print(f"{len(dets)} detections -> {pred_path}")
    if drops or pred_drops:
        print(f"dropped: {dict(sorted({**drops, **pred_drops}.items()))}")
    if cfg["overlay"]:
        overlay_path = os.path.join(out_dir, stem + "_overlay.ppm")
        write_ppm(overlay_path, render_overlay(image_u8, dets, calib))
        print(f"overlay {overlay_path}")
    return 0


def cmd_eval(cfg):
    if not cfg["pred_dir"]:
        raise ConfigError("eval needs --pred")
    if not cfg["gt_dir"]:
        raise ConfigError("eval needs --gt")
    out_dir = _ensure_out(cfg)
    sets = {"official": OFFICIAL_IOU, "relaxed": RELAXED_IOU}
    if cfg["thresholds"] == "both":
        chosen = (("official", OFFICIAL_IOU), ("relaxed", RELAXED_IOU))
    else:
        chosen = ((cfg["thresholds"], sets[cfg["thresholds"]]),)
    report = evaluate_split(
        cfg["pred_dir"],
        cfg["gt_dir"],
        calib_dir=cfg["calib_dir"] or None,
        cfg=EvalConfig(threshold_sets=chosen),
    )
    text = report.to_text()
    _write_text(os.path.join(out_dir, "eval_report.txt"), text)
    records = report.to_records()
    with open(os.path.join(out_dir, "eval_records.jsonl"), "w", encoding="ascii") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    echo_config(cfg, out_dir)
    print(text, end="")
    if report.errors:
        print(f"{len(report.errors)} file errors:", file=sys.stderr)
        for err in report.errors:
            print(f"  {err}", file=sys.stderr)
    return 0


def cmd_gradcheck(cfg):
    out_dir = _ensure_out(cfg)
    result = run_suite(
        seeds=cfg["gradcheck_seeds"],
        include_pipeline=cfg["pipeline"],
        fault_op=cfg["fault_op"] or None,
        seed0=cfg["seed"],
    )
    text = result.to_text()
    _write_text(os.path.join(out_dir, "gradcheck.txt"), text)
    echo_config(cfg, out_dir)
    print(text, end="")
    return 0 if result.passed else 1


def _parse_set(values):
    out = {}
    for item in values or ():
        if "=" not in item:
            raise ConfigError(f"--set wants KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _add_common(sub):
    sub.add_argument("--config", default=None, help="flat JSON config file")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE", help="override any config key")


def _add_model(sub):
    """Flags that choose the Detector of train-toy and infer."""
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--variant", choices=("desk", "b1", "b2"), default=None)
    sub.add_argument("--no-attention", action="store_true")


def build_parser():
    parser = argparse.ArgumentParser(prog="mono3d", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("gradcheck", help="finite-difference check of every backward rule")
    _add_common(p)
    p.add_argument("--seed", type=int, default=None, help="first seed of each component")
    p.add_argument("--inject-fault", default=None, metavar="OP", help="corrupt one backward rule")
    p.add_argument("--seeds", type=int, default=None, help="seeds per component")
    p.add_argument("--no-pipeline", action="store_true", help="skip the end-to-end check")

    p = commands.add_parser("train-toy", help="overfit the desk model on synthetic scenes")
    _add_common(p)
    _add_model(p)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--n-images", type=int, default=None)

    p = commands.add_parser("infer", help="run a checkpoint on one image")
    _add_common(p)
    _add_model(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--image", default=None, help="PPM image path")
    p.add_argument("--calib", default=None, help="calib file path")
    p.add_argument("--k", type=int, default=None, help="peaks decoded per image")
    p.add_argument("--score-threshold", type=float, default=None)
    p.add_argument("--no-overlay", action="store_true")

    p = commands.add_parser("eval", help="AP evaluation of a prediction directory")
    _add_common(p)
    p.add_argument("--pred", default=None, help="prediction directory")
    p.add_argument("--gt", default=None, help="ground-truth label directory")
    p.add_argument("--calib-dir", default=None)
    p.add_argument("--thresholds", choices=("official", "relaxed", "both"), default=None)

    p = commands.add_parser("synth", help="generate a synthetic scene corpus")
    _add_common(p)
    p.add_argument("--n-images", type=int, default=None)
    p.add_argument("--n-objects", type=int, default=None)
    return parser


_FLAG_KEYS = (
    ("seed", "seed"),
    ("out", "out_dir"),
    ("variant", "variant"),
    ("thresholds", "thresholds"),
    ("k", "k"),
    ("score_threshold", "score_threshold"),
    ("epochs", "epochs"),
    ("lr", "lr"),
    ("batch_size", "batch_size"),
    ("n_images", "n_images"),
    ("n_objects", "n_objects"),
    ("checkpoint", "checkpoint"),
    ("image", "image"),
    ("calib", "calib"),
    ("pred", "pred_dir"),
    ("gt", "gt_dir"),
    ("calib_dir", "calib_dir"),
    ("inject_fault", "fault_op"),
    ("seeds", "gradcheck_seeds"),
)

_COMMANDS = {
    "gradcheck": cmd_gradcheck,
    "train-toy": cmd_train_toy,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "synth": cmd_synth,
}


def resolve_from_args(args):
    overrides = _parse_set(getattr(args, "set", None))
    for attr, key in _FLAG_KEYS:
        value = getattr(args, attr, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "no_attention", False):
        overrides["attention"] = False
    if getattr(args, "no_overlay", False):
        overrides["overlay"] = False
    if getattr(args, "no_pipeline", False):
        overrides["pipeline"] = False
    overrides["command"] = args.command
    file_cfg = load_config_file(args.config) if args.config else None
    profile = TOY_PROFILE if args.command == "train-toy" else None
    return resolve_config(file_cfg=file_cfg, overrides=overrides, profile=profile)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_from_args(args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ParseError, NumericError, DimensionError, DegenerateGeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

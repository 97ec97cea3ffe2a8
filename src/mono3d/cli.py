"""Command line entry point: gradcheck | train-toy | infer | eval | synth.

Each command's parameter list is the list of config keys it reads; every
flag's dest is one of those keys, and `mono3d <command> --help` lists
them with their defaults. A command resolves its keys as defaults <-
--config file <- --set <- flags. An override of a key the command does
not read is a bad invocation; a config file may hold keys of other
commands, which are dropped. After the command returns, `main`
echoes `command` plus the resolved keys as config.json into the output
directory; `infer`, `eval` and `train-toy` also write their drop, skip
and file-error counts there as counters.json. Every command writes only
inside that directory and is deterministic given (config, seed). Exit
codes: 0 success, 1 failed check or pipeline error, 2 bad invocation
(flags, config keys, config file, missing inputs).
"""

import argparse
import inspect
import json
import os
import sys
from collections import Counter

import numpy as np

from .config import echo_config, load_config_file, resolve_config
from .errors import (
    ConfigError,
    DegenerateGeometryError,
    DimensionError,
    NumericError,
    ParseError,
    UsageError,
)
from .evaluation import OFFICIAL_IOU, RELAXED_IOU, EvalConfig, evaluate_split
from .geometry import box3d_corners
from .gradcheck import run_suite
from .heads import CLASS_NAMES
from .kitti import parse_calib_file, read_ppm, write_calib, write_labels, write_ppm, write_predictions
from .model import Detector, load_detector, save_checkpoint
from .synth import to_uint8
from .tensor import OP_NAMES, Tensor
from .train import build_synth_dataset, train_detector

_CLASS_COLORS = ((255, 64, 64), (64, 255, 64), (64, 128, 255))


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
    for class_id, corners in zip(dets.class_id, box3d_corners(dets.rows)):
        if np.any(corners[:, 2] <= 0.0):
            continue
        pix, _ = calib.project(corners)
        draw_wireframe(out, pix, _CLASS_COLORS[class_id % len(_CLASS_COLORS)])
    return out


def _read_text(path):
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _write_counters(out_dir, counters):
    """The run's drop, skip and error counts as counters.json."""
    text = json.dumps(counters, sort_keys=True, indent=1) + "\n"
    _write_text(os.path.join(out_dir, "counters.json"), text)


def cmd_synth(out_dir, n_images, image_width, image_height, data_seed, n_objects, z_min, z_max, focal):
    os.makedirs(out_dir, exist_ok=True)
    samples = build_synth_dataset(
        n_images, (image_width, image_height), seed=data_seed,
        n_objects=n_objects, z_range=(z_min, z_max), focal=focal,
    )
    ids = _write_scenes(out_dir, samples)
    n_labels = sum(len(s.labels) for s in samples)
    print(f"wrote {len(ids)} scenes ({n_labels} objects) under {out_dir}")
    return 0


def cmd_train_toy(
    out_dir, n_images, image_width, image_height, data_seed, n_objects, z_min, z_max, focal,
    variant, attention, seed,
    epochs, batch_size, lr, warmup_epochs, decay_epochs, decay, htl_ramp,
):
    os.makedirs(out_dir, exist_ok=True)
    samples = build_synth_dataset(
        n_images, (image_width, image_height), seed=data_seed,
        n_objects=n_objects, z_range=(z_min, z_max), focal=focal,
    )
    detector = Detector(variant, use_attention=attention, seed=seed)
    csv_path = os.path.join(out_dir, "loss.csv")
    result = train_detector(
        detector,
        samples,
        epochs=epochs,
        batch_size=batch_size,
        lr=lr,
        warmup_epochs=warmup_epochs,
        decay_epochs=tuple(decay_epochs),
        decay=decay,
        htl_ramp=htl_ramp,
        seed=seed,
        csv_path=csv_path,
    )
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    save_checkpoint(ckpt_path, detector)
    _write_scenes(out_dir, samples)
    skipped = Counter()
    for sample in samples:
        skipped.update(sample.targets.skipped)
    _write_counters(out_dir, {"targets_skipped": dict(skipped)})
    heat = result.history["heatmap"]
    print(f"trained {variant} for {epochs} epochs on {len(samples)} scenes")
    print(f"heatmap loss: epoch-1 {heat[0]:.6g} -> final {heat[-1]:.6g} (ratio {heat[-1] / heat[0]:.4g})")
    print(f"task weights: {[f'{w:.3g}' for w in result.final_weights.values]}")
    print(f"checkpoint {ckpt_path}")
    print(f"loss csv {csv_path}")
    return 0


def cmd_infer(out_dir, checkpoint, image, calib, k, score_threshold, overlay):
    if not checkpoint:
        raise ConfigError("infer needs --checkpoint")
    if not image:
        raise ConfigError("infer needs --image")
    if not calib:
        raise ConfigError("infer needs --calib")
    image_u8 = read_ppm(image)
    camera = parse_calib_file(_read_text(calib))
    detector = load_detector(checkpoint)
    pixels = Tensor(image_u8.astype(np.float64).transpose(2, 0, 1) / 255.0)
    dets, drops = detector.infer(pixels, camera, k=k, score_threshold=score_threshold)
    height, width = image_u8.shape[:2]
    pred_drops = {}
    text = write_predictions(dets, camera, (width, height), CLASS_NAMES, drop_count=pred_drops)
    stem = os.path.splitext(os.path.basename(image))[0]
    os.makedirs(os.path.join(out_dir, "predictions"), exist_ok=True)
    pred_path = os.path.join(out_dir, "predictions", stem + ".txt")
    _write_text(pred_path, text)
    _write_counters(out_dir, {"infer_drops": drops, "write_predictions_drops": pred_drops})
    print(f"{len(dets)} detections -> {pred_path}")
    if drops or pred_drops:
        print(f"dropped: {dict(sorted({**drops, **pred_drops}.items()))}")
    if overlay:
        overlay_path = os.path.join(out_dir, stem + "_overlay.ppm")
        write_ppm(overlay_path, render_overlay(image_u8, dets, camera))
        print(f"overlay {overlay_path}")
    return 0


def cmd_eval(out_dir, pred_dir, gt_dir, calib_dir, thresholds):
    if not pred_dir:
        raise ConfigError("eval needs --pred")
    if not gt_dir:
        raise ConfigError("eval needs --gt")
    os.makedirs(out_dir, exist_ok=True)
    sets = {"official": OFFICIAL_IOU, "relaxed": RELAXED_IOU}
    chosen = tuple(sets.items()) if thresholds == "both" else ((thresholds, sets[thresholds]),)
    report = evaluate_split(
        pred_dir, gt_dir, calib_dir=calib_dir or None, cfg=EvalConfig(threshold_sets=chosen)
    )
    text = report.to_text()
    _write_text(os.path.join(out_dir, "eval_report.txt"), text)
    with open(os.path.join(out_dir, "eval_records.jsonl"), "w", encoding="ascii") as fh:
        for rec in report.to_records():
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    _write_counters(out_dir, {"file_errors": len(report.errors)})
    print(text, end="")
    if report.errors:
        print(f"{len(report.errors)} file errors:", file=sys.stderr)
        for err in report.errors:
            print(f"  {err}", file=sys.stderr)
    return 0


def cmd_gradcheck(out_dir, gradcheck_seeds, pipeline, fault_op, seed):
    if fault_op and fault_op not in OP_NAMES:  # a bad invocation, not a failed check
        raise ConfigError(f"no op records the name {fault_op!r}; known ops: {', '.join(sorted(OP_NAMES))}")
    os.makedirs(out_dir, exist_ok=True)
    result = run_suite(
        seeds=gradcheck_seeds, include_pipeline=pipeline, fault_op=fault_op or None, seed0=seed
    )
    text = result.to_text()
    _write_text(os.path.join(out_dir, "gradcheck.txt"), text)
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


_COMMANDS = {
    "gradcheck": cmd_gradcheck,
    "train-toy": cmd_train_toy,
    "infer": cmd_infer,
    "eval": cmd_eval,
    "synth": cmd_synth,
}


def _resolve(command, file_cfg=None, overrides=None):
    """The config of one command: its parameters are the keys it reads."""
    keys = inspect.signature(_COMMANDS[command]).parameters
    return resolve_config(file_cfg=file_cfg, overrides=overrides, keys=keys, command=command)


def _add_command(commands, name, summary):
    """A subparser with the flags of every command and its config keys as epilog."""
    defaults = _resolve(name)
    keys = ", ".join(f"{key}={json.dumps(value)}" for key, value in defaults.items())
    sub = commands.add_parser(name, help=summary, epilog=f"config keys (default): {keys}")
    sub.add_argument("--config", default=None, help="flat JSON config file")
    sub.add_argument("--out", dest="out_dir", default=None, help="output directory")
    sub.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help="override a config key listed below"
    )
    return sub


def build_parser():
    parser = argparse.ArgumentParser(prog="mono3d", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    p = _add_command(commands, "gradcheck", "finite-difference check of every backward rule")
    p.add_argument("--seed", type=int, default=None, help="first seed of each component")
    p.add_argument("--inject-fault", dest="fault_op", default=None, metavar="OP",
                   help="corrupt one backward rule")
    p.add_argument("--seeds", dest="gradcheck_seeds", type=int, default=None,
                   help="seeds per component")
    p.add_argument("--no-pipeline", dest="pipeline", action="store_false", default=None,
                   help="skip the end-to-end check")

    p = _add_command(commands, "train-toy", "overfit the desk model on synthetic scenes")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--variant", choices=("desk", "b1", "b2"), default=None)
    p.add_argument("--no-attention", dest="attention", action="store_false", default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--n-images", type=int, default=None)

    p = _add_command(commands, "infer", "run a checkpoint on one image")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--image", default=None, help="PPM image path")
    p.add_argument("--calib", default=None, help="calib file path")
    p.add_argument("--k", type=int, default=None, help="peaks decoded per image")
    p.add_argument("--score-threshold", type=float, default=None)
    p.add_argument("--no-overlay", dest="overlay", action="store_false", default=None)

    p = _add_command(commands, "eval", "AP evaluation of a prediction directory")
    p.add_argument("--pred", dest="pred_dir", default=None, help="prediction directory")
    p.add_argument("--gt", dest="gt_dir", default=None, help="ground-truth label directory")
    p.add_argument("--calib-dir", default=None)
    p.add_argument("--thresholds", choices=("official", "relaxed", "both"), default=None)

    p = _add_command(commands, "synth", "generate a synthetic scene corpus")
    p.add_argument("--n-images", type=int, default=None)
    p.add_argument("--n-objects", type=int, default=None)
    return parser


def resolve_from_args(args):
    """Flags beat --set, which beats --config; every flag's dest is its config key."""
    overrides = _parse_set(args.set)
    for key, value in vars(args).items():
        if key not in ("command", "config", "set") and value is not None:
            overrides[key] = value
    file_cfg = load_config_file(args.config) if args.config else None
    return _resolve(args.command, file_cfg=file_cfg, overrides=overrides)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_from_args(args)
        code = _COMMANDS[args.command](**cfg)
        echo_config({"command": args.command, **cfg}, cfg["out_dir"])
        return code
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ParseError, NumericError, DimensionError, DegenerateGeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Run configuration: a flat JSON object with layered overrides.

Precedence, lowest to highest: built-in defaults, then a config file,
then explicit overrides (CLI flags). The fully resolved configuration is
echoed as JSON into the run's output directory so every run is
reproducible from its artifacts. The toy-training profile scales the
full-size optimizer settings down to the synthetic desk regime.
"""

import json

from .errors import ConfigError

# full-size training defaults (KITTI regime); toy runs override via TOY_PROFILE
DEFAULTS = {
    "command": "",
    "out_dir": "out",
    "checkpoint": "",
    "image": "",
    "calib": "",
    "pred_dir": "",
    "gt_dir": "",
    "calib_dir": "",
    "variant": "desk",
    "attention": True,
    "lr": 1.25e-3,
    "decay_epochs": [90, 120],
    "decay": 0.1,
    "warmup_epochs": 5,
    "batch_size": 12,
    "epochs": 140,
    "htl_ramp": 20,
    "n_images": 8,
    "image_width": 96,
    "image_height": 64,
    "n_objects": 2,
    "z_min": 4.5,
    "z_max": 8.0,
    "focal": 120.0,
    "thresholds": "both",
    "k": 20,
    "score_threshold": 0.1,
    "seed": 0,
    "data_seed": 7,
    "overlay": True,
    "fault_op": "",
    "gradcheck_seeds": 20,
    "pipeline": True,
}

# scaled-down optimizer settings for overfitting 8 synthetic scenes on a CPU
TOY_PROFILE = {
    "lr": 2.5e-4,
    "decay_epochs": [150, 180],
    "epochs": 200,
}

_THRESHOLD_CHOICES = ("official", "relaxed", "both")


def _check_value(key, value):
    if key not in DEFAULTS:
        raise ConfigError(f"unknown config key {key!r}")
    default = DEFAULTS[key]
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} wants a boolean, got {value!r}")
        return value
    if isinstance(default, (int, float)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key!r} wants a number, got {value!r}")
        if isinstance(default, int):
            if not float(value).is_integer():
                raise ConfigError(f"config key {key!r} wants an integer, got {value!r}")
            return int(value)
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"config key {key!r} wants a string, got {value!r}")
        return value
    if isinstance(default, list):
        if not isinstance(value, list) or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value):
            raise ConfigError(f"config key {key!r} wants a list of numbers, got {value!r}")
        if not all(float(v).is_integer() for v in value):
            raise ConfigError(f"config key {key!r} wants a list of integers, got {value!r}")
        return [int(v) for v in value]
    raise ConfigError(f"config key {key!r} has unsupported default type")


def load_config_file(path):
    """Parse one flat JSON object of known keys."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a single JSON object")
    return {key: _check_value(key, value) for key, value in raw.items()}


def resolve_config(file_cfg=None, overrides=None, profile=None):
    """defaults <- profile <- file <- overrides; validates every layer."""
    cfg = dict(DEFAULTS)
    for layer in (profile, file_cfg, overrides):
        if not layer:
            continue
        for key, value in layer.items():
            cfg[key] = _check_value(key, value)
    if cfg["thresholds"] not in _THRESHOLD_CHOICES:
        raise ConfigError(
            f"thresholds must be one of {_THRESHOLD_CHOICES}, got {cfg['thresholds']!r}"
        )
    if cfg["z_min"] <= 0 or cfg["z_max"] <= cfg["z_min"]:
        raise ConfigError(f"bad depth range [{cfg['z_min']}, {cfg['z_max']}]")
    for key in ("lr", "decay", "focal"):
        if cfg[key] <= 0:
            raise ConfigError(f"config key {key!r} must be positive, got {cfg[key]}")
    for key in ("batch_size", "epochs", "n_images", "image_width", "image_height", "k"):
        if cfg[key] < 1:
            raise ConfigError(f"config key {key!r} must be >= 1, got {cfg[key]}")
    return cfg


def echo_config(cfg, out_dir):
    """Write the resolved config as sorted JSON into the output directory."""
    path = f"{out_dir}/config.json"
    with open(path, "w", encoding="ascii") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path

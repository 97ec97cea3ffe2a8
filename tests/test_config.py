"""Config layering: defaults <- profile <- file <- overrides, strict keys."""

import json
import os

import pytest

from mono3d.config import DEFAULTS, TOY_PROFILE, echo_config, load_config_file, resolve_config
from mono3d.errors import ConfigError


def test_defaults_resolve_unchanged():
    cfg = resolve_config()
    assert cfg == DEFAULTS
    assert cfg is not DEFAULTS  # caller gets a private copy


def test_full_scale_training_defaults_pinned():
    cfg = resolve_config()
    assert cfg["lr"] == 1.25e-3
    assert cfg["decay_epochs"] == [90, 120]
    assert cfg["decay"] == 0.1
    assert cfg["warmup_epochs"] == 5
    assert cfg["batch_size"] == 12
    assert cfg["epochs"] == 140


def test_toy_profile_scales_optimizer_down():
    cfg = resolve_config(profile=TOY_PROFILE)
    assert cfg["lr"] == 2.5e-4
    assert cfg["epochs"] == 200
    assert cfg["decay_epochs"] == [150, 180]
    # everything else untouched
    assert cfg["batch_size"] == DEFAULTS["batch_size"]
    assert cfg["warmup_epochs"] == DEFAULTS["warmup_epochs"]


def test_precedence_profile_file_overrides():
    cfg = resolve_config(
        file_cfg={"lr": 3e-4, "epochs": 50},
        overrides={"lr": 7e-4},
        profile=TOY_PROFILE,
    )
    assert cfg["lr"] == 7e-4  # flag beats file
    assert cfg["epochs"] == 50  # file beats profile
    assert cfg["decay_epochs"] == [150, 180]  # profile beats defaults


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        resolve_config(overrides={"learning_rate": 1e-3})


@pytest.mark.parametrize(
    "key,value,want",
    [
        ("lr", "fast", "number"),
        ("epochs", 2.5, "integer"),
        ("epochs", "140", "number"),
        ("attention", 1, "boolean"),
        ("variant", 5, "string"),
        ("decay_epochs", "90,120", "list"),
        ("decay_epochs", [90, True], "list"),
        ("decay_epochs", [90.7, 120.2], "integer"),
    ],
)
def test_type_mismatch_rejected(key, value, want):
    with pytest.raises(ConfigError, match=want):
        resolve_config(overrides={key: value})


def test_integral_float_narrows_to_int():
    cfg = resolve_config(overrides={"epochs": 3.0})
    assert cfg["epochs"] == 3 and isinstance(cfg["epochs"], int)


@pytest.mark.parametrize(
    "overrides",
    [
        {"thresholds": "strict"},
        {"z_min": -1.0},
        {"z_min": 8.0, "z_max": 4.0},
        {"lr": 0.0},
        {"decay": -0.1},
        {"batch_size": 0},
        {"k": 0},
    ],
)
def test_semantic_validation(overrides):
    with pytest.raises(ConfigError):
        resolve_config(overrides=overrides)


def test_load_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"n_images": 4, "focal": 150.0}))
    assert load_config_file(str(path)) == {"n_images": 4, "focal": 150.0}


def test_load_config_file_rejects_bad_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config_file(str(path))


def test_load_config_file_rejects_non_object(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="single JSON object"):
        load_config_file(str(path))


def test_shipped_full_scale_config_validates():
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "kitti_full.json")
    cfg = resolve_config(file_cfg=load_config_file(path))
    assert cfg["variant"] == "b2"
    assert cfg["epochs"] == 140 and cfg["batch_size"] == 12
    assert cfg["lr"] == 1.25e-3 and cfg["decay_epochs"] == [90, 120]
    assert (cfg["image_width"], cfg["image_height"]) == (1280, 380)


def test_echo_config_writes_sorted_json(tmp_path):
    cfg = resolve_config(overrides={"command": "synth", "seed": 3})
    path = echo_config(cfg, str(tmp_path))
    text = open(path).read()
    assert json.loads(text) == cfg
    keys = [line.split('"')[1] for line in text.splitlines() if line.startswith('  "')]
    assert keys == sorted(keys)

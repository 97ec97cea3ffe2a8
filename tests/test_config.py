"""Config layering: defaults <- file <- overrides, strict keys."""

import json
import os

import pytest

from mono3d.cli import main
from mono3d.config import DEFAULTS, echo_config, load_config_file, resolve_config
from mono3d.errors import ConfigError


def test_defaults_resolve_unchanged():
    cfg = resolve_config()
    assert cfg == DEFAULTS
    assert cfg is not DEFAULTS  # caller gets a private copy


def test_toy_training_defaults_pinned():
    # the optimizer settings of train-toy, the one command that reads them
    cfg = resolve_config()
    assert cfg["lr"] == 2.5e-4
    assert cfg["decay_epochs"] == [150, 180]
    assert cfg["decay"] == 0.1
    assert cfg["warmup_epochs"] == 5
    assert cfg["batch_size"] == 12
    assert cfg["epochs"] == 200


def test_precedence_file_overrides():
    cfg = resolve_config(file_cfg={"lr": 3e-4, "epochs": 50}, overrides={"lr": 7e-4})
    assert cfg["lr"] == 7e-4  # flag beats file
    assert cfg["epochs"] == 50  # file beats defaults
    assert cfg["decay_epochs"] == [150, 180]  # defaults where neither sets it


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
        ("lr", float("nan"), "finite"),
        ("z_max", float("inf"), "finite"),
        ("decay", float("inf"), "finite"),
        ("focal", float("-inf"), "finite"),
        ("score_threshold", float("nan"), "finite"),
        ("epochs", float("inf"), "finite"),
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
        {"htl_ramp": 0},
        {"gradcheck_seeds": 0},
    ],
)
def test_semantic_validation(overrides):
    with pytest.raises(ConfigError):
        resolve_config(overrides=overrides)


@pytest.mark.parametrize(
    "key,value,want",
    [
        ("seed", -1, ">= 0"),
        ("data_seed", -1, ">= 0"),
        ("n_objects", -1, ">= 0"),
        ("warmup_epochs", -3, ">= 0"),
        ("score_threshold", -0.1, r"in \[0, 1\)"),
        ("score_threshold", 1.0, r"in \[0, 1\)"),
    ],
)
def test_range_check_names_the_key(key, value, want):
    with pytest.raises(ConfigError, match=f"config key {key!r} must .*{want}"):
        resolve_config(overrides={key: value})
    resolve_config(overrides={key: 0})  # the bound itself is allowed


@pytest.mark.parametrize(
    "argv,key",
    [
        (["synth", "--set", "data_seed=-1"], "data_seed"),
        (["synth", "--n-objects", "-1"], "n_objects"),
        (["gradcheck", "--seed", "-1"], "seed"),
        (["train-toy", "--set", "warmup_epochs=-3"], "warmup_epochs"),
        # refused before the (missing) checkpoint and image are read
        (["infer", "--checkpoint", "no.ckpt", "--image", "no.ppm", "--calib", "no.txt",
          "--score-threshold", "1.5"], "score_threshold"),
    ],
)
def test_out_of_range_key_exits_2_before_any_work(argv, key, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"config key {key!r} must" in capsys.readouterr().err
    assert not out.exists()


def test_load_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"n_images": 4, "focal": 150.0}))
    assert load_config_file(str(path)) == {"n_images": 4, "focal": 150.0}


def test_load_config_file_rejects_bad_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config_file(str(path))
    # Python's json reads NaN and Infinity; a config value must be finite
    path.write_text('{"lr": NaN, "z_max": Infinity}')
    with pytest.raises(ConfigError, match="finite"):
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


def test_keys_restrict_resolution_and_overrides():
    keys = ("out_dir", "z_min", "z_max", "lr")
    cfg = resolve_config(file_cfg={"lr": 3e-4, "k": 5}, keys=keys)
    assert cfg == {"out_dir": "out", "z_min": 4.5, "z_max": 8.0, "lr": 3e-4}
    with pytest.raises(ConfigError, match="synth does not read config key 'k'"):
        resolve_config(overrides={"k": 5}, keys=keys, command="synth")
    with pytest.raises(ConfigError, match="unknown config key"):  # unknown before unread
        resolve_config(overrides={"bogus": 1}, keys=keys)
    with pytest.raises(ConfigError, match="wants a number"):  # file keys are still type-checked
        resolve_config(file_cfg={"k": "five"}, keys=keys)
    # a file key outside `keys` is neither applied nor range-checked
    assert resolve_config(file_cfg={"z_min": -1.0, "k": 0}, keys=("lr",)) == {"lr": 2.5e-4}


def test_echo_config_writes_sorted_json(tmp_path):
    cfg = {"command": "synth", **resolve_config(overrides={"seed": 3})}
    path = echo_config(cfg, str(tmp_path))
    text = open(path).read()
    assert json.loads(text) == cfg
    keys = [line.split('"')[1] for line in text.splitlines() if line.startswith('  "')]
    assert keys == sorted(keys)

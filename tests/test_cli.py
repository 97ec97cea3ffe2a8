"""End-to-end CLI runs through main() with argv lists; exit codes 0/1/2."""

import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mono3d.cli import (
    _CLASS_COLORS,
    _COMMANDS,
    build_parser,
    draw_wireframe,
    main,
    render_overlay,
    resolve_from_args,
)
from mono3d.config import DEFAULTS
from mono3d.geometry import box3d_corners
from mono3d.heads import Detections3D
from mono3d.kitti import CameraCalib

KITTI_FULL = os.path.join(os.path.dirname(__file__), "..", "configs", "kitti_full.json")


def _read(path):
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _listdir(path):
    return sorted(os.listdir(path))


def _keys_read(command):
    return set(inspect.signature(_COMMANDS[command]).parameters)


def _echoed(out, command):
    """config.json of a run, checked to hold `command` plus the command's keys."""
    cfg = json.loads(_read(out / "config.json"))
    assert cfg["command"] == command
    assert set(cfg) == {"command"} | _keys_read(command)
    return cfg


# -- argument parsing ---------------------------------------------------------


def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--bogus"])
    assert exc.value.code == 2


def test_bad_variant_choice_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train-toy", "--variant", "b7"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--seed", "5"],
        ["synth", "--variant", "b2"],
        ["gradcheck", "--variant", "desk"],
        ["eval", "--seed", "1"],
        ["eval", "--k", "3"],
        ["train-toy", "--thresholds", "both"],
        ["train-toy", "--k", "3"],
        ["infer", "--thresholds", "official"],
        ["infer", "--variant", "b2"],
        ["infer", "--seed", "1"],
        ["infer", "--no-attention"],
    ],
)
def test_flag_the_subcommand_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_set_without_equals_exits_2(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "o"), "--set", "lr"]) == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_set_unknown_key_exits_2(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "o"), "--set", "bogus=1"]) == 2
    assert "unknown config key" in capsys.readouterr().err
    # a known key given a non-finite number is refused before any work
    out = tmp_path / "t"
    assert main(["train-toy", "--set", "z_max=Infinity", "--out", str(out)]) == 2
    assert "wants a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,key",
    [
        (["synth", "--set", "seed=5"], "seed"),
        (["synth", "--set", "variant=b2"], "variant"),
        (["eval", "--set", "lr=5"], "lr"),
        (["eval", "--set", "z_min=-1"], "z_min"),  # named before any range check
        (["infer", "--set", "epochs=3"], "epochs"),
        (["infer", "--set", "variant=b2"], "variant"),
    ],
)
def test_set_key_the_command_does_not_read_exits_2(argv, key, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"{argv[0]} does not read config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_every_config_key_is_read_by_some_command():
    read = set().union(*(_keys_read(command) for command in _COMMANDS))
    assert read == set(DEFAULTS)


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_help_lists_the_keys_the_command_reads(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    listed = text.split("config keys (default): ")[1]
    assert {item.split("=")[0] for item in listed.split(", ") if "=" in item} == _keys_read(command)


@pytest.mark.parametrize("command", ["train-toy", "infer", "eval"])
def test_shared_config_file_resolves_to_the_command_keys(command):
    cfg = resolve_from_args(build_parser().parse_args([command, "--config", KITTI_FULL]))
    assert set(cfg) == _keys_read(command)
    with open(KITTI_FULL, "r", encoding="ascii") as fh:
        shared = json.load(fh)
    for key in set(shared) & set(cfg):
        assert cfg[key] == shared[key]


def test_missing_config_file_exits_2(tmp_path):
    assert main(["synth", "--config", str(tmp_path / "none.json")]) == 2


def test_invalid_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "not valid JSON" in capsys.readouterr().err


# -- synth --------------------------------------------------------------------


def test_synth_writes_corpus(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["synth", "--out", str(out), "--n-images", "3", "--n-objects", "1"]) == 0
    assert _listdir(out / "images") == ["000000.ppm", "000001.ppm", "000002.ppm"]
    assert _listdir(out / "labels") == ["000000.txt", "000001.txt", "000002.txt"]
    assert _listdir(out / "calibs") == ["000000.txt", "000001.txt", "000002.txt"]
    assert _read(out / "split.txt").split() == ["000000", "000001", "000002"]
    cfg = _echoed(out, "synth")
    assert cfg["n_images"] == 3 and cfg["n_objects"] == 1
    assert "wrote 3 scenes" in capsys.readouterr().out


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--out", str(a), "--n-images", "2"]) == 0
    assert main(["synth", "--out", str(b), "--n-images", "2"]) == 0
    for rel in ("images/000001.ppm", "labels/000001.txt", "calibs/000001.txt"):
        assert _read_bytes(a / rel) == _read_bytes(b / rel)


def test_config_file_then_flag_precedence(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"n_images": 2, "n_objects": 1}))
    out = tmp_path / "o"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out), "--n-images", "3"]) == 0
    assert len(_listdir(out / "images")) == 3  # flag beats file
    echoed = json.loads(_read(out / "config.json"))
    assert echoed["n_images"] == 3 and echoed["n_objects"] == 1  # file beats default


# -- eval ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("eval") / "corpus"
    assert main(["synth", "--out", str(out), "--n-images", "3"]) == 0
    return out


def _copy_labels_as_predictions(corpus, pred_dir, score=" 1.0"):
    os.makedirs(pred_dir, exist_ok=True)
    for name in _listdir(corpus / "labels"):
        lines = _read(corpus / "labels" / name).splitlines()
        text = "".join(line + score + "\n" for line in lines)
        with open(os.path.join(pred_dir, name), "w", encoding="ascii") as fh:
            fh.write(text)


def test_eval_missing_dirs_exit_2(tmp_path, capsys):
    assert main(["eval", "--out", str(tmp_path / "o")]) == 2
    assert "--pred" in capsys.readouterr().err


def test_eval_ground_truth_as_predictions_is_perfect(corpus, tmp_path, capsys):
    pred = tmp_path / "pred"
    _copy_labels_as_predictions(corpus, pred)
    out = tmp_path / "report"
    code = main(
        [
            "eval",
            "--pred", str(pred),
            "--gt", str(corpus / "labels"),
            "--calib-dir", str(corpus / "calibs"),
            "--out", str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert _read(out / "eval_report.txt") == text
    records = [json.loads(line) for line in _read(out / "eval_records.jsonl").splitlines()]
    assert {rec["thresholds"] for rec in records} == {"official", "relaxed"}
    defined = [rec for rec in records if rec["n_gt"] > 0]
    assert defined and all(rec["ap"] == 100.0 for rec in defined)
    assert _echoed(out, "eval")["calib_dir"] == str(corpus / "calibs")


def test_eval_threshold_flag_narrows_report(corpus, tmp_path):
    pred = tmp_path / "pred"
    _copy_labels_as_predictions(corpus, pred)
    out = tmp_path / "report"
    code = main(
        [
            "eval",
            "--pred", str(pred),
            "--gt", str(corpus / "labels"),
            "--thresholds", "official",
            "--out", str(out),
        ]
    )
    assert code == 0
    records = [json.loads(line) for line in _read(out / "eval_records.jsonl").splitlines()]
    assert {rec["thresholds"] for rec in records} == {"official"}


def test_eval_itemizes_missing_prediction_file(corpus, tmp_path, capsys):
    pred = tmp_path / "pred"
    _copy_labels_as_predictions(corpus, pred)
    os.remove(pred / "000001.txt")
    code = main(
        ["eval", "--pred", str(pred), "--gt", str(corpus / "labels"), "--out", str(tmp_path / "o")]
    )
    assert code == 0  # itemized, not fatal
    err = capsys.readouterr().err
    assert "1 file errors" in err and "000001" in err and "missing prediction file" in err


def test_eval_itemizes_scoreless_prediction_file(corpus, tmp_path, capsys):
    pred = tmp_path / "pred"
    _copy_labels_as_predictions(corpus, pred)
    _copy_labels_as_predictions(corpus, pred)  # rewrite, then strip one file's scores
    with open(pred / "000000.txt", "w", encoding="ascii") as fh:
        fh.write(_read(corpus / "labels" / "000000.txt"))
    code = main(
        ["eval", "--pred", str(pred), "--gt", str(corpus / "labels"), "--out", str(tmp_path / "o")]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "without a score field" in err and "000000" in err


# -- train-toy and infer ------------------------------------------------------


TRAIN_ARGS = ["train-toy", "--epochs", "2", "--n-images", "2", "--seed", "0"]


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy") / "run"
    assert main(TRAIN_ARGS + ["--out", str(out)]) == 0
    return out


def test_train_toy_writes_artifacts(toy_run):
    names = _listdir(toy_run)
    for expect in ("calibs", "config.json", "images", "labels", "loss.csv", "model.ckpt", "model.ckpt.json", "split.txt"):
        assert expect in names
    rows = _read(toy_run / "loss.csv").splitlines()
    assert len(rows) == 3  # header + one row per epoch
    assert rows[0].startswith("epoch,heatmap,") and rows[0].count(",") == 18


def test_train_toy_applies_flags_over_defaults(toy_run):
    cfg = _echoed(toy_run, "train-toy")
    assert cfg["epochs"] == 2  # flag beats default
    assert cfg["lr"] == 2.5e-4  # the default
    assert cfg["decay_epochs"] == [150, 180]


def test_train_toy_deterministic(toy_run, tmp_path):
    out = tmp_path / "again"
    assert main(TRAIN_ARGS + ["--out", str(out)]) == 0
    assert _read(out / "loss.csv") == _read(toy_run / "loss.csv")
    assert _read_bytes(out / "model.ckpt") == _read_bytes(toy_run / "model.ckpt")


def test_train_toy_from_shared_config_echoes_only_its_keys(tmp_path):
    out = tmp_path / "run"
    code = main(
        ["train-toy", "--config", KITTI_FULL, "--variant", "desk", "--epochs", "1",
         "--n-images", "1", "--batch-size", "1", "--set", "image_width=96",
         "--set", "image_height=64", "--out", str(out)]
    )
    assert code == 0
    cfg = _echoed(out, "train-toy")
    assert "thresholds" not in cfg and "k" not in cfg and "score_threshold" not in cfg
    assert cfg["htl_ramp"] == 20 and cfg["decay_epochs"] == [90, 120]  # file beats defaults


def test_infer_missing_flags_exit_2(tmp_path, capsys):
    assert main(["infer", "--out", str(tmp_path / "o")]) == 2
    assert "--checkpoint" in capsys.readouterr().err


def test_infer_missing_checkpoint_file_exits_2(toy_run, tmp_path):
    code = main(
        [
            "infer",
            "--checkpoint", str(tmp_path / "none.ckpt"),
            "--image", str(toy_run / "images" / "000000.ppm"),
            "--calib", str(toy_run / "calibs" / "000000.txt"),
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 2
    assert not (tmp_path / "o").exists()


def test_infer_writes_predictions_and_overlay(toy_run, tmp_path, capsys):
    out = tmp_path / "inf"
    code = main(
        [
            "infer",
            "--checkpoint", str(toy_run / "model.ckpt"),
            "--image", str(toy_run / "images" / "000000.ppm"),
            "--calib", str(toy_run / "calibs" / "000000.txt"),
            "--score-threshold", "0.0",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert os.path.exists(out / "predictions" / "000000.txt")
    assert os.path.exists(out / "000000_overlay.ppm")
    assert _echoed(out, "infer")["score_threshold"] == 0.0
    assert "detections ->" in capsys.readouterr().out


def test_infer_counters_match_the_dropped_line(toy_run, tmp_path, capsys):
    out = tmp_path / "inf"
    code = main(
        [
            "infer",
            "--checkpoint", str(toy_run / "model.ckpt"),
            "--image", str(toy_run / "images" / "000000.ppm"),
            "--calib", str(toy_run / "calibs" / "000000.txt"),
            "--score-threshold", "0.0",
            "--no-overlay",
            "--out", str(out),
        ]
    )
    assert code == 0
    (line,) = [s for s in capsys.readouterr().out.splitlines() if s.startswith("dropped: ")]
    counters = json.loads(_read(out / "counters.json"))
    assert set(counters) == {"infer_drops", "write_predictions_drops"}
    merged = {**counters["infer_drops"], **counters["write_predictions_drops"]}
    assert line == f"dropped: {dict(sorted(merged.items()))}"
    assert sum(merged.values()) > 0


def test_train_toy_and_eval_write_counters(toy_run, tmp_path):
    assert json.loads(_read(toy_run / "counters.json")) == {"targets_skipped": {}}
    labels = toy_run / "labels"
    pred = tmp_path / "pred"
    pred.mkdir()  # no prediction files: one file error per image
    out = tmp_path / "ev"
    assert main(["eval", "--pred", str(pred), "--gt", str(labels), "--out", str(out)]) == 0
    assert json.loads(_read(out / "counters.json")) == {"file_errors": len(_listdir(labels))}


def test_render_overlay_draws_only_boxes_in_front_of_the_camera():
    calib = CameraCalib(np.array([[70.0, 0, 48, 0], [0, 70.0, 32, 0], [0, 0, 1, 0]]))
    image = np.zeros((64, 96, 3), dtype=np.uint8)

    # a corner of the near box (class 0) crosses z=0 (l=3.9); the front box is class 1
    near, front = (0.0, 1.5, 1.0, 1.5, 1.6, 3.9, 0.3), (-1.0, 1.5, 12.0, 1.5, 1.6, 3.9, 0.3)
    rows = np.array([near, front, near])
    dets = Detections3D(np.array([0, 1, 0]), np.full(3, 0.5), rows, np.full(3, 0.1))
    got = render_overlay(image, dets, calib)
    want = image.copy()
    pix, _ = calib.project(box3d_corners(front))
    draw_wireframe(want, pix, _CLASS_COLORS[1])
    assert want.any() and np.array_equal(got, want)
    assert not image.any()
    assert np.array_equal(render_overlay(image, Detections3D.empty(), calib), image)


def test_infer_no_overlay_skips_render(toy_run, tmp_path):
    out = tmp_path / "inf"
    code = main(
        [
            "infer",
            "--checkpoint", str(toy_run / "model.ckpt"),
            "--image", str(toy_run / "images" / "000000.ppm"),
            "--calib", str(toy_run / "calibs" / "000000.txt"),
            "--no-overlay",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert os.path.exists(out / "predictions" / "000000.txt")
    assert not os.path.exists(out / "000000_overlay.ppm")


def test_infer_builds_the_model_the_checkpoint_describes(tmp_path):
    # an attention-free checkpoint runs with no model flag: the manifest
    # defines the model
    run = tmp_path / "ablated"
    assert main(TRAIN_ARGS + ["--epochs", "1", "--no-attention", "--out", str(run)]) == 0
    assert json.loads(_read(run / "model.ckpt.json"))["use_attention"] is False
    out = tmp_path / "inf"
    code = main(
        [
            "infer",
            "--checkpoint", str(run / "model.ckpt"),
            "--image", str(run / "images" / "000000.ppm"),
            "--calib", str(run / "calibs" / "000000.txt"),
            "--no-overlay",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert os.path.exists(out / "predictions" / "000000.txt")
    _echoed(out, "infer")


# -- gradcheck ----------------------------------------------------------------


def test_gradcheck_quick_suite_passes(tmp_path, capsys):
    out = tmp_path / "gc"
    assert main(["gradcheck", "--seeds", "1", "--no-pipeline", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert _read(out / "gradcheck.txt") == text
    assert "all components passed" in text
    cfg = _echoed(out, "gradcheck")
    assert cfg["gradcheck_seeds"] == 1 and cfg["pipeline"] is False


def test_gradcheck_fault_injection_fails_and_names_op(tmp_path, capsys):
    out = tmp_path / "gc"
    code = main(
        ["gradcheck", "--seeds", "1", "--no-pipeline", "--inject-fault", "relu", "--out", str(out)]
    )
    assert code == 1
    text = capsys.readouterr().out
    assert "FAILING:" in text and "relu" in text.split("FAILING:")[1]


@pytest.mark.parametrize(
    "op, code",
    [("linear", 1), ("attention", 1), ("conv2d", 1), ("conv3x3_nhwc", 2), ("matmul", 2), ("attentoin", 2)],
)
def test_gradcheck_fault_injection_exit_codes(tmp_path, capsys, op, code):
    # the fused ops' rules are caught; a name that no op records is a bad
    # invocation, not a vacuous pass
    out = tmp_path / "gc"
    args = ["gradcheck", "--seeds", "1", "--no-pipeline", "--inject-fault", op, "--out", str(out)]
    assert main(args) == code
    captured = capsys.readouterr()
    if code == 1:
        assert op in captured.out.split("FAILING:")[1]
    else:
        assert "known ops:" in captured.err and "attention" in captured.err


def test_cli_runs_on_pure_numpy_backend(tmp_path):
    # the only test that runs the `python -m mono3d.cli` entry point in a subprocess
    proc = subprocess.run(
        [sys.executable, "-m", "mono3d.cli", "gradcheck", "--seeds", "1", "--no-pipeline",
         "--out", str(tmp_path / "gc")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all components passed" in proc.stdout

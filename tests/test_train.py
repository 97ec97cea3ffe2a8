import math

import numpy as np
import pytest

from mono3d import tensor as T
from mono3d.backbone import BackboneConfig, StageConfig
from mono3d.errors import NumericError, UsageError
from mono3d.losses import LOSS_TERMS
from mono3d.model import Detector
from mono3d.tensor import Tensor
from mono3d.train import CSV_HEADER, Adam, build_synth_dataset, lr_factor, train_detector

import oracles


def _tiny_detector(seed=0):
    stages = tuple(
        StageConfig(dim=d, depth=1, num_heads=h, sr_ratio=sr, mlp_ratio=1)
        for d, h, sr in zip((4, 8, 12, 16), (1, 2, 3, 4), (8, 4, 2, 1))
    )
    return Detector(BackboneConfig(name="tiny", stages=stages, use_attention=True), seed=seed)


@pytest.fixture(scope="module")
def toy_data():
    return build_synth_dataset(2, (96, 64), seed=7, n_objects=2, z_range=(4.5, 8.0), focal=120.0)


def test_lr_factor_warmup_and_decay():
    assert lr_factor(0) == pytest.approx(0.5 * (1.0 - math.cos(math.pi / 5.0)))
    assert lr_factor(4) == pytest.approx(1.0)
    assert lr_factor(89) == 1.0
    assert lr_factor(90) == pytest.approx(0.1)
    assert lr_factor(120) == pytest.approx(0.01)
    assert lr_factor(0, warmup_epochs=0) == 1.0
    with pytest.raises(UsageError):
        lr_factor(-1)


def test_lr_factor_monotone_through_warmup():
    factors = [lr_factor(e) for e in range(5)]
    assert all(b > a for a, b in zip(factors, factors[1:]))


def test_adam_minimizes_quadratic():
    x = Tensor(np.array([5.0, -2.0]), requires_grad=True)
    opt = Adam([x], lr=0.1)
    for _ in range(200):
        loss = T.sum_((x - np.array([3.0, 1.0])) ** 2.0)
        x.grad = None
        T.backward(loss)
        opt.step()
    assert np.allclose(x.data, [3.0, 1.0], atol=1e-3)


def test_adam_skips_gradless_params():
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = Tensor(np.array([4.0]), requires_grad=True)
    opt = Adam([x, y], lr=0.5)
    loss = T.sum_(x * x)
    T.backward(loss)
    opt.step()
    assert y.grad is None and y.data[0] == 4.0
    assert x.data[0] != 1.0
    with pytest.raises(UsageError):
        Adam([x], lr=0.0)


def test_build_synth_dataset_deterministic():
    a = build_synth_dataset(3, (64, 64), seed=5, n_objects=1, z_range=(5.0, 9.0), focal=100.0)
    b = build_synth_dataset(3, (64, 64), seed=5, n_objects=1, z_range=(5.0, 9.0), focal=100.0)
    assert len(a) == 3
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.image.data, sb.image.data)
        assert sa.labels == sb.labels
    with pytest.raises(UsageError):
        build_synth_dataset(0, (64, 64))


def test_train_detector_runs_and_logs(toy_data, tmp_path):
    det = _tiny_detector()
    csv_path = tmp_path / "loss.csv"
    result = train_detector(det, toy_data, epochs=3, batch_size=12, lr=1e-4, seed=1, csv_path=csv_path)
    assert set(result.history) == set(LOSS_TERMS)
    assert all(len(v) == 3 for v in result.history.values())
    lines = result.csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    for line in lines[1:]:
        assert len(line.split(",")) == 19
    first = lines[1].split(",")
    assert first[0] == "0"
    assert [float(v) for v in first[10:]] == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert csv_path.read_text(encoding="ascii") == result.csv_text
    assert result.final_weights.values[0] == 1.0


def test_train_detector_deterministic(toy_data):
    res_a = train_detector(_tiny_detector(), toy_data, epochs=3, batch_size=2, lr=1e-4, seed=3)
    res_b = train_detector(_tiny_detector(), toy_data, epochs=3, batch_size=2, lr=1e-4, seed=3)
    assert res_a.csv_text == res_b.csv_text


def test_train_detector_frees_each_batch_graph(toy_data):
    live = []
    train_detector(
        _tiny_detector(), toy_data, epochs=2, batch_size=1, lr=1e-4,
        progress=lambda epoch, history, weights: live.append(oracles.live_graph_nodes()),
    )
    assert live == [0, 0]


def test_train_detector_validation(toy_data):
    det = _tiny_detector()
    with pytest.raises(UsageError):
        train_detector(det, [], epochs=1)
    with pytest.raises(UsageError):
        train_detector(det, toy_data, epochs=0)
    with pytest.raises(UsageError):
        train_detector(det, toy_data, epochs=1, batch_size=0)


def test_train_detector_aborts_on_nonfinite_term(toy_data, monkeypatch):
    det = _tiny_detector()

    def bad_terms(images, targets, calibs):
        terms = {name: Tensor(np.ones(())) for name in LOSS_TERMS}
        terms["depth"] = Tensor(np.array(np.inf))
        return terms

    monkeypatch.setattr(det, "loss_terms", bad_terms)
    with pytest.raises(NumericError, match="depth"):
        train_detector(det, toy_data, epochs=1, seed=0)

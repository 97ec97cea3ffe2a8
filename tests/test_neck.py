import numpy as np
import pytest

from mono3d import tensor as T
from mono3d.backbone import Backbone, backbone_config
from mono3d.errors import ConfigError, DimensionError, UsageError
from mono3d.neck import ChannelNorm, Neck
from mono3d.tensor import Tensor

DESK_CH = (16, 32, 64, 128)


def _map(rng, n, c, h, w):
    """A channels-last map [n, h, w, c] of the normals drawn as [n, c, h, w]."""
    return Tensor(rng.normal(size=(n, c, h, w)).transpose(0, 2, 3, 1).copy())


def _pyramid(rng, n=1, h=16, w=32):
    shapes = [(h, w), (h // 2, w // 2), (h // 4, w // 4), (h // 8, w // 8)]
    return [_map(rng, n, c, sh, sw) for c, (sh, sw) in zip(DESK_CH, shapes)]


def test_output_shape_stride4():
    rng = np.random.default_rng(0)
    neck = Neck(DESK_CH, np.random.default_rng(1))
    with T.no_grad():
        out = neck(_pyramid(rng))
    assert out.shape == (1, 16, 32, 64)


def test_output_shape_with_ceil_parity():
    # 64x128 image -> stride-4 map 16x32; odd-parity levels via ceil rule
    rng = np.random.default_rng(2)
    feats = [_map(rng, 1, c, h, w) for c, (h, w) in zip(DESK_CH, [(17, 33), (9, 17), (5, 9), (3, 5)])]
    neck = Neck(DESK_CH, np.random.default_rng(3))
    with T.no_grad():
        out = neck(feats)
    assert out.shape == (1, 17, 33, 64)


def test_all_zero_features_zero_output():
    # fresh init has all conv biases and norm betas at zero
    feats = [
        Tensor(np.zeros((2, h, w, c)))
        for c, (h, w) in zip(DESK_CH, [(8, 8), (4, 4), (2, 2), (1, 1)])
    ]
    neck = Neck(DESK_CH, np.random.default_rng(4))
    with T.no_grad():
        out = neck(feats)
    assert np.array_equal(out.data, np.zeros((2, 8, 8, 64)))


def test_zeroed_deep_levels_reduce_to_level1_path():
    # with f2..f4 zero the deep path contributes exactly zero, so the output
    # must equal fuse1(proj1(f1)) computed directly from the same submodules
    rng = np.random.default_rng(5)
    neck = Neck(DESK_CH, np.random.default_rng(6))
    f1 = _map(rng, 1, 16, 8, 8)
    feats = [
        f1,
        Tensor(np.zeros((1, 4, 4, 32))),
        Tensor(np.zeros((1, 2, 2, 64))),
        Tensor(np.zeros((1, 1, 1, 128))),
    ]
    with T.no_grad():
        out = neck(feats)
        direct = T.relu(neck.fuses[0].conv(neck.projects[0](f1)))
    assert np.array_equal(out.data, direct.data)


def test_config_validation():
    with pytest.raises(ConfigError):
        Neck((16, 32, 64), np.random.default_rng(0))


def test_missing_level_rejected():
    rng = np.random.default_rng(13)
    neck = Neck(DESK_CH, np.random.default_rng(14))
    with pytest.raises(UsageError):
        neck(_pyramid(rng)[:3])


def test_non_halving_dims_rejected():
    rng = np.random.default_rng(15)
    neck = Neck(DESK_CH, np.random.default_rng(16))
    feats = _pyramid(rng)
    feats[2] = _map(rng, 1, 64, 5, 8)
    with pytest.raises(DimensionError):
        neck(feats)


def test_channel_norm_normalizes_per_pixel():
    rng = np.random.default_rng(17)
    cn = ChannelNorm(8)
    x = _map(rng, 2, 8, 3, 4)
    with T.no_grad():
        out = cn(x)
    assert np.max(np.abs(out.data.mean(axis=3))) < 1e-10


def test_neck_grad_check():
    rng = np.random.default_rng(18)
    neck = Neck((4, 8, 8, 8), np.random.default_rng(19), width=8)
    feats = [_map(rng, 1, c, h, w) for c, (h, w) in zip((4, 8, 8, 8), [(8, 8), (4, 4), (2, 2), (1, 1)])]
    probe = _map(np.random.default_rng(20), 1, 8, 8, 8)
    x = feats[0]
    x.requires_grad = True

    def f(t):
        return T.sum_(neck(feats) * probe)

    assert T.grad_check(f, x, max_entries=32, rng=np.random.default_rng(21)) < 1e-4

    w = neck.fuses[1].conv.weight
    assert T.grad_check(lambda t: T.sum_(neck(feats) * probe), w, max_entries=16,
                        rng=np.random.default_rng(22)) < 1e-4


def test_backbone_to_neck_end_to_end_shape():
    bb = Backbone(backbone_config("desk"), np.random.default_rng(23))
    neck = Neck(DESK_CH, np.random.default_rng(24))
    x = Tensor(np.random.default_rng(25).normal(size=(1, 3, 64, 128)))
    with T.no_grad():
        out = neck(bb(x))
    assert out.shape == (1, 16, 32, 64)

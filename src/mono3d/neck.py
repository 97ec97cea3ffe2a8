"""Iterative aggregation of the feature pyramid into one stride-4 map.

Each level is projected to a common width (1x1 conv, per-pixel channel
norm, ReLU). Starting from the deepest level, the running map is
bilinearly upsampled to the next shallower level's size, summed with it,
and fused by a 3x3 conv + ReLU. The fused map at the shallowest level,
`width` channels wide, is the neck's output. Maps are channels-last,
[N, h, w, C], as the backbone hands them on.
"""

from . import tensor as T
from .errors import ConfigError, DimensionError, UsageError
from .nn import Conv2d, LayerNorm, Module


class ChannelNorm(Module):
    """LayerNorm over the channel axis, applied independently per pixel.

    The channels are the last axis, so this is the LayerNorm itself; it
    sits under `norm` so that parameter names stay `...norm.norm.gamma`.
    """

    def __init__(self, ch):
        self.norm = LayerNorm(ch)

    def __call__(self, x):
        return self.norm(x)


class ProjectNode(Module):
    def __init__(self, in_ch, out_ch, rng):
        self.conv = Conv2d(in_ch, out_ch, 1, rng)
        self.norm = ChannelNorm(out_ch)

    def __call__(self, x):
        return T.relu(self.norm(self.conv(x)))


class FuseNode(Module):
    def __init__(self, ch, rng):
        self.conv = Conv2d(ch, ch, 3, rng, padding=1)

    def __call__(self, x):
        return T.relu(self.conv(x))


def _check_pyramid(features):
    if len(features) != 4:
        raise UsageError(f"neck expects 4 pyramid levels, got {len(features)}")
    for i in range(1, 4):
        ph, pw = features[i - 1].shape[1:3]
        ch, cw = features[i].shape[1:3]
        if ch != -(-ph // 2) or cw != -(-pw // 2):
            raise DimensionError(
                f"level {i} is {ch}x{cw}, expected ceil-half of {ph}x{pw}"
            )


class Neck(Module):
    """Four pyramid maps -> one [N, H/4, W/4, width] map."""

    def __init__(self, in_channels, rng, width=64):
        if len(in_channels) != 4:
            raise ConfigError("neck needs the four pyramid channel counts")
        self.width = width
        self.projects = [ProjectNode(c, width, rng) for c in in_channels]
        self.fuses = [FuseNode(width, rng) for _ in range(3)]

    def __call__(self, features):
        """IDA ladder, deepest to shallowest."""
        _check_pyramid(features)
        x = self.projects[3](features[3])
        for level in (2, 1, 0):
            p = self.projects[level](features[level])
            up = T.bilinear_resize(x, p.shape[1], p.shape[2])
            x = self.fuses[level](p + up)
        return x

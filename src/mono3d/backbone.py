"""Four-stage pyramid encoder with spatial-reduction attention.

Each stage overlap-embeds the previous map (7x7 stride 4 first, then
3x3 stride 2), runs pre-norm transformer blocks whose attention keys and
values come from a strided-conv downsampled token map, and ends with a
LayerNorm. Feed-forward layers carry a 3x3 depthwise conv, which (with
the overlapping patch embeds) injects positional information, so there
is no positional embedding. Stage outputs form a stride {4,8,16,32}
feature pyramid with ceil-division spatial dims.

Maps are channels-last, [N, h, w, C]: the image is transposed once, on
entry, and a stage's tokens [N, h*w, C] and its map are reshape views of
each other, so no layout copy sits between the tokens and the convs (the
patch embeds, the spatial reductions and the depthwise convs).

The attention sublayer can be disabled per config; blocks then reduce to
their residual feed-forward path and the network becomes purely
convolutional with a finite receptive field.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError
from .nn import Conv2d, LayerNorm, Linear, Module
from .tensor import Tensor

STRIDES = (4, 8, 16, 32)


@dataclass(frozen=True)
class StageConfig:
    dim: int
    depth: int
    num_heads: int
    sr_ratio: int
    mlp_ratio: int


@dataclass(frozen=True)
class BackboneConfig:
    name: str
    stages: tuple
    use_attention: bool = True


_VARIANT_TABLE = {
    # name: (dims, depths, heads, sr_ratios, mlp_ratios)
    "desk": ((16, 32, 64, 128), (1, 1, 1, 1), (1, 2, 4, 8), (8, 4, 2, 1), (2, 2, 2, 2)),
    "b1": ((64, 128, 320, 512), (2, 2, 2, 2), (1, 2, 5, 8), (8, 4, 2, 1), (8, 8, 4, 4)),
    "b2": ((64, 128, 320, 512), (3, 4, 6, 3), (1, 2, 5, 8), (8, 4, 2, 1), (8, 8, 4, 4)),
}


def backbone_config(name, use_attention=True):
    if name not in _VARIANT_TABLE:
        raise ConfigError(f"unknown backbone variant {name!r}; choose from {sorted(_VARIANT_TABLE)}")
    dims, depths, heads, srs, mlps = _VARIANT_TABLE[name]
    stages = tuple(
        StageConfig(dim=d, depth=dp, num_heads=h, sr_ratio=sr, mlp_ratio=mr)
        for d, dp, h, sr, mr in zip(dims, depths, heads, srs, mlps)
    )
    return BackboneConfig(name=name, stages=stages, use_attention=use_attention)


class PatchEmbed(Module):
    """Overlapping conv downsample to tokens. Output dims are ceil(in/stride)."""

    def __init__(self, in_ch, dim, kernel, stride, rng):
        self.proj = Conv2d(in_ch, dim, kernel, rng, stride=stride, padding=kernel // 2)
        self.norm = LayerNorm(dim)

    def __call__(self, x):
        x = self.proj(x)
        n, h, w, c = x.shape
        return self.norm(T.reshape(x, (n, h * w, c))), h, w


class SpatialReductionAttention(Module):
    """Multi-head attention; keys/values from an sr_ratio-strided conv of
    the tokens seen as a map.

    Keys and values are projected without bias: a key bias adds one
    constant to every logit of a query, which the softmax cancels. The
    value bias is added to the merged heads instead, since attention rows
    sum to 1: attn @ (v + b) == attn @ v + b.
    """

    def __init__(self, dim, num_heads, sr_ratio, rng):
        if dim % num_heads != 0:
            raise DimensionError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.num_heads = num_heads
        self.scale = (dim // num_heads) ** -0.5
        self.q = Linear(dim, dim, rng)
        self.kv = Linear(dim, 2 * dim, rng, bias=False)
        self.v_bias = Tensor(np.zeros(dim), requires_grad=True)
        self.proj = Linear(dim, dim, rng)
        self.sr_ratio = sr_ratio
        if sr_ratio > 1:
            self.sr = Conv2d(dim, dim, sr_ratio, rng, stride=sr_ratio)
            self.sr_norm = LayerNorm(dim)

    def __call__(self, x, h, w):
        q = self.q(x)
        src = x
        if self.sr_ratio > 1:
            n, _, c = x.shape
            src = self.sr_norm(T.reshape(self.sr(T.reshape(x, (n, h, w, c))), (n, -1, c)))
        out = T.attention(q, self.kv(src), self.num_heads, self.scale)
        return self.proj(out + self.v_bias)


class ConvFFN(Module):
    """Token MLP with a 3x3 depthwise conv between the two projections.

    The conv runs on fc1's tokens seen as [N, h, w, C], so GELU and fc2
    read contiguous arrays.
    """

    def __init__(self, dim, hidden, rng):
        self.fc1 = Linear(dim, hidden, rng)
        self.dw = Conv2d(hidden, hidden, 3, rng, padding=1, groups=hidden)
        self.fc2 = Linear(hidden, dim, rng)

    def __call__(self, x, h, w):
        x = self.fc1(x)
        n, t, c = x.shape
        x = self.dw(T.reshape(x, (n, h, w, c)))
        return self.fc2(T.gelu(T.reshape(x, (n, t, c))))


class EncoderBlock(Module):
    """Pre-norm residual block; attention sublayer is skipped when disabled."""

    def __init__(self, dim, num_heads, sr_ratio, mlp_ratio, rng, use_attention=True):
        self.use_attention = use_attention
        if use_attention:
            self.norm1 = LayerNorm(dim)
            self.attn = SpatialReductionAttention(dim, num_heads, sr_ratio, rng)
        self.norm2 = LayerNorm(dim)
        self.ffn = ConvFFN(dim, dim * mlp_ratio, rng)

    def __call__(self, x, h, w):
        if self.use_attention:
            x = x + self.attn(self.norm1(x), h, w)
        return x + self.ffn(self.norm2(x), h, w)


class Stage(Module):
    def __init__(self, in_ch, cfg, kernel, stride, rng, use_attention):
        self.embed = PatchEmbed(in_ch, cfg.dim, kernel, stride, rng)
        self.blocks = [
            EncoderBlock(cfg.dim, cfg.num_heads, cfg.sr_ratio, cfg.mlp_ratio, rng, use_attention)
            for _ in range(cfg.depth)
        ]
        self.norm = LayerNorm(cfg.dim)

    def __call__(self, x):
        """Map [N, H, W, C_in] -> map [N, h, w, dim], a view of the tokens."""
        tokens, h, w = self.embed(x)
        for block in self.blocks:
            tokens = block(tokens, h, w)
        n, _, c = tokens.shape
        return T.reshape(self.norm(tokens), (n, h, w, c))


class Backbone(Module):
    """Image [N, 3, H, W] -> four channels-last maps [N, h, w, C] at strides
    4/8/16/32 (ceil division)."""

    def __init__(self, config, rng, in_ch=3):
        self.config = config
        self.stage_list = []
        prev = in_ch
        for i, cfg in enumerate(config.stages):
            kernel, stride = (7, 4) if i == 0 else (3, 2)
            self.stage_list.append(Stage(prev, cfg, kernel, stride, rng, config.use_attention))
            prev = cfg.dim

    def __call__(self, x):
        if x.ndim != 4:
            raise DimensionError(f"backbone expects [N, C, H, W], got shape {x.shape}")
        if x.shape[2] < 32 or x.shape[3] < 32:
            raise DimensionError(f"input {x.shape[2]}x{x.shape[3]} is below the 32-pixel minimum")
        x = T.transpose(x, (0, 2, 3, 1))
        feats = []
        for stage in self.stage_list:
            x = stage(x)
            feats.append(x)
        return feats

"""Parameter containers and layers on top of the tensor engine.

Weight init follows the usual transformer recipe: truncated normal
(std 0.02, cut at 2 sigma) for linear projections, fan-out-scaled normal
for convolutions, ones/zeros for norm gamma/beta. All sampling goes
through an explicit numpy Generator so a fixed seed is bit-reproducible.
"""

import math

import numpy as np

from . import tensor as T
from .tensor import Tensor


def trunc_normal(rng, shape, std=0.02, bound=2.0):
    out = rng.standard_normal(shape)
    bad = np.abs(out) > bound
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > bound
    return out * std


class Module:
    """Minimal container: registers Tensor attributes as parameters."""

    def named_parameters(self, prefix=""):
        for name, val in vars(self).items():
            if isinstance(val, Tensor):
                yield prefix + name, val
            elif isinstance(val, Module):
                yield from val.named_parameters(f"{prefix}{name}.")
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{prefix}{name}.{i}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def num_parameters(self):
        return sum(p.size for p in self.parameters())

    def zero_grads(self):
        for p in self.parameters():
            p.grad = None


def _param(data):
    return Tensor(data, requires_grad=True)


class Linear(Module):
    def __init__(self, in_features, out_features, rng, bias=True):
        self.weight = _param(trunc_normal(rng, (in_features, out_features)))
        self.bias = _param(np.zeros(out_features)) if bias else None

    def __call__(self, x):
        return T.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """Channels-last conv, [N, h, w, C] -> [N, oh, ow, O], through T.conv2d;
    the weight keeps the [O, C/groups, k, k] layout."""

    def __init__(self, in_ch, out_ch, kernel_size, rng, stride=1, padding=0, groups=1, bias=True):
        fan_out = kernel_size * kernel_size * out_ch // groups
        std = math.sqrt(2.0 / fan_out)
        self.weight = _param(
            rng.standard_normal((out_ch, in_ch // groups, kernel_size, kernel_size)) * std
        )
        self.bias = _param(np.zeros(out_ch)) if bias else None
        self.stride = stride
        self.padding = padding
        self.groups = groups

    def __call__(self, x):
        return T.conv2d(x, self.weight, self.bias, self.stride, self.padding, self.groups)


class LayerNorm(Module):
    def __init__(self, dim, eps=1e-6):
        self.gamma = _param(np.ones(dim))
        self.beta = _param(np.zeros(dim))
        self.eps = eps

    def __call__(self, x):
        return T.layer_norm(x, self.gamma, self.beta, self.eps)


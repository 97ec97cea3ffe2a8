"""Finite-difference verification of every backward rule.

Each component builds a small seeded problem and compares reverse-mode
gradients against central differences via tensor.grad_check, reporting
its max relative error across seeds. Ops whose natural reduction is
blind to perturbations (attention rows sum to one, layer_norm kills shifts)
are probed through a fixed random projection instead of a raw sum, and
kinked ops (abs, relu, clip, L1) are sampled away from their kinks so
the two-sided difference stays on one linear piece. A component that
probes one op carries the name the op records (tensor.OP_NAMES), so a
fault injected into an op fails the component of that name.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import ConvFFN, EncoderBlock
from .errors import UsageError
from .heads import Boxes2D, Heads2D, Heads3D, cell_patches, gup_depth, roi_crop
from .losses import angle_loss, assign_targets, depth_loss, focal_loss, l1_masked, laplacian_nll, total_loss, make_weights
from .model import Detector
from .neck import Neck
from .nn import LayerNorm
from .synth import make_default_calib, synth_scene
from .tensor import Tensor, grad_check

THRESHOLD = 1e-4
EPS = 1e-5


def _t(rng, *shape):
    return Tensor(rng.normal(size=shape))


def _map(rng, n, c, h, w):
    """A channels-last map [n, h, w, c] of the normals drawn as [n, c, h, w]."""
    return Tensor(rng.normal(size=(n, c, h, w)).transpose(0, 2, 3, 1).copy())


def _away_from(rng, shape, margin=0.35):
    """Standard normals pushed `margin` away from zero, sign preserved."""
    x = rng.normal(size=shape)
    return Tensor(x + np.sign(x) * margin)


def _projected(op, probe):
    return lambda x: T.sum_(op(x) * probe)


def _check_add(rng):
    x, y, r = _t(rng, 2, 3), _t(rng, 2, 3), _t(rng, 2, 3)
    return grad_check(_projected(lambda a: a + y, r), x, eps=EPS)


def _check_mul(rng):
    x, y, r = _t(rng, 2, 3), _t(rng, 2, 3), _t(rng, 2, 3)
    return grad_check(_projected(lambda a: a * y, r), x, eps=EPS)


def _check_power(rng):
    x = Tensor(rng.uniform(0.5, 2.0, size=(2, 3)))
    r = _t(rng, 2, 3)
    return grad_check(_projected(lambda a: a**1.7, r), x, eps=EPS)


def _check_exp(rng):
    x, r = _t(rng, 2, 3), _t(rng, 2, 3)
    return grad_check(_projected(T.exp, r), x, eps=EPS)


def _check_log(rng):
    x = Tensor(rng.uniform(0.5, 3.0, size=(2, 3)))
    r = _t(rng, 2, 3)
    return grad_check(_projected(T.log, r), x, eps=EPS)


def _check_sqrt(rng):
    x = Tensor(rng.uniform(0.5, 3.0, size=(2, 3)))
    r = _t(rng, 2, 3)
    return grad_check(_projected(T.sqrt, r), x, eps=EPS)


def _check_abs(rng):
    x, r = _away_from(rng, (2, 3)), _t(rng, 2, 3)
    return grad_check(_projected(T.absolute, r), x, eps=EPS)


def _check_clip(rng):
    x = Tensor(np.linspace(-2.0, 2.0, 7) + rng.uniform(0.01, 0.05, size=7))
    r = _t(rng, 7)
    return grad_check(_projected(lambda a: T.clip(a, -0.8, 0.9), r), x, eps=EPS)


def _check_relu(rng):
    x, r = _away_from(rng, (2, 3)), _t(rng, 2, 3)
    return grad_check(_projected(T.relu, r), x, eps=EPS)


def _check_sigmoid(rng):
    x, r = _t(rng, 2, 3), _t(rng, 2, 3)
    return grad_check(_projected(T.sigmoid, r), x, eps=EPS)


def _check_gelu(rng):
    x, r = _t(rng, 2, 3), _t(rng, 2, 3)
    return grad_check(_projected(T.gelu, r), x, eps=EPS)


def _check_reshape(rng):
    x, r = _t(rng, 2, 6), _t(rng, 3, 4)
    return grad_check(_projected(lambda a: T.reshape(a, (3, 4)), r), x, eps=EPS)


def _check_transpose(rng):
    x, r = _t(rng, 2, 3, 4), _t(rng, 4, 2, 3)
    return grad_check(_projected(lambda a: T.transpose(a, (2, 0, 1)), r), x, eps=EPS)


def _check_getitem(rng):
    x, r = _t(rng, 4, 5), _t(rng, 3, 3)
    return grad_check(_projected(lambda a: a[1:, ::2], r), x, eps=EPS)


def _check_stack(rng):
    x, y, r = _t(rng, 2, 3), _t(rng, 2, 3), _t(rng, 2, 2, 3)
    return grad_check(_projected(lambda a: T.stack([a, y]), r), x, eps=EPS)


def _check_sum(rng):
    x = _t(rng, 3, 4)
    r = _t(rng, 4)
    worst = grad_check(lambda a: T.sum_(a), x, eps=EPS)
    return max(worst, grad_check(_projected(lambda a: T.sum_(a, axis=0), r), x, eps=EPS))


def _check_mean(rng):
    x = _t(rng, 3, 4)
    r = _t(rng, 3)
    return grad_check(_projected(lambda a: T.mean(a, axis=1), r), x, eps=EPS)


def _check_layer_norm(rng):
    ln = LayerNorm(6)
    ln.gamma.data[...] = rng.normal(size=6)
    ln.beta.data[...] = rng.normal(size=6)
    x, r = _t(rng, 2, 6), _t(rng, 2, 6)
    worst = grad_check(_projected(ln, r), x, eps=EPS)
    worst = max(worst, grad_check(_projected(lambda g: T.layer_norm(x, g, ln.beta), r), ln.gamma, eps=EPS))
    return max(worst, grad_check(_projected(lambda b: T.layer_norm(x, ln.gamma, b), r), ln.beta, eps=EPS))


def _check_conv2d(rng):
    # channels-last maps, drawn channel-major
    x = _map(rng, 1, 2, 5, 5)
    w = _t(rng, 3, 2, 3, 3)
    bias = _t(rng, 3)
    r1 = _map(rng, 1, 3, 5, 5)
    worst = grad_check(_projected(lambda a: T.conv2d(a, w, bias, stride=1, padding=1), r1), x, eps=EPS)
    worst = max(worst, grad_check(_projected(lambda ww: T.conv2d(x, ww, bias, stride=1, padding=1), r1), w, eps=EPS))
    worst = max(worst, grad_check(_projected(lambda bb: T.conv2d(x, w, bb, stride=1, padding=1), r1), bias, eps=EPS))
    r2 = _map(rng, 1, 3, 2, 2)
    worst = max(worst, grad_check(_projected(lambda a: T.conv2d(a, w, None, stride=2, padding=0), r2), x, eps=EPS))
    # 1x1 with padding 1 > k-1: the output gradient's border rows see only padding
    w1, r4 = _t(rng, 3, 2, 1, 1), _map(rng, 1, 3, 7, 7)
    worst = max(worst, grad_check(_projected(lambda a: T.conv2d(a, w1, bias, stride=1, padding=1), r4), x, eps=EPS))
    # stride-1 gW comes from the gradient frame, cropped here
    worst = max(worst, grad_check(_projected(lambda ww: T.conv2d(x, ww, bias, stride=1, padding=1), r4), w1, eps=EPS))
    # k == s, as in the attention's spatial reduction: non-overlapping col2im
    w2, r5 = _t(rng, 3, 2, 2, 2), _map(rng, 1, 3, 2, 2)
    worst = max(worst, grad_check(_projected(lambda a: T.conv2d(a, w2, bias, stride=2, padding=0), r5), x, eps=EPS))
    worst = max(worst, grad_check(_projected(lambda ww: T.conv2d(x, ww, bias, stride=2, padding=0), r5), w2, eps=EPS))
    # the 7x7 stride-4 padding-3 stem
    w7, r6 = _t(rng, 3, 2, 7, 7), _map(rng, 1, 3, 2, 2)
    worst = max(worst, grad_check(_projected(lambda a: T.conv2d(a, w7, bias, stride=4, padding=3), r6), x, eps=EPS))
    # stride-1 gW with padding 0: the frame's border is all zeros
    r7 = _map(rng, 1, 3, 3, 3)
    worst = max(worst, grad_check(_projected(lambda ww: T.conv2d(x, ww, bias, stride=1, padding=0), r7), w, eps=EPS))
    # dense 3x3 and depthwise 3x3 on a batch of odd-sized maps: x, weight and bias
    for x, w, r, groups in (
        (_t(rng, 2, 5, 3, 2), _t(rng, 3, 2, 3, 3), _t(rng, 2, 5, 3, 3), 1),
        (_t(rng, 2, 3, 5, 2), _t(rng, 2, 1, 3, 3), _t(rng, 2, 3, 5, 2), 2),
    ):
        bias = _t(rng, w.shape[0])

        def conv(a, ww, bb):
            return T.conv2d(a, ww, bb, padding=1, groups=groups)

        worst = max(worst, grad_check(_projected(lambda a: conv(a, w, bias), r), x, eps=EPS))
        worst = max(worst, grad_check(_projected(lambda ww: conv(x, ww, bias), r), w, eps=EPS))
        worst = max(worst, grad_check(_projected(lambda bb: conv(x, w, bb), r), bias, eps=EPS))
    return worst


def _check_bilinear(rng):
    x = _map(rng, 1, 2, 4, 4)
    r = _map(rng, 1, 2, 7, 6)
    return grad_check(_projected(lambda a: T.bilinear_resize(a, 7, 6), r), x, eps=EPS)


def _check_linear(rng):
    x, w, b, r = _t(rng, 2, 5, 4), _t(rng, 4, 3), _t(rng, 3), _t(rng, 2, 5, 3)
    worst = grad_check(_projected(lambda a: T.linear(a, w, b), r), x, eps=EPS)
    worst = max(worst, grad_check(_projected(lambda ww: T.linear(x, ww, b), r), w, eps=EPS))
    return max(worst, grad_check(_projected(lambda bb: T.linear(x, w, bb), r), b, eps=EPS))


def _check_attention(rng):
    # two query blocks, the second one short: each holds about half the q probes
    t = 2 * T.ATTENTION_CHUNK - 7
    q, kv, r = _t(rng, 1, t, 4), _t(rng, 1, 3, 8), _t(rng, 1, t, 4)
    worst = grad_check(_projected(lambda a: T.attention(a, kv, 2, 0.5), r), q, eps=EPS, max_entries=16, rng=rng)
    return max(worst, grad_check(_projected(lambda b: T.attention(q, b, 2, 0.5), r), kv, eps=EPS))


def _check_attention_block(rng):
    block = EncoderBlock(8, 2, 2, 1, rng, use_attention=True)
    x, r = _t(rng, 1, 16, 8), _t(rng, 1, 16, 8)
    worst = grad_check(_projected(lambda a: block(a, 4, 4), r), x, eps=EPS, max_entries=24, rng=rng)
    qkv = block.attn.kv.weight
    worst = max(worst, grad_check(_projected(lambda _w: block(x, 4, 4), r), qkv, eps=EPS, max_entries=12, select="largest"))
    q = block.attn.q.weight
    worst = max(worst, grad_check(_projected(lambda _w: block(x, 4, 4), r), q, eps=EPS, max_entries=12, select="largest"))
    return max(worst, grad_check(_projected(lambda _b: block(x, 4, 4), r), block.attn.v_bias, eps=EPS))


def _check_conv_ffn(rng):
    ffn = ConvFFN(6, 12, rng)
    x, r = _t(rng, 1, 16, 6), _t(rng, 1, 16, 6)
    return grad_check(_projected(lambda a: ffn(a, 4, 4), r), x, eps=EPS, max_entries=24, rng=rng)


def _check_neck(rng):
    neck = Neck([4, 8, 12, 16], rng, width=8)
    maps = [_map(rng, 1, 4, 8, 8), _map(rng, 1, 8, 4, 4), _map(rng, 1, 12, 2, 2), _map(rng, 1, 16, 1, 1)]
    r = _map(rng, 1, 8, 8, 8)

    def f(deep):
        return T.sum_(neck([maps[0], maps[1], maps[2], deep]) * r)

    return grad_check(f, maps[3], eps=EPS, max_entries=16, rng=rng)


# 2 images of a 4x4 map: corner, edge and interior cells, (1, 3, 0) twice
_CELLS = (np.array([0, 1, 1, 0, 1]), np.array([0, 3, 1, 2, 3]), np.array([0, 0, 2, 3, 0]))


def _check_taps(rng):
    # both tables the heads read through: RoIAlign's 4 bilinear corners per
    # sample, then 3x3 cells of one tap each
    feat = _map(rng, 2, 3, 8, 8)
    boxes = Boxes2D(
        class_id=np.array([0, 1, 2]),
        score=np.ones(3),
        center=np.array([[13.0, 17.0], [20.0, 9.0], [6.0, 25.0]]),
        size=np.array([[10.0, 12.0], [14.0, 8.0], [9.0, 11.0]]),
    )
    r = _t(rng, 3, 7, 7, 3)
    worst = grad_check(
        _projected(lambda a: roi_crop(a, boxes, [0, 1, 1])[0], r), feat, eps=EPS, max_entries=24, rng=rng
    )
    # r is drawn [5, C, 9] and laid out in the patches' (tap, channel) column order
    x, r = _map(rng, 2, 3, 4, 4), Tensor(rng.normal(size=(5, 3, 9)).transpose(0, 2, 1).reshape(5, 27))
    return max(worst, grad_check(_projected(lambda a: cell_patches(a, *_CELLS), r), x, eps=EPS))


def _check_heads2d(rng):
    heads = Heads2D(6, rng)
    x = _map(rng, 2, 6, 4, 4)
    rs = [_t(rng, 2, 3, 4, 4), _t(rng, 5, 2), _t(rng, 5, 2)]

    def f(a):
        offset, size = heads.at(a, *_CELLS)
        return T.sum_(heads(a) * rs[0]) + T.sum_(offset * rs[1]) + T.sum_(size * rs[2])

    worst = grad_check(f, x, eps=EPS, max_entries=24, rng=rng)
    w = heads.size.conv1.weight
    return max(worst, grad_check(lambda _w: f(x), w, eps=EPS, max_entries=12, select="largest"))


def _check_heads3d(rng):
    heads = Heads3D(6, rng)
    x = _map(rng, 2, 6, 7, 7)
    r1, r2, r3 = _t(rng, 2, 2), _t(rng, 2, 12), _t(rng, 2, 3, 3)
    r4, r5 = _t(rng, 2), _t(rng, 2)

    def f(a):
        out = heads(a)
        return (
            T.sum_(out.offset3d * r1)
            + T.sum_(out.angle_logits * r2)
            + T.sum_(out.size_residuals * r3)
            + T.sum_(out.h_log_sigma * r4)
            + T.sum_(out.bias_mu * r5)
            + T.sum_(out.bias_log_sigma * r4)
        )

    return grad_check(f, x, eps=EPS, max_entries=24, rng=rng)


def _check_focal_loss(rng):
    logits = _t(rng, 3, 4, 4)
    gt = np.zeros((3, 4, 4))
    gt[0, 1, 2] = 1.0
    gt[1, 3, 0] = 1.0
    gt[gt == 0.0] = rng.uniform(0.0, 0.6, size=(gt == 0.0).sum())
    return grad_check(lambda a: focal_loss(T.sigmoid(a), gt), logits, eps=EPS)


def _check_l1_masked(rng):
    x = _t(rng, 3, 4)
    target = x.data + np.sign(rng.normal(size=(3, 4))) * rng.uniform(0.5, 2.0, size=(3, 4))
    return grad_check(lambda a: l1_masked(a, target), x, eps=EPS)


def _check_angle_loss(rng):
    logits = _t(rng, 3, 12)
    residuals = _t(rng, 3, 12)
    bins = rng.integers(0, 12, size=3)
    res_gt = residuals.data[np.arange(3), bins] + np.sign(rng.normal(size=3)) * 0.5
    worst = grad_check(lambda a: angle_loss(a, residuals, bins, res_gt), logits, eps=EPS)
    return max(worst, grad_check(lambda b: angle_loss(logits, b, bins, res_gt), residuals, eps=EPS))


def _check_laplacian_nll(rng):
    mu = _t(rng, 4)
    target = mu.data + np.sign(rng.normal(size=4)) * rng.uniform(0.5, 2.0, size=4)
    log_sigma = _t(rng, 4)
    worst = grad_check(lambda a: laplacian_nll(a, T.exp(log_sigma), target), mu, eps=EPS)
    return max(worst, grad_check(lambda s: laplacian_nll(mu, T.exp(s), target), log_sigma, eps=EPS))


def _check_depth_projection(rng):
    h_mu = Tensor(rng.uniform(1.2, 2.0, size=3))
    log_sigma = _t(rng, 3)
    bias = _t(rng, 3)
    h2d = rng.uniform(10.0, 40.0, size=3)
    f = rng.uniform(80.0, 140.0, size=3)
    target = rng.uniform(5.0, 20.0, size=3)

    def f_mu(a):
        mu, sigma = gup_depth(a, T.exp(log_sigma), h2d, f, bias, T.exp(log_sigma) * 0.5)
        return depth_loss(mu, sigma, target)

    worst = grad_check(f_mu, h_mu, eps=EPS)

    def f_ls(s):
        mu, sigma = gup_depth(h_mu, T.exp(s), h2d, f, bias, T.exp(s) * 0.5)
        return depth_loss(mu, sigma, target)

    return max(worst, grad_check(f_ls, log_sigma, eps=EPS))


OP_CHECKS = (
    ("add", _check_add),
    ("mul", _check_mul),
    ("power", _check_power),
    ("exp", _check_exp),
    ("log", _check_log),
    ("sqrt", _check_sqrt),
    ("abs", _check_abs),
    ("clip", _check_clip),
    ("relu", _check_relu),
    ("sigmoid", _check_sigmoid),
    ("gelu", _check_gelu),
    ("reshape", _check_reshape),
    ("transpose", _check_transpose),
    ("getitem", _check_getitem),
    ("stack", _check_stack),
    ("sum", _check_sum),
    ("mean", _check_mean),
    ("layer_norm", _check_layer_norm),
    ("conv2d", _check_conv2d),
    ("bilinear", _check_bilinear),
    ("linear", _check_linear),
    ("attention", _check_attention),
    ("attention_block", _check_attention_block),
    ("conv_ffn", _check_conv_ffn),
    ("neck", _check_neck),
    ("taps", _check_taps),
    ("heads2d", _check_heads2d),
    ("heads3d", _check_heads3d),
    ("focal_loss", _check_focal_loss),
    ("l1_masked", _check_l1_masked),
    ("angle_loss", _check_angle_loss),
    ("laplacian_nll", _check_laplacian_nll),
    ("depth_projection", _check_depth_projection),
)

# one deep parameter per stage of the full pipeline, probed with 2 entries each
_PIPELINE_PARAMS = (
    "backbone.stage_list.0.embed.proj.weight",
    "backbone.stage_list.2.blocks.0.attn.kv.weight",
    "backbone.stage_list.3.blocks.0.ffn.fc1.weight",
    "neck.projects.3.conv.weight",
    "heads2d.heat.conv2.weight",
    "heads2d.size.conv1.weight",
    "heads3d.trunk.weight",
    "heads3d.fc_size.weight",
)


def check_pipeline(seed=0, max_entries=2):
    """End-to-end check: full detector loss vs. FD on sampled parameters."""
    size = (64, 64)
    calib = make_default_calib(size, focal=90.0)
    image, labels = synth_scene(seed + 1, 2, calib, size, z_range=(5.0, 12.0))
    targets = assign_targets(labels, calib, size)
    if targets.n_objects == 0:
        raise UsageError("pipeline check scene has no objects; pick another seed")
    det = Detector("desk", seed=seed)
    params = dict(det.named_parameters())
    weights = make_weights(tier2=1.0, tier3=1.0)

    def loss_fn(_):
        terms = det.loss_terms(T.stack([image]), [targets], [calib])
        total, _report = total_loss(terms, weights)
        return total

    worst = 0.0
    for name in _PIPELINE_PARAMS:
        worst = max(worst, grad_check(loss_fn, params[name], eps=EPS, max_entries=max_entries, select="largest"))
    return worst


@dataclass
class SuiteResult:
    rows: list  # (component, max relative error) in run order
    threshold: float

    @property
    def passed(self):
        return all(err < self.threshold for _, err in self.rows)

    def failing(self):
        return [name for name, err in self.rows if err >= self.threshold]

    def to_text(self):
        width = max(len(name) for name, _ in self.rows)
        lines = [f"{'component'.ljust(width)}  max_rel_err  status"]
        for name, err in self.rows:
            status = "ok" if err < self.threshold else "FAIL"
            lines.append(f"{name.ljust(width)}  {err:.3e}    {status}")
        verdict = "all components passed" if self.passed else "FAILING: " + ", ".join(self.failing())
        lines.append(f"threshold {self.threshold:g}; {verdict}")
        return "\n".join(lines) + "\n"


def run_suite(seeds=20, include_pipeline=True, fault_op=None, seed0=0):
    """Run every component over `seeds` seeds; optional fault injection
    into the op that records `fault_op` (a name in T.OP_NAMES)."""
    if seeds < 1:
        raise UsageError("seeds must be >= 1")
    if fault_op:
        T.inject_fault(fault_op)
    try:
        rows = []
        for name, fn in OP_CHECKS:
            worst = 0.0
            for s in range(seeds):
                worst = max(worst, fn(np.random.default_rng(seed0 + s)))
            rows.append((name, worst))
        if include_pipeline:
            rows.append(("pipeline_desk", check_pipeline(seed=seed0)))
    finally:
        if fault_op:
            T.clear_faults()
    return SuiteResult(rows=rows, threshold=THRESHOLD)

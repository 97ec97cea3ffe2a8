"""Training loop: Adam, cosine warmup with step decay, task-tier weights.

The toy regime overfits a handful of synthetic scenes end to end on one
CPU core; the same loop drives any dataset of (image, targets, calib)
samples. Per-epoch mean loss terms and the active task weights stream to
a CSV whose columns are "epoch", the nine term names, then "w_" + each
term name.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import NumericError, UsageError
from .losses import LOSS_TERMS, assign_targets, htl_weights, total_loss
from .synth import make_default_calib, synth_scene

CSV_HEADER = "epoch," + ",".join(LOSS_TERMS) + "," + ",".join("w_" + t for t in LOSS_TERMS)


class Adam:
    """Bias-corrected Adam over a parameter list; parameters without a
    gradient this step keep their state and value."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8):
        if lr <= 0.0:
            raise UsageError(f"learning rate {lr} must be positive")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.t = 0
        self.m = [np.zeros(p.shape) for p in self.params]
        self.v = [np.zeros(p.shape) for p in self.params]

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def lr_factor(epoch, warmup_epochs=5, decay_epochs=(90, 120), decay=0.1):
    """Cosine ramp to 1 over the warmup epochs, then stepwise decay."""
    if epoch < 0:
        raise UsageError("epoch must be >= 0")
    factor = 1.0
    if warmup_epochs > 0 and epoch < warmup_epochs:
        factor = 0.5 * (1.0 - math.cos(math.pi * (epoch + 1) / warmup_epochs))
    for threshold in decay_epochs:
        if epoch >= threshold:
            factor *= decay
    return factor


@dataclass
class SynthSample:
    image: object  # Tensor [3, H, W]
    labels: list
    targets: object  # TargetMaps
    calib: object  # CameraCalib


def build_synth_dataset(n_images, image_size, seed=0, n_objects=2, z_range=(6.0, 14.0), focal=90.0):
    """n seeded synthetic scenes with targets assigned, one shared calib."""
    if n_images < 1:
        raise UsageError("need at least one image")
    calib = make_default_calib(image_size, focal=focal)
    scene_seeds = np.random.SeedSequence(seed).generate_state(n_images)
    samples = []
    for s in scene_seeds:
        image, labels = synth_scene(int(s), n_objects, calib, image_size, z_range=z_range)
        targets = assign_targets(labels, calib, image_size)
        samples.append(SynthSample(image=image, labels=labels, targets=targets, calib=calib))
    return samples


@dataclass
class TrainResult:
    history: dict  # term -> per-epoch mean values
    csv_text: str
    final_weights: object  # TaskWeights of the last epoch


def train_detector(
    detector,
    dataset,
    epochs,
    batch_size=12,
    lr=1.25e-3,
    warmup_epochs=5,
    decay_epochs=(90, 120),
    decay=0.1,
    htl_ramp=20,
    seed=0,
    csv_path=None,
    progress=None,
):
    """Optimize `detector` on SynthSample-like items (image/targets/calib).

    Task weights follow the tier schedule from the measured loss history;
    a non-finite loss term aborts with that term named.
    """
    if not dataset:
        raise UsageError("dataset is empty")
    if epochs < 1:
        raise UsageError("epochs must be >= 1")
    if batch_size < 1:
        raise UsageError("batch_size must be >= 1")
    rng = np.random.default_rng(seed)
    opt = Adam(detector.parameters(), lr)
    history = {term: [] for term in LOSS_TERMS}
    lines = [CSV_HEADER]
    weights = None
    for epoch in range(epochs):
        weights = htl_weights(epoch, history, ramp_epochs=htl_ramp)
        opt.lr = lr * lr_factor(epoch, warmup_epochs, decay_epochs, decay)
        order = rng.permutation(len(dataset))
        sums = dict.fromkeys(LOSS_TERMS, 0.0)
        batches = 0
        for lo in range(0, len(order), batch_size):
            chunk = [dataset[i] for i in order[lo : lo + batch_size]]
            images = T.stack([s.image for s in chunk])
            terms = detector.loss_terms(images, [s.targets for s in chunk], [s.calib for s in chunk])
            for name in LOSS_TERMS:
                value = float(terms[name].data)
                if not math.isfinite(value):
                    raise NumericError(f"loss term {name!r} is not finite at epoch {epoch}")
                sums[name] += value
            total, _ = total_loss(terms, weights)
            detector.zero_grads()
            T.backward(total)
            opt.step()
            del terms, total  # the graph goes with them, before the next forward
            batches += 1
        for name in LOSS_TERMS:
            history[name].append(sums[name] / batches)
        row = [str(epoch)]
        row += [f"{history[name][-1]:.17g}" for name in LOSS_TERMS]
        row += [f"{w:.17g}" for w in weights.values]
        lines.append(",".join(row))
        if progress is not None:
            progress(epoch, history, weights)
    csv_text = "\n".join(lines) + "\n"
    if csv_path is not None:
        with open(csv_path, "w", encoding="ascii") as fh:
            fh.write(csv_text)
    return TrainResult(history=history, csv_text=csv_text, final_weights=weights)

"""The benchmark's workloads: set-up, one timed operation, output checks.

Every workload is a closed loop with one client. Operation 0 always runs
on a fixed reference input whose outputs are stored in reference.json
(written by running this file with src/ on PYTHONPATH); every later
operation runs on inputs drawn from the workload seed and is checked for
internal consistency (finite, well-formed, repeatable).

A workload object is built once per process; `setup` may run several
times (set-up time is reported as a median) and the last one wins.
`run(i)` performs one operation on input i (0 is the reference input),
the only timed part, and returns its outputs; `check(i, outputs)` returns
None or says which check failed.
`images_per_op` converts operations into images for the throughput
metric, and `counts` accumulates the layer counters the traced run
reports.
"""

import json
import math
import os
from collections import Counter

import numpy as np

from mono3d import evaluation, kitti
from mono3d import tensor as T
from mono3d.heads import CLASS_NAMES, CLASS_PRIORS, wrap_angle
from mono3d.kitti import LabelRecord, compute_alpha, write_labels, write_ppm
from mono3d.losses import LOSS_TERMS, make_weights, total_loss
from mono3d.model import Detector, load_checkpoint, save_checkpoint
from mono3d.synth import synth_scene, to_uint8
from mono3d.tensor import Tensor
from mono3d.train import Adam, build_synth_dataset, train_detector

# The train-toy defaults: desk variant, batch 8 of 96x64 scenes with two
# objects each, desk-scale depths and focal length, toy learning rate.
TOY_SIZE = (96, 64)
BATCH = 8
TOY_SCENES = {"n_objects": 2, "z_range": (4.5, 8.0), "focal": 120.0}
TOY_LR = 2.5e-4
# Fixed inputs of operation 0 and of the inference checkpoint; they do not
# depend on the workload seed, so their outputs can be stored.
REFERENCE_SEED = 7
# Every loss term trains, so backward runs through all nine.
ALL_TERMS = make_weights(tier2=1.0, tier3=1.0)

# Short fixed schedule for the inference checkpoint. It leaves about half of
# the k peaks with a box inside the map, so the per-peak RoI path runs
# some 27 times per image.
CHECKPOINT_EPOCHS = 10
K_PEAKS = 50

INFER_POOL = 64  # distinct seeded images, cycled

# Images per evaluate_split call, and distinct seeded corpora that the calls
# cycle through. The work per image varies with the matching outcomes; the
# 5 x 12 images of one cycle keep the seed-to-seed spread of the work within
# a few percent, and a call of 12 images leaves dozens of calls per run.
# The reference corpus of operation 0 has the same size; 12 images cover
# all 36 cells.
EVAL_IMAGES = 12
EVAL_CORPORA = 5
EVAL_PRED_PER_IMAGE = 20

# Stated tolerances of the output checks.
LOSS_RTOL = 1e-6
BOX_RTOL = 1e-5
BOX_ATOL = 1e-6


def _seed_states(seed, n):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


class TrainToy:
    """Closed loop of Detector.loss_terms, T.backward and Adam.step."""

    images_per_op = BATCH

    def __init__(self, seed, reference):
        self.seed = seed
        self.reference = reference["train_toy"]
        self.counts = Counter()

    def setup(self, workdir):
        ref = build_synth_dataset(BATCH, TOY_SIZE, seed=REFERENCE_SEED, **TOY_SCENES)
        data = build_synth_dataset(BATCH, TOY_SIZE, seed=self.seed, **TOY_SCENES)
        self.batches = [_batch(ref), _batch(data)]
        self.targets_skipped = sum(sum(s.targets.skipped.values()) for s in ref + data)
        self.detector = Detector("desk", seed=0)
        self.opt = Adam(self.detector.parameters(), TOY_LR)

    def run(self, i):
        """One optimizer step -> the nine loss values before it."""
        images, targets, calibs = self.batches[min(i, 1)]
        try:
            terms = self.detector.loss_terms(images, targets, calibs)
            total, _ = total_loss(terms, ALL_TERMS)
            self.detector.zero_grads()
            self.counts["tensor.tape_nodes"] += T.tape_length()
            T.backward(total)
            self.opt.step()
        finally:
            T.reset_tape()
        return [float(terms[t].data) for t in LOSS_TERMS]

    def check(self, i, values):
        left = T.tape_length()
        self.counts["tensor.tape_nodes_after_reset"] = max(
            left, self.counts["tensor.tape_nodes_after_reset"]
        )
        if left:
            return f"{left} tape nodes left after reset_tape"
        bad = [t for t, v in zip(LOSS_TERMS, values) if not math.isfinite(v)]
        if bad:
            return f"non-finite loss terms {bad}"
        if i == 0:
            for term, value in zip(LOSS_TERMS, values):
                want = self.reference["loss_terms"][term]
                if not math.isclose(value, want, rel_tol=LOSS_RTOL, abs_tol=0.0):
                    return f"loss term {term} = {value!r}, reference {want!r} (rtol {LOSS_RTOL})"
        return None

    def outputs(self):
        """Operation 0's outputs in reference.json form."""
        terms = Detector("desk", seed=0).loss_terms(*self.batches[0])
        T.reset_tape()
        return {"loss_terms": {t: float(terms[t].data) for t in LOSS_TERMS}}


def _batch(samples):
    images = T.stack([s.image for s in samples])
    return images, [s.targets for s in samples], [s.calib for s in samples]


class InferToy:
    """Closed loop, one 96x64 image at a time: PPM on disk -> read_ppm ->
    Detector.infer (k=50, score threshold 0) -> write_predictions -> KITTI
    prediction text."""

    images_per_op = 1

    def __init__(self, seed, reference):
        self.seed = seed
        self.reference = reference["infer_toy"]
        self.counts = Counter()

    def setup(self, workdir):
        train = build_synth_dataset(BATCH, TOY_SIZE, seed=REFERENCE_SEED, **TOY_SCENES)
        trained = Detector("desk", seed=0)
        train_detector(
            trained,
            train,
            epochs=CHECKPOINT_EPOCHS,
            batch_size=BATCH,
            lr=TOY_LR,
            decay_epochs=(150, 180),
            seed=0,
        )
        ckpt = os.path.join(workdir, "model.ckpt")
        save_checkpoint(ckpt, trained)
        self.detector = Detector("desk", seed=0)
        load_checkpoint(ckpt, self.detector)
        self.calib = train[0].calib
        self.paths = []
        for j, scene_seed in enumerate([REFERENCE_SEED] + _seed_states(self.seed, INFER_POOL)):
            image, _ = synth_scene(
                scene_seed, TOY_SCENES["n_objects"], self.calib, TOY_SIZE, TOY_SCENES["z_range"]
            )
            path = os.path.join(workdir, f"{j:06d}.ppm")
            write_ppm(path, to_uint8(image))
            self.paths.append(path)

    def run(self, i):
        """One image -> (detections, infer drops, prediction drops, text)."""
        path = self.paths[0 if i == 0 else 1 + (i - 1) % INFER_POOL]
        image_u8 = kitti.read_ppm(path)
        image = Tensor(image_u8.astype(np.float64).transpose(2, 0, 1) / 255.0)
        dets, drops = self.detector.infer(image, self.calib, k=K_PEAKS, score_threshold=0.0)
        pred_drops = {}
        text = kitti.write_predictions(
            dets, self.calib, TOY_SIZE, CLASS_NAMES, drop_count=pred_drops
        )
        return dets, drops, pred_drops, text

    def check(self, i, result):
        dets, drops, pred_drops, text = result
        peaks = len(dets) + sum(drops.values())
        self.counts["heads.peaks"] += peaks
        self.counts["heads.dets"] += len(dets)
        for reason, n in list(drops.items()) + list(pred_drops.items()):
            self.counts["heads.drops." + reason] += n
        if peaks > K_PEAKS:
            return f"{peaks} peaks accounted for, k is {K_PEAKS}"
        boxes = _box_rows(dets)
        if not np.all(np.isfinite(boxes)):
            return "non-finite detection fields"
        if np.any(boxes[:, 2] <= 0.0) or np.any(boxes[:, 3:6] <= 0.0):
            return "detection with non-positive depth or dimension"
        parsed = kitti.parse_label_file(text)
        if len(parsed) != len(dets) - pred_drops.get("behind_camera", 0):
            return f"{len(parsed)} prediction lines for {len(dets)} detections"
        if any(rec.score is None for rec in parsed):
            return "prediction line without a score"
        if i == 0:
            if len(dets) != self.reference["count"]:
                return f"{len(dets)} detections, reference {self.reference['count']}"
            want = np.array(self.reference["boxes"], dtype=np.float64).reshape(-1, 8)
            if not np.allclose(boxes, want, rtol=BOX_RTOL, atol=BOX_ATOL):
                worst = float(np.max(np.abs(boxes - want)))
                return f"box fields off the reference by up to {worst:.3g}"
        return None

    def outputs(self):
        dets = self.run(0)[0]
        return {"count": len(dets), "boxes": _box_rows(dets).tolist()}


def _box_rows(dets):
    """Detection3D list -> [n, 8] rows (x, y, z, h, w, l, yaw, score)."""
    rows = [tuple(d.location) + tuple(d.dimensions) + (d.yaw, d.score) for d in dets]
    return np.array(rows, dtype=np.float64).reshape(-1, 8)


class EvalVal:
    """evaluate_split over a KITTI-format label and prediction directory,
    both threshold sets and both metrics: the 36 report cells."""

    images_per_op = EVAL_IMAGES

    def __init__(self, seed, reference):
        self.seed = seed
        self.reference = reference["eval_val"]
        self.counts = Counter()

    def setup(self, workdir):
        self.dirs = []
        for j, corpus_seed in enumerate([REFERENCE_SEED] + _seed_states(self.seed, EVAL_CORPORA)):
            gt_dir = os.path.join(workdir, f"corpus{j}", "label")
            pred_dir = os.path.join(workdir, f"corpus{j}", "pred")
            os.makedirs(gt_dir, exist_ok=True)
            os.makedirs(pred_dir, exist_ok=True)
            gt, preds = make_corpus(corpus_seed, EVAL_IMAGES)
            for image_id in gt:
                _write(os.path.join(gt_dir, image_id + ".txt"), write_labels(gt[image_id]))
                _write(os.path.join(pred_dir, image_id + ".txt"), write_labels(preds[image_id]))
            self.dirs.append((pred_dir, gt_dir))
        self.seeded_tables = {}

    def _corpus(self, i):
        return 0 if i == 0 else 1 + (i - 1) % EVAL_CORPORA

    def run(self, i):
        pred_dir, gt_dir = self.dirs[self._corpus(i)]
        return evaluation.evaluate_split(pred_dir, gt_dir)

    def check(self, i, report):
        if report.errors:
            return f"{len(report.errors)} file errors, first: {report.errors[0]}"
        table = _ap_table(report)
        if len(table) != 36:
            return f"{len(table)} report cells, expected 36"
        for key, (ap, n_gt, _, _) in table.items():
            if ap is None or n_gt == 0:
                return f"cell {key} has no counted ground truth"
            if not 0.0 <= float.fromhex(ap) <= 100.0:
                return f"cell {key} AP {float.fromhex(ap)} outside [0, 100]"
        if i == 0:
            if table != self.reference["table"]:
                diff = sorted(k for k in table if table[k] != self.reference["table"].get(k))
                return f"AP table differs from the reference in cells {diff[:4]}"
        elif table != self.seeded_tables.setdefault(self._corpus(i), table):
            return f"AP table of seeded corpus {self._corpus(i)} changed between calls"
        return None

    def outputs(self):
        return {"table": _ap_table(self.run(0))}


def _ap_table(report):
    """Report cells keyed "set/metric/class/difficulty", AP as exact hex."""
    return {
        "/".join(key): [None if c.ap is None else float.hex(c.ap), c.n_gt, c.n_pred, c.matched]
        for key, c in sorted(report.cells.items())
    }


def _write(path, text):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


# Difficulty buckets of the generated ground truth, cycled so each of
# Easy, Moderate, Hard and Ignored holds a quarter of the boxes:
# (2D height range px, occlusion levels, truncation range).
_GT_BUCKETS = (
    ((45.0, 120.0), (0,), (0.0, 0.1)),
    ((27.0, 38.0), (0, 1), (0.0, 0.25)),
    ((27.0, 80.0), (2,), (0.0, 0.45)),
    ((8.0, 22.0), (0, 1, 2, 3), (0.0, 0.45)),
)
# Class of each ground-truth box of an image: 5 cars, 2 pedestrians, 1
# cyclist. A fixed mix keeps the number of same-class box pairs, and so the
# work per corpus, the same for every seed.
_GT_CLASSES = (0, 0, 0, 0, 0, 1, 1, 2)


def make_corpus(seed, n_images):
    """KITTI-val-shaped labels and predictions: 8 ground-truth boxes and
    20 scored predictions per image. Each box has one jittered copy (three
    in four close enough to match, the fourth not, in a fixed pattern so
    that the work per image varies little between seeds); the other 12
    predictions are false positives next to a box of the same class, so
    they partly overlap it and reach the ignored-match path."""
    rng = np.random.default_rng(seed)
    gt, preds = {}, {}
    for i in range(n_images):
        gts = [
            _gt_record(rng, cls, _GT_BUCKETS[(i + j) % 4]) for j, cls in enumerate(_GT_CLASSES)
        ]
        prs = [_jittered(rng, rec, 0.8 if (i + j) % 4 == 3 else 0.1) for j, rec in enumerate(gts)]
        for j in range(EVAL_PRED_PER_IMAGE - len(gts)):
            prs.append(_jittered(rng, gts[j % len(gts)], 1.5))
        gt[f"{i:06d}"] = gts
        preds[f"{i:06d}"] = prs
    return gt, preds


def _gt_record(rng, cls, bucket):
    (h_lo, h_hi), occlusions, (t_lo, t_hi) = bucket
    dims = tuple(float(d) * rng.uniform(0.9, 1.1) for d in CLASS_PRIORS[cls])
    loc = (rng.uniform(-20.0, 20.0), rng.uniform(1.4, 1.9), rng.uniform(5.0, 60.0))
    yaw = float(rng.uniform(-math.pi, math.pi))
    h2d = rng.uniform(h_lo, h_hi)
    left, top = rng.uniform(0.0, 1000.0), rng.uniform(100.0, 250.0)
    return LabelRecord(
        type=CLASS_NAMES[cls],
        truncated=float(rng.uniform(t_lo, t_hi)),
        occluded=int(rng.choice(occlusions)),
        alpha=compute_alpha(yaw, loc[0], loc[2]),
        bbox=(left, top, left + 1.2 * h2d, top + h2d),
        dimensions=dims,
        location=loc,
        rotation_y=yaw,
    )


def _jittered(rng, rec, scale):
    """A scored prediction of rec's class near rec; ties in score on purpose."""
    score = float(rng.uniform(0.05, 1.0))
    if rng.uniform() < 0.3:
        score = round(score, 1)
    loc = tuple(v + rng.normal() * scale for v in rec.location)
    yaw = wrap_angle(rec.rotation_y + rng.normal() * scale * 0.5)
    return LabelRecord(
        type=rec.type,
        truncated=0.0,
        occluded=0,
        alpha=compute_alpha(yaw, loc[0], loc[2]),
        bbox=rec.bbox,
        dimensions=tuple(max(d + rng.normal() * scale * 0.3, 0.2) for d in rec.dimensions),
        location=loc,
        rotation_y=yaw,
        score=score,
    )


WORKLOADS = {"train_toy": TrainToy, "infer_toy": InferToy, "eval_val": EvalVal}


def write_reference(path, workdir):
    """Recompute operation 0's outputs of every workload into `path`.

    Only for a change that is meant to alter those outputs; such a change
    says so and states why the new values are right.
    """
    reference = {}
    for name, make in WORKLOADS.items():
        workload = make(0, {name: None})
        workload.setup(workdir)
        reference[name] = workload.outputs()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    # PYTHONPATH=src python3 perfbench/workloads.py
    here = os.path.dirname(os.path.abspath(__file__))
    work = os.path.join(here, "out", "reference-work")
    os.makedirs(work, exist_ok=True)
    write_reference(os.path.join(here, "reference.json"), work)

"""The benchmark harness under perfbench/ reads mono3d by name: its span
tracer wraps module attributes and class methods, and its workloads read
detection fields. These tests fail when src/ renames or reshapes
something the harness relies on, which would otherwise surface only when
the benchmark runs."""

import os
import sys
from collections import Counter

import numpy as np
import pytest

from mono3d import kitti
from mono3d import tensor as T
from mono3d.heads import CLASS_NAMES, Detections3D
from mono3d.losses import assign_targets, make_weights, total_loss
from mono3d.model import Detector
from mono3d.synth import make_default_calib, synth_scene

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402

IMAGE_SIZE = (96, 64)
# the number of entry points spans.Tracer.install wraps
TRACED_NAMES = 34


@pytest.fixture(scope="module")
def scene():
    calib = make_default_calib(IMAGE_SIZE, focal=120.0)
    image, _ = synth_scene(2, 2, calib, IMAGE_SIZE, z_range=(4.5, 8.0))
    return Detector("desk", seed=0), image, calib


def test_tracer_wraps_every_name_and_puts_them_back(scene):
    detector, image, calib = scene
    tracer = spans.Tracer()
    try:
        tracer.install()
        wrapped = list(tracer._undo)
        dets, _ = detector.infer(image, calib, k=50)
        # through the module attribute, as perfbench calls it
        kitti.write_predictions(dets, calib, IMAGE_SIZE, CLASS_NAMES)
    finally:
        tracer.uninstall()
    assert len(wrapped) == TRACED_NAMES
    for owner, attr, orig in wrapped:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is orig, attr
    recorded = {tracer.names[i] for i in tracer._name}
    assert {"model.infer", "heads.decode_box3d", "kitti.write_predictions"} <= recorded


def test_tracer_records_the_training_path():
    calib = make_default_calib(IMAGE_SIZE, focal=120.0)
    image, labels = synth_scene(2, 2, calib, IMAGE_SIZE, z_range=(4.5, 8.0))
    targets = assign_targets(labels, calib, IMAGE_SIZE)
    assert targets.n_objects > 0
    detector = Detector("desk", seed=0)
    tracer = spans.Tracer()
    try:
        tracer.install()
        terms = detector.loss_terms(image[None], [targets], [calib])
        T.backward(total_loss(terms, make_weights())[0])
    finally:
        tracer.uninstall()
    calls = Counter(tracer.names[i] for i in tracer._name)
    assert {"model.loss_terms", "losses", "heads.roi_crop", "tensor.backward"} <= set(calls)
    assert {"backbone.ffn", "heads.heads3d"} <= set(calls)
    # every conv of the step goes through nn.Conv2d: 4 patch embeds, 3
    # spatial reductions, 7 neck convs, the heatmap head's 2 and the RoI
    # trunk, plus one depthwise conv per backbone block
    assert calls["nn.conv2d"] == 17
    assert calls["nn.conv2d_dw"] == 4
    assert calls["kernels.im2col"] > 0


def test_box_rows_reads_detections(scene):
    detector, image, calib = scene
    dets, _ = detector.infer(image, calib, k=50)
    assert len(dets) > 0
    assert np.array_equal(workloads._box_rows(dets), np.column_stack([dets.rows, dets.score]))

    none, _ = detector.infer(image, calib, k=50, score_threshold=0.999)
    assert isinstance(none, Detections3D) and len(none) == 0
    assert workloads._box_rows(none).shape == (0, 8)

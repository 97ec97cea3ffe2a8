import dataclasses
import hashlib
import json

import numpy as np
import pytest

from mono3d import tensor as T
from mono3d.backbone import BackboneConfig, StageConfig
from mono3d.errors import (
    ConfigError,
    DegenerateGeometryError,
    DimensionError,
    NumericError,
    UsageError,
)
from mono3d.heads import MIN_H2D_PIXELS, Detections3D, Heads3D, decode_heatmap_peaks, roi_crop
from mono3d.kitti import LabelRecord
from mono3d.losses import LOSS_TERMS, assign_targets, make_weights, total_loss
from mono3d.model import Detector, load_checkpoint, load_detector, manifest_path, save_checkpoint
from mono3d.synth import make_default_calib, synth_scene
from mono3d.train import build_synth_dataset, train_detector

import oracles

IMAGE_SIZE = (96, 64)  # (W, H)


def _tiny_config(name="tiny"):
    stages = tuple(
        StageConfig(dim=d, depth=1, num_heads=h, sr_ratio=sr, mlp_ratio=1)
        for d, h, sr in zip((4, 8, 12, 16), (1, 2, 3, 4), (8, 4, 2, 1))
    )
    return BackboneConfig(name=name, stages=stages, use_attention=True)


@pytest.fixture(scope="module")
def scene():
    calib = make_default_calib(IMAGE_SIZE, focal=90.0)
    img1, labels1 = synth_scene(11, 2, calib, IMAGE_SIZE, z_range=(6.0, 14.0))
    img2, labels2 = synth_scene(12, 1, calib, IMAGE_SIZE, z_range=(6.0, 14.0))
    t1 = assign_targets(labels1, calib, IMAGE_SIZE)
    t2 = assign_targets(labels2, calib, IMAGE_SIZE)
    assert t1.n_objects == 2 and t2.n_objects == 1
    batch = T.stack([img1, img2])
    return calib, batch, [t1, t2]


@pytest.fixture(scope="module")
def desk():
    return Detector("desk", seed=0)


def test_same_seed_same_weights():
    a = dict(Detector(_tiny_config(), seed=5).named_parameters())
    b = dict(Detector(_tiny_config(), seed=5).named_parameters())
    c = dict(Detector(_tiny_config(), seed=6).named_parameters())
    assert a.keys() == b.keys() == c.keys()
    for name in a:
        assert np.array_equal(a[name].data, b[name].data)
    assert any(not np.array_equal(a[name].data, c[name].data) for name in a)


def test_unknown_variant_rejected():
    with pytest.raises(ConfigError):
        Detector("nope")


def test_features_shape(desk):
    rng = np.random.default_rng(0)
    out = desk.features(rng.uniform(size=(1, 3, 64, 128)))
    assert out.shape == (1, 16, 32, 64)  # channels last
    with pytest.raises(DimensionError):
        desk.features(rng.uniform(size=(1, 4, 64, 128)))


def test_loss_terms_complete_and_scalar(desk, scene):
    calib, batch, targets = scene
    terms = desk.loss_terms(batch, targets, calib)
    assert tuple(terms) == LOSS_TERMS
    for name, t in terms.items():
        assert t.shape == (), name
        assert np.isfinite(t.data), name
    assert float(terms["heatmap"].data) > 0.0


def test_loss_terms_batch_mismatch_rejected(desk, scene):
    calib, batch, targets = scene
    with pytest.raises(UsageError):
        desk.loss_terms(batch, targets[:1], calib)
    with pytest.raises(UsageError):
        desk.loss_terms(batch, targets, [calib])


def test_loss_terms_empty_scene(desk):
    calib = make_default_calib(IMAGE_SIZE, focal=90.0)
    img, labels = synth_scene(3, 0, calib, IMAGE_SIZE)
    assert labels == []
    targets = assign_targets(labels, calib, IMAGE_SIZE)
    terms = desk.loss_terms(T.stack([img]), [targets], calib)
    for name in ("offset2d", "size2d", "offset3d", "w3d", "l3d", "h3d", "angle", "depth"):
        assert float(terms[name].data) == 0.0, name
        assert terms[name]._node is None, name
    assert float(terms["heatmap"].data) > 0.0


def test_failed_loss_terms_leaves_no_nodes(scene):
    calib, batch, targets = scene
    det = Detector(_tiny_config(), seed=0)
    dict(det.named_parameters())["heads3d.fc_size.bias"].data[0] = np.nan
    with pytest.raises(NumericError, match="output of linear"):
        det.loss_terms(batch, targets, calib)
    assert oracles.live_graph_nodes() == 0


def test_toy_step_graph_node_count():
    # one node per linear layer and per attention: the same step with the
    # attention and the linear layers as separate ops recorded 370 nodes,
    # and with NCHW maps between the token stages 290
    samples = build_synth_dataset(2, (96, 64), seed=7, n_objects=2, z_range=(4.5, 8.0), focal=120.0)
    images = T.stack([s.image for s in samples])
    det = Detector("desk", seed=0)
    T.reset_tape()
    terms = det.loss_terms(images, [s.targets for s in samples], [s.calib for s in samples])
    total, _ = total_loss(terms, make_weights(tier2=1.0, tier3=1.0))
    T.backward(total)
    assert T.tape_length() == 261


def test_channels_last_maps_record_no_layout_transposes(scene, monkeypatch):
    # maps stay [N, h, w, C] from the stem to the heads: the only recorded
    # transposes are the heatmap's to [N, C_cls, h, w] and the four weight
    # column views of the sparse offset and size heads (NCHW maps recorded 26)
    calib, batch, targets = scene
    recorded = []
    record = T._record

    def spy(name, out_data, inputs, vjp, **kwargs):
        out = record(name, out_data, inputs, vjp, **kwargs)
        if out._node is not None:
            recorded.append(name)
        return out

    monkeypatch.setattr(T, "_record", spy)
    Detector("desk", seed=0).loss_terms(batch, targets, calib)
    assert recorded.count("transpose") == 5
    assert recorded.count("conv2d") == 21


def test_conv_ffn_gelu_and_fc2_read_contiguous_tokens(monkeypatch):
    # the depthwise conv runs on fc1's tokens, so in a batch-8 training
    # forward every GELU reads and writes C-contiguous arrays and fc2's
    # x.data.reshape(-1, c) is a view of the GELU output, not a copy
    samples = build_synth_dataset(8, IMAGE_SIZE, seed=7, n_objects=2, z_range=(4.5, 8.0), focal=120.0)
    images = T.stack([s.image for s in samples])
    gelus, fc2_inputs = [], []
    gelu, linear = T.gelu, T.linear

    def spy_gelu(a):
        out = gelu(a)
        gelus.append((a.data, out.data))
        return out

    def spy_linear(x, w, b=None):
        if any(x.data is out for _, out in gelus):
            fc2_inputs.append(x.data)
        return linear(x, w, b)

    monkeypatch.setattr(T, "gelu", spy_gelu)
    monkeypatch.setattr(T, "linear", spy_linear)
    Detector("desk", seed=0).loss_terms(images, [s.targets for s in samples], [s.calib for s in samples])
    assert len(gelus) == len(fc2_inputs) == 4
    for (inp, out), x in zip(gelus, fc2_inputs):
        assert inp.shape[0] == 8 and inp.flags.c_contiguous and out.flags.c_contiguous
        assert np.shares_memory(x.reshape(-1, x.shape[-1]), out)


def test_loss_terms_scores_each_object_at_a_shared_center_cell(desk):
    calib = make_default_calib(IMAGE_SIZE, focal=90.0)
    labels = [
        LabelRecord("Car", 0.0, 0, 0.1, (cu - w / 2, cv - h / 2, cu + w / 2, cv + h / 2),
                    (1.5, 1.6, 3.9), (0.0, 1.0, 10.0), 0.1)
        for cu, cv, w, h in ((41.0, 30.0, 20.0, 16.0), (42.5, 31.0, 30.0, 24.0))
    ]
    targets = assign_targets(labels, calib, IMAGE_SIZE)
    # both centers fall in stride-4 cell (7, 10); neither target is overwritten
    assert targets.cell.tolist() == [[7, 10], [7, 10]]
    assert np.array_equal(targets.size2d, [[20.0, 16.0], [30.0, 24.0]])
    assert np.array_equal(targets.offset2d, [[0.25, 0.5], [0.625, 0.75]])

    image = np.random.default_rng(4).uniform(size=(1, 3, IMAGE_SIZE[1], IMAGE_SIZE[0]))
    terms = desk.loss_terms(image, [targets], calib)
    with T.no_grad():
        pred = desk.heads2d.size(desk.features(image)).data[0, 7, 10]
    want = np.mean(np.abs(pred - targets.size2d))
    np.testing.assert_allclose(float(terms["size2d"].data), want, rtol=1e-12, atol=0.0)


def test_offset_and_size_heads_run_no_conv(desk, scene, monkeypatch):
    # loss_terms and infer run the 2D offset and size heads at the read
    # cells only: no conv2d takes their weights, and each call gathers the
    # cells' patches once for both heads
    calib, batch, targets = scene
    sparse = {id(p) for p in desk.heads2d.offset.parameters() + desk.heads2d.size.parameters()}
    recorded = []
    record = T._record

    def spy(name, out_data, inputs, vjp, **kwargs):
        recorded.append((name, {id(t) for t in inputs}))
        return record(name, out_data, inputs, vjp, **kwargs)

    monkeypatch.setattr(T, "_record", spy)
    for call in (lambda: desk.loss_terms(batch, targets, calib), lambda: desk.infer(batch.data[0], calib)):
        recorded.clear()
        call()
        convs = [ids for name, ids in recorded if name == "conv2d"]
        assert convs and not any(ids & sparse for ids in convs)
        assert [name for name, _ in recorded].count("patches_at") == 1


def test_loss_terms_zero_area_gt_box_raises(desk, scene):
    calib, batch, targets = scene
    size2d = targets[1].size2d.copy()
    size2d[0, 0] = 0.0
    flat = dataclasses.replace(targets[1], size2d=size2d)
    with pytest.raises(DegenerateGeometryError):
        desk.loss_terms(batch, [targets[0], flat], calib)


def test_backward_reaches_every_parameter(scene):
    calib, batch, targets = scene
    det = Detector("desk", seed=0)
    total, _ = total_loss(det.loss_terms(batch, targets, calib), make_weights())
    T.backward(total)
    for name, p in det.named_parameters():
        assert p.grad is not None, name
        assert np.any(p.grad != 0.0), name


def test_zero_tier_weights_zero_the_3d_grads(scene):
    calib, batch, targets = scene
    det = Detector("desk", seed=0)
    total, _ = total_loss(
        det.loss_terms(batch, targets, calib), make_weights(tier2=0.0, tier3=0.0)
    )
    T.backward(total)
    for name, p in det.heads3d.named_parameters():
        assert np.all(p.grad == 0.0), name
    heat = dict(det.heads2d.named_parameters())
    assert any(np.any(p.grad != 0.0) for p in heat.values())


def test_infer_untrained_is_quiet_and_deterministic(desk, scene):
    calib, batch, _ = scene
    img = batch.data[0]
    dets_a, drops_a = desk.infer(img, calib, k=10)
    dets_b, drops_b = desk.infer(img, calib, k=10)
    assert drops_a == drops_b
    assert np.array_equal(dets_a.score, dets_b.score)
    assert np.array_equal(dets_a.rows, dets_b.rows)
    with pytest.raises(UsageError):
        desk.infer(batch, calib)


@pytest.fixture(scope="module")
def toy_checkpoint(tmp_path_factory):
    """Desk detector after 10 epochs on 8 toy scenes, through a checkpoint;
    about half of its k=50 peaks have a box inside the map."""
    data = build_synth_dataset(8, IMAGE_SIZE, seed=7, n_objects=2, z_range=(4.5, 8.0), focal=120.0)
    trained = Detector("desk", seed=0)
    train_detector(trained, data, epochs=10, batch_size=8, lr=2.5e-4, decay_epochs=(150, 180))
    path = tmp_path_factory.mktemp("toy") / "model.ckpt"
    save_checkpoint(path, trained)
    calib = data[0].calib
    images = [synth_scene(s, 2, calib, IMAGE_SIZE, z_range=(4.5, 8.0))[0] for s in (7, 21, 22)]
    return path, calib, images


def _load(path, dtype=np.float32):
    """Desk detector from the checkpoint; dtype float64 upcasts its weights."""
    det = Detector("desk", seed=0)
    load_checkpoint(path, det)
    for p in det.parameters():
        p.data = p.data.astype(dtype)
    return det


def _infer_per_peak(det, image, calib, k):
    """Reference loop: crop, 3D heads and scalar decode one peak at a time."""
    with T.no_grad():
        feat = det.features(image.data.astype(det.dtype))  # as infer casts it
        found = decode_heatmap_peaks(det.heads2d(feat).data[0], k=k)
        at = (0, found.row, found.col)  # [K, 2]: the dense offset and size maps at the peaks
        peaks = found.boxes(det.heads2d.offset(feat).data[at], det.heads2d.size(feat).data[at])
        drops, dets3d = {}, []
        for i in range(len(peaks)):
            if peaks.size[i, 1] <= MIN_H2D_PIXELS:
                drops["h2d_degenerate"] = drops.get("h2d_degenerate", 0) + 1
                continue
            roi, valid = roi_crop(feat, peaks[[i]], [0])
            if not valid[0]:
                drops["roi_degenerate"] = drops.get("roi_degenerate", 0) + 1
                continue
            d3 = oracles.decode_box3d_scalar(
                peaks.class_id[i], peaks.score[i], peaks.center[i], peaks.size[i],
                det.heads3d(roi), calib,
            )
            if d3 is None:
                drops["nonpositive_depth"] = drops.get("nonpositive_depth", 0) + 1
            elif min(d3[2][3:6]) <= 0.0:
                drops["nonpositive_dimension"] = drops.get("nonpositive_dimension", 0) + 1
            else:
                dets3d.append(d3)
    return dets3d, drops


def _count_heads3d_calls(monkeypatch):
    calls = []
    orig = Heads3D.__call__

    def counted(self, rois):
        calls.append(rois.shape[0])
        return orig(self, rois)

    monkeypatch.setattr(Heads3D, "__call__", counted)
    return calls


def test_batched_infer_matches_per_peak_loop(toy_checkpoint, monkeypatch):
    path, calib, images = toy_checkpoint
    # float64: in float32, heads3d on one RoI rounds its GEMMs differently
    # from heads3d on the batch (~1e-7 relative)
    det = _load(path, np.float64)
    reasons = set()
    for image in images:
        want, want_drops = _infer_per_peak(det, image, calib, k=50)
        calls = _count_heads3d_calls(monkeypatch)
        got, drops = det.infer(image, calib, k=50)
        monkeypatch.undo()
        decoded = len(got) + drops.get("nonpositive_depth", 0) + drops.get("nonpositive_dimension", 0)
        assert calls == [decoded]
        assert drops == want_drops
        assert len(got) + sum(drops.values()) == 50
        assert len(got) == len(want) > 0
        assert got.class_id.tolist() == [w[0] for w in want]
        np.testing.assert_allclose(
            np.column_stack([got.rows, got.score, got.depth_sigma]),
            [(*row, score, sigma) for _, score, row, sigma in want],
            rtol=1e-9,
            atol=0.0,
        )
        reasons.update(drops)
    assert {"h2d_degenerate", "roi_degenerate"} <= reasons


@pytest.mark.parametrize(
    "size_bias, reason", [((10.0, 0.0), "h2d_degenerate"), ((0.0, 10.0), "roi_degenerate")]
)
def test_infer_without_surviving_peaks_skips_heads3d(toy_checkpoint, monkeypatch, size_bias, reason):
    # a constant predicted 2D size of (w, h) = size_bias at every cell
    path, calib, images = toy_checkpoint
    det = _load(path)
    det.heads2d.size.conv2.weight.data[...] = 0.0
    det.heads2d.size.conv2.bias.data[...] = size_bias
    want, want_drops = _infer_per_peak(det, images[0], calib, k=50)
    calls = _count_heads3d_calls(monkeypatch)
    got, drops = det.infer(images[0], calib, k=50)
    assert isinstance(got, Detections3D) and len(got) == 0 and want == []
    assert drops == want_drops == {reason: 50}
    assert calls == []


def test_loaded_detector_infers_in_float32(toy_checkpoint, monkeypatch):
    path, calib, images = toy_checkpoint
    det = _load(path)
    assert det.dtype == np.float32
    assert {p.dtype for p in det.parameters()} == {np.dtype(np.float32)}
    recorded = []
    record = T._record

    def spy(name, out_data, inputs, vjp, **kwargs):
        recorded.append((name, out_data.dtype))
        return record(name, out_data, inputs, vjp, **kwargs)

    monkeypatch.setattr(T, "_record", spy)
    dets, _ = det.infer(images[0], calib, k=50)
    assert len(dets) > 0 and any(name == "roi_align" for name, _ in recorded)
    assert [op for op in recorded if op[1] != np.float32] == []


def test_float32_detections_are_float64_near_the_float64_run(toy_checkpoint):
    path, calib, images = toy_checkpoint
    det32, det64 = _load(path), _load(path, np.float64)
    assert Detector("desk", seed=0).dtype == det64.dtype == np.float64
    for image in images:
        got, got_drops = det32.infer(image, calib, k=50)
        want, want_drops = det64.infer(image, calib, k=50)
        assert {got.score.dtype, got.rows.dtype, got.depth_sigma.dtype} == {np.dtype(np.float64)}
        assert got_drops == want_drops
        assert np.array_equal(got.class_id, want.class_id) and len(got) > 0
        np.testing.assert_allclose(
            np.column_stack([got.rows, got.score, got.depth_sigma]),
            np.column_stack([want.rows, want.score, want.depth_sigma]),
            rtol=0,
            atol=1e-4,
        )


def test_loss_terms_refuses_a_loaded_detector(toy_checkpoint, scene):
    calib, batch, targets = scene
    det = _load(toy_checkpoint[0])
    with pytest.raises(UsageError, match="float64"):
        det.loss_terms(batch, targets, calib)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    src = Detector(_tiny_config(), seed=1)
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, src)
    blob = path.read_bytes()
    sidecar = (tmp_path / "a.ckpt.json").read_bytes()

    dst = Detector(_tiny_config(), seed=2)
    assert any(
        not np.array_equal(p.data, q.data)
        for (_, p), (_, q) in zip(src.named_parameters(), dst.named_parameters())
    )
    load_checkpoint(path, dst)
    path2 = tmp_path / "b.ckpt"
    save_checkpoint(path2, dst)
    assert path2.read_bytes() == blob
    assert (tmp_path / "b.ckpt.json").read_bytes() == sidecar
    for (_, p), (_, q) in zip(src.named_parameters(), dst.named_parameters()):
        assert np.array_equal(p.data.astype("<f4").astype(np.float64), q.data)


def test_checkpoint_layout_matches_manifest(tmp_path):
    det = Detector(_tiny_config(), seed=4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, det)
    manifest = json.loads((tmp_path / "m.ckpt.json").read_text())
    data = np.fromfile(path, dtype="<f4")
    assert manifest["total_elements"] == data.size
    assert path.stat().st_size == 4 * data.size
    assert manifest_path(path) == str(path) + ".json"
    params = dict(det.named_parameters())
    assert set(manifest["params"]) == set(params)
    for name, entry in manifest["params"].items():
        lo = entry["offset"]
        n = int(np.prod(entry["shape"])) if entry["shape"] else 1
        got = data[lo : lo + n].reshape(entry["shape"])
        assert np.array_equal(got, params[name].data.astype("<f4"))


def test_desk_checkpoint_layout_pinned(desk):
    # sha256 of the sorted (name, shape) list: any renamed or resized
    # parameter changes it, and old desk checkpoints would stop loading
    layout = sorted((name, list(p.shape)) for name, p in desk.named_parameters())
    digest = hashlib.sha256(json.dumps(layout).encode("ascii")).hexdigest()
    assert digest == "06bb5960271facd56a52fc5c327ce94947ab0fdc77d74c9c18687c29fe94e143"
    assert len(layout) == 144
    assert desk.num_parameters() == 608637


def test_load_detector_builds_the_model_the_manifest_describes(toy_checkpoint, tmp_path):
    path = toy_checkpoint[0]
    det = load_detector(path)
    assert (det.variant, det.use_attention, det.num_classes) == ("desk", True, 3)
    want = _load(path)
    for (name, p), (_, q) in zip(det.named_parameters(), want.named_parameters()):
        assert p.dtype == np.float32 and np.array_equal(p.data, q.data), name
    ablated = tmp_path / "ablated.ckpt"
    save_checkpoint(ablated, Detector("desk", use_attention=False, seed=3, num_classes=2))
    det = load_detector(ablated)
    assert (det.variant, det.use_attention, det.num_classes) == ("desk", False, 2)


def test_checkpoint_variant_mismatch_names_both(tmp_path):
    path = tmp_path / "v.ckpt"
    save_checkpoint(path, Detector(_tiny_config("tiny_a"), seed=0))
    with pytest.raises(UsageError, match="tiny_a.*tiny_b"):
        load_checkpoint(path, Detector(_tiny_config("tiny_b"), seed=0))


def test_checkpoint_attention_mismatch(tmp_path):
    cfg_off = BackboneConfig(name="tiny", stages=_tiny_config().stages, use_attention=False)
    path = tmp_path / "att.ckpt"
    save_checkpoint(path, Detector(cfg_off, seed=0))
    with pytest.raises(UsageError, match="attention=False.*attention=True"):
        load_checkpoint(path, Detector(_tiny_config(), seed=0))


def test_checkpoint_class_count_mismatch(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, Detector(_tiny_config(), seed=0, num_classes=2))
    with pytest.raises(UsageError, match="2 classes.*3"):
        load_checkpoint(path, Detector(_tiny_config(), seed=0, num_classes=3))


def test_checkpoint_truncated_file_rejected(tmp_path):
    det = Detector(_tiny_config(), seed=0)
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, det)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(UsageError, match="float32 values"):
        load_checkpoint(path, det)


def test_checkpoint_tampered_manifest_rejected(tmp_path):
    det = Detector(_tiny_config(), seed=0)
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, det)
    side = tmp_path / "x.ckpt.json"
    manifest = json.loads(side.read_text())

    bad = json.loads(side.read_text())
    name = sorted(bad["params"])[0]
    bad["params"][name]["shape"] = [1, 2, 3]
    side.write_text(json.dumps(bad))
    with pytest.raises(UsageError, match="shape"):
        load_checkpoint(path, det)

    bad = json.loads(json.dumps(manifest))
    entry = bad["params"].pop(name)
    bad["params"]["not_a_param"] = entry
    side.write_text(json.dumps(bad))
    with pytest.raises(UsageError, match="missing.*unexpected"):
        load_checkpoint(path, det)

    # offsets must tile the file in offset order, and malformed manifests
    # are rejected by name rather than loaded or crashed on
    at_other = manifest["params"]["heads2d.heat.conv1.bias"]["offset"]
    edits = [
        lambda m, e: e.update(offset=-100),
        lambda m, e: e.update(offset=at_other),  # two entries at one offset
        lambda m, e: e.update(offset=float(e["offset"])),
        lambda m, e: e.update(offset=True),
        lambda m, e: e.update(shape=[float(d) for d in e["shape"]]),
        lambda m, e: m.pop("params"),
        lambda m, e: m.pop("variant"),
        lambda m, e: m.pop("dtype"),
        lambda m, e: m.update(dtype=">f8"),
        lambda m, e: m.update(dtype="<f8"),
        lambda m, e: m.update(total_elements=m["total_elements"] + 8),
        lambda m, e: m.update(use_attention="yes"),
        lambda m, e: m.update(num_classes=0),
    ]
    for edit in edits:
        bad = json.loads(json.dumps(manifest))
        edit(bad, bad["params"]["neck.fuses.0.conv.bias"])
        side.write_text(json.dumps(bad))
        with pytest.raises(UsageError, match="x.ckpt.json"):
            load_checkpoint(path, det)
    for text in ("{not json", "[1, 2]", "\xff"):
        side.write_text(text, encoding="latin-1")
        with pytest.raises(UsageError, match="x.ckpt.json"):
            load_checkpoint(path, det)
    # a variant outside the backbone table cannot define a model
    side.write_text(json.dumps({**manifest, "variant": "b7"}))
    with pytest.raises(UsageError, match="x.ckpt.json.*unknown backbone variant 'b7'"):
        load_detector(path)
    side.write_text(json.dumps(manifest))
    load_checkpoint(path, det)

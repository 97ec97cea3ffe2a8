"""Span tracer for the traced benchmark run.

The tracer wraps the public entry points of each mono3d layer from
outside the package: every wrapper is installed on the name its caller
looks up (a class's `__call__`, or the module attribute the caller
reads at call time, such as `mono3d.model.roi_crop`). Each call records
one span: name, start, end, parent span and the operation it belongs
to. Spans stay in memory and are written once, at the end of the run.

Besides time, a few wrappers record work at the same boundary. The
conv FLOPs and the kernel bytes are computed from array shapes, not
measured: this is a CPU run without hardware counters.
"""

from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    """Spans and work of every wrapped call; the caller sets `op` to the
    index of the operation that is about to run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        # one entry per span, in call order: name id, start, end, parent
        # span index (-1 at top level) and the operation it belongs to
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._stack = []
        self.op = 0
        self.work = Counter()  # computed work and counts, summed over calls
        self._iou_pairs = set()
        self._undo = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr, name, account=None):
        """Replace owner.attr by a span-recording wrapper.

        `name` is a span name or a function of the call's arguments that
        returns one; `account(name, args, result)` records work.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fixed = None if callable(name) else self._id(name)
        stack, ids = self._stack, self._id
        names, starts, ends, parents, ops = (
            self._name, self._start, self._end, self._parent, self._op
        )

        def wrapper(*args, **kwargs):
            label = fixed if fixed is not None else ids(name(args))
            index = len(names)
            names.append(label)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = orig(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if account is not None:
                account(self.names[label], args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        """Put back every original; install() can then run again."""
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def install(self):
        from mono3d import backbone, evaluation, geometry, heads, kitti, kernels, model, neck, nn
        from mono3d import tensor, train

        wrap = self.wrap
        wrap(model.Detector, "loss_terms", "model.loss_terms")
        wrap(model.Detector, "infer", "model.infer")
        wrap(model.Detector, "features", "model.features")
        wrap(backbone.Backbone, "__call__", "backbone")
        wrap(backbone.PatchEmbed, "__call__", "backbone.embed")
        wrap(backbone.SpatialReductionAttention, "__call__", "backbone.attn")
        wrap(backbone.ConvFFN, "__call__", "backbone.ffn")
        wrap(neck.Neck, "__call__", "neck")
        wrap(heads.Heads2D, "__call__", "heads.heads2d")
        wrap(model, "decode_heatmap_peaks", "heads.decode_peaks")
        wrap(model, "roi_crop", "heads.roi_crop")
        wrap(heads.Heads3D, "__call__", "heads.heads3d")
        wrap(model, "decode_box3d", "heads.decode_box3d")
        for fn in ("focal_loss", "l1_masked", "laplacian_nll", "angle_loss", "depth_loss"):
            wrap(model, fn, "losses")
        wrap(tensor, "backward", "tensor.backward")
        wrap(nn.Conv2d, "__call__", _conv_name, self._conv_flops)
        wrap(nn.Linear, "__call__", "nn.linear")
        wrap(nn.LayerNorm, "__call__", "nn.layernorm")
        for fn in ("im2col", "col2im", "bilinear_gather", "bilinear_scatter"):
            wrap(kernels, fn, "kernels." + fn, self._array_bytes)
        wrap(train.Adam, "step", "train.adam_step")
        wrap(evaluation, "iou_3d", "geometry.iou_3d", self._iou_pair)
        wrap(evaluation, "iou_bev", "geometry.iou_bev", self._iou_pair)
        wrap(geometry, "convex_clip", "geometry.convex_clip")
        wrap(evaluation, "evaluate_split", "evaluation.evaluate_split")
        wrap(evaluation, "parse_label_file", "kitti.parse_label_file")
        wrap(kitti, "read_ppm", "kitti.read_ppm")
        wrap(kitti, "write_predictions", "kitti.write_predictions")

    # -- work recorded at the boundaries --------------------------------

    def _conv_flops(self, name, args, out):
        conv = args[0]
        _, cg, kh, kw = conv.weight.shape
        self.work[name + ".gflop"] += 2.0 * out.size * cg * kh * kw / 1e9

    def _array_bytes(self, name, args, out):
        nbytes = out.nbytes + sum(a.nbytes for a in args if isinstance(a, np.ndarray))
        self.work[name + ".mb"] += nbytes / 1e6

    def _iou_pair(self, name, args, result):
        # Keyed by box values: the evaluator rebuilds Box3D objects per call.
        a, b = args
        key = (self.op, name, a.location, a.dimensions, a.yaw, b.location, b.dimensions, b.yaw)
        self._iou_pairs.add(key)
        self.work["geometry.iou_calls"] += 1

    # -- results ----------------------------------------------------------

    def layer_metrics(self, n_ops, scale):
        """Per-operation span times (ms), call counts and recorded work.
        Each span's duration is multiplied by scale[op] of its operation."""
        name_id, start, end, parent, op = self._columns()
        dur = (end - start) * np.asarray(scale)[op]
        n_names = len(self.names)
        total = np.bincount(name_id, weights=dur, minlength=n_names)
        calls = np.bincount(name_id, minlength=n_names)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = np.bincount(name_id, weights=dur - child, minlength=n_names)
        out = {}
        for i, name in enumerate(self.names):
            out[name + ".ms"] = total[i] * 1e3 / n_ops
            out[name + ".calls"] = calls[i] / n_ops
            out[name + ".self_ms"] = own[i] * 1e3 / n_ops
        for name, value in self.work.items():
            out[name] = value / n_ops
        iou_calls = self.work["geometry.iou_calls"]
        out["geometry.iou_distinct_ratio"] = len(self._iou_pairs) / iou_calls if iou_calls else 0.0
        return out

    def top_span_ms(self, scale):
        """Per operation: summed duration of spans with no parent (ms),
        multiplied by scale[op]."""
        name_id, start, end, parent, op = self._columns()
        top = parent < 0
        per_op = np.bincount(op[top], weights=(end - start)[top] * np.asarray(scale)[op[top]])
        return per_op[np.unique(op[top])] * 1e3

    def _columns(self):
        return (
            np.array(self._name, dtype=np.int64),
            np.array(self._start, dtype=np.float64),
            np.array(self._end, dtype=np.float64),
            np.array(self._parent, dtype=np.int64),
            np.array(self._op, dtype=np.int64),
        )

    def save(self, path):
        name_id, start, end, parent, op = self._columns()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id, start=start, end=end,
            parent=parent, op=op,
        )


def _conv_name(args):
    return "nn.conv2d_dw" if args[0].groups > 1 else "nn.conv2d"


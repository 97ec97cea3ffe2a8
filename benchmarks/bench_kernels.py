"""Median wall times of the numpy kernels in mono3d.kernels.

Each hot kernel runs on a representative workload, once as warmup and
then --repeats times; the median is reported per kernel. A composite row
times a full desk backbone forward/backward pass, which exercises im2col
and col2im the way training does.

Usage: python3 benchmarks/bench_kernels.py [--repeats N] [--quick]
"""

import argparse
import time

import numpy as np

from mono3d import kernels
from mono3d import tensor as T
from mono3d.model import Detector
from mono3d.tensor import Tensor


def _roi_args(rng, n, h, w, m, r):
    """m RoIs of r x r samples spread over an n-image h x w map."""
    bidx = rng.integers(0, n, size=m)
    ys = rng.uniform(0.0, h - 1.0, size=(m, r))
    xs = rng.uniform(0.0, w - 1.0, size=(m, r))
    iy0 = np.floor(ys).astype(np.int64)
    ix0 = np.floor(xs).astype(np.int64)
    iy1 = np.minimum(iy0 + 1, h - 1)
    ix1 = np.minimum(ix0 + 1, w - 1)
    return bidx, iy0, iy1, ys - iy0, ix0, ix1, xs - ix0


def build_workloads(quick):
    rng = np.random.default_rng(0)
    scale = 2 if quick else 1

    n, c, hp, wp = 4, 32, 66 // scale + 2, 66 // scale + 2
    oh = ow = hp - 2
    xp = rng.normal(size=(n, c, hp, wp))
    cols = rng.normal(size=(n, c, 9, oh * ow))

    # the neck's largest toy-step resize: 8 x 64 x 8 x 12 -> 16 x 24
    gh, gw = 8 // scale, 12 // scale
    feat = rng.normal(size=(8, 64, gh, gw))
    wy, wx = T._interp_matrix(2 * gh, gh), T._interp_matrix(2 * gw, gw)
    gout = rng.normal(size=(8, 64, 2 * gh, 2 * gw))

    # a toy training batch: 16 ground-truth RoIs on the 8 x 64 x 16 x 24 map
    rn, rh, rw = 8, 16, 24
    rmap = rng.normal(size=(rn, 64, rh, rw))
    rois = _roi_args(rng, rn, rh, rw, 16, 7)
    rout = rng.normal(size=(16, 64, 7, 7))

    n_pairs = 64 // scale
    boxes_a = np.column_stack(
        [
            rng.uniform(-10, 10, n_pairs),
            rng.uniform(5, 40, n_pairs),
            rng.uniform(1.2, 2.4, n_pairs),
            rng.uniform(0.6, 1.1, n_pairs),
            rng.uniform(-np.pi, np.pi, n_pairs),
        ]
    )
    boxes_b = boxes_a + rng.normal(scale=0.4, size=boxes_a.shape)

    return [
        ("im2col", lambda: kernels.im2col(xp, 3, 3, 1, 1, oh, ow)),
        ("col2im", lambda: kernels.col2im(cols, hp, wp, 3, 3, 1, 1, oh, ow)),
        ("bilinear_gather", lambda: kernels.bilinear_gather(feat, wy, wx)),
        ("bilinear_scatter", lambda: kernels.bilinear_scatter(gout, wy, wx)),
        ("roi_gather", lambda: kernels.roi_gather(rmap, *rois)),
        ("roi_scatter", lambda: kernels.roi_scatter(rout, *rois, rn, rh, rw)),
        ("raster_iou", lambda: kernels.raster_iou(boxes_a, boxes_b, 256 // scale)),
        ("desk_fwd_bwd", _desk_step(quick)),
    ]


def _desk_step(quick):
    det = Detector("desk", seed=0)
    h, w = (64, 128) if quick else (128, 256)
    x = Tensor(np.random.default_rng(1).normal(size=(1, 3, h, w)))

    def run():
        feats = det.features(x)
        loss = T.sum_(feats[0] ** 2.0)
        T.backward(loss)
        out = feats[0].data.copy()
        det.zero_grads()
        return out

    return run


def _median_time(fn, repeats):
    fn()  # warmup
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--quick", action="store_true", help="smaller workloads")
    args = ap.parse_args()

    rows = [(name, _median_time(fn, args.repeats)) for name, fn in build_workloads(args.quick)]

    width = max(len(name) for name, _ in rows)
    header = f"{'kernel'.ljust(width)}  median[ms]"
    print(header)
    print("-" * len(header))
    for name, t in rows:
        print(f"{name.ljust(width)}  {t * 1e3:10.3f}")


if __name__ == "__main__":
    main()

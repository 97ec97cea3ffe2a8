"""Median wall times of the numpy kernels in mono3d.kernels.

Each hot kernel runs on a representative workload, once as warmup and
then --repeats times; the median is reported per kernel. Maps are
channels-last. The conv kernels run on several shapes, one row each,
named `kernel[N,h,w,C]` (the unpadded input, float64 unless marked f32):
im2col on the toy step's hot 3x3 neck conv input, the 7x7 stride-4 stem
of a toy batch and a 3x3 conv at desk KITTI size; col2im on the toy
step's second patch embed (3x3, stride 2); depthwise3x3 on the four
toy-step FFN maps and desk stage 1 at KITTI size. A composite row times
a full desk backbone forward/backward pass, which exercises im2col and
col2im the way training does.

Usage: python3 benchmarks/bench_kernels.py [--repeats N] [--quick]
"""

import argparse
import time

import numpy as np

from mono3d import kernels
from mono3d import tensor as T
from mono3d.model import Detector
from mono3d.tensor import Tensor


def _roi_taps(rng, n, h, w, m, r):
    """m RoIs of r x r bilinear samples (4 corner taps each) over an n-image h x w map."""
    image = rng.integers(0, n, size=m)
    ys = rng.uniform(0.0, h - 1.0, size=(m, r * r, 1))
    xs = rng.uniform(0.0, w - 1.0, size=(m, r * r, 1))
    iy0, ix0 = np.floor(ys).astype(np.int64), np.floor(xs).astype(np.int64)
    iy1, ix1 = np.minimum(iy0 + 1, h - 1), np.minimum(ix0 + 1, w - 1)
    fy, fx = ys - iy0, xs - ix0
    tys = np.concatenate([iy0, iy0, iy1, iy1], axis=2)
    txs = np.concatenate([ix0, ix1, ix0, ix1], axis=2)
    weights = np.concatenate([(1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx], axis=2)
    return image, tys, txs, weights


def build_workloads(quick):
    rng = np.random.default_rng(0)
    scale = 2 if quick else 1

    # col2im serves only strided convs: the toy step's second patch embed,
    # 3x3 stride 2 padding 1 from 8 x 16 x 24 x 16, scatters its patch matrix
    n, h, w, c = 8, 16 // scale, 24 // scale, 16
    hp, wp = h + 2, w + 2
    oh2, ow2 = (hp - 3) // 2 + 1, (wp - 3) // 2 + 1
    cols = rng.normal(size=(n * oh2 * ow2, 9 * c))

    # the neck's largest toy-step resize: 8 x 8 x 12 x 64 -> 16 x 24
    gh, gw = 8 // scale, 12 // scale
    feat = rng.normal(size=(8, gh, gw, 64))
    wy, wx = T._interp_matrix(2 * gh, gh), T._interp_matrix(2 * gw, gw)
    gout = rng.normal(size=(8, 2 * gh, 2 * gw, 64))

    # a toy training batch: 16 ground-truth RoIs on the 8 x 16 x 24 x 64 map
    rn, rh, rw = 8, 16, 24
    rmap = rng.normal(size=(rn, rh, rw, 64))
    taps = _roi_taps(rng, rn, rh, rw, 16, 7)
    rout = rng.normal(size=(16, 7 * 7, 64))

    # the GELU input of the toy step's stage-1 FFN, scaled by 1/sqrt(2)
    gelu_in = rng.normal(size=(8, 384 // scale, 32)) / np.sqrt(2.0)

    return [
        *_conv_rows(rng, scale),
        (_row("col2im", (n, h, w, c), np.float64), lambda: kernels.col2im(cols, hp, wp, 3, 3, 2)),
        ("bilinear_gather", lambda: kernels.bilinear_gather(feat, wy, wx)),
        ("bilinear_scatter", lambda: kernels.bilinear_scatter(gout, wy, wx)),
        ("tap_gather", lambda: kernels.tap_gather(rmap, *taps)),
        ("tap_scatter", lambda: kernels.tap_scatter(rout, *taps, rn, rh, rw)),
        ("erf", lambda: kernels.erf(gelu_in)),
        ("desk_fwd_bwd", _desk_step(quick)),
    ]


def _conv_rows(rng, scale):
    """im2col rows (kernel k, stride s) and depthwise3x3 rows on zero-padded
    channels-last frames."""
    dense = [((8, 16, 24, 64), 3, 1, np.float64), ((8, 64, 96, 3), 7, 4, np.float64),
             ((1, 96, 320, 64), 3, 1, np.float32)]
    depthwise = [((8, 16, 24, 32), np.float64), ((8, 8, 12, 64), np.float64), ((8, 4, 6, 128), np.float64),
                 ((8, 2, 3, 256), np.float64), ((1, 96, 320, 32), np.float32)]
    rows = []
    for (n, h, w, c), k, s, dtype in dense:
        h, w = h // scale, w // scale
        xp = rng.normal(size=(n, h + k - 1, w + k - 1, c)).astype(dtype)  # padded by k // 2
        rows.append((_row("im2col", (n, h, w, c), dtype), lambda xp=xp, k=k, s=s: kernels.im2col(xp, k, k, s)))
    for (n, h, w, c), dtype in depthwise:
        h, w = max(h // scale, 1), max(w // scale, 1)
        xp = rng.normal(size=(n, h + 2, (w + 2) * c)).astype(dtype)
        taps = rng.normal(size=(9, w * c)).astype(dtype)
        rows.append((_row("depthwise3x3", (n, h, w, c), dtype), lambda xp=xp, taps=taps: kernels.depthwise3x3(xp, taps)))
    return rows


def _row(kernel, shape, dtype):
    return f"{kernel}[{','.join(map(str, shape))}]" + ("f32" if dtype == np.float32 else "")


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

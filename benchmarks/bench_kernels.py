"""Median wall times of the numpy kernels in mono3d.kernels.

Each hot kernel runs on a representative workload, once as warmup and
then --repeats times; the median is reported per kernel. Maps are
channels-last. The conv kernels run on several shapes, one row each,
named `kernel[N,h,w,C]` (the unpadded input, float64 unless marked f32):
im2col on the toy step's hot 3x3 neck conv input, the 7x7 stride-4 stem
of a toy batch and a 3x3 conv at desk KITTI size; col2im on the toy
step's second patch embed (3x3, stride 2); depthwise3x3 on the four
toy-step FFN maps and desk stage 1 at KITTI size. T.conv2d's forward,
which runs stride-1 and depthwise convs in row bands, has rows
`conv2d[N,h,w,C]` (64->64 3x3 convs, f32: one at desk KITTI size and
the RoI trunk of an infer_toy image, 18 crops of 7 x 7) and
`conv2d_dw[N,h,w,C]` (b2's stage-1 FFN depthwise conv). tensor.layer_norm's
forward, which runs 23 times per desk image, has rows
`layer_norm[N,tokens,C]`: a toy step's stage-1 tokens and a 48 x 160
desk stage-1 token map in f32. A composite row times a full desk
backbone forward/backward pass, which exercises im2col and col2im the
way training does.

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
        *_layer_norm_rows(rng, scale),
        (_row("col2im", (n, h, w, c), np.float64), lambda: kernels.col2im(cols, hp, wp, 3, 3, 2)),
        ("bilinear_gather", lambda: kernels.bilinear_gather(feat, wy, wx)),
        ("bilinear_scatter", lambda: kernels.bilinear_scatter(gout, wy, wx)),
        ("tap_gather", lambda: kernels.tap_gather(rmap, *taps)),
        ("tap_scatter", lambda: kernels.tap_scatter(rout, *taps, rn, rh, rw)),
        ("erf", lambda: kernels.erf(gelu_in)),
        ("desk_fwd_bwd", _desk_step(quick)),
    ]


def _conv_rows(rng, scale):
    """im2col rows (kernel k, stride s, padding k // 2) and depthwise3x3
    rows, each over a whole map, and T.conv2d forward rows of the maps
    that take several bands."""
    dense = [((8, 16, 24, 64), 3, 1, np.float64), ((8, 64, 96, 3), 7, 4, np.float64),
             ((1, 96, 320, 64), 3, 1, np.float32)]
    depthwise = [((8, 16, 24, 32), np.float64), ((8, 8, 12, 64), np.float64), ((8, 4, 6, 128), np.float64),
                 ((8, 2, 3, 256), np.float64), ((1, 96, 320, 32), np.float32)]
    rows = []
    for (n, h, w, c), k, s, dtype in dense:
        h, w = h // scale, w // scale
        x = rng.normal(size=(n, h, w, c)).astype(dtype)
        rows.append((_row("im2col", x.shape, dtype), lambda x=x, k=k, s=s: kernels.im2col(x, k, k, s, (k // 2, k // 2))))
    for (n, h, w, c), dtype in depthwise:
        h, w = max(h // scale, 1), max(w // scale, 1)
        x = rng.normal(size=(n, h, w, c)).astype(dtype)
        taps, out = rng.normal(size=(9, w * c)).astype(dtype), np.empty_like(x)
        rows.append((
            _row("depthwise3x3", x.shape, dtype),
            lambda x=x, taps=taps, out=out: kernels.depthwise3x3(x, taps, slice(None), slice(None), out),
        ))
    # a desk KITTI-size stage-1 3x3 conv, infer_toy's RoI-trunk conv over
    # 18 crops and a b2 stage-1 FFN depthwise conv
    for name, (n, h, w, c), groups, dtype in (("conv2d", (1, 96, 320, 64), 1, np.float32),
                                              ("conv2d", (18, 7, 7, 64), 1, np.float32),
                                              ("conv2d_dw", (1, 95, 320, 512), 512, np.float64)):
        x = Tensor(rng.normal(size=(n, h // scale, w // scale, c)), dtype=dtype)
        wt = Tensor(rng.normal(size=(c, c // groups, 3, 3)), dtype=dtype)
        rows.append((_row(name, x.shape, dtype), lambda x=x, wt=wt, g=groups: T.conv2d(x, wt, padding=1, groups=g)))
    return rows


def _layer_norm_rows(rng, scale):
    rows = []
    for (n, t, c), dtype in (((8, 384, 16), np.float64), ((1, 7680, 16), np.float32)):
        x = Tensor(rng.normal(size=(n, t // scale, c)), dtype=dtype)
        gamma, beta = (Tensor(rng.normal(size=c), dtype=dtype) for _ in range(2))
        rows.append((_row("layer_norm", x.shape, dtype), lambda x=x, g=gamma, b=beta: T.layer_norm(x, g, b)))
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

"""Smoke run of benchmarks/bench_kernels.py, so it cannot drift from mono3d.kernels."""

import inspect
import subprocess
import sys
from pathlib import Path

from mono3d import kernels

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


def test_bench_kernels_quick_prints_one_row_per_kernel():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--quick", "--repeats", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # a kernel timed on several shapes has one `kernel[shape]` row per shape
    rows = {line.split()[0].split("[")[0] for line in proc.stdout.splitlines()[2:]}
    public = [
        name
        for name, fn in inspect.getmembers(kernels, inspect.isfunction)
        if fn.__module__ == kernels.__name__ and not name.startswith("_")
    ]
    public.remove("active_backend")  # a run fact, not a kernel
    # besides the kernels: the composite step, tensor.layer_norm and the
    # banded dense and depthwise T.conv2d forwards
    assert sorted(rows) == sorted(public + ["conv2d", "conv2d_dw", "desk_fwd_bwd", "layer_norm"]), proc.stdout

"""The mono3d benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

With --workload, the process times a fresh interpreter that starts and
imports mono3d from src/, and the workload's set-up, several times each
(set-up time is the sum of the two medians), then runs the workload's
operation in a closed loop for S seconds and prints one JSON object as
the last line of standard output. Run facts (git sha, cores, Python,
numpy and BLAS versions, BLAS threads, kernel backend, line count of
src/mono3d, and the run's wall-clock figures) go on the line before it.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
reports its per-layer metrics: every second operation runs with span
wrappers on each mono3d layer (spans.py), the others untraced, and each
traced operation runs on the same input as the untraced one before it,
so the tracing overhead is measured in the same process over the same
time. The spans are written to perfbench/out/trace_<workload>.npz.

Times are reported at a reference speed. The speed of the shared
machines this runs on drifts by up to ~1.7x for minutes at a time, and
process CPU time drifts with wall time, so the drift is not time stolen
from the process but slower execution of the same instructions. A fixed
pure-Python calibration loop, which runs no mono3d code, is timed next
to the work (between set-up steps, and every CAL_EVERY_S between
operations), and every reported time is the wall time multiplied by
CAL_REF_MS over the calibration time around it: the time the work would
take where the loop takes CAL_REF_MS. A change to mono3d leaves the loop
alone, so the scaled times move with the program and much less with the
machine. The raw wall-clock figures are reported too: in the run facts
line and, with --trace 1, as the wall.* and calib.* metrics.

--all runs every workload in its own process, prints each metric with
its unit and the error rate, and writes the results and run facts to
perfbench/out/results.json.

Every operation's outputs are checked (see workloads.py); any failed
check makes the run report correct=false and exit with status 1.
"""

import argparse
import bisect
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
# What a fresh interpreter imports before a workload can be set up; argv
# holds the directories to import from.
IMPORTS = "import sys; sys.path[:0] = sys.argv[1:]; import spans, workloads"
CAL_REF_MS = 6.0
CAL_EVERY_S = 0.25
WALL_UNITS = {"setup_s": "s", "latency_ms_p50": "ms", "images_per_s": "1/s", "calibration_ms": "ms"}


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def f(self, x):
        return self.a * x + self.b


def calibration_ms():
    """One run of the calibration loop (ms): integer arithmetic, then
    object creation, method calls and dict inserts, the kind of work the
    interpreter does in mono3d's Python layers."""
    t = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    table = {}
    for k in range(4000):
        point = _Point(k, k + 1)
        table[(k, point.a)] = point.f(k)
    return (time.perf_counter() - t) * 1e3


class Calibration:
    """Calibration samples along a loop, each at a position: a sample
    taken just before operation k sits at k - 0.5. scale(k) is the factor
    that takes operation k's wall time to the reference speed, from the
    median of the two samples before it and the one after it."""

    def __init__(self):
        self.pos = []
        self.ms = []
        self.last = float("-inf")

    def sample(self, pos):
        self.ms.append(calibration_ms())
        self.pos.append(pos)
        self.last = time.perf_counter()

    def due(self):
        return time.perf_counter() - self.last >= CAL_EVERY_S

    def scale(self, op):
        p = bisect.bisect_right(self.pos, op)
        return CAL_REF_MS / statistics.median(self.ms[max(0, p - 2) : p + 1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(spec, name, seed, seconds, trace):
    if not os.path.isfile(os.path.join(SRC, "mono3d", "__init__.py")):
        print(f"error: no mono3d package under {SRC}", file=sys.stderr)
        return 2
    # Set-up is timed as SETUP_REPEATS fresh interpreters that start and
    # import the benchmark and mono3d, then SETUP_REPEATS set-ups of the
    # workload. Set-up steps are too short for the local calibration that
    # operations get: it is scaled by the median of every calibration
    # sample of the run, those taken between the steps included.
    calibration_ms()  # untimed: the first run in a process grows the heap
    setup_cal_ms = []
    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        setup_cal_ms.append(calibration_ms())
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORTS, SRC, HERE], cwd=ROOT, check=True)
        imports.append(time.perf_counter() - t)
    sys.path.insert(0, SRC)
    import spans
    import workloads

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    workload = workloads.WORKLOADS[name](seed, reference)
    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for _ in range(SETUP_REPEATS):
            setup_cal_ms.append(calibration_ms())
            t = time.perf_counter()
            workload.setup(workdir)
            setups.append(time.perf_counter() - t)
        setup_cal_ms.append(calibration_ms())
        wall_setup_s = statistics.median(imports) + statistics.median(setups)

        tracer = spans.Tracer() if trace else None
        loop = Loop(workload, seconds, tracer)
        wall = {
            "setup_s": wall_setup_s,
            "latency_ms_p50": statistics.median(loop.latency) * 1e3,
            "images_per_s": len(loop.latency) * workload.images_per_op / sum(loop.latency),
            "calibration_ms": statistics.median(loop.cal.ms),
        }
        setup_s = wall_setup_s * CAL_REF_MS / statistics.median(setup_cal_ms + loop.cal.ms)
        if trace:
            tracer.save(os.path.join(OUT, f"trace_{name}.npz"))
            metrics = layer_metrics(workload, tracer, loop)
            metrics["wall.latency_ms_p50"] = wall["latency_ms_p50"]
            metrics["calib.loop_ms"] = wall["calibration_ms"]
            wanted = spec["per_layer"]
        else:
            metrics = {
                "setup_s": setup_s,
                "latency_ms_p50": statistics.median(loop.scaled) * 1e3,
                "images_per_s": len(loop.scaled) * workload.images_per_op / sum(loop.scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = run_facts()
    facts["cal_ref_ms"] = CAL_REF_MS
    facts["wall"] = wall
    print("run_facts " + json.dumps(facts, sort_keys=True))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.ops,
        "failed": loop.failed,
        "metrics": {
            # a layer that does not run in this workload reads 0
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if loop.failed == 0 else 1


class Loop:
    """Closed loop: the next operation starts when the previous one ends,
    until `seconds` have passed. Only the operation is timed, not its
    output check nor the calibration samples taken between operations.
    Operations that raise or fail their check are counted, reported on
    stderr and timed like the others.

    Operation 0 is a warm-up on the reference input: it is checked and
    counted but not timed, as the first operation of a process pays
    one-time costs (allocator growth, page faults, BLAS start-up) that no
    later one does.

    With a tracer, every second operation runs with the span wrappers
    installed, on the same input as the untraced operation before it, so
    traced and untraced operations alternate and share the same stretch
    of time. `latency` holds the untraced wall times and `scaled` the same
    at the reference speed; `traced` and `traced_scaled` the traced ones;
    traced[k] ran right after latency[k]. `scale[op]` is the factor of
    operation op.

    `rss_growth_mb` is the growth of resident memory over the second half
    of the loop, once the allocator has settled; it includes the spans a
    tracer holds (about 0.1 KB each).
    """

    def __init__(self, workload, seconds, tracer=None):
        self.failed = 0
        self.ops = 0
        self.cal = Calibration()
        self._run(workload, 0)
        workload.counts.clear()
        untraced, traced = [], []  # (op, wall seconds)
        op = 1
        halfway = time.perf_counter() + seconds / 2.0
        deadline = halfway + seconds / 2.0
        rss_halfway = None
        while True:
            if rss_halfway is None and time.perf_counter() >= halfway:
                rss_halfway = _rss_mb()
            if self.cal.due():
                self.cal.sample(op - 0.5)
            if tracer is not None and op % 2 == 0:
                tracer.op = op
                tracer.install()
                try:
                    traced.append((op, self._run(workload, op // 2)))
                finally:
                    tracer.uninstall()
            else:
                item = op if tracer is None else (op + 1) // 2
                untraced.append((op, self._run(workload, item)))
            if time.perf_counter() >= deadline and (tracer is None or op % 2 == 0):
                break
            op += 1
        self.cal.sample(op + 0.5)
        self.rss_growth_mb = _rss_mb() - (rss_halfway or _rss_mb())
        self.scale = [0.0] + [self.cal.scale(k) for k in range(1, op + 1)]
        self.latency = [t for _, t in untraced]
        self.scaled = [t * self.scale[k] for k, t in untraced]
        self.traced = [t for _, t in traced]
        self.traced_scaled = [t * self.scale[k] for k, t in traced]

    def _run(self, workload, item):
        error = None
        t = time.perf_counter()
        try:
            result = workload.run(item)
        except Exception:  # a failing operation is counted, not fatal
            error = traceback.format_exc()
        seconds = time.perf_counter() - t
        if error is None:
            try:
                error = workload.check(item, result)
            except Exception:  # a check that raises fails its operation
                error = traceback.format_exc()
        self.ops += 1
        if error:
            self.failed += 1
            print(f"operation {self.ops - 1} (input {item}) failed: {error}", file=sys.stderr)
        return seconds


def _rss_mb():
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6


def layer_metrics(workload, tracer, loop):
    """Per-layer metrics: span times and work per traced operation, layer
    counters per operation, and the tracer's cost against untraced ones."""
    out = tracer.layer_metrics(len(loop.traced), loop.scale)
    out["evaluation.match.ms"] = out.get("evaluation.evaluate_split.self_ms", 0.0)
    counts = workload.counts
    n = len(loop.latency) + len(loop.traced)
    peaks = counts["heads.peaks"]
    out["heads.peaks"] = peaks / n
    out["heads.dets_per_peak"] = counts["heads.dets"] / peaks if peaks else 0.0
    for reason in ("h2d_degenerate", "roi_degenerate", "nonpositive_depth", "behind_camera"):
        out["heads.drops." + reason] = counts["heads.drops." + reason] / n
    out["tensor.tape_nodes"] = counts["tensor.tape_nodes"] / n
    out["tensor.tape_nodes_after_reset"] = counts["tensor.tape_nodes_after_reset"]
    out["losses.targets_skipped"] = getattr(workload, "targets_skipped", 0)
    out["train.rss_growth_mb"] = loop.rss_growth_mb
    out["latency_ms_p90"] = _p90(loop.scaled) * 1e3
    # Each traced operation against the untraced one just before it, on
    # the same input, so that slow drift in the machine's speed cancels.
    before = [t * 1e3 for t in loop.scaled]
    traced = [t * 1e3 for t in loop.traced_scaled]
    out["trace.overhead_ratio"] = statistics.median(t / u for t, u in zip(traced, before))
    out["trace.reconcile_ratio"] = statistics.median(
        s / u for s, u in zip(tracer.top_span_ms(loop.scale), before)
    )
    return out


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_facts():
    import numpy as np

    from mono3d import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for folder, _, files in os.walk(os.path.join(SRC, "mono3d")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(folder, f), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "kernel_backend": kernels.active_backend(),
        "src_mono3d_lines": src_lines,
    }


def _git_sha():
    """HEAD commit of the checkout, or None outside a git clone."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_all(spec, seed, seconds, trace):
    """Each workload in its own process; print every metric with its unit."""
    results = {}
    status = 0
    for wl in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", wl["name"],
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            status = 1
        if not lines:
            print(f"{wl['name']}: no result (exit status {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        result["error_rate"] = result["failed"] / result["attempted"]
        result["run_facts"] = json.loads(lines[-2].split(" ", 1)[1]) if len(lines) > 1 else None
        results[wl["name"]] = result
        print(f"{wl['name']}: {result['attempted']} operations, correct={result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']}")
        print(f"  {'error_rate':<36} {result['error_rate']:>14.6g} ratio")
        wall = (result["run_facts"] or {}).get("wall", {})
        for metric, value in sorted(wall.items()):
            print(f"  {'wall.' + metric:<36} {value:>14.6g} {WALL_UNITS[metric]}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "seconds": seconds, "trace": trace, "workloads": results},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name from BENCHMARK.json")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.all:
        return run_all(spec, args.seed, seconds, args.trace)
    names = [wl["name"] for wl in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    return run_workload(spec, args.workload, args.seed, seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

"""Run one gluevol benchmark workload and print its metrics.

    python3 perfbench/run.py --workload prep-20um --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
public functions of every gluevol module and reports per-layer metrics
instead (spans go to ``.perfbench/traces/``). The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The lines
before it record the environment (``env ...``) and per-run detail
(``detail ...``), including the end-to-end numbers of a traced run, so the
tracing overhead can be read off. Times are scaled to a reference host
speed, measured alongside (see hostspeed.py). Exit code 2 means the program
under test is missing; 3 means a traced span the workload must exercise saw
no calls.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

THREADS = "1"
# Pinned before numpy is imported: BLAS reads these when it loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

ROOT = Path(__file__).resolve().parent.parent
# Set-up repeats at least SETUP_REPEATS times and until SETUP_SECONDS are
# spent, so a set-up of a tenth of a second still gets a median of dozens.
SETUP_REPEATS = 5
SETUP_SECONDS = 5.0
# Latency samples per window of the tail metric (see tail()).
TAIL_WINDOW = 100

# (name, unit, better): the gated metrics, reported by every workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("item_ms_p50", "ms", "lower"),
    ("item_ms_tail", "ms", "lower"),
    ("err_pct", "%", "lower"),
)

def tail(values):
    """(value, percentile, n): the tail of latencies given in time order.

    The samples are cut into windows of TAIL_WINDOW consecutive samples
    (the fewer than TAIL_WINDOW left at the end are not used). In each
    window the tail is the highest percentile with at least ten samples
    beyond it, and the run's tail is the median over its windows, so a
    burst of host noise moves one window and not the run's figure. A run
    shorter than one window is one window. With ten samples or fewer there
    is no such percentile, and the median stands in: the maximum of a few
    units only tracks host noise. n is the samples per window."""
    n = len(values)
    if n <= 10:
        return statistics.median(values), 50.0, n
    size = min(n, TAIL_WINDOW)
    windows = [sorted(values[lo:lo + size]) for lo in range(0, n - size + 1, size)]
    return statistics.median(w[size - 11] for w in windows), 100.0 * (size - 10) / size, size


def environment() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD commit of the checkout; 'unknown' outside a git clone."""
    import subprocess

    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, micro: bool = False):
    """Set up, measure and check one workload; returns (result, detail, tracer)."""
    import resource
    import shutil
    import tempfile
    import time

    from hostspeed import HostSpeed
    from workloads import WORKLOADS, Clock

    speed = HostSpeed()
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer().install()
    work_root = ROOT / ".perfbench" / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=work_root))
    wl = WORKLOADS[workload](seed, micro, work_dir, Clock(tracer))
    try:
        setups, setup_spans = [], []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            start = time.perf_counter()
            wl.setup()
            setup_spans.append((start, time.perf_counter()))
            setups.append(setup_spans[-1][1] - start)
            speed.sample(setups[-1])
        units, unit_spans = [], []
        start = time.perf_counter()
        while True:
            unit_start = time.perf_counter()
            units.append(wl.unit())
            unit_spans.append((unit_start, time.perf_counter()))
            speed.sample(units[-1].seconds)
            wall = time.perf_counter() - start
            if wall + wall / len(units) > seconds:
                break
        wl.teardown()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()

    # Every time is reported as it would read at the reference host speed,
    # scaled by the speed measured around it (see hostspeed.py).
    setups = [s * speed.factor(*span) for s, span in zip(setups, setup_spans)]
    scales = [speed.factor(*span) for span in unit_spans]
    latencies = [ms * f for u, f in zip(units, scales) for ms in u.latencies_ms]
    busy_s = sum(u.seconds * f for u, f in zip(units, scales))
    scale = busy_s / sum(u.seconds for u in units)  # for the per-layer times
    errors = {}
    for u in units:
        errors.update(u.errors_pct)
    tail_ms, tail_pct, window = tail(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items_per_s": sum(u.items for u in units) / busy_s,
        "item_ms_p50": statistics.median(latencies),
        "item_ms_tail": tail_ms,
        "err_pct": sum(errors.values()) / len(errors),
    }
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    detail = {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "unit": wl.unit_name,
        "units": len(units),
        "items": sum(u.items for u in units),
        "latency_samples": len(latencies),
        "tail_window": window,
        "tail_percentile": round(tail_pct, 3),
        "setup_repeats": len(setups),
        "host_scale": scale,
        "host_samples": len(speed.samples),
        "failed_pct": 100.0 * failed / max(attempted, 1),
        **{wl.aliases.get(k, k): v for k, v in values.items()},
    }
    for u in units:
        detail.update(u.detail)
    if tracer is not None:
        tracer.check_coverage(workload, wl.n_blocks)
        from spans import per_layer_metrics

        layer_values = tracer.metrics(len(units))
        by_unit = {"ms": scale, "GFLOP/s": 1 / scale, "GB/s": 1 / scale}
        metrics = {name: {"value": layer_values[name] * by_unit.get(unit, 1.0), "unit": unit}
                   for name, unit, _ in per_layer_metrics()}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail, tracer


def main(argv=None) -> int:
    if not (ROOT / "src" / "gluevol" / "__init__.py").exists():
        print(f"error: gluevol sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

    from spans import CoverageError
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--micro", action="store_true",
                        help="tiny inputs (4 deposits, 8x8x16 grids) for self-tests")
    args = parser.parse_args(argv)

    try:
        result, detail, tracer = run(args.workload, args.seed, args.seconds,
                                     bool(args.trace), args.micro)
    except CoverageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if tracer is not None:
        trace_dir = ROOT / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
    print("env " + json.dumps(environment(), sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

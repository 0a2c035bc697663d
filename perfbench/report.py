"""Run every workload untraced and traced; print every metric with its unit.

    python3 perfbench/report.py [--seed 0] [--seconds 30]

For each workload this prints the end-to-end metrics (the gated names and
the workload's own names for them), ``failed_pct``, the tracing overhead
(traced minus untraced, per end-to-end metric) and the non-zero per-layer
metrics of the traced run. Each run is its own process, so ``peak_rss_mb``
belongs to that workload alone. Exits non-zero if any run fails or any
check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int):
    """(env, detail, result) parsed from one run.py process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd[1:])}: exit {proc.returncode}")
    lines = proc.stdout.splitlines()
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    detail = json.loads(next(l for l in lines if l.startswith("detail "))[7:])
    return env, detail, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from run import END_TO_END
    from workloads import WORKLOADS

    ok = True
    for workload, wl in WORKLOADS.items():
        env, detail, plain = run_once(workload, args.seed, args.seconds, 0)
        _, traced_detail, traced = run_once(workload, args.seed, args.seconds, 1)
        ok &= plain["correct"] and traced["correct"]
        print(f"== {workload}  seed={args.seed} seconds={args.seconds} "
              f"units={detail['units']} items={detail['items']} ({detail['unit']}s)")
        for name, unit, _ in END_TO_END:
            value = plain["metrics"][name]["value"]
            alias = wl.aliases.get(name, "")
            note = ""
            if name == "item_ms_tail":
                note = (f"median of p{detail['tail_percentile']} over windows of "
                        f"{detail['tail_window']}, {detail['latency_samples']} samples")
            traced_value = traced_detail[alias or name]
            overhead = 100.0 * (traced_value - value) / value
            print(f"  {name:<14} {value:>14.6g} {unit:<4} {alias:<22} "
                  f"trace overhead {overhead:+6.1f}%  {note}")
        if "test_mse_e6" in detail:
            print(f"  {'test_mse_e6':<14} {detail['test_mse_e6']:>14.6g} mm^6*1e6")
        print(f"  {'failed_pct':<14} {detail['failed_pct']:>14.6g} %    "
              f"({plain['failed']} of {plain['attempted']} checks failed)")
        print("  per-layer (traced run, non-zero):")
        for name, m in traced["metrics"].items():
            if m["value"]:
                print(f"    {name:<44} {m['value']:>14.6g} {m['unit']}")
    print("env " + json.dumps(env, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

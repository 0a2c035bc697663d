"""Self-tests of the benchmark: names, micro runs, trace coverage, host speed.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def test_metric_names_are_well_formed():
    names = [n for n, _, _ in run.END_TO_END] + [n for n, _, _ in spans.per_layer_metrics()]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        spans.per_layer_metrics()
    )
    assert len(spec["per_layer"]) <= 128


def test_tail_needs_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)
    value, pct, n = run.tail([float(i) for i in range(50)])
    assert (value, pct, n) == (39.0, 80.0, 50)
    # Windows of 100 in time order; the median of their p90s, the last
    # partial window left out.
    samples = [float(i) for i in range(100)] + [100.0 + i for i in range(100)] * 2 + [1e9] * 99
    value, pct, n = run.tail(samples)
    assert (value, pct, n) == (189.0, 90.0, 100)


def test_host_speed_scales_by_nearby_samples():
    speed = hostspeed.HostSpeed()
    speed.samples = [(0.0, 3e-3), (100.0, 12e-3)]
    assert speed.factor(1.0, 2.0) == pytest.approx(hostspeed.REF_MS / 3.0)
    assert speed.factor(99.0, 99.5) == pytest.approx(hostspeed.REF_MS / 12.0)
    # No sample near: the median of all. Too long: left as measured.
    assert speed.factor(50.0, 51.0) == pytest.approx(hostspeed.REF_MS / 7.5)
    assert speed.factor(40.0, 40.0 + hostspeed.MAX_SCALED_SECONDS + 1) == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_micro_run_completes(workload, trace):
    proc = _run_cli("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--micro")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()
    expected = spec["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in expected] == list(result["metrics"])
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0


def test_bypassed_wrapper_fails_the_traced_run(monkeypatch):
    # The caller reaches adam_step without passing through its wrapper.
    wrap = spans.Tracer._wrap
    monkeypatch.setattr(spans.Tracer, "_wrap",
                        lambda self, fn, name: fn if name == "optim.adam_step" else wrap(self, fn, name))
    with pytest.raises(spans.CoverageError, match="optim.adam_step"):
        run.run("train-tiny", seed=0, seconds=0.1, trace=True, micro=True)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli("--workload", "prep-20um", "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""The whole CLI pipeline at micro scale: exit codes, byte-identical reruns,
diagnose/report reading only the manifest's groups, and numeric failures.

The micro config (8x8x16 grids, channels (2, 4), two columns of two
deposits, one epoch) runs every stage in about a second. Its attached
variant (two rows; attached, unattached and half-attached panels) covers
the die-attached labels propagated from the unattached annotations.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gluevol
from gluevol import cli, config
from gluevol.diagnose import VolumeThresholds
from gluevol.neuralvol import weights_io
from gluevol.util import encode

SRC = str(Path(gluevol.__file__).resolve().parents[1])


def micro_config() -> config.RunConfig:
    cfg = config.tiny_profile_config(0)
    return replace(
        cfg,
        layout=replace(cfg.layout, columns=2, deposits_per_type=2),
        grid=replace(cfg.grid, nx=8, ny=8, nz=16),
        net=replace(cfg.net, channels=(2, 4), input_dims=(8, 8, 16)),
        train=replace(cfg.train, epochs=1),
    )


def attached_micro_config() -> config.RunConfig:
    cfg = micro_config()
    return replace(cfg, attach_patterns=("attached", "unattached", "half"),
                   layout=replace(cfg.layout, rows=2))


def run_cli(*args) -> subprocess.CompletedProcess:
    """``python -m gluevol.cli`` in a fresh interpreter, so ``--threads``
    takes effect before numpy loads."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "gluevol.cli", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=300,
    )


def workspace_files(root: Path) -> dict[str, bytes]:
    """Every file's bytes, with the wall-clock column of the histories cut."""
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.parent.name == "models" and path.name.startswith("history_"):
            data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.splitlines())
        files[str(path.relative_to(root))] = data
    return files


def two_runs(root: Path, cfg: config.RunConfig) -> SimpleNamespace:
    """Two pipeline runs of ``cfg`` into separate workspaces under ``root``."""
    cfg_path = root / "micro.json"
    cfg_path.write_text(encode(cfg))
    procs = [
        run_cli("pipeline", "--config", cfg_path, "--out", root / name, "--threads", "1", "--quiet")
        for name in ("first", "second")
    ]
    return SimpleNamespace(cfg_path=cfg_path, first=root / "first", second=root / "second",
                           procs=procs)


@pytest.fixture(scope="module")
def micro(tmp_path_factory):
    return two_runs(tmp_path_factory.mktemp("micro"), micro_config())


@pytest.fixture(scope="module")
def micro_attached(tmp_path_factory):
    return two_runs(tmp_path_factory.mktemp("micro_attached"), attached_micro_config())


@pytest.fixture
def ws(micro, tmp_path):
    """A copy of the first micro workspace, for one test to change."""
    out = tmp_path / "ws"
    shutil.copytree(micro.first, out)
    return out


def run_stage(cfg_path, name, out) -> int:
    return cli.main([name, "--config", str(cfg_path), "--out", str(out), "--quiet"])


class TestPipeline:
    def test_runs_end_to_end(self, micro):
        for proc in micro.procs:
            assert proc.returncode == cli.EXIT_OK, proc.stderr
        files = workspace_files(micro.first)
        assert "eval/classification.json" in files
        assert "reports/confusion.csv" in files
        assert "models/weights_A_unattached.ggnn" in files

    def test_rerun_is_byte_identical(self, micro):
        first, second = workspace_files(micro.first), workspace_files(micro.second)
        assert sorted(first) == sorted(second)
        assert [name for name in first if first[name] != second[name]] == []

    def test_eval_on_empty_workspace_exits_3(self, micro, tmp_path):
        proc = run_cli("eval", "--config", micro.cfg_path, "--out", tmp_path / "empty")
        assert proc.returncode == cli.EXIT_MISSING_INPUT

    def test_zero_threads_exits_2(self, tmp_path):
        proc = run_cli("config", "--threads", "0", "--out", tmp_path)
        assert proc.returncode == cli.EXIT_CONFIG


class TestAttachedPipeline:
    def test_runs_end_to_end(self, micro_attached):
        for proc in micro_attached.procs:
            assert proc.returncode == cli.EXIT_OK, proc.stderr
        files = workspace_files(micro_attached.first)
        assert "models/weights_A_attached.ggnn" in files
        assert "reports/curves_A_attached.csv" in files
        groups = json.loads(files["eval/classification.json"])["groups"]
        assert sorted(groups) == ["A_attached", "A_unattached"]

    def test_rerun_is_byte_identical(self, micro_attached):
        first = workspace_files(micro_attached.first)
        second = workspace_files(micro_attached.second)
        assert sorted(first) == sorted(second)
        assert [name for name in first if first[name] != second[name]] == []


class TestStaleEvalGroups:
    def test_leftover_group_is_ignored(self, micro, ws):
        eval_dir = ws / "eval"
        doc = json.loads((eval_dir / "eval_A_unattached.json").read_text())
        doc["attached"] = True
        (eval_dir / "eval_A_attached.json").write_text(json.dumps(doc))
        assert run_stage(micro.cfg_path, "diagnose", ws) == cli.EXIT_OK
        assert run_stage(micro.cfg_path, "report", ws) == cli.EXIT_OK
        clean = workspace_files(micro.first)
        rerun = workspace_files(ws)
        assert rerun["eval/classification.json"] == clean["eval/classification.json"]
        assert rerun["reports/confusion.csv"] == clean["reports/confusion.csv"]
        assert not (ws / "reports" / "curves_A_attached.csv").exists()

    def test_leftover_type_without_thresholds_is_ignored(self, micro, ws):
        doc = json.loads((ws / "eval" / "eval_A_unattached.json").read_text())
        doc["glue_type"] = "Z"
        (ws / "eval" / "eval_Z_unattached.json").write_text(json.dumps(doc))
        assert run_stage(micro.cfg_path, "diagnose", ws) == cli.EXIT_OK
        groups = json.loads((ws / "eval" / "classification.json").read_text())["groups"]
        assert list(groups) == ["A_unattached"]

    @pytest.mark.parametrize("name", ["diagnose", "report"])
    def test_missing_group_eval_exits_3(self, micro, ws, name):
        (ws / "eval" / "eval_A_unattached.json").unlink()
        assert run_stage(micro.cfg_path, name, ws) == cli.EXIT_MISSING_INPUT

    def test_type_without_thresholds_exits_2(self, ws, tmp_path):
        cfg = replace(micro_config(), thresholds={"B": VolumeThresholds(0.01, 0.02)})
        cfg_path = tmp_path / "no_thresholds_for_A.json"
        cfg_path.write_text(encode(cfg))
        assert run_stage(cfg_path, "diagnose", ws) == cli.EXIT_CONFIG


class TestNumericFailure:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_training_exits_4(self, ws, tmp_path, capsys):
        cfg = micro_config()
        cfg = replace(cfg, train=replace(cfg.train, learning_rate=1e10, epochs=3))
        cfg_path = tmp_path / "diverging.json"
        cfg_path.write_text(encode(cfg))
        assert run_stage(cfg_path, "train", ws) == cli.EXIT_NUMERIC
        assert "non-finite training loss at epoch" in capsys.readouterr().err

    def test_nan_weight_exits_4(self, micro, ws, capsys):
        path = ws / "models" / "weights_A_unattached.ggnn"
        weights = weights_io.read_weights(path)
        weights.dense_w[0, 0] = np.nan
        weights_io.write_weights(weights, path)
        assert run_stage(micro.cfg_path, "eval", ws) == cli.EXIT_NUMERIC
        assert "non-finite MSE for A_unattached" in capsys.readouterr().err

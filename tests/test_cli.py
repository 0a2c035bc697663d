"""The whole CLI pipeline at micro scale: exit codes, byte-identical reruns,
diagnose/report reading only the manifest's groups, and numeric failures.

The micro config (8x8x16 grids, channels (2, 4), two columns of two
deposits, one epoch) runs every stage in about a second. Its attached
variant (two rows; attached, unattached and half-attached panels) covers
the die-attached labels propagated from the unattached annotations, and
its annotated variant (``label_source="annotated"``) the labels taken from
the annotations themselves. Their 8x8x16 grids are too dense for any block
to train on its active pool windows; the windowed variant's 16x16x64 grids
train blocks 0 and 1 on them.
"""

import csv
import json
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gluevol
from gluevol import cli, cloudio, config, dataset, geom3d, pipeline, voxelizer
from gluevol.diagnose import VolumeThresholds
from gluevol.neuralvol import layers, weights_io
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


def windowed_micro_config() -> config.RunConfig:
    cfg = micro_config()
    return replace(cfg, grid=replace(cfg.grid, nx=16, ny=16, nz=64),
                   net=replace(cfg.net, input_dims=(16, 16, 64)))


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


@pytest.fixture(scope="module")
def micro_annotated(tmp_path_factory):
    return two_runs(tmp_path_factory.mktemp("micro_annotated"),
                    replace(micro_config(), label_source="annotated"))


@pytest.fixture(scope="module")
def micro_windowed(tmp_path_factory):
    """The windowed micro config run in this process, with a spy on the
    training-mode batchnorm inputs (channels, type), then again by the CLI."""
    root = tmp_path_factory.mktemp("micro_windowed")
    cfg_path = root / "micro.json"
    cfg_path.write_text(encode(windowed_micro_config()))
    seen, forward = set(), layers.batchnorm3d_forward

    def spy(x, *args, training):
        if training:
            seen.add((x.shape[1], type(x)))
        return forward(x, *args, training=training)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(layers, "batchnorm3d_forward", spy)
        code = run_stage(cfg_path, "pipeline", root / "first")
    proc = run_cli("pipeline", "--config", cfg_path, "--out", root / "second", "--threads", "1",
                   "--quiet")
    return SimpleNamespace(first=root / "first", second=root / "second", seen=seen,
                           codes=(code, proc.returncode))


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

    def test_splits_stack_the_grids_as_read(self, micro):
        # bool, as read_ggvg returns them, and the empty split's placeholder too
        manifest = dataset.Manifest.from_json(micro.first / "manifest.json")
        first = manifest.samples[0]
        args = (manifest, micro.first / "grids", micro_config(), first.glue_type, first.attached)
        grids, labels = pipeline._load_split("train", *args, first.split)
        assert grids.dtype == bool and len(grids) == len(labels) > 0
        path = micro.first / "grids" / (Path(first.path).stem + ".ggvg")
        assert np.array_equal(grids[0, 0], voxelizer.read_ggvg(path).occupancy)
        empty, labels = pipeline._load_split("train", *args, "no such split")
        assert empty.dtype == bool and empty.shape == (0, 1, 0, 0, 0) and len(labels) == 0


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


class TestWindowedPipeline:
    def test_blocks_0_and_1_train_windowed(self, micro_windowed):
        assert micro_windowed.codes == (cli.EXIT_OK, cli.EXIT_OK)
        channels = windowed_micro_config().net.channels
        assert micro_windowed.seen == {(c, layers.Windowed) for c in channels}

    def test_rerun_is_byte_identical(self, micro_windowed):
        first = workspace_files(micro_windowed.first)
        second = workspace_files(micro_windowed.second)
        assert sorted(first) == sorted(second)
        assert [name for name in first if first[name] != second[name]] == []


class TestAnnotatedLabels:
    """``label_source="annotated"``: unattached samples are labelled with
    their deposit's mean annotated volume, not the simulator's."""

    def test_runs_end_to_end(self, micro_annotated):
        for proc in micro_annotated.procs:
            assert proc.returncode == cli.EXIT_OK, proc.stderr

    def test_rerun_is_byte_identical(self, micro_annotated):
        first = workspace_files(micro_annotated.first)
        second = workspace_files(micro_annotated.second)
        assert sorted(first) == sorted(second)
        assert [name for name in first if first[name] != second[name]] == []

    def test_labels_are_deposit_means(self, micro, micro_annotated):
        volumes = {}
        with open(micro_annotated.first / "annotations.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                key = (int(row["pcb"]), int(row["row"]), int(row["col"]),
                       row["glue_type"], int(row["deposit"]))
                volumes.setdefault(key, []).append(float(row["volume_mm3"]))
        samples = dataset.Manifest.from_json(micro_annotated.first / "manifest.json").samples
        analytic = dataset.Manifest.from_json(micro.first / "manifest.json").samples
        assert len(samples) == len(analytic) > 0
        for sample, reference in zip(samples, analytic):
            assert not sample.attached
            values = volumes[(sample.pcb, sample.row, sample.col, sample.glue_type,
                              sample.deposit)]
            assert sample.volume_mm3 == sum(values) / len(values)
            assert sample.volume_mm3 != reference.volume_mm3


class TestSampleFiles:
    """augment writes one samples file per scan; voxelize refuses one that
    does not hold the manifest's samples of that scan."""

    def test_one_file_per_scan_holds_its_samples_in_manifest_order(self, micro_attached):
        # Each record has the bytes of a one-sample GGPC1 file of that sample.
        ws = micro_attached.first
        cfg = config.load_config(micro_attached.cfg_path).resolved()
        manifest = dataset.Manifest.from_json(ws / "manifest.json")
        scans = sorted((ws / "scans").glob("*.xyz"))
        assert sorted(p.name for p in (ws / "samples").iterdir()) == sorted(
            p.stem + ".ggpc" for p in scans)
        for scan in scans:
            clips = dataset.augment(cloudio.read_xyz(scan), cfg.augment)
            records = [cloudio.GGPC_MAGIC + struct.pack("<I", len(c))
                       + c.xyz.astype("<f8").tobytes() for c in clips]
            assert (ws / "samples" / (scan.stem + ".ggpc")).read_bytes() == b"".join(records)
            names = [s.path for s in manifest.samples if s.scan_stem == scan.stem]
            assert names == [
                f"{scan.stem}_crop{c.meta['crop']}"
                f"_n{dataset.NOISE_LEVELS.index(c.meta['noise_level'])}.ggpc"
                for c in clips]

    @pytest.mark.parametrize("change", [-1, 1])
    def test_wrong_record_count_exits_3(self, micro, ws, capsys, change):
        path = sorted((ws / "samples").glob("*.ggpc"))[0]
        clouds = cloudio.read_ggpc(path)
        cloudio.write_ggpc(clouds[:-1] if change < 0 else clouds + clouds[:1], path)
        needle = (f"{path.name} holds {len(clouds) + change} samples "
                  f"where the manifest lists {len(clouds)}")
        TestMalformedInput.assert_exit_3(micro.cfg_path, "voxelize", ws, capsys, needle)

    def test_missing_samples_file_exits_3(self, micro, ws, capsys):
        path = sorted((ws / "samples").glob("*.ggpc"))[-1]
        path.unlink()
        needle = f"missing samples file {path}"
        TestMalformedInput.assert_exit_3(micro.cfg_path, "voxelize", ws, capsys, needle)


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


    def test_nan_prediction_in_eval_json_exits_4(self, micro, ws, capsys):
        path = ws / "eval" / "eval_A_unattached.json"
        doc = json.loads(path.read_text())
        doc["predictions"][0] = float("nan")
        path.write_text(json.dumps(doc))  # NaN, as json writes it
        assert run_stage(micro.cfg_path, "diagnose", ws) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "non-finite volume nan" in err


class TestMisfitConfig:
    """A config that does not fit the workspace or the split rule exits with
    one line, not a traceback or a silently wrong run."""

    def test_weights_of_another_net_exit_3(self, micro, ws, tmp_path, capsys):
        cfg = micro_config()
        cfg = replace(cfg, net=replace(cfg.net, channels=(3, 4)))
        cfg_path = tmp_path / "wider.json"
        cfg_path.write_text(encode(cfg))
        needle = "weights_A_unattached.ggnn: block0.conv_w (2, 1, 3, 3, 3) where"
        TestMalformedInput.assert_exit_3(cfg_path, "eval", ws, capsys, needle)
        name = "eval/eval_A_unattached.json"
        assert (ws / name).read_bytes() == (micro.first / name).read_bytes()

    def test_grids_of_other_dims_exit_3(self, micro, ws, tmp_path, capsys):
        cfg = micro_config()
        cfg = replace(cfg, grid=replace(cfg.grid, nx=16, ny=16),
                      net=replace(cfg.net, input_dims=(16, 16, 16)))
        cfg_path = tmp_path / "larger_grid.json"
        cfg_path.write_text(encode(cfg))
        needle = ".ggvg has dims (8, 8, 16) where the config's grid has (16, 16, 16)"
        TestMalformedInput.assert_exit_3(cfg_path, "train", ws, capsys, needle)

    def test_empty_training_split_exits_2(self, tmp_path, capsys):
        cfg = micro_config()
        cfg = replace(cfg, layout=replace(cfg.layout, deposits_per_type=1))
        cfg_path = tmp_path / "one_deposit.json"
        cfg_path.write_text(encode(cfg))
        assert run_stage(cfg_path, "pipeline", tmp_path / "ws") == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: train: A_unattached has no training samples")
        assert err.count("\n") == 1, err


class TestMalformedInput:
    """A workspace file that does not parse exits 3 with a one-line message."""

    @staticmethod
    def assert_exit_3(cfg_path, stage, ws, capsys, needle):
        assert run_stage(cfg_path, stage, ws) == cli.EXIT_MISSING_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and needle in err, err

    def test_xyz_line_with_two_fields(self, micro, ws, capsys):
        scan = sorted((ws / "scans").glob("*.xyz"))[0]
        scan.write_text(scan.read_text() + "0.1 0.2\n")
        self.assert_exit_3(micro.cfg_path, "annotate", ws, capsys, "expected 3 fields, got 2")

    def test_xyz_non_finite_coordinate(self, micro, ws, capsys):
        scan = sorted((ws / "scans").glob("*.xyz"))[0]
        lines = scan.read_text().splitlines(keepends=True)
        lineno = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        x, y, _ = lines[lineno].split()
        lines[lineno] = f"{x} {y} nan\n"
        scan.write_text("".join(lines))
        needle = f"{scan.name}:{lineno + 1}: non-finite coordinate"
        self.assert_exit_3(micro.cfg_path, "annotate", ws, capsys, needle)

    def test_ggpc_non_finite_coordinate(self, micro, ws, capsys):
        sample = sorted((ws / "samples").glob("*.ggpc"))[0]
        data = bytearray(sample.read_bytes())
        data[9 + 24 * 3 : 9 + 24 * 3 + 8] = np.float64(np.inf).tobytes()
        sample.write_bytes(bytes(data))
        needle = f"{sample.name}: non-finite coordinate in point 3"
        self.assert_exit_3(micro.cfg_path, "voxelize", ws, capsys, needle)

    def test_ggpc_header_cut_short(self, micro, ws, capsys):
        sample = sorted((ws / "samples").glob("*.ggpc"))[0]
        sample.write_bytes(b"GGPC1\x00\x00")
        needle = f"{sample.name}: record 0 cut inside its header"
        self.assert_exit_3(micro.cfg_path, "voxelize", ws, capsys, needle)

    def test_scan_without_footprint(self, micro, ws, capsys):
        scan = sorted((ws / "scans").glob("*.xyz"))[0]
        lines = scan.read_text().splitlines(keepends=True)
        scan.write_text("".join(l for l in lines if not l.startswith("# meta footprint=")))
        self.assert_exit_3(micro.cfg_path, "annotate", ws, capsys, "'footprint'")

    def test_truncated_grid(self, micro, ws, capsys):
        grid = sorted((ws / "grids").glob("*.ggvg"))[0]
        grid.write_bytes(grid.read_bytes()[:40])
        self.assert_exit_3(micro.cfg_path, "train", ws, capsys, grid.name)

    @pytest.mark.parametrize("keep", [20, 300])
    def test_corrupted_weights(self, micro, ws, capsys, keep):
        path = ws / "models" / "weights_A_unattached.ggnn"
        data = path.read_bytes()
        path.write_bytes(data[:keep] + b"\xff" * 4 + data[keep + 4 :])
        self.assert_exit_3(micro.cfg_path, "eval", ws, capsys, path.name)

    @staticmethod
    def rewrite_scan(ws, keep_points, shift=0.0):
        """The first scan with its meta lines and its first ``keep_points``
        points, moved ``shift`` mm along x."""
        scan = sorted((ws / "scans").glob("*.xyz"))[0]
        cloud = cloudio.read_xyz(scan)
        xyz = cloud.xyz[:keep_points] + [shift, 0.0, 0.0]
        cloudio.write_xyz(geom3d.PointCloud(xyz, cloud.meta), scan)
        return scan

    def test_annotate_scan_with_two_points(self, micro, ws, capsys):
        scan = self.rewrite_scan(ws, 2)
        needle = f"{scan.name}: need >= 3 points, got 2"
        self.assert_exit_3(micro.cfg_path, "annotate", ws, capsys, needle)

    def test_annotate_scan_missing_its_footprint(self, micro, ws, capsys):
        scan = self.rewrite_scan(ws, None, shift=100.0)
        needle = f"{scan.name}: crop box excludes every point"
        self.assert_exit_3(micro.cfg_path, "annotate", ws, capsys, needle)

    def test_augment_scan_without_points(self, micro, ws, capsys):
        scan = self.rewrite_scan(ws, 0)
        needle = f"{scan.name}: bounds of empty cloud"
        self.assert_exit_3(micro.cfg_path, "augment", ws, capsys, needle)

    def test_voxelize_record_without_points(self, micro, ws, capsys):
        path = sorted((ws / "samples").glob("*.ggpc"))[0]
        clouds = cloudio.read_ggpc(path)
        clouds[1] = geom3d.PointCloud(np.zeros((0, 3)))
        cloudio.write_ggpc(clouds, path)
        needle = f"{path.name}: record 1: cannot voxelize an empty cloud"
        self.assert_exit_3(micro.cfg_path, "voxelize", ws, capsys, needle)

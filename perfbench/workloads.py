"""The three benchmark workloads, driven through gluevol's public API.

Every workload builds its run config in-process from
``config.tiny_profile_config(seed)`` plus ``dataclasses.replace``; the
config JSON codec is never used. A workload repeats one timed unit of work
(a prep pass, a training run, one inspected region) and checks the outputs
of every unit after timing it. Failed checks are counted, never dropped.

Timed code runs inside ``Clock.timed()``, which also switches the tracer
on, so spans cover the measured work and nothing else.
"""

from __future__ import annotations

import contextlib
import csv
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from gluevol import config, dataset, diagnose, pipeline, scansim, voxelizer
from gluevol.neuralvol import network, training, weights_io
from spans import PREP_STAGES

# Largest accepted |annotated - analytic| / analytic per scan at 20 um.
# Seed-0 scans stay under 1%; the mean is about 0.35%.
ANNOT_TOL_PCT = 3.0
# Training always starts from the same init and shuffle; the workload seed
# varies the scans and their augmentation noise. A seed-dependent init
# would make the test error after one epoch vary by about 20% across seeds.
TRAIN_SEED = 0
EPOCHS = 1
SCAN_PASSES = 2  # inspect: passes per scan seed
SCAN_SEEDS = 2  # inspect: scan seeds per workload seed


@dataclass
class Unit:
    """One timed unit of work and the checks on its output."""

    seconds: float
    items: int
    latencies_ms: list[float]
    attempted: int = 0
    failed: int = 0
    errors_pct: dict = field(default_factory=dict)  # output key -> error %
    detail: dict = field(default_factory=dict)


class Clock:
    """Times a block of code with the tracer (if any) switched on."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.last = 0.0

    @contextlib.contextmanager
    def timed(self):
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.last = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.active = False


def _micro(cfg: config.RunConfig) -> config.RunConfig:
    """Four deposits, 8x8x16 grids and a two-block net: seconds per unit."""
    grid = replace(cfg.grid, nx=8, ny=8, nz=16)
    return replace(
        cfg,
        layout=replace(cfg.layout, columns=2, deposits_per_type=2),
        grid=grid,
        net=replace(cfg.net, channels=(2, 4), input_dims=(8, 8, 16)),
    )


def _tiny(seed: int, micro: bool) -> config.RunConfig:
    cfg = config.tiny_profile_config(seed)
    return _micro(cfg) if micro else cfg


def _prepare(cfg: config.RunConfig, ws: Path) -> None:
    # Looked up on ``pipeline`` at call time, so tracing wrappers are seen.
    for stage in PREP_STAGES:
        getattr(pipeline, stage)(cfg, ws)


def _rel_err_pct(value: float, truth: float) -> float:
    return abs(value - truth) / truth * 100.0


class Workload:
    name = ""
    unit_name = ""
    # End-to-end metric -> the name this workload's users know it by.
    aliases: dict[str, str] = {}

    def __init__(self, seed: int, micro: bool, work_root: Path, clock: Clock):
        self.seed = seed
        self.micro = micro
        self.work_root = work_root
        self.clock = clock
        self.cfg = None
        self.ws: Path | None = None

    def _fresh_workspace(self) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.work_root))

    def teardown(self) -> None:
        if self.ws is not None:
            shutil.rmtree(self.ws, ignore_errors=True)
            self.ws = None

    @property
    def n_blocks(self) -> int:
        return len(self.cfg.net.channels)


class Prep(Workload):
    """simulate -> annotate -> augment -> voxelize at the 20 um step."""

    name = "prep-20um"
    unit_name = "scan"
    aliases = {"items_per_s": "prep_scans_per_s", "err_pct": "annot_err_pct"}

    def _config(self, layout=None) -> config.RunConfig:
        cfg = _tiny(self.seed, self.micro)
        cfg = replace(
            cfg,
            layout=layout or cfg.layout,
            scan=replace(cfg.scan, step_um=20.0),
            augment=replace(cfg.augment, min_step_um=20.0),
        )
        return cfg.validate().resolved()

    def setup(self) -> None:
        self.cfg = self._config()
        self.pcbs = self.cfg.pcbs()
        # Warm-up pass over a one-deposit panel, so first-call costs land here.
        one = self._config(replace(self.cfg.layout, columns=1, deposits_per_type=1))
        ws = self._fresh_workspace()
        try:
            _prepare(one, ws)
        finally:
            shutil.rmtree(ws, ignore_errors=True)

    def unit(self) -> Unit:
        self.ws = self._fresh_workspace()
        with self.clock.timed():
            _prepare(self.cfg, self.ws)
        scans = sum(1 for pcb in self.pcbs for _ in pcb.regions()) * self.cfg.passes
        unit = Unit(self.clock.last, scans, [self.clock.last * 1e3 / scans])
        self._check(unit, scans)
        self.teardown()
        return unit

    def _check(self, unit: Unit, scans: int) -> None:
        records = dataset.AnnotationTable.from_csv(self.ws / "annotations.csv").records
        unit.attempted += scans
        unit.failed += max(scans - len(records), 0)
        pcb_by_index = {pcb.index: pcb for pcb in self.pcbs}
        for r in records:
            region = pcb_by_index[r.pcb].region(r.row, r.col, r.glue_type, r.deposit)
            err = _rel_err_pct(r.volume_mm3, scansim.analytic_volume(region))
            unit.errors_pct[(r.pcb, region.region_id, r.scan_pass)] = err
            unit.failed += not err <= ANNOT_TOL_PCT
        manifest = dataset.Manifest.from_json(self.ws / "manifest.json")
        dims = (self.cfg.grid.nx, self.cfg.grid.ny, self.cfg.grid.nz)
        for sample in manifest.samples:
            unit.attempted += 1
            path = self.ws / "grids" / (Path(sample.path).stem + ".ggvg")
            try:
                ok = voxelizer.read_ggvg(path).dims == dims
            except (OSError, voxelizer.GridFormatError):
                ok = False
            unit.failed += not ok


class Train(Workload):
    """stage_train on the tiny 50 um workspace, per-epoch test eval included."""

    name = "train-tiny"
    unit_name = "sample"
    aliases = {"items_per_s": "train_samples_per_s", "err_pct": "test_err_pct"}

    def setup(self) -> None:
        self.teardown()
        cfg = _tiny(self.seed, self.micro).validate().resolved()
        self.cfg = replace(cfg, train=replace(cfg.train, seed=TRAIN_SEED, epochs=EPOCHS))
        self.ws = self._fresh_workspace()
        _prepare(self.cfg, self.ws)
        manifest = dataset.Manifest.from_json(self.ws / "manifest.json")
        self.train_x, self.train_y = self._split(manifest, "train")
        self.test_x, self.test_y = self._split(manifest, "test")
        # Warm-up: one optimizer step grows the heap to its training size.
        batch = self.cfg.train.batch_size
        training.train(self.train_x[:batch], self.train_y[:batch], self.cfg.net,
                       replace(self.cfg.train, epochs=1))

    def _split(self, manifest, split: str):
        rows = [s for s in manifest.samples if s.split == split]
        grids = [
            voxelizer.read_ggvg(self.ws / "grids" / (Path(s.path).stem + ".ggvg"))
            .occupancy[None].astype(np.uint8)
            for s in rows
        ]
        return np.stack(grids), np.array([s.volume_mm3 for s in rows])

    def unit(self) -> Unit:
        with self.clock.timed():
            pipeline.stage_train(self.cfg, self.ws)
        items = len(self.train_y) * self.cfg.train.epochs
        unit = Unit(self.clock.last, items, [self.clock.last * 1e3 / items])
        self._check(unit)
        return unit

    def _check(self, unit: Unit) -> None:
        models = self.ws / "models"
        histories = sorted(models.glob("history_*.csv"))
        weight_files = sorted(models.glob("weights_*.ggnn"))
        unit.attempted += 2
        unit.failed += (len(histories) != 1) + (len(weight_files) != 1)
        for path in histories:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            unit.attempted += len(rows) + 1
            unit.failed += len(rows) != self.cfg.train.epochs
            for row in rows:
                unit.failed += not (math.isfinite(float(row["train_mse"]))
                                    and math.isfinite(float(row["test_mse"])))
            if rows:
                unit.detail["test_mse_e6"] = float(rows[-1]["test_mse"]) * 1e6
        for path in weight_files:
            unit.attempted += len(self.test_y)
            try:
                weights = weights_io.read_weights(path)
            except weights_io.WeightsFormatError:
                unit.failed += len(self.test_y)
                continue
            # Small batches keep this float64 check below stage_train's peak RSS.
            preds = training.evaluate(weights, self.cfg.net, self.test_x, self.test_y,
                                      batch_size=8)
            for i, pred, truth in zip(preds.order, preds.predictions, preds.truth):
                unit.failed += not math.isfinite(pred)
                unit.errors_pct[int(i)] = _rel_err_pct(pred, truth)


class Inspect(Workload):
    """Closed loop, one client: build_grid -> predict (batch 1) -> classify."""

    name = "inspect-tiny"
    unit_name = "region"
    aliases = {"items_per_s": "inspect_regions_per_s", "item_ms_p50": "inspect_ms_p50",
               "item_ms_tail": "inspect_ms_tail", "err_pct": "predict_err_pct"}

    def setup(self) -> None:
        self.cfg = _tiny(self.seed, self.micro).validate().resolved()
        pcb = self.cfg.pcbs()[0]
        self.scans = []
        for j in range(SCAN_SEEDS):
            scan_cfg = replace(self.cfg.scan, seed=self.seed * SCAN_SEEDS + j)
            for scan_pass in range(SCAN_PASSES):
                for region in pcb.regions():
                    cloud = scansim.raster_scan(pcb, region, scan_cfg, scan_pass)
                    self.scans.append((cloud, region, scansim.analytic_volume(region)))
        volumes = np.array([truth for _, _, truth in self.scans])
        self.weights = network.init_weights(self.cfg.net, seed=self.seed)
        self.weights.target_mean = float(volumes.mean())
        self.weights.target_std = float(volumes.std())
        self.thresholds = diagnose.default_thresholds(self.cfg.layout)
        self.next = 0
        self._inspect(*self.scans[0][:2])  # warm-up

    def _inspect(self, cloud, region):
        grid = voxelizer.build_grid(cloud, self.cfg.grid)
        volume = float(network.predict(grid.occupancy[None, None], self.weights,
                                       self.cfg.net, batch_size=1)[0])
        return volume, diagnose.classify(volume, self.thresholds, region.glue_type)

    def unit(self) -> Unit:
        index = self.next % len(self.scans)
        self.next += 1
        cloud, region, truth = self.scans[index]
        with self.clock.timed():
            volume, label = self._inspect(cloud, region)
        unit = Unit(self.clock.last, 1, [self.clock.last * 1e3], attempted=1)
        unit.failed += not (math.isfinite(volume) and isinstance(label, diagnose.FaultLabel))
        unit.errors_pct[index] = _rel_err_pct(volume, truth)
        return unit


WORKLOADS = {w.name: w for w in (Prep, Train, Inspect)}

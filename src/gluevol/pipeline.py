"""File-based pipeline stages over a workspace directory.

Each stage reads and writes only its declared formats:

    scans/*.xyz          regional scans (simulate)
    annotations.csv      per-scan annotated volumes (annotate)
    samples/*.ggpc       augmented sample clouds (augment)
    manifest.json/.csv   sample manifest and label audit table (augment)
    grids/*.ggvg         occupancy grids (voxelize)
    models/*.ggnn/.csv   weights and training history (train)
    eval/*.json          per-model evaluations and classification (eval, diagnose)
    reports/*            curve CSVs, confusion matrix, timing summary (report)

Stages are idempotent: outputs contain no wall-clock data except the
history CSVs, so a rerun with the same config and seed rewrites identical
bytes everywhere else.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from . import cloudio, dataset, diagnose, scansim, voxelizer
from .dataset import AnnotationRecord, AnnotationTable, Manifest
from .neuralvol import training, weights_io
from .util import ConfigError, encode

if TYPE_CHECKING:  # config imports this module
    from .config import RunConfig

# The paper's measured prediction time per region, which the timing report
# adds to the modeled scan time.
PREDICTION_S_PER_REGION = 1.3


class MissingInput(FileNotFoundError):
    """A stage's declared input is absent from the workspace."""


class NumericError(ArithmeticError):
    """Training or evaluation produced non-finite numbers."""


def _noop_log(**kv):
    pass


def _group_name(glue_type: str, attached: bool) -> str:
    return f"{glue_type}_{'attached' if attached else 'unattached'}"


def _require_dir(path: Path, stage: str, hint: str) -> Path:
    if not path.exists():
        raise MissingInput(f"{stage}: missing {path} (run `{hint}` first)")
    return path


def _read_manifest(out: Path, stage: str) -> Manifest:
    path = out / "manifest.json"
    if not path.exists():
        raise MissingInput(f"{stage}: missing {path} (run `augment` first)")
    return Manifest.from_json(path)


def stage_simulate(cfg: RunConfig, out: Path, log=_noop_log) -> Path:
    """Write every regional scan of every panel and pass to scans/."""
    out = Path(out)
    scan_dir = out / "scans"
    scan_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    for pcb in cfg.pcbs():
        for region in pcb.regions():
            for scan_pass in range(cfg.passes):
                cloud = scansim.raster_scan(pcb, region, cfg.scan, scan_pass)
                cloudio.write_xyz(cloud, scan_dir / scansim.scan_filename(pcb.index, region, scan_pass))
                count += 1
    log(stage="simulate", scans=count, step_um=cfg.scan.step_um)
    return scan_dir


def stage_annotate(cfg: RunConfig, out: Path, log=_noop_log) -> Path:
    """Annotate every unattached scan; write annotations.csv."""
    out = Path(out)
    scan_dir = _require_dir(out / "scans", "annotate", "simulate")
    table = AnnotationTable()
    for pcb in cfg.pcbs():
        for region in pcb.regions():
            if region.attached:
                continue
            for scan_pass in range(cfg.passes):
                path = scan_dir / scansim.scan_filename(pcb.index, region, scan_pass)
                if not path.exists():
                    raise MissingInput(f"annotate: missing scan {path}")
                try:
                    volume = dataset.annotate(cloudio.read_xyz(path))
                except KeyError as exc:  # annotate's missing-metadata error
                    raise cloudio.CloudFormatError(f"{path}: no {exc} metadata") from exc
                table.add(
                    AnnotationRecord(
                        pcb=pcb.index,
                        row=region.row,
                        col=region.col,
                        glue_type=region.glue_type,
                        deposit=region.deposit,
                        scan_pass=scan_pass,
                        volume_mm3=volume,
                    )
                )
    table.to_csv(out / "annotations.csv")
    log(stage="annotate", scans=len(table.records))
    return out / "annotations.csv"


def _load_annotations(cfg: RunConfig, out: Path) -> AnnotationTable | None:
    path = out / "annotations.csv"
    needs_table = cfg.label_source == "annotated" or any(
        p != "unattached" for p in cfg.attach_patterns
    )
    if not path.exists():
        if needs_table:
            raise MissingInput(f"augment: missing {path} (run `annotate` first)")
        return None
    return AnnotationTable.from_csv(path)


def stage_augment(cfg: RunConfig, out: Path, log=_noop_log) -> Path:
    """Write augmented sample clouds and the labeled manifest."""
    out = Path(out)
    scan_dir = _require_dir(out / "scans", "augment", "simulate")
    sample_dir = out / "samples"
    sample_dir.mkdir(parents=True, exist_ok=True)
    annotations = _load_annotations(cfg, out)
    pcbs = cfg.pcbs()
    count = 0
    for pcb in pcbs:
        for region in pcb.regions():
            for scan_pass in range(cfg.passes):
                path = scan_dir / scansim.scan_filename(pcb.index, region, scan_pass)
                if not path.exists():
                    raise MissingInput(f"augment: missing scan {path}")
                cloud = cloudio.read_xyz(path)
                for clip in dataset.augment(cloud, cfg.augment):
                    level_index = dataset.NOISE_LEVELS.index(clip.meta["noise_level"])
                    name = dataset.sample_filename(
                        pcb.index, region, scan_pass, clip.meta["crop"], level_index
                    )
                    cloudio.write_ggpc(clip, sample_dir / name)
                    count += 1
    manifest = dataset.build_manifest(
        pcbs,
        cfg.scan,
        cfg.augment,
        passes=cfg.passes,
        annotations=annotations,
        label_source=cfg.label_source,
        provenance={
            "seed": cfg.seed,
            "profile": cfg.profile,
            "passes": cfg.passes,
            "step_um": cfg.scan.step_um,
            "label_source": cfg.label_source,
            "tool": "gluevol 0.1.0",
        },
    )
    if len(manifest.samples) != count:
        raise NumericError(
            f"augment wrote {count} samples but manifest expects {len(manifest.samples)}"
        )
    manifest.to_json(out / "manifest.json")
    manifest.to_csv(out / "manifest.csv")
    log(stage="augment", samples=count)
    return out / "manifest.json"


def stage_voxelize(cfg: RunConfig, out: Path, log=_noop_log) -> Path:
    """Grid every sample cloud listed in the manifest."""
    out = Path(out)
    manifest = _read_manifest(out, "voxelize")
    sample_dir = _require_dir(out / "samples", "voxelize", "augment")
    grid_dir = out / "grids"
    grid_dir.mkdir(parents=True, exist_ok=True)
    for sample in manifest.samples:
        cloud_path = sample_dir / sample.path
        if not cloud_path.exists():
            raise MissingInput(f"voxelize: missing sample {cloud_path}")
        grid = voxelizer.build_grid(cloudio.read_ggpc(cloud_path), cfg.grid)
        voxelizer.write_ggvg(grid, grid_dir / (Path(sample.path).stem + ".ggvg"))
    log(stage="voxelize", grids=len(manifest.samples))
    return grid_dir


def _load_split(stage: str, manifest: Manifest, grid_dir: Path, cfg: RunConfig,
                glue_type: str, attached: bool, split: str):
    """One group's grids of one split, each of ``cfg.grid``'s dims, and their labels."""
    dims = (cfg.grid.nx, cfg.grid.ny, cfg.grid.nz)
    rows = [
        s
        for s in manifest.samples
        if s.glue_type == glue_type and s.attached == attached and s.split == split
    ]
    grids = np.zeros((len(rows), 1, 0, 0, 0), dtype=np.uint8) if not rows else None
    stack = []
    for s in rows:
        path = grid_dir / (Path(s.path).stem + ".ggvg")
        if not path.exists():
            raise MissingInput(f"{stage}: missing grid {path} (run `voxelize` first)")
        grid = voxelizer.read_ggvg(path)
        if grid.dims != dims:
            raise voxelizer.GridFormatError(
                f"{stage}: grid {path} has dims {grid.dims} where the config's grid has {dims} "
                "(run `voxelize` again)")
        stack.append(grid.occupancy[None].astype(np.uint8))
    if stack:
        grids = np.stack(stack)
    labels = np.array([s.volume_mm3 for s in rows], dtype=np.float64)
    return grids, labels, rows


def _groups(manifest: Manifest) -> list[tuple[str, bool]]:
    return sorted({(s.glue_type, s.attached) for s in manifest.samples})


def stage_train(cfg: RunConfig, out: Path, log=_noop_log) -> Path:
    """Train one model per (glue type, attached) group; write weights/history."""
    out = Path(out)
    manifest = _read_manifest(out, "train")
    grid_dir = _require_dir(out / "grids", "train", "voxelize")
    model_dir = out / "models"
    model_dir.mkdir(parents=True, exist_ok=True)
    for glue_type, attached in _groups(manifest):
        name = _group_name(glue_type, attached)
        train_x, train_y, _ = _load_split(
            "train", manifest, grid_dir, cfg, glue_type, attached, "train")
        if not len(train_y):  # each type's last deposit is its test split
            raise ConfigError(f"train: {name} has no training samples "
                              "(layout.deposits_per_type must be at least 2)")
        test_x, test_y, _ = _load_split(
            "train", manifest, grid_dir, cfg, glue_type, attached, "test")
        result = training.train(train_x, train_y, cfg.net, cfg.train, test_x, test_y)
        if result.history and not np.isfinite(result.history[-1].train_mse):
            raise NumericError(f"training diverged for {name}")
        weights_io.write_weights(result.weights, model_dir / f"weights_{name}.ggnn")
        with open(model_dir / f"history_{name}.csv", "w") as fh:
            fh.write("epoch,train_mse,test_mse,wall_seconds\n")
            for h in result.history:
                fh.write(f"{h.epoch},{h.train_mse!r},{h.test_mse!r},{h.wall_seconds:.3f}\n")
        final = result.history[-1].train_mse if result.history else float("nan")
        log(stage="train", group=name, epochs=cfg.train.epochs, train_mse=final)
    return model_dir


def stage_eval(cfg: RunConfig, out: Path, log=_noop_log) -> Path:
    """Evaluate every trained model on its test split; write eval JSONs."""
    out = Path(out)
    manifest = _read_manifest(out, "eval")
    grid_dir = _require_dir(out / "grids", "eval", "voxelize")
    model_dir = _require_dir(out / "models", "eval", "train")
    eval_dir = out / "eval"
    eval_dir.mkdir(parents=True, exist_ok=True)
    for glue_type, attached in _groups(manifest):
        name = _group_name(glue_type, attached)
        weights_path = model_dir / f"weights_{name}.ggnn"
        if not weights_path.exists():
            raise MissingInput(f"eval: missing weights {weights_path} (run `train` first)")
        weights = weights_io.read_weights(weights_path)
        weights_io.check_fits(weights, cfg.net, weights_path)
        test_x, test_y, _ = _load_split(
            "eval", manifest, grid_dir, cfg, glue_type, attached, "test")
        result = training.evaluate(weights, cfg.net, test_x, test_y)
        if not np.isfinite(result.mse):
            raise NumericError(f"evaluation produced non-finite MSE for {name}")
        doc = {
            "glue_type": glue_type,
            "attached": attached,
            "n_test": int(len(test_y)),
            "mse_mm3_sq": result.mse,
            "mse_e6": result.mse_e6,
            "truth": [float(v) for v in result.truth],
            "predictions": [float(v) for v in result.predictions],
            "order": [int(v) for v in result.order],
        }
        (eval_dir / f"eval_{name}.json").write_text(encode(doc))
        log(stage="eval", group=name, mse_e6=result.mse_e6, n_test=len(test_y))
    return eval_dir


def _eval_docs(out: Path, stage: str) -> list[tuple[tuple[str, bool], dict]]:
    """The eval document of every (glue type, attached) group in the manifest.

    Groups come from the manifest, not from the files present, so an eval
    file left over from another config is never read.
    """
    docs = []
    for group in _groups(_read_manifest(out, stage)):
        path = out / "eval" / f"eval_{_group_name(*group)}.json"
        if not path.exists():
            raise MissingInput(f"{stage}: missing {path} (run `eval` first)")
        docs.append((group, json.loads(path.read_text())))
    if not docs:
        raise MissingInput(f"{stage}: {out / 'manifest.json'} lists no samples")
    return docs


def _resolve_thresholds(cfg: RunConfig):
    return cfg.thresholds if cfg.thresholds is not None else diagnose.default_thresholds(cfg.layout)


def stage_diagnose(cfg: RunConfig, out: Path, log=_noop_log) -> Path:
    """Classify predicted volumes against thresholds; write classification.json."""
    out = Path(out)
    eval_dir = _require_dir(out / "eval", "diagnose", "eval")
    thresholds = _resolve_thresholds(cfg)
    (out / "thresholds.json").write_text(encode(thresholds))
    groups = {}
    confusion = np.zeros((3, 3), dtype=np.int64)
    for (glue_type, attached), doc in _eval_docs(out, "diagnose"):
        true_labels = [diagnose.classify(v, thresholds, glue_type) for v in doc["truth"]]
        pred_labels = [diagnose.classify(v, thresholds, glue_type) for v in doc["predictions"]]
        accuracy_pct = diagnose.accuracy(pred_labels, true_labels)
        confusion += diagnose.confusion_matrix(pred_labels, true_labels)
        name = _group_name(glue_type, attached)
        groups[name] = {
            "accuracy_pct": accuracy_pct,
            "true_labels": [l.value for l in true_labels],
            "predicted_labels": [l.value for l in pred_labels],
        }
        log(stage="diagnose", group=name, accuracy_pct=accuracy_pct)
    doc = {"groups": groups, "confusion": confusion.tolist()}
    (eval_dir / "classification.json").write_text(encode(doc))
    return eval_dir / "classification.json"


def stage_report(cfg: RunConfig, out: Path, log=_noop_log) -> Path:
    """Emit curve CSVs, the confusion matrix and the timing summary."""
    from dataclasses import replace

    out = Path(out)
    eval_dir = _require_dir(out / "eval", "report", "eval")
    classification_path = eval_dir / "classification.json"
    if not classification_path.exists():
        raise MissingInput(f"report: missing {classification_path} (run `diagnose` first)")
    eval_results = {
        group: SimpleNamespace(
            truth=np.array(doc["truth"]), predictions=np.array(doc["predictions"])
        )
        for group, doc in _eval_docs(out, "report")
    }
    classification = json.loads(classification_path.read_text())
    confusion = np.array(classification["confusion"], dtype=np.int64)

    regions = [r for pcb in cfg.pcbs() for r in pcb.regions()]
    scan_seconds = scansim.scan_time_estimate(regions, cfg.scan)
    prediction_seconds = len(regions) * PREDICTION_S_PER_REGION
    scan_20 = scansim.scan_time_estimate(regions, replace(cfg.scan, step_um=20.0))
    scan_50 = scansim.scan_time_estimate(regions, replace(cfg.scan, step_um=50.0))
    extra = {
        "step_um": cfg.scan.step_um,
        "scan_seconds_at_20um": round(scan_20, 1),
        "scan_seconds_at_50um": round(scan_50, 1),
        "scan_ratio_20_50": round(scan_20 / scan_50, 4),
    }
    report_dir = out / "reports"
    written = diagnose.emit_report(
        report_dir, eval_results, confusion, scan_seconds, prediction_seconds, extra
    )
    log(stage="report", files=len(written), scan_seconds=round(scan_seconds, 1))
    return report_dir


STAGES = (
    ("simulate", stage_simulate),
    ("annotate", stage_annotate),
    ("augment", stage_augment),
    ("voxelize", stage_voxelize),
    ("train", stage_train),
    ("eval", stage_eval),
    ("diagnose", stage_diagnose),
    ("report", stage_report),
)


def stage_pipeline(cfg: RunConfig, out: Path, log=_noop_log) -> Path:
    """Run every stage in order."""
    for _, fn in STAGES:
        fn(cfg, out, log)
    return Path(out)

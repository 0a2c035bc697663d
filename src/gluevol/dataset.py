"""Annotated, augmented, split dataset construction.

Volume labels come from the geometric annotation pipeline (plane fit,
frame, crop, triangulate, projected-face volume) on unattached scans;
attached deposits inherit the per-(column, type) mean of those
annotations. Each scan is augmented by sliding crop windows plus Gaussian
z-noise levels, and split train/test by deposit position (the last deposit
of each circuit/type tests, the rest train) so augmentations never leak
across the split. The augmentation's fixed settings are module constants:
``WINDOW_FRACTION``, ``SHIFT_FRACTION`` and ``NOISE_LEVELS``.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import geom3d
from .geom3d import BoundingBox2, EmptyGlueWarning, PointCloud
from .scansim import PcbModel, RegionSpec, ScanConfig, analytic_volume, scan_lattice
from .util import DOMAIN_AUGMENT, decode, derived_rng, encode, floor_ratio, stable_u32

# Annotated volumes below this are flagged as empty deposits.
EMPTY_GLUE_FLOOR_MM3 = 1e-4

# Crop windows cover this share of each axis range and slide in steps of
# max(SHIFT_FRACTION * range, min_step) over the leftover slack.
WINDOW_FRACTION = 0.92
SHIFT_FRACTION = 0.02
# Each crop is emitted at every level, with z-noise sigma = level * z-range.
NOISE_LEVELS = (0.0, 0.03, 0.06, 0.09)


class MissingColumnAnnotation(ValueError):
    """A (column, glue type) has no unattached annotation to propagate."""


@dataclass(frozen=True)
class AugmentParams:
    """The crop windows' least step (the scan step) and the noise seed."""

    min_step_um: float = 20.0
    seed: int = 0
    RETIRED_KEYS = {  # not a field; see util.ANY_VALUE
        "window_fraction": WINDOW_FRACTION, "shift_fraction": SHIFT_FRACTION,
        "noise_levels": NOISE_LEVELS}


@dataclass(frozen=True)
class Sample:
    """One augmented training/test sample and its provenance tags."""

    path: str
    glue_type: str
    attached: bool
    pcb: int
    row: int
    col: int
    deposit: int
    scan_pass: int
    crop_index: int
    noise_level: float
    volume_mm3: float
    annotated_mm3: float | None
    split: str


@dataclass
class Manifest:
    samples: list[Sample]
    provenance: dict = field(default_factory=dict)

    def to_json(self, path) -> None:
        Path(path).write_text(encode(self))

    @classmethod
    def from_json(cls, path) -> "Manifest":
        return decode(cls, Path(path).read_text())

    def to_csv(self, path) -> None:
        """Label table export for audit."""
        fields = [f for f in Sample.__dataclass_fields__]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            for s in self.samples:
                writer.writerow([getattr(s, f) for f in fields])


def annotate(cloud: PointCloud) -> float:
    """Estimated deposit volume (mm^3) of an unattached regional scan.

    Fits the substrate plane, moves the cloud into the plane frame, crops to
    the glue footprint, triangulates the raster lattice and sums the prisms
    of its faces over the plane. The footprint and the lattice step come
    from the scan's ``footprint`` and ``step_um`` metadata, which
    ``scansim.raster_scan`` writes; a cloud without either raises KeyError
    naming the key.
    """
    footprint = BoundingBox2(*cloud.meta["footprint"])
    step_mm = cloud.meta["step_um"] * 1e-3
    plane, _ = geom3d.fit_plane_ransac(cloud)
    framed = geom3d.to_plane_frame(cloud, plane)
    framed = geom3d.crop_xy(framed, footprint, allow_empty=False)
    mesh = geom3d.triangulate_lattice(framed, step_mm)
    # Substrate points sit a hair below the fitted plane (the RANSAC inlier
    # band includes the deposit skirt, lifting the fit); the volume counts
    # their faces as zero.
    volume = geom3d.mesh_volume_over_plane(mesh)
    if volume < EMPTY_GLUE_FLOOR_MM3:
        warnings.warn(
            f"annotated volume {volume:.2e} mm^3 below empty-deposit floor",
            EmptyGlueWarning,
            stacklevel=2,
        )
    return volume


@dataclass(frozen=True)
class AnnotationRecord:
    pcb: int
    row: int
    col: int
    glue_type: str
    deposit: int
    scan_pass: int
    volume_mm3: float


class AnnotationTable:
    """Per-scan annotation volumes with (column, type) aggregation."""

    def __init__(self, records: Iterable[AnnotationRecord] = ()):
        self.records: list[AnnotationRecord] = list(records)

    def add(self, record: AnnotationRecord) -> None:
        self.records.append(record)

    def column_mean(self, col: int, glue_type: str) -> float:
        values = [
            r.volume_mm3
            for r in self.records
            if r.col == col and r.glue_type == glue_type
        ]
        if not values:
            raise MissingColumnAnnotation(f"no annotation for column {col} type {glue_type}")
        return sum(values) / len(values)

    def deposit_mean(self, pcb: int, row: int, col: int, glue_type: str, deposit: int) -> float | None:
        values = [
            r.volume_mm3
            for r in self.records
            if (r.pcb, r.row, r.col, r.glue_type, r.deposit)
            == (pcb, row, col, glue_type, deposit)
        ]
        return sum(values) / len(values) if values else None

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["pcb", "row", "col", "glue_type", "deposit", "scan_pass", "volume_mm3"])
            for r in self.records:
                writer.writerow(
                    [r.pcb, r.row, r.col, r.glue_type, r.deposit, r.scan_pass, r.volume_mm3]
                )

    @classmethod
    def from_csv(cls, path) -> "AnnotationTable":
        table = cls()
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                table.add(
                    AnnotationRecord(
                        pcb=int(row["pcb"]),
                        row=int(row["row"]),
                        col=int(row["col"]),
                        glue_type=row["glue_type"],
                        deposit=int(row["deposit"]),
                        scan_pass=int(row["scan_pass"]),
                        volume_mm3=float(row["volume_mm3"]),
                    )
                )
        return table


def crop_offsets(range_mm: float, params: AugmentParams) -> np.ndarray:
    """Window start offsets along one axis, centered over the slide slack."""
    window = WINDOW_FRACTION * range_mm
    slack = range_mm - window
    step = max(SHIFT_FRACTION * range_mm, params.min_step_um * 1e-3)
    count = floor_ratio(slack, step) + 1 if slack > 0 else 1
    margin = (slack - (count - 1) * step) / 2.0
    return margin + step * np.arange(count)


def crop_counts(x_range: float, y_range: float, params: AugmentParams) -> tuple[int, int]:
    return len(crop_offsets(x_range, params)), len(crop_offsets(y_range, params))


def augment(cloud: PointCloud, params: AugmentParams) -> list[PointCloud]:
    """Crop/noise augmentations of one scan, deterministic per seed.

    Emits every crop window at every noise level, tagged with ``crop`` and
    ``noise_level`` metadata. Level 0 leaves z untouched.
    """
    lo, hi = cloud.bounds()
    x_range, y_range = hi[0] - lo[0], hi[1] - lo[1]
    z_range = hi[2] - lo[2]
    offs_x = crop_offsets(x_range, params)
    offs_y = crop_offsets(y_range, params)
    window_x = WINDOW_FRACTION * x_range
    window_y = WINDOW_FRACTION * y_range
    rng = derived_rng(
        params.seed,
        DOMAIN_AUGMENT,
        stable_u32(str(cloud.meta.get("region_id", ""))),
        int(cloud.meta.get("pass", 0)),
        int(cloud.meta.get("pcb", 0)),
    )
    out: list[PointCloud] = []
    crop_index = 0
    for ox in offs_x:
        for oy in offs_y:
            box = BoundingBox2(
                lo[0] + ox, lo[0] + ox + window_x, lo[1] + oy, lo[1] + oy + window_y
            )
            cropped = geom3d.crop_xy(cloud, box)
            for level in NOISE_LEVELS:
                xyz = cropped.xyz
                if level > 0:
                    xyz = xyz.copy()
                    xyz[:, 2] += rng.normal(0.0, level * z_range, size=len(xyz))
                sample = PointCloud(xyz, cropped.meta)
                sample.meta.update(crop=crop_index, noise_level=level)
                out.append(sample)
            crop_index += 1
    return out


def split_for(region: RegionSpec, deposits_per_type: int) -> str:
    """Last deposit of each circuit/type tests; the others train."""
    return "test" if region.deposit == deposits_per_type - 1 else "train"


def sample_filename(pcb_index: int, region: RegionSpec, scan_pass: int,
                    crop_index: int, level_index: int) -> str:
    return (
        f"pcb{pcb_index}_c{region.row}{region.col}_t{region.glue_type}"
        f"_d{region.deposit}_pass{scan_pass}_crop{crop_index}_n{level_index}.ggpc"
    )


def expected_crop_counts(region: RegionSpec, scan_cfg: ScanConfig,
                         params: AugmentParams) -> tuple[int, int]:
    """Crop grid size from the exact raster lattice extent (no scan needed)."""
    xs, ys = scan_lattice(region, scan_cfg)
    x_range = float(xs[-1] - xs[0]) if len(xs) > 1 else 0.0
    y_range = float(ys[-1] - ys[0]) if len(ys) > 1 else 0.0
    return crop_counts(x_range, y_range, params)


def build_manifest(
    pcbs: Sequence[PcbModel],
    scan_cfg: ScanConfig,
    params: AugmentParams,
    passes: int = 1,
    annotations: AnnotationTable | None = None,
    label_source: str = "analytic",
    provenance: Mapping | None = None,
) -> Manifest:
    """Assemble the sample manifest for a set of scanned panels.

    Unattached labels default to the simulator's exact volumes
    (``label_source="analytic"``); ``"annotated"`` switches them to the
    per-deposit mean of geometric annotations, reproducing the noisy-label
    regime. Attached labels always propagate from same-column unattached
    annotations.
    """
    if label_source not in ("analytic", "annotated"):
        raise ValueError(f"unknown label source {label_source!r}")
    if label_source == "annotated" and annotations is None:
        raise ValueError("annotated label source needs an annotation table")
    samples: list[Sample] = []
    column_means: dict[tuple[int, str], float] = {}
    for pcb in pcbs:
        deposits_per_type = pcb.layout.deposits_per_type
        for region in pcb.regions():
            n_cx, n_cy = expected_crop_counts(region, scan_cfg, params)
            split = split_for(region, deposits_per_type)
            annotated = None
            if annotations is not None and not region.attached:
                annotated = annotations.deposit_mean(
                    pcb.index, region.row, region.col, region.glue_type, region.deposit
                )
            if region.attached:
                if annotations is None:
                    raise MissingColumnAnnotation(
                        "attached regions need an annotation table to label"
                    )
                key = (region.col, region.glue_type)
                if key not in column_means:
                    column_means[key] = annotations.column_mean(*key)
                label = column_means[key]
            elif label_source == "annotated":
                if annotated is None:
                    raise MissingColumnAnnotation(
                        f"no annotation for deposit {region.region_id}"
                    )
                label = annotated
            else:
                label = analytic_volume(region)
            for scan_pass in range(passes):
                for crop_index in range(n_cx * n_cy):
                    for level_index, level in enumerate(NOISE_LEVELS):
                        samples.append(
                            Sample(
                                path=sample_filename(
                                    pcb.index, region, scan_pass, crop_index, level_index
                                ),
                                glue_type=region.glue_type,
                                attached=region.attached,
                                pcb=pcb.index,
                                row=region.row,
                                col=region.col,
                                deposit=region.deposit,
                                scan_pass=scan_pass,
                                crop_index=crop_index,
                                noise_level=level,
                                volume_mm3=label,
                                annotated_mm3=annotated,
                                split=split,
                            )
                        )
    return Manifest(samples=samples, provenance=dict(provenance or {}))

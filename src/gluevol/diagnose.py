"""Threshold-based fault classification of volume estimates and reporting.

A deposit is Insufficient below the type's lower bound, Excessive above the
upper bound, Normal otherwise (bounds inclusive). Default thresholds sit at
+/-25% around the middle column's nominal volume of the simulated panel;
production thresholds come from a JSON config.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .scansim import LayoutConfig
from .util import LengthMismatch, atomic_write

# Half-width of the default Normal band, relative to the nominal volume.
DEFAULT_BAND = 0.25

# Repairs get much harder once the glue has been curing this long.
CRITICAL_TIME_S = 3600.0


class UnknownType(KeyError):
    """No thresholds configured for the requested glue type."""


class FaultLabel(Enum):
    INSUFFICIENT = "insufficient"
    NORMAL = "normal"
    EXCESSIVE = "excessive"


@dataclass(frozen=True)
class VolumeThresholds:
    lower_mm3: float
    upper_mm3: float

    def __post_init__(self):
        if not (0 < self.lower_mm3 < self.upper_mm3):
            raise ValueError("thresholds must satisfy 0 < lower < upper")


def classify(
    volume: float, thresholds: Mapping[str, VolumeThresholds], glue_type: str
) -> FaultLabel:
    """Fault label of one volume estimate; boundary values are Normal."""
    try:
        t = thresholds[glue_type]
    except KeyError:
        raise UnknownType(f"no thresholds for glue type {glue_type!r}") from None
    if volume < t.lower_mm3:
        return FaultLabel.INSUFFICIENT
    if volume > t.upper_mm3:
        return FaultLabel.EXCESSIVE
    return FaultLabel.NORMAL


def default_thresholds(layout: LayoutConfig) -> dict[str, VolumeThresholds]:
    """Per-type bounds +/-DEFAULT_BAND around the middle column's nominal volume."""
    scales = layout.scales()
    mid = scales[len(scales) // 2]
    return {
        glue_type: VolumeThresholds(
            lower_mm3=(1.0 - DEFAULT_BAND) * base * mid,
            upper_mm3=(1.0 + DEFAULT_BAND) * base * mid,
        )
        for glue_type, base in layout.base_volume_mm3.items()
        if glue_type in layout.glue_types
    }


def accuracy(predicted: Sequence[FaultLabel], true: Sequence[FaultLabel]) -> float:
    """Percentage of matching labels; 100 for no labels."""
    if len(predicted) != len(true):
        raise LengthMismatch(f"{len(predicted)} predictions vs {len(true)} labels")
    matches = np.array([p == t for p, t in zip(predicted, true)], dtype=bool)
    return float(matches.mean()) * 100.0 if len(matches) else 100.0


def confusion_matrix(
    predicted: Sequence[FaultLabel], true: Sequence[FaultLabel]
) -> np.ndarray:
    """Rows = true label, columns = predicted, in FaultLabel order."""
    if len(predicted) != len(true):
        raise LengthMismatch(f"{len(predicted)} predictions vs {len(true)} labels")
    order = {label: i for i, label in enumerate(FaultLabel)}
    matrix = np.zeros((3, 3), dtype=np.int64)
    for p, t in zip(predicted, true):
        matrix[order[t], order[p]] += 1
    return matrix


def write_curve_csv(path, truth: np.ndarray, predictions: np.ndarray) -> None:
    """Sorted prediction-vs-truth curve; truth column is non-increasing."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "truth_mm3", "prediction_mm3"])
        for i, (t, p) in enumerate(zip(truth, predictions)):
            writer.writerow([i, repr(float(t)), repr(float(p))])


def write_confusion_csv(path, matrix: np.ndarray) -> None:
    names = [label.value for label in FaultLabel]
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true\\predicted"] + names)
        for name, row in zip(names, matrix):
            writer.writerow([name] + [int(v) for v in row])


def write_timing_report(
    path,
    scan_seconds: float,
    prediction_seconds: float,
    extra: Mapping[str, object] | None = None,
) -> None:
    """Timing summary with the one-hour in-line viability flag."""
    total = scan_seconds + prediction_seconds
    lines = [
        f"scan_seconds={scan_seconds:.1f}",
        f"prediction_seconds={prediction_seconds:.1f}",
        f"total_seconds={total:.1f}",
        f"critical_threshold_seconds={CRITICAL_TIME_S:.1f}",
        f"exceeds_critical_threshold={'yes' if total > CRITICAL_TIME_S else 'no'}",
    ]
    for key in sorted(extra or {}):
        lines.append(f"{key}={extra[key]}")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def emit_report(
    out_dir,
    eval_results: Mapping[tuple[str, bool], object],
    confusion: np.ndarray,
    scan_seconds: float,
    prediction_seconds: float,
    timing_extra: Mapping[str, object] | None = None,
) -> list[Path]:
    """Write curve CSVs per (type, attached) evaluation, the confusion
    matrix and the timing summary; returns the written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for (glue_type, attached), result in sorted(eval_results.items()):
        name = f"curves_{glue_type}_{'attached' if attached else 'unattached'}.csv"
        path = out_dir / name
        write_curve_csv(path, result.truth, result.predictions)
        written.append(path)
    confusion_path = out_dir / "confusion.csv"
    write_confusion_csv(confusion_path, confusion)
    written.append(confusion_path)
    timing_path = out_dir / "timing.txt"
    write_timing_report(timing_path, scan_seconds, prediction_seconds, timing_extra)
    written.append(timing_path)
    return written

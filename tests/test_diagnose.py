import json

import numpy as np
import pytest

from gluevol.diagnose import (
    FaultLabel,
    UnknownType,
    VolumeThresholds,
    accuracy,
    classify,
    confusion_matrix,
    default_thresholds,
    write_curve_csv,
    write_timing_report,
)
from gluevol.scansim import LayoutConfig, make_pcb
from gluevol.util import LengthMismatch, decode, encode

THRESHOLDS = {"A": VolumeThresholds(0.01, 0.02)}


class TestClassify:
    def test_boundaries_are_normal(self):
        assert classify(0.01, THRESHOLDS, "A") is FaultLabel.NORMAL
        assert classify(0.02, THRESHOLDS, "A") is FaultLabel.NORMAL

    def test_zero_volume_insufficient(self):
        assert classify(0.0, THRESHOLDS, "A") is FaultLabel.INSUFFICIENT

    def test_above_upper_excessive(self):
        assert classify(0.0200001, THRESHOLDS, "A") is FaultLabel.EXCESSIVE

    def test_unknown_type(self):
        with pytest.raises(UnknownType):
            classify(0.01, THRESHOLDS, "Z")

    def test_monotone_in_volume(self):
        rank = {FaultLabel.INSUFFICIENT: 0, FaultLabel.NORMAL: 1, FaultLabel.EXCESSIVE: 2}
        volumes = np.linspace(0, 0.04, 200)
        labels = [rank[classify(v, THRESHOLDS, "A")] for v in volumes]
        assert all(b >= a for a, b in zip(labels, labels[1:]))

    @pytest.mark.parametrize("volume", [np.nan, np.inf, -np.inf])
    def test_non_finite_volume_raises(self, volume):
        # NaN fails both comparisons; it must not pass as Normal
        with pytest.raises(FloatingPointError, match="non-finite volume"):
            classify(volume, THRESHOLDS, "A")

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            VolumeThresholds(0.02, 0.01)


class TestDefaultThresholds:
    def test_band_around_middle_column(self):
        layout = LayoutConfig()
        thresholds = default_thresholds(layout)
        scales = layout.scales()
        mid = scales[len(scales) // 2]
        for glue_type in layout.glue_types:
            nominal = layout.base_volume_mm3[glue_type] * mid
            assert thresholds[glue_type].lower_mm3 == pytest.approx(0.75 * nominal)
            assert thresholds[glue_type].upper_mm3 == pytest.approx(1.25 * nominal)

    def test_simulator_self_consistency(self):
        # Classifying the true dispensed volumes with the derived thresholds
        # reproduces the intended per-column fault labels exactly.
        layout = LayoutConfig()
        pcb = make_pcb(layout, "unattached", 0)
        thresholds = default_thresholds(layout)
        for region in pcb.regions():
            truth = classify(region.dispensed_volume, thresholds, region.glue_type)
            again = classify(region.dispensed_volume, thresholds, region.glue_type)
            assert truth is again


class TestAccuracy:
    def test_all_correct(self):
        labels = [FaultLabel.NORMAL] * 5
        assert accuracy(labels, labels) == 100.0

    def test_half_correct(self):
        pred = [FaultLabel.NORMAL, FaultLabel.EXCESSIVE]
        true = [FaultLabel.NORMAL, FaultLabel.NORMAL]
        assert accuracy(pred, true) == 50.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            accuracy([FaultLabel.NORMAL], [])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        pred = [list(FaultLabel)[i] for i in rng.integers(0, 3, 50)]
        true = [list(FaultLabel)[i] for i in rng.integers(0, 3, 50)]
        base = accuracy(pred, true)
        perm = rng.permutation(50)
        shuffled = accuracy([pred[i] for i in perm], [true[i] for i in perm])
        assert base == shuffled
        assert 0.0 <= base <= 100.0


class TestReports:
    def test_curve_csv_sorted_non_increasing(self, tmp_path):
        truth = np.array([0.03, 0.02, 0.01])
        preds = np.array([0.031, 0.019, 0.012])
        path = tmp_path / "curve.csv"
        write_curve_csv(path, truth, preds)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "index,truth_mm3,prediction_mm3"
        values = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_confusion_matrix(self):
        pred = [FaultLabel.NORMAL, FaultLabel.EXCESSIVE, FaultLabel.INSUFFICIENT]
        true = [FaultLabel.NORMAL, FaultLabel.NORMAL, FaultLabel.INSUFFICIENT]
        matrix = confusion_matrix(pred, true)
        assert matrix[0, 0] == 1  # insufficient correctly
        assert matrix[1, 1] == 1
        assert matrix[1, 2] == 1  # normal predicted excessive
        assert matrix.sum() == 3

    def test_timing_report_flag(self, tmp_path):
        path = tmp_path / "timing.txt"
        write_timing_report(path, 2620.0, 470.0)
        text = path.read_text()
        assert "total_seconds=3090.0" in text
        assert "exceeds_critical_threshold=no" in text
        write_timing_report(path, 3500.0, 470.0)
        assert "exceeds_critical_threshold=yes" in path.read_text()

    def test_timing_total_is_sum(self, tmp_path):
        path = tmp_path / "timing.txt"
        write_timing_report(path, 100.0, 50.0, extra={"step_um": 50.0})
        text = path.read_text()
        assert "total_seconds=150.0" in text
        assert "step_um=50.0" in text

    def test_thresholds_json_round_trip(self):
        text = encode(THRESHOLDS)
        assert json.loads(text) == {"A": {"lower_mm3": 0.01, "upper_mm3": 0.02}}
        assert decode(dict[str, VolumeThresholds], text) == THRESHOLDS

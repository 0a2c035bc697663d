from collections import Counter

import numpy as np
import pytest

from gluevol import dataset, geom3d, scansim
from gluevol.dataset import (
    AnnotationRecord,
    AnnotationTable,
    AugmentParams,
    Manifest,
    MissingColumnAnnotation,
    annotate,
    augment,
    build_manifest,
    crop_counts,
)
from gluevol.geom3d import BoundingBox2, PointCloud
from gluevol.scansim import LayoutConfig, ScanConfig, make_pcb, raster_scan


def lattice_cloud(x_range, y_range, step, height=0.05, meta=None):
    xs = step * np.arange(int(round(x_range / step)) + 1)
    ys = step * np.arange(int(round(y_range / step)) + 1)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    zz = np.full_like(xx, height)
    return PointCloud(np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()]), meta)


def split_counts(manifest):
    """Sample count per (glue type, attached, split)."""
    return Counter((s.glue_type, s.attached, s.split) for s in manifest.samples)


STEP_20 = ScanConfig(step_um=20.0, margin_mm=0.2)


@pytest.fixture(scope="module")
def pcb():
    return make_pcb(LayoutConfig(), "unattached", 0)


def paper_pcbs():
    """The paper's three panels, each one dispensing pattern."""
    return [make_pcb(LayoutConfig(), pattern, i)
            for i, pattern in enumerate(("attached", "unattached", "half"))]


@pytest.mark.usefixtures("noiseless")
class TestAnnotate:
    def test_simulated_deposit_within_two_percent(self, pcb):
        region = pcb.region(0, 4, "A", 1)
        cloud = raster_scan(pcb, region, STEP_20)
        volume = annotate(cloud)
        assert volume == pytest.approx(region.dispensed_volume, rel=0.02)

    def test_flat_region_near_zero(self, pcb):
        region = pcb.region(0, 0, "A", 0)
        flat = scansim.RegionSpec(glue_type="A", footprint=region.footprint, dispensed_volume=0.0)
        cloud = raster_scan(pcb, flat, STEP_20)
        with pytest.warns(UserWarning, match="empty-deposit"):
            volume = annotate(cloud)
        assert abs(volume) < 1e-4

    @pytest.mark.parametrize("key", ["footprint", "step_um"])
    def test_scan_metadata_required(self, pcb, key):
        cloud = raster_scan(pcb, pcb.region(0, 4, "A", 1), STEP_20)
        del cloud.meta[key]
        with pytest.raises(KeyError, match=key):
            annotate(cloud)

    def test_volume_is_linear_in_height_below_merge_band(self, monkeypatch):
        # A noise-free plateau on a z = 0 substrate, cropped with a substrate
        # rim. Every node is 0 or h, so the volume is h times one constant,
        # also for a 1.5 um plateau inside the 2 um lattice merge band. The
        # RANSAC band is narrowed below both heights, so the fit is z = 0.
        monkeypatch.setattr(geom3d, "RANSAC_THRESHOLD_MM", 0.001)

        def plateau(height):
            cloud = lattice_cloud(1.0, 1.0, 0.02, height=0.0,
                                  meta={"footprint": (0.2, 0.8, 0.2, 0.8), "step_um": 20.0})
            inside = np.all(np.abs(cloud.xyz[:, :2] - 0.5) <= 0.2 + 1e-9, axis=1)
            cloud.xyz[inside, 2] = height
            return cloud

        thin, thick = annotate(plateau(0.0015)), annotate(plateau(0.015))
        assert thick == pytest.approx(0.4 * 0.4 * 0.015, rel=0.2)
        assert thin / thick == pytest.approx(0.1, rel=1e-9)

    def test_pass_invariance_noise_free(self, pcb):
        region = pcb.region(1, 6, "C", 2)
        a = annotate(raster_scan(pcb, region, STEP_20, scan_pass=0))
        b = annotate(raster_scan(pcb, region, STEP_20, scan_pass=1))
        assert abs(a - b) / a < 0.005

    def test_paper_scale_unattached_deposit_count(self):
        # Three panels (attached / unattached / half): 27 unattached circuits
        # x 4 deposits = 108 annotatable deposits per glue type.
        pcbs = paper_pcbs()
        for glue_type in "ABCDE":
            deposits = [
                (pcb.index, r.row, r.col, r.deposit)
                for pcb in pcbs
                for r in pcb.regions()
                if not r.attached and r.glue_type == glue_type
            ]
            assert len(deposits) == 108


class TestAugment:
    def test_reference_crop_arithmetic(self):
        # 2.0 x 2.0 mm at 20 um minimum step: shift = max(0.04, 0.02) = 0.04,
        # slack = 0.16 -> 5 positions per axis -> 25 crops x 4 levels = 100.
        params = AugmentParams(min_step_um=20.0)
        assert crop_counts(2.0, 2.0, params) == (5, 5)
        cloud = lattice_cloud(2.0, 2.0, 0.02, meta={"region_id": "r", "pass": 0})
        samples = augment(cloud, params)
        assert len(samples) == 100

    def test_degenerate_slack_single_position(self, monkeypatch):
        monkeypatch.setattr(dataset, "WINDOW_FRACTION", 0.999)
        params = AugmentParams(min_step_um=20.0)
        cloud = lattice_cloud(0.5, 0.5, 0.02, meta={})
        samples = augment(cloud, params)
        assert len(samples) == len(dataset.NOISE_LEVELS)

    def test_zero_level_preserves_points(self):
        params = AugmentParams(min_step_um=20.0, seed=5)
        cloud = lattice_cloud(1.0, 1.0, 0.02, meta={"region_id": "q", "pass": 0})
        clean = [s for s in augment(cloud, params) if s.meta["noise_level"] == 0.0]
        source = {tuple(p) for p in np.round(cloud.xyz, 12)}
        for sample in clean:
            # crop subset of original points, z untouched
            rows = {tuple(p) for p in np.round(sample.xyz, 12)}
            assert rows <= source

    def test_bounds_inside_source(self):
        params = AugmentParams(min_step_um=50.0, seed=2)
        cloud = lattice_cloud(1.5, 0.9, 0.05, height=0.08, meta={"region_id": "b", "pass": 0})
        lo, hi = cloud.bounds()
        for sample in augment(cloud, params):
            slo, shi = sample.bounds()
            assert slo[0] >= lo[0] - 1e-12 and shi[0] <= hi[0] + 1e-12
            assert slo[1] >= lo[1] - 1e-12 and shi[1] <= hi[1] + 1e-12

    def test_count_formula_holds(self):
        params = AugmentParams(min_step_um=50.0)
        for x_range, y_range in ((0.8, 1.2), (1.5, 2.0), (0.6, 0.6)):
            cloud = lattice_cloud(x_range, y_range, 0.05, meta={})
            n_x, n_y = crop_counts(*(cloud.bounds()[1] - cloud.bounds()[0])[:2], params)
            assert len(augment(cloud, params)) == n_x * n_y * len(dataset.NOISE_LEVELS)

    def test_deterministic_per_seed(self):
        params = AugmentParams(min_step_um=50.0, seed=11)
        cloud = lattice_cloud(1.0, 1.0, 0.05, meta={"region_id": "d", "pass": 2})
        a = augment(cloud, params)
        b = augment(cloud, params)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.xyz, sb.xyz)

    def test_noise_scales_with_z_range(self, monkeypatch):
        monkeypatch.setattr(dataset, "NOISE_LEVELS", (0.0, 0.09))
        params = AugmentParams(min_step_um=50.0, seed=3)
        xs = 0.05 * np.arange(21)
        xx, yy = np.meshgrid(xs, xs, indexing="ij")
        zz = np.linspace(0, 0.2, xx.size).reshape(xx.shape)
        cloud = PointCloud(
            np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()]), {"region_id": "n", "pass": 0}
        )
        noisy = [s for s in augment(cloud, params) if s.meta["noise_level"] == 0.09]
        clean = [s for s in augment(cloud, params) if s.meta["noise_level"] == 0.0]
        sigma = np.concatenate(
            [n.xyz[:, 2] - c.xyz[:, 2] for n, c in zip(noisy, clean)]
        ).std()
        assert sigma == pytest.approx(0.09 * 0.2, rel=0.1)


class TestPropagateLabels:
    """build_manifest labels attached deposits with the mean annotation of
    the unattached deposits in the same column and glue type."""

    def build(self, table):
        layout = LayoutConfig(rows=1, columns=1, glue_types=("A",), deposits_per_type=2)
        self.pcbs = [make_pcb(layout, pattern, i)
                     for i, pattern in enumerate(("attached", "unattached"))]
        return build_manifest(
            self.pcbs, ScanConfig(step_um=50.0), AugmentParams(min_step_um=50.0),
            annotations=table,
        )

    def labels(self, manifest, attached):
        return {s.volume_mm3 for s in manifest.samples if s.attached == attached}

    def test_column_mean(self):
        table = AnnotationTable(
            [
                AnnotationRecord(1, 0, 0, "A", 0, 0, 0.010),
                AnnotationRecord(1, 0, 0, "A", 1, 0, 0.012),
            ]
        )
        manifest = self.build(table)
        (label,) = self.labels(manifest, attached=True)
        assert label == pytest.approx(0.011)
        # unattached deposits keep their analytic labels
        analytic = scansim.analytic_volume(self.pcbs[1].region(0, 0, "A", 0))
        assert self.labels(manifest, attached=False) == {analytic}

    def test_single_annotation_used_directly(self):
        table = AnnotationTable([AnnotationRecord(1, 0, 0, "A", 0, 0, 0.02)])
        assert self.labels(self.build(table), attached=True) == {0.02}

    def test_missing_column_raises(self):
        with pytest.raises(MissingColumnAnnotation):
            self.build(AnnotationTable())

    def test_monotone_columns_preserved(self, pcb):
        table = AnnotationTable()
        base = {"A": 0.1}
        for col in range(9):
            for deposit in range(4):
                table.add(AnnotationRecord(0, 1, col, "A", deposit, 0, base["A"] * (0.5 + col * 0.125)))
        means = [table.column_mean(col, "A") for col in range(9)]
        assert all(b > a for a, b in zip(means, means[1:]))


class TestBuildManifest:
    def test_tiny_profile_counts_exact(self):
        # 1-row panel, 1 pass: every scan contributes exactly
        # crops x noise-levels samples; with a 2x2 crop grid and 4 levels
        # that is deposits x 16.
        layout = LayoutConfig(
            rows=1,
            columns=6,
            glue_types=("A",),
            base_volume_mm3={"A": 0.035},
            footprint_mm={"A": (0.5, 0.9)},
            die_mm={"A": (0.4, 0.7, 0.25)},
        )
        pcbs = [make_pcb(layout, "unattached", 0)]
        scan_cfg = ScanConfig(step_um=50.0, margin_mm=0.15)
        params = AugmentParams(min_step_um=50.0)
        assert dataset.expected_crop_counts(pcbs[0].region(0, 0, "A", 0), scan_cfg, params) == (2, 2)
        manifest = build_manifest(pcbs, scan_cfg, params, passes=1)
        deposits = 6 * 4
        assert len(manifest.samples) == deposits * 16
        counts = split_counts(manifest)
        assert counts[("A", False, "train")] == 18 * 16
        assert counts[("A", False, "test")] == 6 * 16

    def test_paper_scale_type_a_matches_reference_table(self):
        # Full replication: 27 unattached circuits x 3 train deposits x
        # 5 passes x 100 augmentations = 40500 at the 20 um step, and
        # x 32 augmentations = 12960 at the 50 um step.
        pcbs = paper_pcbs()
        table = AnnotationTable()
        for col in range(9):
            for glue_type in "ABCDE":
                table.add(AnnotationRecord(1, 0, col, glue_type, 0, 0, 0.01 * (col + 1)))
        for step, train_expected, test_expected in ((20.0, 40500, 13500), (50.0, 12960, 4320)):
            manifest = build_manifest(
                pcbs,
                ScanConfig(step_um=step, margin_mm=0.2),
                AugmentParams(min_step_um=step),
                passes=5,
                annotations=table,
            )
            counts = split_counts(manifest)
            assert counts[("A", False, "train")] == train_expected
            assert counts[("A", False, "test")] == test_expected

    def test_split_disjoint_by_deposit(self):
        layout = LayoutConfig(rows=1, columns=2, glue_types=("A",))
        manifest = build_manifest(
            [make_pcb(layout, "unattached", 0)], ScanConfig(step_um=50.0),
            AugmentParams(min_step_um=50.0)
        )
        train_deposits = {
            (s.pcb, s.row, s.col, s.deposit) for s in manifest.samples if s.split == "train"
        }
        test_deposits = {
            (s.pcb, s.row, s.col, s.deposit) for s in manifest.samples if s.split == "test"
        }
        assert not (train_deposits & test_deposits)
        # 3:1 deposits per circuit/type
        assert len(train_deposits) == 3 * len(test_deposits)

    def test_attached_requires_annotations(self):
        layout = LayoutConfig(rows=1, columns=2, glue_types=("A",))
        with pytest.raises(MissingColumnAnnotation):
            build_manifest(
                [make_pcb(layout, "attached", 0)],
                ScanConfig(step_um=50.0),
                AugmentParams(min_step_um=50.0),
            )

    def test_json_round_trip(self, tmp_path):
        layout = LayoutConfig(rows=1, columns=2, glue_types=("A",))
        manifest = build_manifest(
            [make_pcb(layout, "unattached", 0)],
            ScanConfig(step_um=50.0),
            AugmentParams(min_step_um=50.0),
            provenance={"seed": 1},
        )
        path = tmp_path / "manifest.json"
        manifest.to_json(path)
        loaded = Manifest.from_json(path)
        assert loaded.samples == manifest.samples
        assert loaded.provenance == manifest.provenance
        # identical bytes when rewritten
        path2 = tmp_path / "again.json"
        loaded.to_json(path2)
        assert path.read_bytes() == path2.read_bytes()

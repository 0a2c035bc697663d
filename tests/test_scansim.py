import numpy as np
import pytest

from gluevol import scansim
from gluevol.geom3d import BoundingBox2
from gluevol.scansim import (
    BadLayoutConfig,
    LayoutConfig,
    NonPositiveRange,
    RegionSpec,
    ScanConfig,
    analytic_volume,
    make_pcb,
    pulse_schedule,
    raster_scan,
    scan_time_estimate,
    surface_height,
)


def riemann_volume(region, n=2000):
    box = region.footprint
    x = box.xmin + (np.arange(n) + 0.5) / n * box.x_range
    y = box.ymin + (np.arange(n) + 0.5) / n * box.y_range
    xx, yy = np.meshgrid(x, y, indexing="ij")
    h = surface_height(region, xx, yy)
    return h.sum() * box.x_range * box.y_range / n**2


@pytest.fixture(scope="module")
def pcb():
    return make_pcb(LayoutConfig(), "unattached", 0)


@pytest.fixture
def bump_free(monkeypatch):
    """Deposits without the bump. The unit-profile integral is cached for
    the deposit shape, so the cache is cleared on entry and on exit: neither
    shape reads the other's."""
    monkeypatch.setattr(scansim, "BUMP_AMPLITUDE", 0.0)
    scansim._unit_profile_integral.cache_clear()
    yield
    scansim._unit_profile_integral.cache_clear()


class TestMakePcb:
    def test_default_panel_has_360_regions(self, pcb):
        regions = list(pcb.regions())
        assert len(regions) == 360  # 18 circuits x 20 placeholders
        assert len(pcb.circuits) == 2 and len(pcb.circuits[0]) == 9

    def test_column_scale_ratio(self, pcb):
        v_first = pcb.region(0, 0, "B", 0).dispensed_volume
        v_last = pcb.region(0, 8, "B", 0).dispensed_volume
        assert v_last / v_first == pytest.approx(3.0)

    def test_same_seed_identical_models(self):
        a = make_pcb(LayoutConfig(), "unattached", 0)
        b = make_pcb(LayoutConfig(), "unattached", 0)
        for ra, rb in zip(a.regions(), b.regions()):
            assert ra == rb

    def test_column_volumes_shared_and_monotone(self, pcb):
        for glue_type in pcb.layout.glue_types:
            per_col = []
            for col in range(9):
                volumes = {
                    pcb.region(row, col, glue_type, d).dispensed_volume
                    for row in range(2)
                    for d in range(4)
                }
                assert len(volumes) == 1
                per_col.append(volumes.pop())
            assert all(b > a for a, b in zip(per_col, per_col[1:]))

    def test_bad_layouts_rejected(self):
        for layout, pattern in (
            (LayoutConfig(rows=0), "unattached"),
            (LayoutConfig(column_scales=(1.0,) * 9), "unattached"),  # not increasing
            (LayoutConfig(die_mm={t: (5.0, 5.0, 0.2) for t in "ABCDE"}), "unattached"),
            (LayoutConfig(), "sideways"),
            (LayoutConfig(rows=1), "half"),
        ):
            with pytest.raises(BadLayoutConfig):
                make_pcb(layout, pattern, 0)

    def test_attach_patterns(self):
        attached = make_pcb(LayoutConfig(), "attached", 0)
        assert all(r.attached for r in attached.regions())
        half = make_pcb(LayoutConfig(), "half", 0)
        assert all(r.attached == (r.row == 0) for r in half.regions())


class TestGlueHeight:
    def test_zero_volume_flat(self, pcb):
        region = pcb.region(0, 0, "A", 0)
        flat = RegionSpec(glue_type="A", footprint=region.footprint, dispensed_volume=0.0)
        assert surface_height(flat, 0.0, 0.0) == 0.0

    def test_symmetric_cap_peaks_at_center(self, pcb, bump_free):
        symmetric = pcb.region(0, 4, "A", 0)
        assert riemann_volume(symmetric) == pytest.approx(symmetric.dispensed_volume, rel=1e-3)
        center = surface_height(symmetric, 0.0, 0.0)
        rng = np.random.default_rng(0)
        xs = rng.uniform(symmetric.footprint.xmin, symmetric.footprint.xmax, 500)
        ys = rng.uniform(symmetric.footprint.ymin, symmetric.footprint.ymax, 500)
        assert (surface_height(symmetric, xs, ys) <= center + 1e-15).all()

    def test_riemann_sum_matches_dispensed_volume(self, pcb):
        region = pcb.region(0, 4, "A", 0)
        assert riemann_volume(region) == pytest.approx(region.dispensed_volume, rel=1e-3)


@pytest.fixture(scope="module")
def attached_pcb():
    return make_pcb(LayoutConfig(), "attached", 0)


def one_region_layout(volume_mm3: float) -> LayoutConfig:
    """A single attached type-A deposit: 0.7 x 1.8 mm footprint, 0.6 x 1.6 x
    0.25 mm die, column scale 1."""
    return LayoutConfig(
        rows=1,
        columns=1,
        glue_types=("A",),
        deposits_per_type=1,
        base_volume_mm3={"A": volume_mm3},
        column_scales=(1.0,),
        footprint_mm={"A": (0.7, 1.8)},
        die_mm={"A": (0.6, 1.6, 0.25)},
    )


class TestAttachDie:
    def test_bondline_arithmetic(self, monkeypatch):
        monkeypatch.setattr(scansim, "SQUEEZE_RATIO", 1.0)
        region = make_pcb(one_region_layout(0.01), "attached", 0).region(0, 0, "A", 0)
        bondline = surface_height(region, 0.0, 0.0) - region.die.thickness_mm
        assert bondline * 1e3 == pytest.approx(10.4167, abs=1e-3)

    def test_zero_volume_die_on_substrate(self):
        region = make_pcb(one_region_layout(0.0), "attached", 0).region(0, 0, "A", 0)
        assert region.attached and region.dispensed_volume == 0.0
        assert surface_height(region, 0.0, 0.0) == pytest.approx(region.die.thickness_mm)
        # no fillet anywhere outside the die
        x_out = (region.die.width_mm / 2 + region.footprint.xmax) / 2
        assert surface_height(region, x_out, 0.0) == 0.0

    def test_volume_conserved_within_one_percent(self, attached_pcb):
        region = attached_pcb.region(0, 4, "A", 0)
        modeled = riemann_volume(region)
        # subtract the die body: its top sits bondline + thickness high
        die = region.die
        die_body = die.area_mm2 * die.thickness_mm
        glue = modeled - die_body
        assert glue == pytest.approx(region.dispensed_volume, rel=0.01)
        assert analytic_volume(region) == region.dispensed_volume

    def test_fillet_holds_unsqueezed_fraction(self, attached_pcb):
        region = attached_pcb.region(0, 4, "A", 0)
        die = region.die
        box = region.footprint
        n = 2000
        x = box.xmin + (np.arange(n) + 0.5) / n * box.x_range
        y = box.ymin + (np.arange(n) + 0.5) / n * box.y_range
        xx, yy = np.meshgrid(x, y, indexing="ij")
        h = surface_height(region, xx, yy)
        on_die = (np.abs(xx) <= die.width_mm / 2) & (np.abs(yy) <= die.length_mm / 2)
        fillet = np.where(on_die, 0.0, h).sum() * box.x_range * box.y_range / n**2
        expected = (1 - scansim.SQUEEZE_RATIO) * region.dispensed_volume
        assert fillet == pytest.approx(expected, rel=0.01)

    def test_bondline_monotone_in_volume(self, attached_pcb):
        tops = []
        for col in range(9):
            region = attached_pcb.region(0, col, "A", 0)
            tops.append(float(surface_height(region, 0.0, 0.0)))
        assert all(b > a for a, b in zip(tops, tops[1:]))


class TestPulseSchedule:
    def test_paper_36_pulses(self):
        assert len(pulse_schedule(1.8, 50)) == 36

    def test_50_pulses(self):
        assert len(pulse_schedule(1.0, 20)) == 50

    def test_subthreshold_range_empty(self):
        assert len(pulse_schedule(0.03, 50)) == 0

    def test_non_positive_raises(self):
        with pytest.raises(NonPositiveRange):
            pulse_schedule(0.0, 50)
        with pytest.raises(NonPositiveRange):
            pulse_schedule(1.0, -1)

    def test_positions_are_multiples_of_step(self):
        positions = pulse_schedule(1.8, 50)
        assert np.allclose(positions, 0.05 * np.arange(1, 37))


class TestRasterScan:
    CFG = ScanConfig(step_um=50.0, margin_mm=0.0)

    def test_540_points_for_type_a(self, pcb):
        cloud = raster_scan(pcb, pcb.region(0, 0, "A", 0), self.CFG)
        assert len(cloud) == 540  # 15 lines x 36 pulses

    def test_point_count_is_lines_times_pulses(self, pcb, noiseless):
        for glue_type in "ABCDE":
            region = pcb.region(1, 3, glue_type, 2)
            for step in (20.0, 50.0):
                cfg = ScanConfig(step_um=step, margin_mm=0.2)
                window = region.footprint.expanded(0.2)
                lines = int(np.floor(round(window.x_range / (step * 1e-3), 9))) + 1
                pulses = len(pulse_schedule(window.y_range, step))
                assert len(raster_scan(pcb, region, cfg)) == lines * pulses

    def test_flat_region_constant_z_without_noise(self, pcb, noiseless):
        region = pcb.region(0, 0, "A", 0)
        flat = RegionSpec(glue_type="A", footprint=region.footprint, dispensed_volume=0.0)
        cloud = raster_scan(pcb, flat, self.CFG)
        assert np.all(cloud.xyz[:, 2] == 0.0)

    def test_zigzag_alternates_y_direction(self, pcb, noiseless):
        cloud = raster_scan(pcb, pcb.region(0, 0, "A", 0), self.CFG)
        y = cloud.xyz[:, 1].reshape(15, 36)
        assert np.array_equal(y[0], y[1][::-1])
        assert (np.diff(y[0]) > 0).all()
        assert (np.diff(y[1]) < 0).all()

    def test_deterministic_per_seed(self, pcb):
        cfg = ScanConfig(step_um=50.0, seed=5)
        region = pcb.region(0, 2, "B", 1)
        a = raster_scan(pcb, region, cfg, scan_pass=3)
        b = raster_scan(pcb, region, cfg, scan_pass=3)
        assert np.array_equal(a.xyz, b.xyz)
        c = raster_scan(pcb, region, cfg, scan_pass=4)
        assert not np.array_equal(a.xyz, c.xyz)


class TestScanTime:
    def test_single_line_simple_case(self, monkeypatch):
        region = RegionSpec(glue_type="A", footprint=BoundingBox2(0, 0, 0, 100.0),
                            dispensed_volume=0.0)
        monkeypatch.setattr(scansim, "STAGE_SPEED_MM_S", 100.0)
        for overhead in ("X_TURNAROUND_S", "REPOSITION_S", "PCO_DELAY_S"):
            monkeypatch.setattr(scansim, overhead, 0.0)
        cfg = ScanConfig(step_um=50.0, margin_mm=0.0)
        assert scan_time_estimate([region], cfg) == pytest.approx(1.0)

    def test_zero_regions_zero_time(self):
        assert scan_time_estimate([], ScanConfig()) == 0.0

    def test_step_ratio_brackets_reference(self, pcb):
        regions = list(pcb.regions())
        t20 = scan_time_estimate(regions, ScanConfig(step_um=20.0))
        t50 = scan_time_estimate(regions, ScanConfig(step_um=50.0))
        assert 1.9 <= t20 / t50 <= 2.3  # reference total ratio 2620/1181 ~ 2.22

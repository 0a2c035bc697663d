"""Digital twin of the inspected PCB and its laser scanner.

Models a panel of circuits carrying parametric glue deposits (five types,
per-column volume gradient), die attachment (bondline plus perimeter
fillet, volume conserved), and the scanning process itself: zig-zag raster
over a rectangular window, distance-triggered pulse positions, stage noise
and a timing estimate.

Deposit surfaces are smooth closed-form height fields scaled so their 2D
integral equals the dispensed volume, which makes the simulator its own
ground-truth oracle for the annotation pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Mapping

import numpy as np

from .geom3d import BoundingBox2, PointCloud
from .util import DOMAIN_SCAN, JSON_OPTIONAL, derived_rng, floor_ratio, stable_u32

GLUE_TYPES = ("A", "B", "C", "D", "E")

ATTACH_PATTERNS = ("unattached", "attached", "half")

# Quadrature resolution for the cached unit-profile integrals. 1024^2
# midpoint samples keep the normalization error ~1e-6 relative, far inside
# the 0.1% oracle tolerance.
_QUAD_N = 1024


class BadLayoutConfig(ValueError):
    """Inconsistent PCB layout parameters."""


class NonPositiveRange(ValueError):
    """Pulse schedule over a non-positive travel range or step."""


@dataclass(frozen=True)
class ShapeParams:
    """Deposit surface shape in normalized footprint coordinates.

    The footprint mask is a superellipse |u|^e + |v|^e <= 1 over
    (u, v) in [-1, 1]^2; the profile is a raised-cosine cap raised to
    ``cap_height_scale`` (higher = taller/pointier at equal volume) plus a
    Gaussian bump near the dispense end, masked by the cap so the surface
    stays smooth and vanishes at the footprint boundary.
    """

    superellipse_exponent: float = 2.5
    cap_height_scale: float = 1.0
    bump_amplitude: float = 0.35
    bump_position: tuple[float, float] = (0.0, 0.72)
    bump_sigma: float = 0.16


@dataclass(frozen=True)
class DieSpec:
    """Die geometry and the squeeze split of glue under/around it."""

    width_mm: float
    length_mm: float
    thickness_mm: float
    squeeze_ratio: float = 0.85
    fillet_width_mm: float = 0.12

    @property
    def area_mm2(self) -> float:
        return self.width_mm * self.length_mm


@dataclass(frozen=True)
class RegionSpec:
    """One glue deposit placeholder on a circuit."""

    glue_type: str
    footprint: BoundingBox2
    shape: ShapeParams
    dispensed_volume: float
    attached: bool = False
    die: DieSpec | None = None
    row: int = 0
    col: int = 0
    deposit: int = 0

    @property
    def region_id(self) -> str:
        return f"c{self.row}{self.col}_t{self.glue_type}_d{self.deposit}"


@dataclass(frozen=True)
class ScanConfig:
    """Scanner geometry, noise and timing knobs."""

    step_um: float = 20.0
    stage_speed_mm_s: float = 10.0
    noise_sigma_z_mm: float = 0.0005
    x_turnaround_s: float = 0.05
    margin_mm: float = 0.2
    xy_jitter_mm: float = 5e-6
    pco_delay_s: float = 5e-8
    reposition_s: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.step_um <= 0:
            raise BadLayoutConfig("scan step must be positive")
        if not (0 < self.stage_speed_mm_s <= 100.0):
            raise BadLayoutConfig("stage speed limit is 100 mm/s")

    @property
    def step_mm(self) -> float:
        return self.step_um * 1e-3


@dataclass(frozen=True)
class LayoutConfig:
    """Parametric panel layout: circuits grid, deposits, volume gradient.

    The JSON codec (``util.encode`` / ``util.decode``) stores
    ``column_scales`` and ``column_scale_range`` as configured; ``scales()``
    is derived from them after loading. That pair is the codec's one legacy
    case: older documents hold materialized ``column_scales`` and no
    ``column_scale_range``, so the range alone may be absent.
    """

    rows: int = 2
    columns: int = 9
    glue_types: tuple[str, ...] = GLUE_TYPES
    deposits_per_type: int = 4
    base_volume_mm3: Mapping[str, float] = field(
        default_factory=lambda: {"A": 0.10, "B": 0.030, "C": 0.080, "D": 0.020, "E": 0.10}
    )
    column_scales: tuple[float, ...] | None = None
    column_scale_range: tuple[float, float] = field(
        default=(0.5, 1.5), metadata={JSON_OPTIONAL: True}
    )
    footprint_mm: Mapping[str, tuple[float, float]] = field(
        default_factory=lambda: {
            "A": (0.7, 1.8),
            "B": (0.5, 1.2),
            "C": (0.7, 1.6),
            "D": (0.5, 1.0),
            "E": (0.8, 1.8),
        }
    )
    die_mm: Mapping[str, tuple[float, float, float]] = field(
        default_factory=lambda: {
            "A": (0.6, 1.6, 0.25),
            "B": (0.4, 1.0, 0.25),
            "C": (0.6, 1.4, 0.25),
            "D": (0.4, 0.8, 0.25),
            "E": (0.7, 1.6, 0.25),
        }
    )
    squeeze_ratio: float = 0.85
    fillet_width_mm: float = 0.12
    shape: ShapeParams = field(default_factory=ShapeParams)
    attach_pattern: str = "unattached"

    def scales(self) -> tuple[float, ...]:
        if self.column_scales is not None:
            return tuple(self.column_scales)
        lo, hi = self.column_scale_range
        return tuple(np.linspace(lo, hi, self.columns))


@dataclass(frozen=True)
class PcbModel:
    """A fully specified panel: rows x columns circuits of RegionSpec."""

    layout: LayoutConfig
    circuits: tuple  # [row][col] -> {glue_type: (RegionSpec, ...)}
    column_volume_scale: tuple[float, ...]
    seed: int
    index: int = 0

    def regions(self) -> Iterator[RegionSpec]:
        for row in self.circuits:
            for circuit in row:
                for regions in circuit.values():
                    yield from regions

    def region(self, row: int, col: int, glue_type: str, deposit: int) -> RegionSpec:
        return self.circuits[row][col][glue_type][deposit]


def _validate_layout(layout: LayoutConfig) -> None:
    if layout.rows < 1 or layout.columns < 1 or layout.deposits_per_type < 1:
        raise BadLayoutConfig("rows, columns and deposits must be >= 1")
    if layout.attach_pattern not in ATTACH_PATTERNS:
        raise BadLayoutConfig(f"attach_pattern must be one of {ATTACH_PATTERNS}")
    if layout.attach_pattern == "half" and layout.rows < 2:
        raise BadLayoutConfig("half-attached pattern needs >= 2 circuit rows")
    scales = layout.scales()
    if len(scales) != layout.columns:
        raise BadLayoutConfig("column scale list length must equal columns")
    if not all(b > a for a, b in zip(scales, scales[1:])):
        raise BadLayoutConfig("column scales must be strictly increasing")
    for glue_type in layout.glue_types:
        for table, what in (
            (layout.base_volume_mm3, "base volume"),
            (layout.footprint_mm, "footprint"),
            (layout.die_mm, "die dims"),
        ):
            if glue_type not in table:
                raise BadLayoutConfig(f"missing {what} for glue type {glue_type}")
        if layout.base_volume_mm3[glue_type] < 0:
            raise BadLayoutConfig("dispensed volumes must be non-negative")
        fw, fl = layout.footprint_mm[glue_type]
        dw, dl, _ = layout.die_mm[glue_type]
        if dw > fw or dl > fl:
            raise BadLayoutConfig(f"die exceeds footprint for glue type {glue_type}")


def make_pcb(layout: LayoutConfig, seed: int = 0, index: int = 0) -> PcbModel:
    """Build a deterministic panel from the layout config.

    Deposits of the same column and glue type share their dispensed volume;
    the per-column scale gradient runs from insufficient to excessive glue.
    """
    _validate_layout(layout)
    scales = layout.scales()
    rows = []
    for row in range(layout.rows):
        if layout.attach_pattern == "attached":
            attached = True
        elif layout.attach_pattern == "unattached":
            attached = False
        else:
            attached = row == 0
        cols = []
        for col in range(layout.columns):
            circuit = {}
            for glue_type in layout.glue_types:
                width, length = layout.footprint_mm[glue_type]
                die_w, die_l, die_t = layout.die_mm[glue_type]
                die = DieSpec(
                    die_w,
                    die_l,
                    die_t,
                    squeeze_ratio=layout.squeeze_ratio,
                    fillet_width_mm=layout.fillet_width_mm,
                )
                volume = layout.base_volume_mm3[glue_type] * scales[col]
                circuit[glue_type] = tuple(
                    RegionSpec(
                        glue_type=glue_type,
                        footprint=BoundingBox2.centered(width, length),
                        shape=layout.shape,
                        dispensed_volume=volume,
                        attached=attached,
                        die=die,
                        row=row,
                        col=col,
                        deposit=deposit,
                    )
                    for deposit in range(layout.deposits_per_type)
                )
            cols.append(circuit)
        rows.append(tuple(cols))
    return PcbModel(
        layout=layout,
        circuits=tuple(rows),
        column_volume_scale=scales,
        seed=seed,
        index=index,
    )


@lru_cache(maxsize=64)
def _unit_profile_integral(shape: ShapeParams) -> float:
    """Integral of the unit deposit profile over (u, v) in [-1, 1]^2."""
    u = (np.arange(_QUAD_N) + 0.5) / _QUAD_N * 2.0 - 1.0
    uu, vv = np.meshgrid(u, u, indexing="ij")
    values = _unit_profile(shape, uu, vv)
    cell = (2.0 / _QUAD_N) ** 2
    return float(values.sum() * cell)


def _unit_profile(shape: ShapeParams, u, v):
    e = shape.superellipse_exponent
    rho = (np.abs(u) ** e + np.abs(v) ** e) ** (1.0 / e)
    cap = 0.5 * (1.0 + np.cos(np.pi * np.minimum(rho, 1.0)))
    profile = cap ** shape.cap_height_scale
    if shape.bump_amplitude:
        u0, v0 = shape.bump_position
        gauss = np.exp(-((u - u0) ** 2 + (v - v0) ** 2) / (2.0 * shape.bump_sigma**2))
        profile = profile + shape.bump_amplitude * gauss * cap
    return profile


def _deposit_height(region: RegionSpec, x, y):
    """Unattached deposit height field, zero outside the superellipse."""
    if region.dispensed_volume == 0.0:
        return np.zeros(np.broadcast(x, y).shape)
    box = region.footprint
    cx, cy = (box.xmin + box.xmax) / 2.0, (box.ymin + box.ymax) / 2.0
    u = (np.asarray(x, dtype=np.float64) - cx) / (box.x_range / 2.0)
    v = (np.asarray(y, dtype=np.float64) - cy) / (box.y_range / 2.0)
    unit = _unit_profile(region.shape, u, v)
    area_integral = _unit_profile_integral(region.shape) * (box.x_range / 2.0) * (
        box.y_range / 2.0
    )
    return region.dispensed_volume / area_integral * unit


def _die_box(region: RegionSpec) -> BoundingBox2:
    die = region.die
    box = region.footprint
    cx, cy = (box.xmin + box.xmax) / 2.0, (box.ymin + box.ymax) / 2.0
    return BoundingBox2(
        cx - die.width_mm / 2.0,
        cx + die.width_mm / 2.0,
        cy - die.length_mm / 2.0,
        cy + die.length_mm / 2.0,
    )


@lru_cache(maxsize=64)
def _fillet_unit_integral(
    footprint: tuple[float, float, float, float],
    die_box: tuple[float, float, float, float],
    fillet_width: float,
) -> float:
    """Integral of the unit fillet falloff over footprint minus die box."""
    fx0, fx1, fy0, fy1 = footprint
    x = fx0 + (np.arange(_QUAD_N) + 0.5) / _QUAD_N * (fx1 - fx0)
    y = fy0 + (np.arange(_QUAD_N) + 0.5) / _QUAD_N * (fy1 - fy0)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    values = _fillet_falloff(xx, yy, die_box, fillet_width)
    inside_die = (
        (xx >= die_box[0]) & (xx <= die_box[1]) & (yy >= die_box[2]) & (yy <= die_box[3])
    )
    values = np.where(inside_die, 0.0, values)
    cell = (fx1 - fx0) * (fy1 - fy0) / _QUAD_N**2
    return float(values.sum() * cell)


def _fillet_falloff(x, y, die_box, fillet_width):
    dx0, dx1, dy0, dy1 = die_box
    tx = np.maximum(np.maximum(dx0 - x, x - dx1), 0.0)
    ty = np.maximum(np.maximum(dy0 - y, y - dy1), 0.0)
    t = np.hypot(tx, ty)
    return np.where(t < fillet_width, (1.0 - t / fillet_width) ** 2, 0.0)


def _attached_height(region: RegionSpec, x, y):
    """Post-attachment surface: die top over the die, fillet bead around it."""
    die = region.die
    volume = region.dispensed_volume
    bondline = die.squeeze_ratio * volume / die.area_mm2
    die_box = _die_box(region)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    on_die = (
        (x >= die_box.xmin) & (x <= die_box.xmax) & (y >= die_box.ymin) & (y <= die_box.ymax)
    )
    fillet_volume = (1.0 - die.squeeze_ratio) * volume
    height = np.zeros(np.broadcast(x, y).shape)
    if fillet_volume > 0:
        key_foot = (
            region.footprint.xmin,
            region.footprint.xmax,
            region.footprint.ymin,
            region.footprint.ymax,
        )
        key_die = (die_box.xmin, die_box.xmax, die_box.ymin, die_box.ymax)
        unit = _fillet_unit_integral(key_foot, key_die, die.fillet_width_mm)
        scale = fillet_volume / unit
        height = scale * _fillet_falloff(x, y, key_die, die.fillet_width_mm)
    return np.where(on_die, bondline + die.thickness_mm, height)


def surface_height(region: RegionSpec, x, y):
    """Scan-level surface model: deposit or attached assembly, substrate
    (zero) outside the footprint. Accepts scalars or arrays."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    inside = region.footprint.contains(x, y)
    if region.attached:
        height = _attached_height(region, x, y)
    else:
        height = _deposit_height(region, x, y)
    return np.where(inside, height, 0.0)


def analytic_volume(region: RegionSpec) -> float:
    """Exact modeled glue volume; die attachment conserves it."""
    return region.dispensed_volume


def pulse_schedule(range_mm: float, step_um: float) -> np.ndarray:
    """Distance-spaced trigger positions k*step for k = 1..floor(range/step).

    An empty schedule (range < step) is returned, not raised.
    """
    if range_mm <= 0:
        raise NonPositiveRange(f"travel range must be positive, got {range_mm}")
    if step_um <= 0:
        raise NonPositiveRange(f"step must be positive, got {step_um}")
    step_mm = step_um * 1e-3
    count = floor_ratio(range_mm, step_mm)
    return step_mm * np.arange(1, count + 1)


def scan_window(region: RegionSpec, cfg: ScanConfig) -> BoundingBox2:
    """Scanned rectangle: footprint plus the substrate margin."""
    return region.footprint.expanded(cfg.margin_mm)


def scan_lattice(region: RegionSpec, cfg: ScanConfig):
    """(x line positions, y pulse positions) of the raster, in mm."""
    window = scan_window(region, cfg)
    step = cfg.step_mm
    n_lines = floor_ratio(window.x_range, step) + 1
    xs = window.xmin + step * np.arange(n_lines)
    ys = window.ymin + pulse_schedule(window.y_range, cfg.step_um)
    return xs, ys


def raster_scan(
    pcb: PcbModel, region: RegionSpec, cfg: ScanConfig, scan_pass: int = 0
) -> PointCloud:
    """Zig-zag raster scan of one region; deterministic per seed.

    X lines advance monotonically; the Y direction alternates per line and
    the point ordering preserves acquisition order. Gaussian z noise and the
    (tiny) stage xy jitter are applied per point.
    """
    xs, ys = scan_lattice(region, cfg)
    n_lines, n_pulses = len(xs), len(ys)
    x_grid = np.repeat(xs, n_pulses)
    y_grid = np.tile(ys, (n_lines, 1))
    y_grid[1::2] = ys[::-1]
    y_grid = y_grid.ravel()

    rng = derived_rng(
        cfg.seed,
        DOMAIN_SCAN,
        pcb.index,
        region.row,
        region.col,
        stable_u32(region.glue_type),
        region.deposit,
        scan_pass,
    )
    if cfg.xy_jitter_mm > 0:
        jitter = rng.normal(0.0, cfg.xy_jitter_mm, size=(x_grid.size, 2))
        x_grid = x_grid + jitter[:, 0]
        y_grid = y_grid + jitter[:, 1]
    z = surface_height(region, x_grid, y_grid)
    if cfg.noise_sigma_z_mm > 0:
        z = z + rng.normal(0.0, cfg.noise_sigma_z_mm, size=z.shape)

    box = region.footprint
    meta = {
        "region_id": region.region_id,
        "glue_type": region.glue_type,
        "attached": region.attached,
        "row": region.row,
        "col": region.col,
        "deposit": region.deposit,
        "pass": scan_pass,
        "pcb": pcb.index,
        "step_um": cfg.step_um,
        "footprint": [box.xmin, box.xmax, box.ymin, box.ymax],
    }
    return PointCloud(np.column_stack([x_grid, y_grid, z]), meta)


def scan_filename(pcb_index: int, region: RegionSpec, scan_pass: int) -> str:
    return (
        f"pcb{pcb_index}_c{region.row}{region.col}_t{region.glue_type}"
        f"_d{region.deposit}_pass{scan_pass}.xyz"
    )


def scan_time_estimate(regions, cfg: ScanConfig) -> float:
    """Modeled scan seconds: per region, lines x line time plus turnaround
    and repositioning overheads (plus the negligible trigger-out latency)."""
    total = 0.0
    for region in regions:
        window = scan_window(region, cfg)
        lines = floor_ratio(window.x_range, cfg.step_mm) + 1
        pulses = floor_ratio(window.y_range, cfg.step_mm)
        total += (
            lines * (window.y_range / cfg.stage_speed_mm_s)
            + (lines - 1) * cfg.x_turnaround_s
            + cfg.reposition_s
            + lines * pulses * cfg.pco_delay_s
        )
    return total

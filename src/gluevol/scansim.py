"""Digital twin of the inspected PCB and its laser scanner.

Models a panel of circuits carrying parametric glue deposits (five types,
per-column volume gradient), die attachment (bondline plus perimeter
fillet, volume conserved), and the scanning process itself: zig-zag raster
over a rectangular window, distance-triggered pulse positions, stage noise
and a timing estimate.

Deposit surfaces are smooth closed-form height fields scaled so their 2D
integral equals the dispensed volume, which makes the simulator its own
ground-truth oracle for the annotation pipeline.

The paper studies one scanner and one dispensing process, so their
settings are module constants, not config fields: the scanner's
``NOISE_SIGMA_Z_MM`` and ``XY_JITTER_MM``, its timing (``STAGE_SPEED_MM_S``,
``X_TURNAROUND_S``, ``PCO_DELAY_S``, ``REPOSITION_S``), the die
attachment's ``SQUEEZE_RATIO`` and ``FILLET_WIDTH_MM``, the panel's
``COLUMN_SCALE_RANGE`` and the deposit shape (``SUPERELLIPSE_EXPONENT``,
``CAP_HEIGHT_SCALE``, ``BUMP_AMPLITUDE``, ``BUMP_POSITION``,
``BUMP_SIGMA``). ``ScanConfig.RETIRED_KEYS`` and
``LayoutConfig.RETIRED_KEYS`` hold them where older run configs name them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import Iterator, Mapping

import numpy as np

from .geom3d import BoundingBox2, PointCloud
from .util import DOMAIN_SCAN, derived_rng, floor_ratio, stable_u32

GLUE_TYPES = ("A", "B", "C", "D", "E")

ATTACH_PATTERNS = ("unattached", "attached", "half")

# Quadrature resolution for the cached unit-profile integrals. 1024^2
# midpoint samples keep the normalization error ~1e-6 relative, far inside
# the 0.1% oracle tolerance.
_QUAD_N = 1024

# The scanner: Gaussian height noise and stage xy jitter per point (mm).
NOISE_SIGMA_Z_MM = 0.0005
XY_JITTER_MM = 5e-6
# Scan timing: stage speed along a line, the turn between lines, the
# trigger-out latency per pulse and the move to the next region.
STAGE_SPEED_MM_S = 10.0
X_TURNAROUND_S = 0.05
PCO_DELAY_S = 5e-8
REPOSITION_S = 1.0

# Die attachment: the share of the glue squeezed under the die as the
# bondline; the rest forms a fillet bead this wide around it.
SQUEEZE_RATIO = 0.85
FILLET_WIDTH_MM = 0.12
# Dispensed-volume scale of the first and last column of a panel.
COLUMN_SCALE_RANGE = (0.5, 1.5)

# Deposit surface in normalized footprint coordinates (u, v) in [-1, 1]^2:
# a superellipse |u|^e + |v|^e <= 1 footprint; a raised-cosine cap raised to
# CAP_HEIGHT_SCALE (higher = taller and pointier at equal volume) plus a
# Gaussian bump near the dispense end, masked by the cap so the surface
# stays smooth and vanishes at the footprint boundary.
SUPERELLIPSE_EXPONENT = 2.5
CAP_HEIGHT_SCALE = 1.0
BUMP_AMPLITUDE = 0.35
BUMP_POSITION = (0.0, 0.72)
BUMP_SIGMA = 0.16


class BadLayoutConfig(ValueError):
    """Inconsistent PCB layout parameters."""


class NonPositiveRange(ValueError):
    """Pulse schedule over a non-positive travel range or step."""


@dataclass(frozen=True)
class DieSpec:
    """Die geometry."""

    width_mm: float
    length_mm: float
    thickness_mm: float

    @property
    def area_mm2(self) -> float:
        return self.width_mm * self.length_mm


@dataclass(frozen=True)
class RegionSpec:
    """One glue deposit placeholder on a circuit."""

    glue_type: str
    footprint: BoundingBox2
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
    """Raster step, substrate margin around the footprint, and noise seed."""

    step_um: float = 20.0
    margin_mm: float = 0.2
    seed: int = 0
    RETIRED_KEYS = {  # not a field; see util.ANY_VALUE
        "stage_speed_mm_s": STAGE_SPEED_MM_S, "noise_sigma_z_mm": NOISE_SIGMA_Z_MM,
        "x_turnaround_s": X_TURNAROUND_S, "xy_jitter_mm": XY_JITTER_MM,
        "pco_delay_s": PCO_DELAY_S, "reposition_s": REPOSITION_S}

    def __post_init__(self):
        if self.step_um <= 0:
            raise BadLayoutConfig("scan step must be positive")

    @property
    def step_mm(self) -> float:
        return self.step_um * 1e-3


@dataclass(frozen=True)
class LayoutConfig:
    """Parametric panel layout: circuits grid, deposits, volume gradient.

    ``scales()`` gives each column's volume scale: ``column_scales`` where
    set, else ``COLUMN_SCALE_RANGE`` spread evenly over the columns.
    """

    rows: int = 2
    columns: int = 9
    glue_types: tuple[str, ...] = GLUE_TYPES
    deposits_per_type: int = 4
    base_volume_mm3: Mapping[str, float] = field(
        default_factory=lambda: {"A": 0.10, "B": 0.030, "C": 0.080, "D": 0.020, "E": 0.10}
    )
    column_scales: tuple[float, ...] | None = None
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
    RETIRED_KEYS = {  # not a field; see util.ANY_VALUE
        "column_scale_range": COLUMN_SCALE_RANGE, "squeeze_ratio": SQUEEZE_RATIO,
        "fillet_width_mm": FILLET_WIDTH_MM, "attach_pattern": "unattached",
        "shape": {"superellipse_exponent": SUPERELLIPSE_EXPONENT,
                  "cap_height_scale": CAP_HEIGHT_SCALE, "bump_amplitude": BUMP_AMPLITUDE,
                  "bump_position": BUMP_POSITION, "bump_sigma": BUMP_SIGMA}}

    def scales(self) -> tuple[float, ...]:
        if self.column_scales is not None:
            return tuple(self.column_scales)
        lo, hi = COLUMN_SCALE_RANGE
        return tuple(np.linspace(lo, hi, self.columns))


@dataclass(frozen=True)
class PcbModel:
    """A fully specified panel: rows x columns circuits of RegionSpec."""

    layout: LayoutConfig
    circuits: tuple  # [row][col] -> {glue_type: (RegionSpec, ...)}
    index: int = 0

    def regions(self) -> Iterator[RegionSpec]:
        for row in self.circuits:
            for circuit in row:
                for regions in circuit.values():
                    yield from regions

    def region(self, row: int, col: int, glue_type: str, deposit: int) -> RegionSpec:
        return self.circuits[row][col][glue_type][deposit]


def _validate_layout(layout: LayoutConfig, pattern: str) -> None:
    if layout.rows < 1 or layout.columns < 1 or layout.deposits_per_type < 1:
        raise BadLayoutConfig("rows, columns and deposits must be >= 1")
    if pattern not in ATTACH_PATTERNS:
        raise BadLayoutConfig(f"attach pattern must be one of {ATTACH_PATTERNS}")
    if pattern == "half" and layout.rows < 2:
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


def make_pcb(layout: LayoutConfig, pattern: str, index: int) -> PcbModel:
    """Build the panel the layout describes, numbered ``index`` in its run,
    with its dies attached by ``pattern``: on every circuit (``"attached"``),
    on none (``"unattached"``) or on the first row only (``"half"``).

    Nothing in a panel is random; scan noise is seeded per scan in
    ``raster_scan``. Deposits of the same column and glue type share their
    dispensed volume; the per-column scale gradient (``layout.scales()``)
    runs from insufficient to excessive glue.
    """
    _validate_layout(layout, pattern)
    scales = layout.scales()
    rows = []
    for row in range(layout.rows):
        attached = pattern == "attached" or (pattern == "half" and row == 0)
        cols = []
        for col in range(layout.columns):
            circuit = {}
            for glue_type in layout.glue_types:
                footprint = BoundingBox2.centered(*layout.footprint_mm[glue_type])
                die = DieSpec(*layout.die_mm[glue_type])
                volume = layout.base_volume_mm3[glue_type] * scales[col]
                circuit[glue_type] = tuple(
                    RegionSpec(glue_type, footprint, volume, attached, die, row, col, deposit)
                    for deposit in range(layout.deposits_per_type)
                )
            cols.append(circuit)
        rows.append(tuple(cols))
    return PcbModel(layout=layout, circuits=tuple(rows), index=index)


@cache
def _unit_profile_integral() -> float:
    """Integral of the unit deposit profile over (u, v) in [-1, 1]^2."""
    u = (np.arange(_QUAD_N) + 0.5) / _QUAD_N * 2.0 - 1.0
    uu, vv = np.meshgrid(u, u, indexing="ij")
    values = _unit_profile(uu, vv)
    cell = (2.0 / _QUAD_N) ** 2
    return float(values.sum() * cell)


def _unit_profile(u, v):
    e = SUPERELLIPSE_EXPONENT
    rho = (np.abs(u) ** e + np.abs(v) ** e) ** (1.0 / e)
    cap = 0.5 * (1.0 + np.cos(np.pi * np.minimum(rho, 1.0)))
    profile = cap ** CAP_HEIGHT_SCALE
    if BUMP_AMPLITUDE:
        u0, v0 = BUMP_POSITION
        gauss = np.exp(-((u - u0) ** 2 + (v - v0) ** 2) / (2.0 * BUMP_SIGMA**2))
        profile = profile + BUMP_AMPLITUDE * gauss * cap
    return profile


def _deposit_height(region: RegionSpec, x, y):
    """Unattached deposit height field, zero outside the superellipse."""
    if region.dispensed_volume == 0.0:
        return np.zeros(np.broadcast(x, y).shape)
    box = region.footprint
    cx, cy = (box.xmin + box.xmax) / 2.0, (box.ymin + box.ymax) / 2.0
    u = (np.asarray(x, dtype=np.float64) - cx) / (box.x_range / 2.0)
    v = (np.asarray(y, dtype=np.float64) - cy) / (box.y_range / 2.0)
    unit = _unit_profile(u, v)
    area_integral = _unit_profile_integral() * (box.x_range / 2.0) * (
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
) -> float:
    """Integral of the unit fillet falloff over footprint minus die box."""
    fx0, fx1, fy0, fy1 = footprint
    x = fx0 + (np.arange(_QUAD_N) + 0.5) / _QUAD_N * (fx1 - fx0)
    y = fy0 + (np.arange(_QUAD_N) + 0.5) / _QUAD_N * (fy1 - fy0)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    values = _fillet_falloff(xx, yy, die_box)
    inside_die = (
        (xx >= die_box[0]) & (xx <= die_box[1]) & (yy >= die_box[2]) & (yy <= die_box[3])
    )
    values = np.where(inside_die, 0.0, values)
    cell = (fx1 - fx0) * (fy1 - fy0) / _QUAD_N**2
    return float(values.sum() * cell)


def _fillet_falloff(x, y, die_box):
    dx0, dx1, dy0, dy1 = die_box
    tx = np.maximum(np.maximum(dx0 - x, x - dx1), 0.0)
    ty = np.maximum(np.maximum(dy0 - y, y - dy1), 0.0)
    t = np.hypot(tx, ty)
    return np.where(t < FILLET_WIDTH_MM, (1.0 - t / FILLET_WIDTH_MM) ** 2, 0.0)


def _attached_height(region: RegionSpec, x, y):
    """Post-attachment surface: die top over the die, fillet bead around it."""
    die = region.die
    volume = region.dispensed_volume
    bondline = SQUEEZE_RATIO * volume / die.area_mm2
    die_box = _die_box(region)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    on_die = (
        (x >= die_box.xmin) & (x <= die_box.xmax) & (y >= die_box.ymin) & (y <= die_box.ymax)
    )
    fillet_volume = (1.0 - SQUEEZE_RATIO) * volume
    height = np.zeros(np.broadcast(x, y).shape)
    if fillet_volume > 0:
        box = region.footprint
        key_foot = (box.xmin, box.xmax, box.ymin, box.ymax)
        key_die = (die_box.xmin, die_box.xmax, die_box.ymin, die_box.ymax)
        unit = _fillet_unit_integral(key_foot, key_die)
        scale = fillet_volume / unit
        height = scale * _fillet_falloff(x, y, key_die)
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
    if XY_JITTER_MM > 0:
        jitter = rng.normal(0.0, XY_JITTER_MM, size=(x_grid.size, 2))
        x_grid = x_grid + jitter[:, 0]
        y_grid = y_grid + jitter[:, 1]
    z = surface_height(region, x_grid, y_grid)
    if NOISE_SIGMA_Z_MM > 0:
        z = z + rng.normal(0.0, NOISE_SIGMA_Z_MM, size=z.shape)

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
        xs, ys = scan_lattice(region, cfg)
        lines, pulses = len(xs), len(ys)
        total += (
            lines * (scan_window(region, cfg).y_range / STAGE_SPEED_MM_S)
            + (lines - 1) * X_TURNAROUND_S
            + REPOSITION_S
            + lines * pulses * PCO_DELAY_S
        )
    return total

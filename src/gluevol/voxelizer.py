"""Binary occupancy grids from plane-frame point clouds.

XY voxel dimensions follow the cloud ranges; the Z dimension starts at
``Z_VOXEL_BASE_MM`` and grows in steps of ``Z_VOXEL_INCREMENT_MM`` until
the grid covers ``COVERAGE_TARGET`` of the points. The grid's z origin is
anchored at the substrate (z = 0), so occupancy height encodes deposit
height.

Grid file format ``GGVG1``: magic, u32 dims x3, f64 voxel sizes x3, f64
origin x3, then bit-packed occupancy with x-fastest index
(k*ny + j)*nx + i, LSB-first within each byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geom3d import PointCloud

GGVG_MAGIC = b"GGVG1"

# The z voxel edge: the least, the step it grows by, and the share of a
# cloud's points the grid must hold below its top.
Z_VOXEL_BASE_MM = 0.010
Z_VOXEL_INCREMENT_MM = 0.005
COVERAGE_TARGET = 0.98


class EmptyCloud(ValueError):
    """Voxelization of an empty cloud."""


class GridFormatError(ValueError):
    """Malformed GGVG1 file."""


@dataclass(frozen=True)
class GridConfig:
    nx: int = 32
    ny: int = 32
    nz: int = 64
    RETIRED_KEYS = {  # not a field; see util.ANY_VALUE
        "z_voxel_base": Z_VOXEL_BASE_MM, "z_voxel_increment": Z_VOXEL_INCREMENT_MM,
        "coverage_target": COVERAGE_TARGET}

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) <= 0:
            raise ValueError("voxel counts must be positive")


@dataclass
class VoxelGrid:
    dims: tuple[int, int, int]
    origin: np.ndarray  # (3,) mm, plane frame; origin[2] == 0
    voxel_size: np.ndarray  # (3,) mm
    occupancy: np.ndarray  # (nx, ny, nz) bool


@dataclass
class VoxelStack:
    """Binary grids of one ``dims``, held as their occupied voxels: grid g's
    ascending flat indices into its (nx, ny, nz) occupancy are
    ``voxels[starts[g]:starts[g + 1]]``, 8 bytes a voxel. Indexing the stack
    with an index array or a slice gives those grids' dense
    (n, 1, nx, ny, nz) bool stack, the form the network reads."""

    dims: tuple[int, int, int]
    voxels: np.ndarray  # int64
    starts: np.ndarray  # (len + 1,) int64

    @classmethod
    def of(cls, dims: tuple[int, int, int], occupancies) -> "VoxelStack":
        """The stack of ``occupancies``, (nx, ny, nz) bool grids of ``dims``,
        each read once and dropped: an iterator of them is never all held."""
        lists = [np.flatnonzero(occ) for occ in occupancies]
        starts = np.cumsum([0] + [len(v) for v in lists], dtype=np.int64)
        voxels = np.concatenate([np.zeros(0, np.int64)] + lists).astype(np.int64, copy=False)
        return cls(tuple(dims), voxels, starts)

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __getitem__(self, key) -> np.ndarray:
        rows = np.arange(len(self))[key]
        lo = self.starts[rows]
        counts = self.starts[rows + 1] - lo
        # each row's voxels, gathered from their run of ``voxels``
        at = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        size = int(np.prod(self.dims))
        out = np.zeros((len(rows), 1) + self.dims, dtype=bool)
        out.reshape(-1)[np.repeat(np.arange(len(rows)) * size, counts) + self.voxels[at]] = True
        return out


@dataclass(frozen=True)
class GridStats:
    occupied: int
    fill_fraction: float
    dz_mm: float


def _choose_dz(z: np.ndarray, cfg: GridConfig) -> float:
    """Smallest base + k*increment whose grid top covers the target fraction."""
    n = len(z)
    dz = Z_VOXEL_BASE_MM
    while np.count_nonzero(z < cfg.nz * dz) / n < COVERAGE_TARGET:
        dz += Z_VOXEL_INCREMENT_MM
    return dz


def build_grid(cloud: PointCloud, cfg: GridConfig = GridConfig()) -> VoxelGrid:
    """Occupancy grid: voxel (i, j, k) is set iff at least one point falls in
    its half-open box (top/right boundaries closed in XY so extreme points
    are kept; points below the substrate plane are clamped into layer 0).

    Points above the grid top are dropped; the adaptive dz rule bounds that
    loss at 1 - COVERAGE_TARGET.
    """
    if cloud.is_empty:
        raise EmptyCloud("cannot voxelize an empty cloud")
    xyz = cloud.xyz
    lo, hi = cloud.bounds()
    ranges = np.maximum(hi - lo, 1e-12)
    dx = ranges[0] / cfg.nx
    dy = ranges[1] / cfg.ny
    dz = _choose_dz(xyz[:, 2], cfg)

    ix = np.minimum((xyz[:, 0] - lo[0]) // dx, cfg.nx - 1).astype(np.int64)
    iy = np.minimum((xyz[:, 1] - lo[1]) // dy, cfg.ny - 1).astype(np.int64)
    iz = np.maximum(np.floor(xyz[:, 2] / dz), 0.0).astype(np.int64)
    keep = iz < cfg.nz
    occupancy = np.zeros((cfg.nx, cfg.ny, cfg.nz), dtype=bool)
    occupancy[ix[keep], iy[keep], iz[keep]] = True
    return VoxelGrid(
        dims=(cfg.nx, cfg.ny, cfg.nz),
        origin=np.array([lo[0], lo[1], 0.0]),
        voxel_size=np.array([dx, dy, dz]),
        occupancy=occupancy,
    )


def grid_stats(grid: VoxelGrid) -> GridStats:
    occupied = int(grid.occupancy.sum())
    return GridStats(
        occupied=occupied,
        fill_fraction=occupied / grid.occupancy.size,
        dz_mm=float(grid.voxel_size[2]),
    )


def write_ggvg(grid: VoxelGrid, path) -> None:
    bits = grid.occupancy.transpose(2, 1, 0).ravel()
    packed = np.packbits(bits, bitorder="little")
    with open(path, "wb") as fh:
        fh.write(GGVG_MAGIC)
        fh.write(struct.pack("<III", *grid.dims))
        fh.write(struct.pack("<3d", *grid.voxel_size))
        fh.write(struct.pack("<3d", *grid.origin))
        fh.write(packed.tobytes())


def read_ggvg(path) -> VoxelGrid:
    data = Path(path).read_bytes()
    if data[:5] != GGVG_MAGIC:
        raise GridFormatError(f"{path}: bad magic {data[:5]!r}")
    if len(data) < 65:
        raise GridFormatError(f"{path}: {len(data)} bytes, shorter than the 65-byte header")
    nx, ny, nz = struct.unpack_from("<III", data, 5)
    voxel_size = np.array(struct.unpack_from("<3d", data, 17))
    origin = np.array(struct.unpack_from("<3d", data, 41))
    n_bits = nx * ny * nz
    expected = 65 + (n_bits + 7) // 8
    if len(data) != expected:
        raise GridFormatError(f"{path}: expected {expected} bytes, got {len(data)}")
    packed = np.frombuffer(data, dtype=np.uint8, offset=65)
    bits = np.unpackbits(packed, count=n_bits, bitorder="little").view(bool)  # 0 and 1
    occupancy = bits.reshape(nz, ny, nx).transpose(2, 1, 0)
    return VoxelGrid(
        dims=(nx, ny, nz), origin=origin, voxel_size=voxel_size, occupancy=occupancy
    )

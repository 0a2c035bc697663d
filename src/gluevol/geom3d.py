"""Point-cloud geometry: plane fitting, frame transforms, cropping, lattice
triangulation and volume of a meshed deposit over the plane-frame substrate.

All coordinates are millimeters. Operations are pure functions; none mutate
their inputs, so they are safe to call concurrently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Base class for geometry failures."""


class FewerThanThreePoints(GeometryError):
    """Plane fitting needs at least three points."""


class DegenerateCloud(GeometryError):
    """All points are (numerically) collinear; no plane is defined."""


class EmptyResult(GeometryError):
    """An operation that requires points received or produced none."""


class InconsistentLattice(GeometryError):
    """Two points snapped to the same lattice node with incompatible heights."""


class EmptyGlueWarning(UserWarning):
    """Annotated volume fell below the empty-deposit floor."""


# Duplicate lattice nodes: average silently up to this z spread, warn above it,
# and treat anything past 5x the spread as inconsistent input.
LATTICE_MERGE_WARN_MM = 0.002
LATTICE_MERGE_FAIL_MM = 0.010


@dataclass(frozen=True)
class BoundingBox2:
    """Closed axis-aligned box in the XY plane."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmin <= self.xmax and self.ymin <= self.ymax):
            raise GeometryError(f"inverted bounding box: {self}")

    @property
    def x_range(self) -> float:
        return self.xmax - self.xmin

    @property
    def y_range(self) -> float:
        return self.ymax - self.ymin

    def contains(self, x, y):
        """Vectorized closed-box membership test."""
        return (
            (x >= self.xmin) & (x <= self.xmax) & (y >= self.ymin) & (y <= self.ymax)
        )

    def expanded(self, margin: float) -> "BoundingBox2":
        return BoundingBox2(
            self.xmin - margin, self.xmax + margin, self.ymin - margin, self.ymax + margin
        )

    @classmethod
    def centered(cls, width: float, length: float) -> "BoundingBox2":
        return cls(-width / 2.0, width / 2.0, -length / 2.0, length / 2.0)


class PointCloud:
    """Ordered set of 3D points (mm) plus loose provenance metadata.

    ``xyz`` is an (N, 3) float64 array in acquisition order. ``meta`` is a
    plain dict (region id, glue type, sampling step, scan pass, ...) carried
    through the processing operations.
    """

    __slots__ = ("xyz", "meta")

    def __init__(self, xyz, meta: dict | None = None):
        arr = np.asarray(xyz, dtype=np.float64)
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise GeometryError(f"point array must be (N, 3), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise GeometryError("point cloud contains non-finite coordinates")
        self.xyz = arr
        self.meta = dict(meta) if meta else {}

    def __len__(self) -> int:
        return self.xyz.shape[0]

    @property
    def is_empty(self) -> bool:
        return self.xyz.shape[0] == 0

    def bounds(self):
        """(min, max) corner arrays; raises on an empty cloud.

        Reduced over a contiguous copy of the three columns: an axis-0
        reduction of the (N, 3) array costs about ten times as much, and
        min and max are exact either way."""
        if self.is_empty:
            raise EmptyResult("bounds of empty cloud")
        columns = np.ascontiguousarray(self.xyz.T)
        return columns.min(axis=1), columns.max(axis=1)


class Plane:
    """Plane { p : n . p = d } with unit normal ``n`` and offset ``d`` (mm)."""

    __slots__ = ("normal", "offset")

    def __init__(self, normal, offset: float):
        n = np.asarray(normal, dtype=np.float64)
        norm = np.linalg.norm(n)
        if not np.isfinite(norm) or norm < 1e-12:
            raise GeometryError("plane normal must be nonzero")
        self.normal = n / norm
        self.offset = float(offset) / norm

    def signed_distance(self, xyz):
        return np.asarray(xyz, dtype=np.float64) @ self.normal - self.offset

    def flipped(self) -> "Plane":
        return Plane(-self.normal, -self.offset)

    def __repr__(self):
        n = self.normal
        return f"Plane(n=({n[0]:.6f}, {n[1]:.6f}, {n[2]:.6f}), d={self.offset:.6f})"


class TriangleMesh:
    """Triangle surface: (V, 3) vertex array and (F, 3) index triples."""

    __slots__ = ("vertices", "faces")

    def __init__(self, vertices, faces):
        v = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
        f = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise GeometryError("face index out of range")
        self.vertices = v
        self.faces = f

    def __len__(self) -> int:
        return self.faces.shape[0]


def _lsq_plane(points: np.ndarray) -> Plane:
    """Total-least-squares plane through >= 3 points."""
    centroid = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - centroid, full_matrices=False)
    normal = vt[-1]
    return Plane(normal, float(normal @ centroid))


RANSAC_ITERATIONS = 500  # 3-point plane hypotheses per fit
RANSAC_THRESHOLD_MM = 0.005  # largest distance of an inlier from the plane
# Hypotheses are scored in blocks whose point-distance matrix stays under
# this many bytes, so the fit's memory does not grow with the iterations.
# It is below glibc's default 128 KiB mmap threshold: freeing a larger
# block raises malloc's dynamic threshold, and with 1 MB blocks a 50 um
# prep and one training step then left the process 9 MB larger.
RANSAC_BLOCK_BYTES = 120_000


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for every row: stacked 1x3 @ 3x1 products run one BLAS
    dot each, so every value has the bits of the 1-D ``@`` (and of the
    squared ``np.linalg.norm``)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _ransac_hypotheses(pts: np.ndarray):
    """Every drawn 3-point hypothesis of ``fit_plane_ransac``, scored.

    Returns (valid, normals, offsets, counts): ``valid`` marks the drawn
    triples that are not collinear, and the rest hold the unit normal,
    offset and inlier count of each valid one, in draw order.
    """
    n_pts = len(pts)
    rng = np.random.default_rng(0)
    triples = np.array(
        [rng.choice(n_pts, size=3, replace=False) for _ in range(RANSAC_ITERATIONS)])
    first = pts[triples[:, 0]]
    normals = np.cross(pts[triples[:, 1]] - first, pts[triples[:, 2]] - first)
    norms = np.sqrt(_row_dots(normals, normals))
    valid = ~(norms < 1e-14)  # a collinear triple wastes its hypothesis
    normals = normals[valid] / norms[valid, None]
    offsets = _row_dots(normals, first[valid])
    counts = np.empty(len(normals), dtype=np.int64)
    block = max(1, RANSAC_BLOCK_BYTES // (8 * n_pts))
    for lo in range(0, len(normals), block):
        dist = np.matmul(pts, normals[lo:lo + block, :, None])[:, :, 0]
        dist -= offsets[lo:lo + block, None]
        counts[lo:lo + block] = np.count_nonzero(
            np.abs(dist, out=dist) <= RANSAC_THRESHOLD_MM, axis=1)
    return valid, normals, offsets, counts


def fit_plane_ransac(cloud: PointCloud):
    """RANSAC plane fit with least-squares refinement over the inliers.

    Draws ``RANSAC_ITERATIONS`` random 3-point hypotheses from a generator
    seeded 0, keeps the one with the most points within
    ``RANSAC_THRESHOLD_MM`` of it (the first such on a tie), refines by
    total least squares over those inliers, and orients the normal so the
    off-plane mass of the cloud sits on the positive side. The same cloud
    always gives the same fit.

    The draws stay sequential, one ``rng.choice`` per hypothesis, so the
    triples do not depend on how they are scored. Scoring is batched: every
    normal comes from one stacked cross product, and a block of hypotheses
    is counted per pass over the points. Each normal, offset and point
    distance has the bits of a one-hypothesis-at-a-time loop (a stacked
    matmul makes the same BLAS dot or GEMV call per hypothesis), so the
    inlier counts and the chosen plane are that loop's.

    Returns:
        (plane, inlier_indices) where the indices are evaluated against the
        refined plane, in ascending order.
    """
    pts = cloud.xyz
    n_pts = len(pts)
    if n_pts < 3:
        raise FewerThanThreePoints(f"need >= 3 points, got {n_pts}")
    singular = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    if singular[1] <= max(singular[0] * 1e-10, 1e-14):
        raise DegenerateCloud("all points are collinear")

    valid, normals, offsets, counts = _ransac_hypotheses(pts)
    if not valid.any():
        raise DegenerateCloud("no valid 3-point hypothesis found")
    best = int(np.argmax(counts))
    best_normal, best_offset = normals[best], float(offsets[best])

    inlier_mask = np.abs(pts @ best_normal - best_offset) <= RANSAC_THRESHOLD_MM
    plane = _lsq_plane(pts[inlier_mask])

    mean_sd = float(plane.signed_distance(pts).mean())
    if mean_sd < -1e-12:
        plane = plane.flipped()
    elif abs(mean_sd) <= 1e-12:
        # Cloud is (numerically) all on the plane: orient canonically.
        comp = int(np.argmax(np.abs(plane.normal)))
        if plane.normal[comp] < 0:
            plane = plane.flipped()

    inliers = np.flatnonzero(np.abs(plane.signed_distance(pts)) <= RANSAC_THRESHOLD_MM)
    return plane, inliers


def plane_basis(plane: Plane):
    """Deterministic in-plane axes: X from the projected world X axis.

    Falls back to the world Y axis when the plane normal is (nearly)
    parallel to world X. Returns (ex, ey, ez) forming a right-handed frame
    with ez = plane normal.
    """
    ez = plane.normal
    for seed_axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)):
        proj = np.asarray(seed_axis) - (np.asarray(seed_axis) @ ez) * ez
        norm = np.linalg.norm(proj)
        if norm > 1e-8:
            ex = proj / norm
            return ex, np.cross(ez, ex), ez
    raise GeometryError("degenerate plane basis")  # unreachable for unit ez


def to_plane_frame(cloud: PointCloud, plane: Plane) -> PointCloud:
    """Rigidly move the cloud into plane coordinates (plane becomes z = 0).

    The output z of every point equals its signed distance to the plane.
    """
    ex, ey, ez = plane_basis(plane)
    origin = plane.offset * plane.normal
    rot = np.stack([ex, ey, ez], axis=1)
    return PointCloud((cloud.xyz - origin) @ rot, cloud.meta)


def crop_xy(cloud: PointCloud, box: BoundingBox2, allow_empty: bool = True) -> PointCloud:
    """Keep exactly the points whose (x, y) lies inside the closed box.

    Point order is preserved. An all-excluded result is returned as an empty
    cloud by default; pass ``allow_empty=False`` to raise EmptyResult instead.
    """
    mask = box.contains(cloud.xyz[:, 0], cloud.xyz[:, 1])
    out = PointCloud(cloud.xyz[mask], cloud.meta)
    if out.is_empty and not allow_empty:
        raise EmptyResult("crop box excludes every point")
    return out


def triangulate_lattice(cloud: PointCloud, step: float) -> TriangleMesh:
    """Triangulate a raster scan (plane frame) over its implicit XY lattice.

    Points snap to the lattice anchored at the cloud's XY minimum (snap
    tolerance step/4; off-lattice points are ignored). Each node takes the
    mean z of its points, and every lattice cell with all four corners
    present emits two triangles.

    Raises:
        InconsistentLattice: same-node points with z spread beyond 0.010 mm.
    """
    if cloud.is_empty:
        raise EmptyResult("cannot triangulate an empty cloud")
    if step <= 0:
        raise GeometryError("lattice step must be positive")
    xy = cloud.xyz[:, :2]
    z = cloud.xyz[:, 2]
    origin = cloud.bounds()[0][:2]
    frac = (xy - origin) / step
    idx = np.rint(frac).astype(np.int64)
    snapped = np.abs(frac - idx).max(axis=1) <= 0.25 + 1e-9
    idx, z = idx[snapped], z[snapped]
    if idx.size == 0:
        raise EmptyResult("no points snapped to the lattice")

    nodes, inv = np.unique(idx, axis=0, return_inverse=True)
    m = len(nodes)
    zmin = np.full(m, np.inf)
    zmax = np.full(m, -np.inf)
    np.minimum.at(zmin, inv, z)
    np.maximum.at(zmax, inv, z)
    spread = zmax - zmin
    if np.any(spread > LATTICE_MERGE_FAIL_MM):
        worst = float(spread.max())
        raise InconsistentLattice(
            f"node z spread {worst:.4f} mm exceeds {LATTICE_MERGE_FAIL_MM} mm"
        )
    n_warn = int(np.count_nonzero(spread > LATTICE_MERGE_WARN_MM))
    if n_warn:
        warnings.warn(
            f"{n_warn} lattice nodes merged with z spread > {LATTICE_MERGE_WARN_MM} mm",
            stacklevel=2,
        )
    node_z = np.bincount(inv, weights=z, minlength=m) / np.bincount(inv, minlength=m)

    # Dense presence grid over the node index span.
    ni = int(nodes[:, 0].max()) + 1
    nj = int(nodes[:, 1].max()) + 1
    node_id = np.full((ni, nj), -1, dtype=np.int64)
    node_id[nodes[:, 0], nodes[:, 1]] = np.arange(m)
    present = node_id >= 0

    cells = (
        present[:-1, :-1] & present[1:, :-1] & present[:-1, 1:] & present[1:, 1:]
    )
    ci, cj = np.nonzero(cells)

    vertices = np.column_stack(
        [origin[0] + nodes[:, 0] * step, origin[1] + nodes[:, 1] * step, node_z]
    )
    a = node_id[ci, cj]
    b = node_id[ci + 1, cj]
    c = node_id[ci + 1, cj + 1]
    d = node_id[ci, cj + 1]
    faces = np.concatenate(
        [np.column_stack([a, b, c]), np.column_stack([a, c, d])], axis=0
    )
    return TriangleMesh(vertices, faces)


def mesh_volume_over_plane(mesh: TriangleMesh) -> float:
    """Volume between a plane-frame surface and the plane z = 0, above it only.

    Sums, over all faces, the area of the face projected onto z = 0 times
    the height of its centroid (centroid = vertex mean). Faces on the plane
    contribute zero, and so do faces whose centroid lies below it: in a
    plane-frame scan those are substrate points a hair under the fitted
    plane, not deposit.
    """
    if len(mesh) == 0:
        raise EmptyResult("mesh has no faces")
    xy = mesh.vertices[:, :2][mesh.faces]
    e1 = xy[:, 1] - xy[:, 0]
    e2 = xy[:, 2] - xy[:, 0]
    areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    u = np.maximum(mesh.vertices[:, 2][mesh.faces].mean(axis=1), 0.0)
    return float((areas * u).sum())

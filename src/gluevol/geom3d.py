"""Point-cloud geometry: plane fitting, frame transforms, cropping, surface
closing, lattice triangulation and volume of a meshed deposit over a plane.

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
        """(min, max) corner arrays; raises on an empty cloud."""
        if self.is_empty:
            raise EmptyResult("bounds of empty cloud")
        return self.xyz.min(axis=0), self.xyz.max(axis=0)


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

    def project(self, xyz):
        xyz = np.asarray(xyz, dtype=np.float64)
        return xyz - np.outer(self.signed_distance(xyz), self.normal)

    def flipped(self) -> "Plane":
        return Plane(-self.normal, -self.offset)

    @classmethod
    def xy(cls) -> "Plane":
        """The substrate plane z = 0."""
        return cls((0.0, 0.0, 1.0), 0.0)

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


def fit_plane_ransac(cloud: PointCloud):
    """RANSAC plane fit with least-squares refinement over the inliers.

    Draws ``RANSAC_ITERATIONS`` random 3-point hypotheses from a generator
    seeded 0, keeps the one with the most points within
    ``RANSAC_THRESHOLD_MM`` of it, refines by total least squares over
    those inliers, and orients the normal so the off-plane mass of the
    cloud sits on the positive side. The same cloud always gives the same
    fit.

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

    rng = np.random.default_rng(0)
    best_normal = None
    best_offset = 0.0
    best_count = -1
    for _ in range(RANSAC_ITERATIONS):
        i, j, k = rng.choice(n_pts, size=3, replace=False)
        normal = np.cross(pts[j] - pts[i], pts[k] - pts[i])
        norm = np.linalg.norm(normal)
        if norm < 1e-14:
            continue  # collinear triple, hypothesis wasted
        normal = normal / norm
        offset = float(normal @ pts[i])
        count = int(np.count_nonzero(np.abs(pts @ normal - offset) <= RANSAC_THRESHOLD_MM))
        if count > best_count:
            best_count = count
            best_normal, best_offset = normal, offset
    if best_normal is None:
        raise DegenerateCloud("no valid 3-point hypothesis found")

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


def close_with_projection(cloud: PointCloud, plane: Plane) -> PointCloud:
    """Append the plane projection of every point; cardinality doubles."""
    if cloud.is_empty:
        raise EmptyResult("cannot close an empty cloud")
    return PointCloud(np.vstack([cloud.xyz, plane.project(cloud.xyz)]), cloud.meta)


def triangulate_lattice(cloud: PointCloud, step: float) -> TriangleMesh:
    """Triangulate a raster scan (plane frame) over its implicit XY lattice.

    Points snap to the lattice anchored at the cloud's XY minimum (snap
    tolerance step/4; off-lattice points are ignored). Every lattice cell
    with all four corners present emits two triangles. Clouds closed with
    ``close_with_projection`` are handled: a node holding both an on-plane
    point (|z| <= 0.002) and surface points becomes a top-sheet node at the
    surface height, and cells whose four corners are all closed also emit a
    bottom sheet at z = 0 (which contributes zero volume).

    Raises:
        InconsistentLattice: same-node points with z spread beyond 0.010 mm
            that do not form the closed top/bottom pattern.
    """
    if cloud.is_empty:
        raise EmptyResult("cannot triangulate an empty cloud")
    if step <= 0:
        raise GeometryError("lattice step must be positive")
    xy = cloud.xyz[:, :2]
    z = cloud.xyz[:, 2]
    origin = xy.min(axis=0)
    frac = (xy - origin) / step
    idx = np.rint(frac).astype(np.int64)
    snapped = np.abs(frac - idx).max(axis=1) <= 0.25 + 1e-9
    idx, z = idx[snapped], z[snapped]
    if idx.size == 0:
        raise EmptyResult("no points snapped to the lattice")

    nodes, inv = np.unique(idx, axis=0, return_inverse=True)
    m = len(nodes)
    on_plane = np.abs(z) <= LATTICE_MERGE_WARN_MM

    def per_node(values, mask, op, init):
        acc = np.full(m, init, dtype=np.float64)
        op.at(acc, inv[mask], values[mask])
        return acc

    all_mask = np.ones_like(on_plane)
    zmin = per_node(z, all_mask, np.minimum, np.inf)
    zmax = per_node(z, all_mask, np.maximum, -np.inf)
    zsum = per_node(z, all_mask, np.add, 0.0)
    count = np.bincount(inv, minlength=m).astype(np.float64)

    top = ~on_plane
    top_min = per_node(z, top, np.minimum, np.inf)
    top_max = per_node(z, top, np.maximum, -np.inf)
    top_sum = per_node(z, top, np.add, 0.0)
    top_count = np.bincount(inv[top], minlength=m).astype(np.float64)
    bottom_count = count - top_count

    closed = (top_count > 0) & (bottom_count > 0)
    spread = np.where(closed, top_max - top_min, zmax - zmin)
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
    node_z = np.where(closed, top_sum / np.maximum(top_count, 1.0), zsum / count)

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

    # Bottom sheet (z = 0) for cells whose four corners all carry closure points.
    closed_grid = np.zeros((ni, nj), dtype=bool)
    closed_grid[nodes[closed, 0], nodes[closed, 1]] = True
    closed_cells = (
        closed_grid[:-1, :-1]
        & closed_grid[1:, :-1]
        & closed_grid[:-1, 1:]
        & closed_grid[1:, 1:]
    )
    bi, bj = np.nonzero(closed_cells)
    if bi.size:
        closed_ids = np.flatnonzero(closed)
        remap = np.full(m, -1, dtype=np.int64)
        remap[closed_ids] = m + np.arange(closed_ids.size)
        bottom_vertices = vertices[closed_ids].copy()
        bottom_vertices[:, 2] = 0.0
        vertices = np.vstack([vertices, bottom_vertices])
        a = remap[node_id[bi, bj]]
        b = remap[node_id[bi + 1, bj]]
        c = remap[node_id[bi + 1, bj + 1]]
        d = remap[node_id[bi, bj + 1]]
        faces = np.concatenate(
            [faces, np.column_stack([a, c, b]), np.column_stack([a, d, c])], axis=0
        )
    return TriangleMesh(vertices, faces)


def mesh_volume_over_plane(mesh: TriangleMesh, plane: Plane) -> float:
    """Volume between a meshed surface and a plane, above the plane only.

    Sums, over all faces, the area of the face projected onto the plane times
    the distance between the face centroid and the projected centroid
    (centroid = vertex mean). Faces on the plane contribute zero, and so do
    faces whose centroid lies below it: in a plane-frame scan those are
    substrate points a hair under the fitted plane, not deposit.
    """
    if len(mesh) == 0:
        raise EmptyResult("mesh has no faces")
    sd = mesh.vertices @ plane.normal - plane.offset
    tri = mesh.vertices[mesh.faces]
    sd_tri = sd[mesh.faces]
    proj = tri - sd_tri[..., None] * plane.normal
    cross = np.cross(proj[:, 1] - proj[:, 0], proj[:, 2] - proj[:, 0])
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    u = np.maximum(sd_tri.mean(axis=1), 0.0)
    return float((areas * u).sum())

import numpy as np
import pytest

from gluevol import geom3d
from gluevol.geom3d import (
    BoundingBox2,
    DegenerateCloud,
    EmptyResult,
    FewerThanThreePoints,
    InconsistentLattice,
    Plane,
    PointCloud,
    TriangleMesh,
    close_with_projection,
    crop_xy,
    fit_plane_ransac,
    mesh_volume_over_plane,
    to_plane_frame,
    triangulate_lattice,
)


def grid_cloud(nx, ny, step, z=0.0):
    xs = step * np.arange(nx)
    ys = step * np.arange(ny)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    zz = np.broadcast_to(z, xx.shape)
    return PointCloud(np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()]))


class TestFitPlaneRansac:
    def test_dominant_plane_with_outliers(self):
        rng = np.random.default_rng(3)
        base = np.column_stack([rng.uniform(0, 1, 100), rng.uniform(0, 1, 100), np.zeros(100)])
        outliers = np.column_stack([rng.uniform(0, 1, 5), rng.uniform(0, 1, 5), np.ones(5)])
        plane, inliers = fit_plane_ransac(PointCloud(np.vstack([base, outliers])))
        assert np.allclose(plane.normal, [0, 0, 1], atol=1e-9)
        assert abs(plane.offset) < 1e-9
        assert len(inliers) == 100

    def test_two_points_raises(self):
        with pytest.raises(FewerThanThreePoints):
            fit_plane_ransac(PointCloud([[0, 0, 0], [1, 0, 0]]))

    def test_collinear_cloud_raises(self):
        pts = np.column_stack([np.linspace(0, 1, 50), np.zeros(50), np.zeros(50)])
        with pytest.raises(DegenerateCloud):
            fit_plane_ransac(PointCloud(pts))

    def test_noisy_plane_inlier_fraction_matches_gaussian_oracle(self):
        # 10k points on z=0 with sigma=0.002 noise, threshold 0.005: the
        # expected inlier fraction is P(|N(0, sigma)| <= thr), estimated by
        # Monte Carlo over the same noise model.
        rng = np.random.default_rng(11)
        sigma, threshold = 0.002, geom3d.RANSAC_THRESHOLD_MM
        xy = rng.uniform(0, 5, size=(10_000, 2))
        z = rng.normal(0, sigma, 10_000)
        plane, inliers = fit_plane_ransac(PointCloud(np.column_stack([xy, z])))
        oracle = np.abs(rng.normal(0, sigma, 200_000)) <= threshold
        expected = oracle.mean()
        assert expected >= 0.97
        assert len(inliers) / 10_000 >= 0.97
        assert abs(len(inliers) / 10_000 - expected) < 0.01

    def test_deterministic_for_fixed_seed(self):
        # the generator is seeded inside: repeated calls give the same fit
        rng = np.random.default_rng(5)
        pts = np.column_stack(
            [rng.uniform(0, 1, 500), rng.uniform(0, 1, 500), rng.normal(0, 0.001, 500)]
        )
        cloud = PointCloud(pts)
        p1, i1 = fit_plane_ransac(cloud)
        p2, i2 = fit_plane_ransac(cloud)
        assert np.array_equal(p1.normal, p2.normal)
        assert p1.offset == p2.offset
        assert np.array_equal(i1, i2)


class TestToPlaneFrame:
    def test_identity_for_substrate_plane(self):
        cloud = grid_cloud(4, 4, 0.5)
        out = to_plane_frame(cloud, Plane.xy())
        assert np.allclose(out.xyz, cloud.xyz, atol=1e-15)

    def test_z_equals_signed_distance(self):
        plane = Plane([1.0, 2.0, 2.0], 0.6)
        point = plane.offset * plane.normal + 0.1 * plane.normal
        out = to_plane_frame(PointCloud([point]), plane)
        assert out.xyz[0, 2] == pytest.approx(0.1, abs=1e-12)

    def test_rigid_distances_preserved(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, size=(40, 3))
        plane = Plane(rng.standard_normal(3), 0.3)
        out = to_plane_frame(PointCloud(pts), plane).xyz
        d_in = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
        d_out = np.linalg.norm(out[:, None] - out[None], axis=-1)
        assert np.allclose(d_in, d_out, rtol=1e-12, atol=1e-12)


class TestCropXy:
    def test_full_box_is_identity(self):
        cloud = grid_cloud(10, 10, 1 / 9)
        out = crop_xy(cloud, BoundingBox2(0, 1, 0, 1))
        assert np.array_equal(out.xyz, cloud.xyz)

    def test_excluding_box_flags_empty(self):
        cloud = grid_cloud(3, 3, 0.1)
        assert crop_xy(cloud, BoundingBox2(5, 6, 5, 6)).is_empty
        with pytest.raises(EmptyResult):
            crop_xy(cloud, BoundingBox2(5, 6, 5, 6), allow_empty=False)

    def test_half_box_on_lattice_keeps_36_points(self):
        # 10x10 lattice at spacing 0.1 (points 0..0.9): coordinates <= 0.5
        # are indices 0..5 per axis -> 36 points (independent enumeration).
        cloud = grid_cloud(10, 10, 0.1)
        expected = sum(
            1
            for i in range(10)
            for j in range(10)
            if i * 0.1 <= 0.5 and j * 0.1 <= 0.5
        )
        assert expected == 36
        out = crop_xy(cloud, BoundingBox2(0, 0.5, 0, 0.5))
        assert len(out) == expected

    def test_order_preserved(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, size=(50, 3))
        out = crop_xy(PointCloud(pts), BoundingBox2(0, 0.5, 0, 1))
        mask = pts[:, 0] <= 0.5
        assert np.array_equal(out.xyz, pts[mask])


class TestCloseWithProjection:
    def test_single_point(self):
        out = close_with_projection(PointCloud([[0.3, 0.4, 0.2]]), Plane.xy())
        assert len(out) == 2
        assert np.allclose(out.xyz[1], [0.3, 0.4, 0.0])

    def test_point_on_plane_duplicates(self):
        out = close_with_projection(PointCloud([[1.0, 2.0, 0.0]]), Plane.xy())
        assert np.array_equal(out.xyz[0], out.xyz[1])

    def test_cardinality_doubles(self):
        rng = np.random.default_rng(1)
        cloud = PointCloud(rng.uniform(0, 1, size=(37, 3)))
        assert len(close_with_projection(cloud, Plane.xy())) == 74


class TestTriangulateLattice:
    def test_single_cell_two_triangles(self):
        cloud = grid_cloud(2, 2, 0.1, z=0.05)
        mesh = triangulate_lattice(cloud, 0.1)
        assert len(mesh) == 2
        # Projected area of the pair equals the cell area.
        area = mesh_volume_over_plane(mesh, Plane.xy()) / 0.05
        assert area == pytest.approx(0.01, rel=1e-12)

    def test_full_3x3_gives_8_triangles(self):
        mesh = triangulate_lattice(grid_cloud(3, 3, 0.1, z=0.03), 0.1)
        assert len(mesh) == 8

    def test_missing_center_kills_all_cells(self):
        # Each of the 4 cells of a 3x3 lattice touches the center corner, so
        # removing it leaves zero complete cells (enumerated independently).
        cloud = grid_cloud(3, 3, 0.1, z=0.02)
        keep = np.ones(9, dtype=bool)
        keep[4] = False  # center of the row-major 3x3
        mesh = triangulate_lattice(PointCloud(cloud.xyz[keep]), 0.1)
        assert len(mesh) == 0

    def test_closed_cloud_top_and_bottom_sheets(self):
        cloud = grid_cloud(3, 3, 0.1, z=0.05)
        closed = close_with_projection(cloud, Plane.xy())
        mesh = triangulate_lattice(closed, 0.1)
        assert len(mesh) == 16  # 8 top + 8 bottom
        volume = mesh_volume_over_plane(mesh, Plane.xy())
        assert volume == pytest.approx(0.04 * 0.05, rel=1e-12)

    def test_inconsistent_duplicate_raises(self):
        pts = np.array([[0, 0, 0.05], [0, 0, 0.12], [0.1, 0, 0.05], [0, 0.1, 0.05], [0.1, 0.1, 0.05]])
        with pytest.raises(InconsistentLattice):
            triangulate_lattice(PointCloud(pts), 0.1)

    def test_small_duplicate_spread_averages_with_warning(self):
        pts = np.array([[0, 0, 0.050], [0, 0, 0.055], [0.1, 0, 0.05], [0, 0.1, 0.05], [0.1, 0.1, 0.05]])
        with pytest.warns(UserWarning, match="merged"):
            mesh = triangulate_lattice(PointCloud(pts), 0.1)
        node = mesh.vertices[np.all(mesh.vertices[:, :2] == 0, axis=1)]
        assert node[0, 2] == pytest.approx(0.0525)

    def test_covers_raster_points(self):
        cloud = grid_cloud(12, 9, 0.05, z=0.01)
        mesh = triangulate_lattice(cloud, 0.05)
        used = np.unique(mesh.faces)
        covered = {tuple(np.round(v / 0.05).astype(int)[:2]) for v in mesh.vertices[used]}
        points = {tuple(np.round(p / 0.05).astype(int)[:2]) for p in cloud.xyz}
        assert len(covered & points) / len(points) >= 0.95


class TestMeshVolume:
    def test_prism_exact(self):
        h = 0.37
        mesh = TriangleMesh([[0, 0, h], [1, 0, h], [0, 1, h]], [[0, 1, 2]])
        assert mesh_volume_over_plane(mesh, Plane.xy()) == pytest.approx(0.5 * h, rel=1e-12)

    def test_in_plane_mesh_zero(self):
        mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        assert mesh_volume_over_plane(mesh, Plane.xy()) == 0.0

    def test_below_plane_faces_count_zero(self):
        below = TriangleMesh([[0, 0, -0.1], [1, 0, -0.1], [0, 1, -0.1]], [[0, 1, 2]])
        assert mesh_volume_over_plane(below, Plane.xy()) == 0.0
        # a face counts by its centroid: one vertex under the plane only
        # lowers it, and the face still adds its positive prism
        mixed = TriangleMesh([[0, 0, -0.1], [1, 0, 0.4], [0, 1, 0.3]], [[0, 1, 2]])
        assert mesh_volume_over_plane(mixed, Plane.xy()) == pytest.approx(0.5 * 0.2, rel=1e-12)

    def test_raster_box_deposit_within_two_percent(self):
        # 1x1 mm flat-top deposit of height 0.1 sampled at 0.02 mm: lattice
        # volume vs the analytic 0.1 mm^3 box volume.
        step = 0.02
        n = int(round(1.0 / step)) + 1
        cloud = grid_cloud(n, n, step, z=0.1)
        mesh = triangulate_lattice(cloud, step)
        volume = mesh_volume_over_plane(mesh, Plane.xy())
        assert volume == pytest.approx(0.1, rel=0.02)


class TestPipelineProperties:
    def test_rigid_motion_invariance_under_tilt(self):
        # Tilt (out-of-plane rotation) plus translation applied to both the
        # cloud and its generating plane leaves the meshed volume unchanged.
        # In-plane twist is excluded by design: the plane frame's X axis
        # follows the world X projection, which a twist would break.
        cloud = grid_cloud(8, 8, 0.05, z=0.04)
        base_mesh = triangulate_lattice(to_plane_frame(cloud, Plane.xy()), 0.05)
        base_volume = mesh_volume_over_plane(base_mesh, Plane.xy())

        angle = 0.3
        rot = np.array(
            [[1, 0, 0], [0, np.cos(angle), -np.sin(angle)], [0, np.sin(angle), np.cos(angle)]]
        )
        shift = np.array([0.2, -0.7, 1.3])
        moved = PointCloud(cloud.xyz @ rot.T + shift)
        normal = rot @ np.array([0.0, 0.0, 1.0])
        plane = Plane(normal, float(normal @ shift))
        mesh = triangulate_lattice(to_plane_frame(moved, plane), 0.05)
        volume = mesh_volume_over_plane(mesh, Plane.xy())
        assert volume == pytest.approx(base_volume, rel=1e-6)

    def test_volume_non_negative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            z = rng.uniform(0, 0.2, size=(5, 5))
            xs = 0.05 * np.arange(5)
            xx, yy = np.meshgrid(xs, xs, indexing="ij")
            cloud = PointCloud(np.column_stack([xx.ravel(), yy.ravel(), z.ravel()]))
            mesh = triangulate_lattice(cloud, 0.05)
            assert mesh_volume_over_plane(mesh, Plane.xy()) >= 0

    def test_spherical_cap_converges_with_step(self):
        # Deposit shaped as a spherical cap: lattice volume approaches the
        # closed-form cap volume as the raster refines.
        radius, height = 1.0, 0.3
        cap_volume = np.pi * height**2 * (radius - height / 3)

        def cap_cloud(step):
            n = int(round(2.4 / step)) + 1
            xs = -1.2 + step * np.arange(n)
            xx, yy = np.meshgrid(xs, xs, indexing="ij")
            r2 = xx**2 + yy**2
            rim2 = radius**2 - (radius - height) ** 2
            z = np.where(r2 < rim2, np.sqrt(radius**2 - np.minimum(r2, rim2)) - (radius - height), 0.0)
            return PointCloud(np.column_stack([xx.ravel(), yy.ravel(), z.ravel()]))

        errors = {}
        for step in (0.05, 0.02):
            mesh = triangulate_lattice(cap_cloud(step), step)
            volume = mesh_volume_over_plane(mesh, Plane.xy())
            errors[step] = abs(volume - cap_volume) / cap_volume
        assert errors[0.02] < errors[0.05]
        assert errors[0.02] < 0.02

import numpy as np
import pytest

from gluevol.geom3d import PointCloud
from gluevol.voxelizer import (
    COVERAGE_TARGET,
    Z_VOXEL_BASE_MM,
    Z_VOXEL_INCREMENT_MM,
    EmptyCloud,
    GridConfig,
    VoxelGrid,
    build_grid,
    grid_stats,
    read_ggvg,
    write_ggvg,
)


def random_cloud(rng, n=500, z_max=0.3):
    return PointCloud(
        np.column_stack(
            [rng.uniform(0, 1.2, n), rng.uniform(0, 2.0, n), rng.uniform(0, z_max, n)]
        )
    )


class TestBuildGrid:
    def test_single_point_single_voxel(self):
        grid = build_grid(PointCloud([[0.3, 0.4, 0.02]]))
        stats = grid_stats(grid)
        assert stats.occupied == 1
        assert stats.fill_fraction == pytest.approx(1 / 65536)

    def test_canonical_dims(self):
        grid = build_grid(PointCloud([[0, 0, 0.0], [1, 1, 0.1]]))
        assert grid.dims == (32, 32, 64)
        assert grid.occupancy.shape == (32, 32, 64)

    def test_xy_voxel_sizes_follow_ranges(self):
        rng = np.random.default_rng(0)
        cloud = random_cloud(rng)
        lo, hi = cloud.bounds()
        grid = build_grid(cloud)
        assert grid.voxel_size[0] == pytest.approx((hi[0] - lo[0]) / 32)
        assert grid.voxel_size[1] == pytest.approx((hi[1] - lo[1]) / 32)

    def test_uniform_z_070_selects_15um(self):
        # dz = 10 um covers 0.64 of 0.70 (91.4% < 98%); 15 um covers all.
        z = np.linspace(0.0, 0.70, 2000)
        cloud = PointCloud(np.column_stack([np.linspace(0, 1, 2000), np.ones(2000), z]))
        grid = build_grid(cloud)
        assert grid.voxel_size[2] == pytest.approx(0.015, abs=1e-12)

    def test_dz_is_minimal_in_sequence(self):
        rng = np.random.default_rng(4)
        cfg = GridConfig()
        for _ in range(20):
            z_max = rng.uniform(0.02, 1.5)
            cloud = PointCloud(
                np.column_stack(
                    [rng.uniform(0, 1, 400), rng.uniform(0, 1, 400), rng.uniform(0, z_max, 400)]
                )
            )
            grid = build_grid(cloud, cfg)
            dz = grid.voxel_size[2]
            k = round((dz - Z_VOXEL_BASE_MM) / Z_VOXEL_INCREMENT_MM)
            assert dz == pytest.approx(Z_VOXEL_BASE_MM + k * Z_VOXEL_INCREMENT_MM)
            z = cloud.xyz[:, 2]
            covered = np.count_nonzero(z < cfg.nz * dz) / len(z)
            assert covered >= COVERAGE_TARGET
            if k > 0:
                smaller = dz - Z_VOXEL_INCREMENT_MM
                assert np.count_nonzero(z < cfg.nz * smaller) / len(z) < COVERAGE_TARGET

    def test_coverage_invariant_holds(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            cloud = random_cloud(rng, n=int(rng.integers(50, 800)), z_max=rng.uniform(0.05, 2.0))
            grid = build_grid(cloud)
            inside = grid.occupancy.sum()
            assert inside <= len(cloud)  # pigeonhole
            z = cloud.xyz[:, 2]
            frac = np.count_nonzero(z < 64 * grid.voxel_size[2]) / len(z)
            assert frac >= 0.98

    def test_xy_translation_invariance(self):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng)
        grid = build_grid(cloud)
        shifted = build_grid(PointCloud(cloud.xyz + np.array([3.7, -1.2, 0.0])))
        assert np.array_equal(grid.occupancy, shifted.occupancy)

    def test_boundary_points_kept(self):
        cloud = PointCloud([[0, 0, 0.0], [1.0, 2.0, 0.1]])
        grid = build_grid(cloud)
        assert grid.occupancy[31, 31, :].any()  # max corner lands in last voxel

    def test_negative_noise_clamped_into_base_layer(self):
        cloud = PointCloud([[0, 0, -0.001], [1, 1, 0.1]])
        grid = build_grid(cloud)
        assert grid.occupancy[0, 0, 0]

    def test_empty_cloud_raises(self):
        with pytest.raises(EmptyCloud):
            build_grid(PointCloud(np.zeros((0, 3))))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        cloud = random_cloud(rng)
        a = build_grid(cloud)
        b = build_grid(cloud)
        assert np.array_equal(a.occupancy, b.occupancy)
        assert np.array_equal(a.voxel_size, b.voxel_size)


class TestGridIo:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        grid = build_grid(random_cloud(rng))
        path = tmp_path / "grid.ggvg"
        write_ggvg(grid, path)
        loaded = read_ggvg(path)
        assert loaded.dims == grid.dims
        assert np.array_equal(loaded.occupancy, grid.occupancy)
        assert np.array_equal(loaded.origin, grid.origin)
        assert np.array_equal(loaded.voxel_size, grid.voxel_size)
        path2 = tmp_path / "again.ggvg"
        write_ggvg(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bit_packing_layout(self, tmp_path):
        # voxel (i, j, k) maps to bit (k*ny + j)*nx + i, LSB-first.
        occupancy = np.zeros((2, 2, 2), dtype=bool)
        occupancy[1, 0, 0] = True  # bit index 1
        occupancy[0, 1, 1] = True  # bit (1*2+1)*2+0 = 6
        grid = VoxelGrid(
            dims=(2, 2, 2),
            origin=np.zeros(3),
            voxel_size=np.array([0.1, 0.1, 0.01]),
            occupancy=occupancy,
        )
        path = tmp_path / "tiny.ggvg"
        write_ggvg(grid, path)
        payload = path.read_bytes()[65:]
        assert payload == bytes([0b01000010])
        assert np.array_equal(read_ggvg(path).occupancy, occupancy)

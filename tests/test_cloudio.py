import numpy as np
import pytest

from gluevol.cloudio import (
    CloudFormatError,
    read_ggpc,
    read_xyz,
    write_ggpc,
    write_xyz,
)
from gluevol.geom3d import PointCloud


@pytest.fixture
def cloud():
    rng = np.random.default_rng(12)
    return PointCloud(
        rng.uniform(-2, 2, size=(137, 3)),
        meta={"region_id": "c03_tA_d1", "step_um": 50.0, "pass": 2, "attached": False},
    )


class TestXyz:
    def test_round_trip_exact(self, tmp_path, cloud):
        path = tmp_path / "scan.xyz"
        write_xyz(cloud, path)
        loaded = read_xyz(path)
        assert np.array_equal(loaded.xyz, cloud.xyz)
        assert loaded.meta == cloud.meta

    def test_byte_deterministic(self, tmp_path, cloud):
        a, b = tmp_path / "a.xyz", tmp_path / "b.xyz"
        write_xyz(cloud, a)
        write_xyz(cloud, b)
        assert a.read_bytes() == b.read_bytes()

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "hand.xyz"
        path.write_text("# a scan\n\n0.1 0.2 0.3\n# trailing\n1 2 3\n")
        loaded = read_xyz(path)
        assert len(loaded) == 2
        assert loaded.xyz[1, 2] == 3.0

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("0.1 0.2\n")
        with pytest.raises(CloudFormatError):
            read_xyz(path)

    @pytest.mark.parametrize("value", ["nan", "-inf", "inf", "1e999"])
    def test_non_finite_coordinate_names_its_line(self, tmp_path, value):
        path = tmp_path / "bad.xyz"
        path.write_text(f"# meta step_um=50.0\n0.1 0.2 0.3\n\n0.4 {value} 0.6\n0.7 0.8 0.9\n")
        with pytest.raises(CloudFormatError, match="bad.xyz:4: non-finite coordinate"):
            read_xyz(path)


class TestGgpc:
    def test_round_trip_bit_exact(self, tmp_path, cloud):
        path = tmp_path / "scan.ggpc"
        write_ggpc(cloud, path)
        loaded = read_ggpc(path)
        assert np.array_equal(loaded.xyz, cloud.xyz)

    def test_truncated_rejected(self, tmp_path, cloud):
        path = tmp_path / "scan.ggpc"
        write_ggpc(cloud, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CloudFormatError):
            read_ggpc(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_rejected(self, tmp_path, cloud, value):
        cloud.xyz[57, 2] = value
        path = tmp_path / "scan.ggpc"
        write_ggpc(cloud, path)
        with pytest.raises(CloudFormatError, match="scan.ggpc: non-finite coordinate in point 57"):
            read_ggpc(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.ggpc"
        path.write_bytes(b"WRONG" + b"\x00" * 4)
        with pytest.raises(CloudFormatError):
            read_ggpc(path)

import json

import numpy as np
import pytest

from gluevol.cloudio import (
    GGPC_MAGIC,
    CloudFormatError,
    read_ggpc,
    read_xyz,
    write_ggpc,
    write_xyz,
)
from gluevol.geom3d import PointCloud
from gluevol.util import atomic_write


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


    def test_bad_token_names_its_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("# meta step_um=50.0\n0.1 0.2 0.3\n0.4 0.5x 0.6\n0.7 0.8 0.9\n")
        with pytest.raises(CloudFormatError) as info:
            read_xyz(path)
        assert str(info.value) == f"{path}:3: could not convert string to float: '0.5x'"

    def test_bad_meta_json_names_its_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("0.1 0.2 0.3\n# meta footprint=[0.1, \n0.4 0.5 0.6\n")
        with pytest.raises(CloudFormatError) as info:
            read_xyz(path)
        with pytest.raises(json.JSONDecodeError) as decode:
            json.loads("[0.1,")
        assert str(info.value) == f"{path}:2: {decode.value}"

    def test_four_fields_names_its_line(self, tmp_path):
        # The file's token count is a multiple of 3: only the line shows it.
        path = tmp_path / "bad.xyz"
        path.write_text("0.1 0.2 0.3\n0.4 0.5 0.6 0.7\n0.8 0.9\n")
        with pytest.raises(CloudFormatError) as info:
            read_xyz(path)
        assert str(info.value) == f"{path}:2: expected 3 fields, got 4"

    def test_first_bad_line_is_named(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("0.1 0.2 0.3\n0.4 0.5\n# meta step_um=[\n0.7 0.8 zz\n")
        with pytest.raises(CloudFormatError, match="bad.xyz:2: expected 3 fields, got 2"):
            read_xyz(path)

    def test_blank_lines_between_data_lines(self, tmp_path):
        path = tmp_path / "gaps.xyz"
        path.write_text("# meta pass=1\n0.1 0.2 0.3\n\n  \n0.4\t0.5  0.6\n\n0.7 0.8 0.9\n")
        loaded = read_xyz(path)
        assert loaded.xyz.tolist() == [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]]
        assert loaded.meta == {"pass": 1}

    def test_meta_only_is_an_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.xyz"
        path.write_text("# meta pass=1\n")
        loaded = read_xyz(path)
        assert loaded.xyz.shape == (0, 3)
        assert loaded.meta == {"pass": 1}


class TestGgpc:
    def test_round_trip_bit_exact(self, tmp_path, cloud):
        path = tmp_path / "scan.ggpc"
        write_ggpc([cloud], path)
        (loaded,) = read_ggpc(path)
        assert np.array_equal(loaded.xyz, cloud.xyz)

    def test_records_back_to_back_in_order(self, tmp_path, cloud):
        # Each record has the bytes a one-cloud file of it has.
        clouds = [cloud, PointCloud(cloud.xyz[:0]), PointCloud(cloud.xyz[::-1] * 2)]
        path = tmp_path / "scan.ggpc"
        write_ggpc(clouds, path)
        records = []
        for i, c in enumerate(clouds):
            write_ggpc([c], tmp_path / f"{i}.ggpc")
            records.append((tmp_path / f"{i}.ggpc").read_bytes())
        assert path.read_bytes() == b"".join(records)
        assert records[1] == GGPC_MAGIC + b"\x00" * 4
        loaded = read_ggpc(path)
        assert len(loaded) == 3
        for got, want in zip(loaded, clouds):
            assert np.array_equal(got.xyz, want.xyz)

    def test_no_records(self, tmp_path):
        path = tmp_path / "empty.ggpc"
        write_ggpc([], path)
        assert path.read_bytes() == b"" and read_ggpc(path) == []

    def test_truncated_rejected(self, tmp_path, cloud):
        path = tmp_path / "scan.ggpc"
        write_ggpc([cloud], path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CloudFormatError):
            read_ggpc(path)

    @pytest.mark.parametrize("before,keep", [(1, 5), (1, 7), (1, 8), (0, 7)])
    def test_header_cut_short_names_the_record(self, tmp_path, cloud, before, keep):
        path = tmp_path / "scan.ggpc"
        write_ggpc([cloud] * (before + 1), path)
        one = 9 + 24 * len(cloud)
        path.write_bytes(path.read_bytes()[:before * one + keep])
        with pytest.raises(CloudFormatError, match=f"scan.ggpc: record {before} cut inside its "
                                                   fr"header \({keep} of 9 bytes\)"):
            read_ggpc(path)

    def test_points_cut_short_names_the_record(self, tmp_path, cloud):
        path = tmp_path / "scan.ggpc"
        write_ggpc([cloud, cloud, cloud], path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(CloudFormatError, match="scan.ggpc: record 2 cut inside its points"):
            read_ggpc(path)

    @pytest.mark.parametrize("tail", [b"\x00", b"\x00" * 12, b"GGPX1" + b"\x00" * 4])
    def test_trailing_bytes_rejected(self, tmp_path, cloud, tail):
        path = tmp_path / "scan.ggpc"
        write_ggpc([cloud, cloud], path)
        path.write_bytes(path.read_bytes() + tail)
        with pytest.raises(CloudFormatError,
                           match=f"scan.ggpc: {len(tail)} trailing bytes after record 1"):
            read_ggpc(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_rejected(self, tmp_path, cloud, value):
        cloud.xyz[57, 2] = value
        path = tmp_path / "scan.ggpc"
        write_ggpc([cloud], path)
        with pytest.raises(CloudFormatError, match="scan.ggpc: non-finite coordinate in point 57"):
            read_ggpc(path)

    def test_non_finite_coordinate_names_the_record(self, tmp_path, cloud):
        bad = PointCloud(cloud.xyz.copy())
        bad.xyz[3, 0] = np.nan
        path = tmp_path / "scan.ggpc"
        write_ggpc([cloud, bad], path)
        with pytest.raises(CloudFormatError, match="non-finite coordinate in point 3 of record 1"):
            read_ggpc(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.ggpc"
        path.write_bytes(b"WRONG" + b"\x00" * 4)
        with pytest.raises(CloudFormatError):
            read_ggpc(path)


class TestAtomicWrite:
    """A writer that raises leaves the previous file as it was and no temp
    file beside it."""

    def test_raising_writer_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError, match="midway"):
            with atomic_write(path) as fh:
                fh.write("new, half")
                fh.flush()
                raise RuntimeError("midway")
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]

    def test_raising_ggpc_writer_keeps_the_previous_file(self, tmp_path, cloud):
        path = tmp_path / "scan.ggpc"
        write_ggpc([cloud], path)
        before = path.read_bytes()

        def clouds():
            yield cloud
            raise RuntimeError("midway")

        with pytest.raises(RuntimeError, match="midway"):
            write_ggpc(clouds(), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.ggpc"]

    def test_replaces_with_the_mode_a_plain_write_gets(self, tmp_path):
        plain, path = tmp_path / "plain.json", tmp_path / "doc.json"
        plain.write_text("{}\n")
        path.write_text("old\n")
        with atomic_write(path, "wb") as fh:
            fh.write(b"[]\n")
        assert path.read_bytes() == b"[]\n"
        assert path.stat().st_mode == plain.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json", "plain.json"]

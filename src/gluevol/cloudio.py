"""Point-cloud file formats.

Text format ``.xyz``: one ``x y z`` triple per line (mm), ``#`` comment
lines. Metadata rides in header comments as ``# meta key=<json>`` so a scan
round-trips with its provenance. Floats are written with shortest
round-trip formatting, so read(write(cloud)) is bit-exact.

Binary format ``.ggpc``: one or more ``GGPC1`` records back to back, each
the magic ``GGPC1``, a u32 point count, then little-endian f64 xyz triples.
The augment stage writes one file per scan, holding its samples' records in
manifest order.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Iterable

import numpy as np

from .geom3d import PointCloud
from .util import atomic_write

GGPC_MAGIC = b"GGPC1"


class CloudFormatError(ValueError):
    """Malformed point-cloud file."""


def write_xyz(cloud: PointCloud, path) -> None:
    lines = []
    for key in sorted(cloud.meta):
        lines.append(f"# meta {key}={json.dumps(cloud.meta[key], sort_keys=True)}\n")
    for x, y, z in cloud.xyz:
        lines.append(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")
    with atomic_write(path) as fh:
        fh.write("".join(lines))


def read_xyz(path) -> PointCloud:
    """Raises ``CloudFormatError`` naming the line of a malformed or
    non-finite point."""
    meta = {}
    rows = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:  # a number or a metadata value that does not parse
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("meta "):
                    key, _, value = body[5:].partition("=")
                    meta[key.strip()] = json.loads(value)
                continue
            values = [float(p) for p in line.split()]
        except ValueError as exc:
            raise CloudFormatError(f"{path}:{lineno}: {exc}") from exc
        if len(values) != 3:
            raise CloudFormatError(f"{path}:{lineno}: expected 3 fields, got {len(values)}")
        rows.append(values)
    xyz = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    point = _first_non_finite(xyz)
    if point is not None:
        lines = enumerate(Path(path).read_text().splitlines(), start=1)
        data = [n for n, raw in lines if raw.strip()[:1] not in ("", "#")]
        raise CloudFormatError(f"{path}:{data[point]}: non-finite coordinate in {rows[point]}")
    return PointCloud(xyz, meta)


def _first_non_finite(xyz: np.ndarray):
    """Index of the first point with a NaN or infinite coordinate, or None.

    min and max propagate NaN, so finite extremes clear the whole cloud
    without a mask as large as it."""
    if not xyz.size or np.isfinite(xyz.min()) and np.isfinite(xyz.max()):
        return None
    return int(np.argmin(np.isfinite(xyz).all(axis=1)))


def write_ggpc(clouds: Iterable[PointCloud], path) -> None:
    """One GGPC1 record per cloud, in order; a cloud's meta is not stored."""
    with atomic_write(path, "wb") as fh:
        for cloud in clouds:
            fh.write(GGPC_MAGIC)
            fh.write(struct.pack("<I", len(cloud)))
            fh.write(np.ascontiguousarray(cloud.xyz, dtype="<f8").tobytes())


def read_ggpc(path) -> list[PointCloud]:
    """Every record's cloud, in file order.

    Raises ``CloudFormatError`` naming the file and the record for a bad
    magic, a record cut inside its header or its points, bytes after the
    last record that start no record, and a non-finite point.
    """
    data = Path(path).read_bytes()
    clouds = []
    offset = 0
    while offset < len(data):
        record, rest = len(clouds), len(data) - offset
        # A tail shorter than the magic that starts it is a cut header.
        if data[offset:offset + 5] != GGPC_MAGIC[:rest]:
            if record:
                raise CloudFormatError(f"{path}: {rest} trailing bytes after record {record - 1}")
            raise CloudFormatError(f"{path}: bad magic {data[:5]!r}")
        if rest < 9:
            raise CloudFormatError(
                f"{path}: record {record} cut inside its header ({rest} of 9 bytes)")
        (count,) = struct.unpack_from("<I", data, offset + 5)
        end = offset + 9 + count * 24
        if end > len(data):
            raise CloudFormatError(f"{path}: record {record} cut inside its points "
                                   f"({rest} bytes, {count} points need {end - offset})")
        xyz = np.frombuffer(data, dtype="<f8", count=count * 3, offset=offset + 9).reshape(count, 3)
        point = _first_non_finite(xyz)
        if point is not None:
            raise CloudFormatError(f"{path}: non-finite coordinate in point {point} of record "
                                   f"{record}: {xyz[point].tolist()}")
        clouds.append(PointCloud(xyz.astype(np.float64)))
        offset = end
    return clouds

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
from itertools import chain
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
    non-finite point, or of a metadata value that does not parse.

    Every data token is parsed in one pass; only a file that fails it is
    walked line by line, to name its first bad line."""
    lines = [raw.strip() for raw in Path(path).read_text().splitlines()]
    try:
        meta = dict(filter(None, map(_meta_item, (line for line in lines if line[:1] == "#"))))
        rows = [line.split() for line in lines if line[:1] not in ("", "#")]
        if set(map(len, rows)) - {3}:
            raise ValueError("a data line without 3 fields")
        xyz = np.array(list(map(float, chain.from_iterable(rows))), dtype=np.float64)
    except ValueError:
        _raise_first_bad_line(path, lines)
    xyz = xyz.reshape(-1, 3)
    point = _first_non_finite(xyz)
    if point is not None:
        data = [n for n, line in enumerate(lines, start=1) if line[:1] not in ("", "#")]
        raise CloudFormatError(
            f"{path}:{data[point]}: non-finite coordinate in {xyz[point].tolist()}")
    return PointCloud(xyz, meta)


def _meta_item(comment: str):
    """(key, value) of a ``# meta key=<json>`` line; None for another comment."""
    body = comment[1:].strip()
    if not body.startswith("meta "):
        return None
    key, _, value = body[5:].partition("=")
    return key.strip(), json.loads(value)


def _raise_first_bad_line(path, lines: list[str]):
    """Raise ``CloudFormatError`` for the first of the stripped ``lines``
    that holds a number or metadata value that does not parse, or a data
    line without 3 fields."""
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            if line.startswith("#"):
                _meta_item(line)
                continue
            n_fields = len([float(p) for p in line.split()])
        except ValueError as exc:
            raise CloudFormatError(f"{path}:{lineno}: {exc}") from exc
        if n_fields != 3:
            raise CloudFormatError(f"{path}:{lineno}: expected 3 fields, got {n_fields}")
    raise AssertionError(f"{path}: failed to parse but has no bad line")


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

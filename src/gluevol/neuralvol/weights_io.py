"""Binary weights format GGNN1.

Layout: magic ``GGNN1``, u32 version, u32 entry count, then per entry a
u16-length UTF-8 name, u8 ndim and u32 dims; payloads follow as contiguous
little-endian f64 in entry order. Round-trips are bit-exact.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..util import atomic_write
from .network import BlockWeights, ModelWeights, NetConfig, init_weights

GGNN_MAGIC = b"GGNN1"
GGNN_VERSION = 1

_BLOCK_FIELDS = ("conv_w", "conv_b", "bn_gamma", "bn_beta", "bn_mean", "bn_var")


class WeightsFormatError(ValueError):
    """Malformed GGNN1 file."""


def _entries(weights: ModelWeights):
    for i, blk in enumerate(weights.blocks):
        for name in _BLOCK_FIELDS:
            yield f"block{i}.{name}", np.asarray(getattr(blk, name), dtype=np.float64)
    yield "dense.w", np.asarray(weights.dense_w, dtype=np.float64)
    yield "dense.b", np.asarray(weights.dense_b, dtype=np.float64)
    yield "target.mean", np.asarray([weights.target_mean], dtype=np.float64)
    yield "target.std", np.asarray([weights.target_std], dtype=np.float64)


def write_weights(weights: ModelWeights, path) -> None:
    entries = list(_entries(weights))
    chunks = [GGNN_MAGIC, struct.pack("<II", GGNN_VERSION, len(entries))]
    for name, arr in entries:
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
    for _, arr in entries:
        chunks.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    with atomic_write(path, "wb") as fh:
        fh.write(b"".join(chunks))


def _read_entries(data: bytes):
    """({name: array}, end offset) of the entries after the magic."""
    version, count = struct.unpack_from("<II", data, 5)
    if version != GGNN_VERSION:
        raise ValueError(f"unsupported version {version}")
    offset = 13
    headers = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        name = data[offset : offset + name_len].decode("utf-8")
        offset += name_len
        (ndim,) = struct.unpack_from("<B", data, offset)
        offset += 1
        shape = struct.unpack_from(f"<{ndim}I", data, offset)
        offset += 4 * ndim
        headers.append((name, shape))
    table = {}
    for name, shape in headers:
        size = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(data, dtype="<f8", count=size, offset=offset)
        offset += size * 8
        table[name] = arr.reshape(shape).astype(np.float64)
    return table, offset


def read_weights(path) -> ModelWeights:
    data = Path(path).read_bytes()
    if data[:5] != GGNN_MAGIC:
        raise WeightsFormatError(f"{path}: bad magic {data[:5]!r}")
    try:
        table, offset = _read_entries(data)
    except (struct.error, ValueError) as exc:  # truncated or garbled entries
        raise WeightsFormatError(f"{path}: {exc}") from exc
    if offset != len(data):
        raise WeightsFormatError(f"{path}: {len(data) - offset} trailing bytes")

    n_blocks = sum(1 for name in table if name.endswith(".conv_w"))
    try:
        blocks = [
            BlockWeights(*(table[f"block{i}.{f}"] for f in _BLOCK_FIELDS))
            for i in range(n_blocks)
        ]
        return ModelWeights(
            blocks=blocks,
            dense_w=table["dense.w"],
            dense_b=table["dense.b"],
            target_mean=float(table["target.mean"][0]),
            target_std=float(table["target.std"][0]),
        )
    except KeyError as exc:
        raise WeightsFormatError(f"{path}: missing entry {exc}") from exc


def check_fits(weights: ModelWeights, cfg: NetConfig, path) -> None:
    """Raise WeightsFormatError unless ``weights`` has the entries (so the
    block count) and the array shapes of ``cfg``'s net."""
    for (name, arr), (want, like) in zip(_entries(weights), _entries(init_weights(cfg))):
        if (name, arr.shape) != (want, like.shape):
            raise WeightsFormatError(
                f"{path}: {name} {arr.shape} where the configured net has {want} {like.shape}"
            )

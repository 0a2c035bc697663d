"""Small shared helpers: tolerant grid arithmetic, seed derivation, atomic
file writes and the one dataclass <-> JSON codec.

Every JSON document the package writes (the run config,
``manifest.json``, ``thresholds.json``, the eval documents) goes through
``encode``; the typed ones are read back with ``decode``. Decoding follows
one rule for every dataclass: an unknown key, a missing key, a value of
another JSON type than the field's (``true`` is not an int, ``1`` not a
bool) and a non-finite float are each a ``ConfigError``. One legacy rule
keeps older documents loading: a key that a dataclass lists in
``RETIRED_KEYS`` may be present; like any key that is no field, it need not.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import types
import typing
import zlib
from collections.abc import Mapping
from pathlib import Path

import numpy as np

# Seed-derivation domains, so independent random streams never collide.
DOMAIN_SCAN = 1
DOMAIN_AUGMENT = 2
DOMAIN_TRAIN = 3
DOMAIN_INIT = 4


def floor_ratio(numerator: float, denominator: float) -> int:
    """floor(numerator / denominator) robust to float representation noise.

    Grid arithmetic here constantly divides quantities that are exact
    multiples in real numbers (1.8 / 0.05, 0.08r / 0.02r, ...); the quotient
    is rounded to 9 decimals before flooring so such cases never fall one
    short.
    """
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    return int(math.floor(round(numerator / denominator, 9)))


def stable_u32(text: str) -> int:
    """Deterministic 32-bit hash of a string (process-independent)."""
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


def derived_rng(*entropy: int) -> np.random.Generator:
    """Generator seeded from a tuple of integers, reproducible everywhere."""
    return np.random.default_rng(np.random.SeedSequence(entropy))


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """A file object on a temp file beside ``path``, ``os.replace``d onto it
    when the block ends.

    A reader never sees a half-written artifact: if the block raises, the
    temp file is removed and a previous ``path`` stays as it was. ``mode``
    and ``kwargs`` go to ``open``; the temp file gets the umask's
    permissions, as ``path`` would.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_ALLOCATOR_CONFIGURED = False


def configure_allocator() -> None:
    """Keep large freed buffers on the glibc heap for reuse.

    The training loop allocates and frees multi-MB tensors every step; with
    default malloc settings each one above 128 kB is a fresh mmap whose
    pages fault in again on every use. Raising the mmap threshold and
    disabling trim makes those buffers come from (and return to) the
    reusable heap. It buys time, and no longer memory: four alternating
    pairs of untraced ``perfbench`` ``train-tiny`` runs (seeds 10101-10104,
    one BLAS thread, a 2-core Xeon), with training holding one step's
    tensors at a time, read 83.1-92.6 samples/s with it against 78.1-80.8
    without (ahead in 4 of 4 pairs), and 168-184 MB peak RSS against
    168-180 MB. No-op where glibc is absent.
    """
    global _ALLOCATOR_CONFIGURED
    if _ALLOCATOR_CONFIGURED:
        return
    _ALLOCATOR_CONFIGURED = True
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError):
        pass


# A dataclass's ``RETIRED_KEYS`` maps the keys it no longer has to the value
# the code now fixes. Such a key is dropped when it holds that value as its
# field would have decoded it (``1`` is not ``true``, ``3.0`` not ``3``, but
# ``1`` is ``1.0``), or any value where it is ANY_VALUE; another value is a
# ConfigError naming ``Class.key``, so no document runs with a setting the
# code ignores.
ANY_VALUE = object()


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration or JSON document."""


class LengthMismatch(ValueError):
    """Paired sequences (predictions and targets or labels) of different lengths."""


def _field_object(obj) -> dict:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def encode(obj) -> str:
    """Indented JSON with sorted keys; dataclasses become field objects."""
    return json.dumps(obj, default=_field_object, indent=2, sort_keys=True) + "\n"


def decode(tp, text: str):
    """Rebuild a value of type ``tp`` from ``encode``'s JSON text.

    Raises ConfigError for malformed JSON, a value that does not fit ``tp``
    and any error a dataclass raises while validating its fields.
    """
    try:
        return _decoder(tp)(json.loads(text))
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot decode {getattr(tp, '__name__', tp)}: {exc}") from exc


def _number(value) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {value!r}")
    return float(value)


def _expect(value, kind: type, what: str):
    """``value`` itself if its type is exactly ``kind``; a bool is not an int."""
    if type(value) is not kind:
        raise ConfigError(f"expected {what}, got {value!r}")
    return value


@functools.cache
def _decoder(tp):
    """Converter from parsed JSON to ``tp``, built once per type."""
    if dataclasses.is_dataclass(tp):
        return _dataclass_decoder(tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [a for a in args if a is not type(None)]
        convert = _decoder(inner)
        return lambda v: None if v is None else convert(v)
    if origin is tuple and args[-1] is Ellipsis:
        item = _decoder(args[0])
        return lambda v: tuple(item(x) for x in _expect(v, list, "an array"))
    if origin is tuple:
        items = [_decoder(a) for a in args]

        def fixed(v):
            if len(_expect(v, list, "an array")) != len(items):
                raise ConfigError(f"expected {len(items)} values, got {v!r}")
            return tuple(f(x) for f, x in zip(items, v))

        return fixed
    if origin is list:
        item = _decoder(args[0])
        return lambda v: [item(x) for x in _expect(v, list, "an array")]
    if origin in (dict, Mapping):
        value = _decoder(args[1])
        return lambda v: {k: value(x) for k, x in _expect(v, dict, "an object").items()}
    if tp is float:
        return _number
    if tp in (int, str, bool, dict):
        return lambda v: v if type(v) is tp else _expect(v, tp, tp.__name__)
    raise TypeError(f"no JSON decoder for {tp!r}")


def _reads_as(value, fixed) -> bool:
    """Whether parsed JSON ``value`` decodes to ``fixed``, a retired value."""
    if type(fixed) is float:
        return type(value) in (int, float) and value == fixed
    if type(fixed) is tuple:
        return (type(value) is list and len(value) == len(fixed)
                and all(map(_reads_as, value, fixed)))
    if type(fixed) is dict:
        return (type(value) is dict and value.keys() == fixed.keys()
                and all(_reads_as(value[k], fixed[k]) for k in fixed))
    return type(value) is type(fixed) and value == fixed


def _dataclass_decoder(tp):
    hints = typing.get_type_hints(tp)
    fields = dataclasses.fields(tp)
    names = frozenset(f.name for f in fields)
    convert = [(f.name, _decoder(hints[f.name])) for f in fields]
    retired = getattr(tp, "RETIRED_KEYS", {})

    def decode_fields(doc):
        kwargs = dict(_expect(doc, dict, f"a {tp.__name__} object"))
        for key in retired.keys() & kwargs.keys():
            value, fixed = kwargs.pop(key), retired[key]
            if fixed is not ANY_VALUE and not _reads_as(value, fixed):
                raise ConfigError(f"{tp.__name__}.{key}: got {value!r}, fixed at {fixed!r}")
        if kwargs.keys() != names:
            for what, keys in (("unknown", kwargs.keys() - names),
                               ("missing", names - kwargs.keys())):
                if keys:
                    listed = ", ".join(map(repr, sorted(keys)))
                    raise ConfigError(f"{tp.__name__}: {what} key {listed}")
        for name, f in convert:
            if name in kwargs:
                try:
                    kwargs[name] = f(kwargs[name])
                except ConfigError as exc:
                    raise ConfigError(f"{tp.__name__}.{name}: {exc}") from None
        return tp(**kwargs)

    return decode_fields

"""Tier-1 runs with one OpenBLAS thread, as CI does.

The bit-identity tests of ``test_layers.py`` assume the summation order of
a single-thread GEMM. OpenBLAS reads the thread count when numpy loads, so
it is set here, before any test module imports numpy. The fixtures that
several test files share follow.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import pytest  # noqa: E402


@pytest.fixture
def noiseless(monkeypatch):
    """Scans without height noise or stage jitter."""
    from gluevol import scansim

    monkeypatch.setattr(scansim, "NOISE_SIGMA_Z_MM", 0.0)
    monkeypatch.setattr(scansim, "XY_JITTER_MM", 0.0)

"""Tier-1 runs with one OpenBLAS thread, as CI does.

The bit-identity tests of ``test_layers.py`` assume the summation order of
a single-thread GEMM. OpenBLAS reads the thread count when numpy loads, so
it is set here, before any test module imports numpy.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

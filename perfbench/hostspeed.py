"""Host speed, measured with a fixed reference kernel.

The benchmark's host is a share of a machine whose speed drifts by up to
about ±20% over seconds to minutes, and every time a run measures drifts
with it. So a run also times a fixed reference kernel: numpy matmuls, an
elementwise pass over 4 MB and a 3D convolution done as im2col plus a
matmul, about 6 ms in all and mostly bound by memory, as the workloads
are. Whenever REF_GAP seconds of set-up or measured work have passed, the
kernel runs once untimed, so the work before it does not leave it a cold
cache, and then timed for REF_SHARE of that work's time and at least
once. A time measured from t0 to t1 is reported scaled by
``factor(t0, t1)``, as it would read on a host where the kernel takes
REF_MS. A time longer than MAX_SCALED_SECONDS is left as measured.

The kernel is the benchmark's own code, not gluevol's, so a change to
gluevol moves the scaled times and not the factor.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Scaled times read as on a host where the kernel takes REF_MS (about its
# time on the host of the README's reference numbers).
REF_MS = 6.0
# Seconds of timed reference kernel per second of measured work.
REF_SHARE = 0.02
# Seconds of work between two runs of the kernel, at least.
REF_GAP = 0.2
# A time measured from t0 to t1 is scaled by the kernel samples taken from
# t0 - LOCAL_SECONDS to t1 + LOCAL_SECONDS, as the host's speed drifts
# within a run too.
LOCAL_SECONDS = 2.5
# A time longer than this is left unscaled: the kernel runs only between
# set-ups and units, so it cannot follow the drift within a long one.
MAX_SCALED_SECONDS = 10.0


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((160, 160))
        self.b = rng.standard_normal((160, 160))
        self.big = rng.standard_normal(1 << 19)
        self.out = np.empty_like(self.big)
        self.volume = rng.standard_normal((40, 40, 24))
        self.filters = rng.standard_normal((8, 27))
        self.samples: list[tuple[float, float]] = []  # (end, seconds)
        self.pending = 0.0

    def _kernel(self) -> None:
        for _ in range(6):
            self.a @ self.b
        np.maximum(self.big, 0.0, out=self.out)
        self.out *= 1.5
        cols = sliding_window_view(self.volume, (3, 3, 3)).reshape(-1, 27)
        (cols @ self.filters.T).max()

    def sample(self, work_seconds: float) -> None:
        """Count work_seconds of work; once REF_GAP has passed, time the
        kernel for REF_SHARE of the work since it last ran."""
        self.pending += work_seconds
        if self.pending < REF_GAP:
            return
        self._kernel()
        deadline = time.perf_counter() + REF_SHARE * self.pending
        self.pending = 0.0
        while True:
            start = time.perf_counter()
            self._kernel()
            end = time.perf_counter()
            self.samples.append((end, end - start))
            if end >= deadline:
                return

    def factor(self, t0: float, t1: float) -> float:
        """Scale from a time measured over the ``time.perf_counter()``
        interval [t0, t1] to that time at the reference speed, from the
        samples within LOCAL_SECONDS of it (from all if none is)."""
        if t1 - t0 > MAX_SCALED_SECONDS:
            return 1.0
        near = [seconds for end, seconds in self.samples
                if t0 - LOCAL_SECONDS <= end <= t1 + LOCAL_SECONDS]
        return REF_MS / (1e3 * statistics.median(near or [s for _, s in self.samples]))

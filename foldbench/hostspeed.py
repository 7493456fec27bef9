"""Host-speed normalisation of the untraced, end-to-end timings.

On a shared host the speed of this process changes with the load that
other tenants put on the same cores: on the 2-vCPU host this benchmark
was built on, it switched between a fast state and one about 1.5x slower,
for seconds to minutes at a time.  Between ten 25 s runs of one
workload, the median unit time varied by 7-17% (quartile spread over
median).  A fixed calibration chunk timed in between the iterations
slows down with them: scaled by it, the unit time varied by 3-9%.

So every run also times calibration chunks: numpy pair distances over
300 points and a Python loop of 3x3 matrix products, the mix of work a
fold iteration does.  The chunk never changes with the library.  Chunks
run at the start of ``Field.evaluate`` calls, at most every
``CALIBRATION_EVERY_S``, and after each batch of set-ups; their time is
taken off every measured time.  A time ``t`` measured alongside
chunks that took ``c`` seconds each is reported as
``t * REFERENCE_CHUNK_S / c``: the time it would take on a host where one
chunk takes ``REFERENCE_CHUNK_S``, about what it took on the host above.
"""

from __future__ import annotations

import time

import numpy as np

from kinefold import kcm

REFERENCE_CHUNK_S = 0.015
CALIBRATION_EVERY_S = 0.25


class HostSpeed:
    """Times calibration chunks; ``factor`` is the run's mean chunk time
    over the reference time."""

    def __init__(self):
        self._points = np.random.default_rng(0).uniform(0.0, 20.0, (300, 3))
        a = np.radians(0.5)
        self._rotation = np.array([[1.0, 0.0, 0.0],
                                   [0.0, np.cos(a), -np.sin(a)],
                                   [0.0, np.sin(a), np.cos(a)]])
        self.chunks: list[float] = []

    def calibrate(self) -> float:
        """Runs one chunk; returns its time over the reference time."""
        pts = self._points
        t0 = time.perf_counter()
        for _ in range(3):
            diff = pts[:, None, :] - pts[None, :, :]
            d2 = np.einsum("ijk,ijk->ij", diff, diff)
            i, j = np.nonzero(d2 < 25.0)
            np.bincount(i, weights=d2[i, j], minlength=len(pts))
            m = np.eye(3)
            for _ in range(200):
                m = m @ self._rotation
        self.chunks.append(time.perf_counter() - t0)
        return self.chunks[-1] / REFERENCE_CHUNK_S

    def factor(self) -> float:
        return sum(self.chunks) / len(self.chunks) / REFERENCE_CHUNK_S


class CalibrationHook:
    """Runs a calibration chunk inside ``Field.evaluate`` calls, at most
    every ``CALIBRATION_EVERY_S``, for the life of a ``with`` block.
    ``chunk_s`` is the chunk time spent inside the block, to be taken off
    the wall time measured around it."""

    def __init__(self, host: HostSpeed):
        self.host = host
        self.chunk_s = 0.0
        self._last = time.perf_counter()

    def __enter__(self):
        self.chunk_s = 0.0
        # a library without Field.evaluate runs no chunks during the
        # solve; the chunks after each set-up batch still give the factor
        self._original = original = getattr(kcm.Field, "evaluate", None)
        if original is None:
            return self

        def hooked(*args, **kwargs):
            t0 = time.perf_counter()
            if t0 - self._last >= CALIBRATION_EVERY_S:
                self.host.calibrate()
                self._last = time.perf_counter()
                self.chunk_s += self._last - t0
            return original(*args, **kwargs)

        kcm.Field.evaluate = hooked
        return self

    def __exit__(self, *exc):
        if self._original is not None:
            kcm.Field.evaluate = self._original
        return False

"""Wall-clock timing corrected for the host's drifting speed.

On the shared 2-core host this benchmark was built on, the same Python
work runs up to 30% slower for tens of seconds at a time (other tenants;
process CPU time drifts with wall time, so it is no escape).  The
runner therefore times a fixed piece of calibration work around and
during every timed interval, and restates the interval at the reference
speed:

    t_ref = t * CALIBRATION_REF_S / median(piece times)

The median keeps a stall of a fraction of a second inside one piece from
moving the result.  ``CALIBRATION_REF_S`` is the piece's typical time on
that host (2 vCPU Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6, one BLAS
thread), so reference seconds read close to wall seconds there.  Raw
wall times are kept too and printed to stderr.
"""
from __future__ import annotations

import signal
import time

import numpy as np

CALIBRATION_REF_S = 0.034
SAMPLE_EVERY_S = 1.0


def calibrate():
    """Times of five calibration pieces, run back to back."""
    return [_piece() for _ in range(5)]


def _piece():
    """Time one piece of calibration work: small-array numpy calls and
    scalar Python, like the solvers' inner loops, then repeated
    matrix-vector products.  The matrix is 320 kB, far below the
    program's own footprint, so the calibration leaves the peak RSS
    alone."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4))
    A = A + A.T
    B = rng.standard_normal((200, 200))
    x = rng.standard_normal(200)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1200):
        v = A @ np.array([1.0, float(i % 7), 2.0, 3.0])
        acc += float(v @ v) ** 0.5
        acc += sum(float(w) * 0.5 for w in np.linalg.eigvalsh(A + (i * 1e-6) * np.eye(4)))
    for _ in range(900):
        x = B @ x
        x /= np.linalg.norm(x)
    return time.perf_counter() - t0


def at_reference_speed(seconds, pieces):
    return seconds * CALIBRATION_REF_S / float(np.median(pieces))


class PassTimer:
    """Times one pass.  With ``sample``, a SIGALRM handler also times one
    calibration piece every ``SAMPLE_EVERY_S`` seconds, and the
    handler's own time is taken out of ``wall``.  Traced passes do not
    sample: the pieces would land inside the program's spans."""

    def __init__(self, sample):
        self.sample = sample
        self.pieces: list[float] = []
        self.wall = self._spent = self._t0 = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.pieces.append(_piece())
        # re-armed only now, so a slow piece never overlaps the next one
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        self._spent += time.perf_counter() - t0

    def __enter__(self):
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.wall = time.perf_counter() - self._t0 - self._spent

"""Host-speed correction for the benchmark's end-to-end times.

On a shared machine the speed of a fixed piece of pure-Python work drifts
by 20 % and more within tens of seconds, and steps by a third within one
second.  So every timed region is sampled: fixed reference work runs at
both ends of the region and, from an interval timer, every
``SAMPLE_INTERVAL_S`` while it runs.  The region's time, less the time spent
sampling, times ``REFERENCE_S`` over the mean sample, reads as seconds on a
machine where the reference work takes ``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import Counter

import numpy as np

# The reference work mixes what the workloads spend their time on: Counter
# copies and updates over tuple keys with a generator test and a keyed sort,
# and QR, SVD, inverse and products of small complex matrices.  Under host
# contention it slows much like that code does, better than a plain integer
# loop or either half alone (README, "Host-speed correction").
REFERENCE_KEYS = tuple(tuple(range(i, i + 3)) for i in range(60))
_rng = np.random.default_rng(0)
REFERENCE_H = _rng.standard_normal((3, 10)) + 1j * _rng.standard_normal((3, 10))
REFERENCE_Z = _rng.standard_normal((3, 3)) + 1j * _rng.standard_normal((3, 3))
REFERENCE_ROUNDS = 12
# bound now, before a traced pass patches numpy.linalg, so that samples taken
# during a traced pass never show up as spans
_qr, _svd, _inv = np.linalg.qr, np.linalg.svd, np.linalg.inv
# the median of reference_seconds() over 1000 calls on the 2-core machine of
# the README's numbers; single calls ranged from 1.3 to 6.8 ms
REFERENCE_S = 0.0022
SAMPLE_INTERVAL_S = 0.1


def reference_seconds() -> float:
    """Seconds for a fixed piece of Python and small-matrix numpy work."""
    start = time.perf_counter()
    base = Counter(REFERENCE_KEYS)
    for r in range(REFERENCE_ROUNDS):
        counts = base.copy()
        counts[REFERENCE_KEYS[r]] += 1
        total = sum(counts.values())
        all(v + total - len(k) > 0 for k, v in counts.items())
        sorted(counts, key=lambda k: (counts[k], k))
        q, rmat = _qr(REFERENCE_Z)
        q = q * (np.diag(rmat) / np.abs(np.diag(rmat)))
        stacked = np.vstack([q[:, :2].conj().T @ REFERENCE_H, q[:, :1].conj().T @ REFERENCE_H])
        beams = _svd(stacked)[2][3:].conj().T[:, :2]
        inverse = _inv(q[:, :2].conj().T @ REFERENCE_H @ beams)
        np.sum(np.abs(inverse) ** 2, axis=1)
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the reference work around and during measured regions, and
    keeps a clock that stands still while it samples."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sampling_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def clock(self) -> float:
        """Seconds that exclude every sample taken so far."""
        return time.perf_counter() - self.sampling_s

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(reference_seconds())
        self.sampling_s += time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def measure(self, fn, *args):
        """``fn(*args)`` and its seconds, the time spent sampling excluded."""
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = self.clock()
        try:
            result = fn(*args)
        finally:
            elapsed = self.clock() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.sample()
        return result, elapsed

    def scale(self) -> float:
        """``REFERENCE_S`` over the mean sample since the last call."""
        factor = REFERENCE_S / statistics.fmean(self.samples)
        self.samples.clear()
        return factor

"""Speed probe: measures how fast the CPU the benchmark runs on is right now.

On a shared machine the speed of CPU-bound code drifts with neighbouring
load: the same pass can take 0.6x to 1.5x its median within a minute,
and the two CPUs drift independently of each other.  A timing taken as
it stands then measures the neighbours as much as the program.

The probe is a fixed kernel of a few milliseconds that lives in the
benchmark, not in the program, so no change to the program moves its
nominal time.  It mixes what the program's layers do: small-array numpy
calls in an interpreted loop, and gather, scatter (``np.add.at``) and
axis moves on a 24^3 array.  :class:`SpeedSampler` runs it from a
``SIGALRM`` handler every ``interval`` seconds of wall time, in the
timed process itself and so on the CPU that runs the program at that
moment.  :meth:`SpeedSampler.normalized` turns a measured interval into
seconds at nominal speed: the time between probes is divided by the
local slowdown (median probe time of the nearest probes over
:data:`PROBE_NOMINAL_S`), and the probes' own time is left out.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median probe time on the reference machine (two shared cores of an
# Intel Xeon, Python 3.11, numpy 2.4); normalised times are seconds at
# that speed.  Changing it rescales every normalised figure.
PROBE_NOMINAL_S = 2.5e-3

_rng = np.random.default_rng(0)
_A = _rng.random((64, 64))
_IDX = _rng.integers(0, 63, 64)
_W = _rng.random(64)
_X = _rng.random((24, 24, 24))
_SHIFT = np.minimum(np.arange(24) + 1, 23)
_WX = _rng.random(24)


def probe() -> float:
    """Run the fixed kernel once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(40):
        b = _A.take(_IDX, axis=0) * _W[:, None]
        b += _A[:, ::-1]
        acc += float(b.sum())
        s = 0
        for j in range(40):
            s += j * k
    cube = np.zeros_like(_X)
    for axis in range(3):
        v = np.moveaxis(_X, axis, 0).reshape(24, -1)
        out = np.zeros_like(v)
        out[1:] = 0.3 * v[:-1]
        out += _WX[:, None] * v[_SHIFT]
        np.add.at(out, _SHIFT, 0.5 * v)
        cube += np.moveaxis(out.reshape(_X.shape), 0, axis)
    return time.perf_counter() - t0


class SpeedSampler:
    """Runs :func:`probe` every `interval` seconds while active.

    Each probe is recorded as (start, duration).  Use as a context
    manager; :meth:`sample` probes at once (the timer's probes are
    skipped while it runs) and returns the time it ended.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self._busy = False
        self._previous = None

    def _handler(self, signum, frame):
        if not self._busy:
            self.sample()

    def sample(self) -> float:
        self._busy = True
        try:
            t0 = time.perf_counter()
            self.samples.append((t0, probe()))
            return time.perf_counter()
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def probe_time(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] spent in probes."""
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def slowdown(self, t0: float, t1: float) -> float:
        """Median time of the probes in and around [t0, t1] over the nominal one."""
        starts = [s for s, _ in self.samples]
        first = next(i for i, s in enumerate(starts) if s >= t0)
        last = next(i for i, s in enumerate(starts) if s >= t1)
        window = [d for _, d in self.samples[max(0, first - 1):last + 1]]
        return statistics.median(window) / PROBE_NOMINAL_S

    def normalized(self, t0: float, t1: float) -> float:
        """Seconds at nominal speed of the work done in [t0, t1].

        [t0, t1] must start where a probe ended and be followed by a
        probe (see :meth:`sample`).  Each gap between probes is divided
        by the median slowdown of the four probes around it.
        """
        starts = [s for s, _ in self.samples]
        durations = [d for _, d in self.samples]
        first = next(i for i, s in enumerate(starts) if s >= t0)
        total, gap_start = 0.0, t0
        for k in range(first, len(starts)):
            gap_end = min(starts[k], t1)
            local = statistics.median(durations[max(0, k - 2):k + 2]) / PROBE_NOMINAL_S
            total += (gap_end - gap_start) / local
            if starts[k] >= t1:
                break
            gap_start = starts[k] + durations[k]
        return total

"""Reference-speed clock: takes the host's CPU-speed drift out of timings.

On a shared 2-vCPU host the same pure-Python work runs up to 40% faster or
slower from one second to the next, so raw seconds of two runs cannot be
compared within a 25% bound.  While a worker runs, a fixed probe (exact
``Fraction`` arithmetic, the kind of work qweyl's exact layers do) runs
from a ``SIGALRM`` handler every ``INTERVAL_S`` of wall time and its
duration is recorded.  An interval between two raw ``perf_counter`` stamps
is then converted to *reference seconds*: each stretch between probes is
scaled by ``PROBE_REF_S`` over the local probe duration, and the probes'
own time is left out.  A run on a host as fast as the reference host reads
the same in both clocks.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
# median probe duration on the reference host (2 vCPU, Python 3.11)
PROBE_REF_S = 3.4e-4
SMOOTH = 5   # probes in the running median that estimates the local speed


def _probe():
    x = Fraction(1, 3)
    for i in range(40):
        x = (x * Fraction(i + 1, i + 2) + Fraction(1, 7)) / 2
    return x


class SpeedClock:
    """Samples the probe while running; converts raw stamps afterwards."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def _tick(self, *_):
        t0 = time.perf_counter()
        _probe()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def converter(self):
        """Return ``ref(t)``: reference seconds elapsed from the first probe
        to raw stamp ``t`` (scalar or numpy array) inside the sampled span."""
        import numpy as np

        durs = self.durations
        half = SMOOTH // 2
        local = [statistics.median(durs[max(0, i - half):i + half + 1])
                 for i in range(len(durs))]
        knots_t, knots_w = [], []
        w = 0.0
        for i, (start, dur) in enumerate(zip(self.starts, durs)):
            if i:
                gap = start - (self.starts[i - 1] + durs[i - 1])
                w += gap * PROBE_REF_S / ((local[i - 1] + local[i]) / 2)
            knots_t += [start, start + dur]
            knots_w += [w, w]
        xp = np.asarray(knots_t)
        fp = np.asarray(knots_w)

        def ref(t):
            out = np.interp(t, xp, fp)
            return float(out) if np.ndim(out) == 0 else out

        return ref

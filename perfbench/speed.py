"""Host speed probe, so that CPU times taken at different moments compare.

The benchmark's host is shared: the same work takes between about 0.6 and
1.2 times its usual CPU time, in spells of a few seconds to minutes, and
each virtual core has its own spells.  ``run.py`` therefore pins itself and
every child to one core, and while a child runs it times ``probe()`` on
that core every ``PROBE_EVERY_S``.  The probe is a fixed sparse product
of bivariate polynomials with ``Fraction`` coefficients -- the same kind of
dict, tuple and rational work the library does, written here so that no
change to the library can change it.

A CPU time ``cpu_s`` taken between ``t0`` and ``t1`` is reported at the
reference speed as ``cpu_s * speed(t0, t1)``: the mean, over the probes
near that interval, of ``REF_PROBE_S`` divided by the probe's CPU time.
On a slow spell the probe slows with the work, and the two cancel.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction as Fr

#: the probe's CPU time at the reference speed: its usual median on a
#: 2-vCPU Intel Xeon at 2.0 GHz with Python 3.11.7
REF_PROBE_S = 0.0030
PROBE_EVERY_S = 0.1
#: probes this close to an interval's ends count towards its speed
WINDOW_S = 1.0

_A = {(i, j): Fr(i + 2 * j + 1, j + 2) for i in range(4) for j in range(3)}
_B = {(j, i): Fr(3 * i - j, i + 1) for i in range(4) for j in range(3)}


def _mul(a: dict, b: dict) -> dict:
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            key = (i + k, j + l)
            v = out.get(key)
            out[key] = x * y if v is None else v + x * y
    return out


def probe() -> float:
    """CPU seconds of one run of the fixed reference work."""
    c0 = time.process_time()
    p = _A
    for _ in range(2):
        p = {e: c for e, c in _mul(p, _B).items() if e[0] < 6 and e[1] < 6}
    return time.process_time() - c0


class SpeedLog:
    """Probe samples ``(perf_counter time, relative speed)`` of one run."""

    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []
        self.next_at = 0.0
        for _ in range(20):   # warm the probe's code and allocator
            probe()

    def sample(self) -> None:
        """Time the probe if ``PROBE_EVERY_S`` has passed since the last."""
        now = time.perf_counter()
        if now >= self.next_at:
            self.speeds.append(REF_PROBE_S / probe())
            self.times.append(now)
            self.next_at = now + PROBE_EVERY_S

    def speed(self, t0: float, t1: float) -> float:
        """Mean relative speed of the probes within ``WINDOW_S`` of
        ``[t0, t1]``, or of the nearest probe if none is."""
        if not self.times:
            raise ValueError("no probe samples")
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if lo < hi:
            return statistics.fmean(self.speeds[lo:hi])
        i = min(lo, len(self.times) - 1)
        if i and self.times[i] - t1 > t0 - self.times[i - 1]:
            i -= 1
        return self.speeds[i]

    def median_probe_s(self) -> float:
        return REF_PROBE_S / statistics.median(self.speeds)

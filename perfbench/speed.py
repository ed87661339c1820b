"""A speed meter that runs beside the timed work, in the same process.

The shared 2-vCPU machines this benchmark runs on change how fast a vCPU
executes from one stretch of tens of milliseconds to the next: the same pure
Python loop takes 1x or ~1.5-2x its fastest time, and runs spend anywhere
from most to hardly any of their time in the fast state. User CPU time grows
with wall time, so the vCPU runs slower rather than waiting. One vCPU's state
says little about the other's, and within one vCPU a state persists for some
10-100 ms.

`SpeedMeter` takes a sample every `INTERVAL_S` of wall time from a SIGALRM
handler in the timed process itself: it runs a small fixed pure-Python probe
twice (the first run warms the caches after whatever ran before it) and times
the second run. An operation's net time (wall time minus the time the handler
took) is scaled by the mean of `REFERENCE_S / probe time` over the samples
taken during it and the one on each side of it. The result is the time the
operation would have taken if the machine had been in the state in which the
probe takes `REFERENCE_S`, the fast state of the machine this was tuned on.
A change in the program moves it; a change in the machine's speed does not.

For a child process (the CLI workload), the parent and its children are kept
on one vCPU, so the parent's samples measure the vCPU the child runs on.
"""

from __future__ import annotations

import os
import signal
from math import gcd
from time import perf_counter

INTERVAL_S = 0.005
# the probe's time in the fast state of a 2-vCPU Intel Xeon 2.0 GHz KVM
# guest, Python 3.11.7: a fixed scale, so that scaled times read as times
REFERENCE_S = 38e-6


# the probe does not import fractions: the set-up it times includes that import
_RATIONALS = [(i, 7 + i) for i in range(1, 13)]


class _Slot:
    __slots__ = ("v",)

    def __init__(self, v: int) -> None:
        self.v = v


def _add(x: int, y: int = 1) -> int:
    return x + y


def _probe() -> int:
    """A fixed mix of interpreter work, ~38 us in total on the fast state:
    integer arithmetic and dict stores, a sum of rationals reduced by gcd,
    allocation of small tuples, strings and a dict, and calls with object
    creation. Each kind slows by its own factor when the machine slows; the
    mix follows the workloads' own slow-down more closely than any one kind."""
    s = 0
    d = {}
    for i in range(100):
        s += (i * 2654435761) % 1009
        d[i & 63] = s
    n, m = 0, 1
    for a, b in _RATIONALS:
        n, m = n * b + a * m, m * b
        g = gcd(n, m)
        n, m = n // g, m // g
    pairs = [(i, str(i)) for i in range(60)]
    d = {b: a for a, b in pairs}
    for i in range(40):
        s = _add(s, _Slot(i).v)
    return s + len(d) + m


class SpeedMeter:
    def __init__(self) -> None:
        self.probes: list[float] = []  # seconds taken by the timed probe of each sample
        self.spent = 0.0  # seconds spent in the handler so far
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that arrived while a sample ran
            return
        self._busy = True
        t0 = perf_counter()
        _probe()
        t1 = perf_counter()
        _probe()
        t2 = perf_counter()
        self.probes.append(t2 - t1)
        self.spent += t2 - t0
        self._busy = False

    def start(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def clock(self) -> float:
        """Seconds, like perf_counter, but without the time the samples took."""
        return perf_counter() - self.spent

    def settle(self) -> None:
        """Wait for the next sample, the one after the work just timed."""
        target = self.mark() + 1
        while self.mark() < target:
            signal.pause()

    def mark(self) -> int:
        return len(self.probes)

    def factor(self, first: int, last: int) -> float:
        """Scale for work during which samples first..last-1 were taken: the
        mean speed, relative to the reference, over those samples and the
        nearest one on each side. Read it once the next sample exists."""
        around = self.probes[max(0, first - 1) : last + 1]
        return sum(REFERENCE_S / p for p in around) / len(around)


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts, on one vCPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

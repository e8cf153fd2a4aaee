"""Timing that corrects for the host's speed at the moment of measurement.

On a shared host the speed of one core can change by a factor of two
within seconds, so wall time alone cannot tell a slower program from a
busier machine.  While a `Pace` runs, a timer signal interrupts the
benchmark every `PERIOD_S` seconds and times a fixed pure-Python kernel
(`kernel`) on the same thread, which shares the core with the program at
that moment.  Each stretch of program time between two samples is then
scaled by ``NOMINAL_S / kernel time`` nearby, which gives *paced
seconds*: the time the work would have taken on a core that runs the
kernel in `NOMINAL_S`.  The handler's own time is left out.

The kernel uses no matshare code, so a change to the program cannot
change it.
"""

from __future__ import annotations

import bisect
import operator
import signal
import statistics
from time import perf_counter

#: time between two samples of the kernel
PERIOD_S = 0.02
#: the kernel's time on the nominal core, about its time between the
#: program's steps on a quiet two-vCPU VM with CPython 3.11
NOMINAL_S = 0.0013
#: chains of small products in one kernel run
REPEAT = 4
#: samples on each side whose median gives the kernel time near a stretch
SMOOTH = 2


class _Square:
    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(row) for row in rows)


def _product(a: _Square, b: _Square) -> _Square:
    cols = list(zip(*b.rows))
    return _Square(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in a.rows)


def _eliminate(m: _Square) -> int:
    """Fraction-free Gaussian elimination with exact division; returns the
    determinant."""
    a = [list(row) for row in m.rows]
    previous = 1
    for k in range(len(a) - 1):
        pivot, pivot_row = a[k][k], a[k]
        for row in a[k + 1:]:
            factor = row[k]
            for j in range(k + 1, len(a)):
                row[j] = (row[j] * pivot - factor * pivot_row[j]) // previous
        previous = pivot
    return a[-1][-1]


_SMALL = _Square(
    [((0x9E3779B97F4A7C15 * (3 * i + j + 1)) >> 20) - (1 << 42) for j in range(6)]
    for i in range(6)
)
_WIDE = _Square([pow(3, 900 + 37 * i + 11 * j, 1 << 450) for j in range(6)] for i in range(6))


def kernel() -> int:
    """Fixed work in the style of the program, written out here so that no
    change to matshare can change it.  Its two parts follow the two kinds
    of work the workloads do: chained exact products of small matrices,
    whose entries grow to a few hundred bits (interpreter-bound, like the
    attack search and the command grid), and fraction-free elimination of
    a matrix of 450-bit entries, whose intermediates reach about 2,700
    bits (big-integer-bound, like the exact inverse of a wide ring).  On
    recorded runs, timing both parts together tracked each workload's
    speed better than either part alone."""
    acc = 0
    for _ in range(REPEAT):
        m = _SMALL
        for _ in range(4):
            m = _product(m, _SMALL)
        acc += m.rows[0][0] % 1000003
    return acc + _eliminate(_WIDE) % 1000003


class Pace:
    """Samples the kernel during a timed region and converts wall-clock
    intervals inside it to paced seconds."""

    def __init__(self):
        self.enters: list[float] = []
        self.exits: list[float] = []
        self.kernel_s: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        enter = perf_counter()
        kernel()
        done = perf_counter()
        self.enters.append(enter)
        self.exits.append(done)
        self.kernel_s.append(done - enter)

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _kernel_near(self, i: int) -> float:
        lo, hi = max(0, i - SMOOTH), min(len(self.kernel_s), i + SMOOTH + 1)
        return statistics.median(self.kernel_s[lo:hi])

    def paced(self, start: float, end: float) -> float:
        """Paced seconds of program time between two perf_counter readings
        taken while this `Pace` ran."""
        if not self.kernel_s:
            raise RuntimeError("no kernel sample yet")
        first = bisect.bisect_left(self.enters, start)
        last = bisect.bisect_right(self.exits, end)
        # stretches of program time: start -> first sample, between samples, last -> end
        total, at = 0.0, start
        for i in range(first, last):
            total += (self.enters[i] - at) * NOMINAL_S / self._kernel_near(i)
            at = self.exits[i]
        near = min(last, len(self.kernel_s) - 1)
        total += (end - at) * NOMINAL_S / self._kernel_near(near)
        return total

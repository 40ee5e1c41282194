"""The machine's speed, sampled beside the program's commands.

On a shared 2-core host the same work runs up to twice as fast at some
moments as at others, in states that last from a fraction of a second to
minutes, with no steal time, page faults or context switches to show for
it.  Raw wall times of identical runs then spread by 40-55 % of their median
(interquartile), far past any bound that could catch a regression.

A fixed reference loop that never touches bellbounds slows with the machine
in step with the program.  ``SpeedProbe`` runs it from an interval timer
every ``PERIOD_S`` seconds, between the bytecodes of whatever runs at that
moment, and ``scaled`` turns a command's wall time into its time at
reference speed: the wall time, less the probes that ran inside the
command, times ``REF_S`` over the mean time of the probes during and right
around it.  ``REF_S`` is the loop's time on the 2-core Xeon VM the README's
figures come from, in its fast state, so a scaled time reads as the wall
time the command takes there.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

PERIOD_S = 0.025
REF_S = 1.2e-3  # one reference loop, 2-core Xeon VM in its fast state

_MATRICES = np.random.default_rng(0).standard_normal((64, 4, 4))


def reference_loop() -> None:
    """Exact rational sums and small-array numpy, like the program's own mix."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    for _ in range(20):
        b = _MATRICES @ _MATRICES
        np.sort((b + b.transpose(0, 2, 1)).ravel())


def timed_loops(n: int) -> list[float]:
    """Run the reference loop ``n`` times in a row; return each one's time."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return times


def scale_once(seconds: float, n: int = 20) -> float:
    """``seconds`` just measured, at reference speed by ``n`` loops run now."""
    return seconds * REF_S / statistics.fmean(timed_loops(n))


class SpeedProbe:
    """Runs the reference loop every ``PERIOD_S`` while started."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)

    def start(self) -> None:
        timed_loops(20)  # warm the loop's caches before any is kept
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        """The command that ran from ``t0`` to ``t1``, at reference speed.

        A probe runs between two bytecodes of the main thread, so it lies
        wholly inside or wholly outside a command.  The speed comes from the
        probes inside and the two nearest on either side.
        """
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_right(self.starts, t1)
        inside = sum(self.ends[k] - self.starts[k] for k in range(first, last))
        around = range(max(first - 2, 0), min(last + 2, len(self.starts)))
        if not around:
            raise RuntimeError("no reference loop ran near a command")
        loop_s = statistics.fmean(self.ends[k] - self.starts[k] for k in around)
        return (t1 - t0 - inside) * REF_S / loop_s

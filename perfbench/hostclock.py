"""Host-speed-normalised timing for a shared, drifting host.

On a few cores of a shared host the same pure-Python code runs up to
~1.5x slower for stretches of seconds to minutes, and the minimum over a
run moves with it, so medians over passes do not remove the drift.  The
benchmark therefore times hatlab in *reference seconds*: it measures the
host's speed right around (and, through SIGALRM, every PERIOD_S during)
the timed work with a fixed pure-Python kernel that does not touch hatlab,
and scales each slice of work by ``REFERENCE_KERNEL_S / kernel time``.

A slice is the stretch of work between two consecutive kernel samples;
its scale is the mean of the two samples around it.  The kernel's own
time is left out of the work.  A change to hatlab moves the work and not
the kernel, so it shows in full; a host that is uniformly slower for a
while moves both, and cancels.
"""

from __future__ import annotations

import signal
import time

# The kernel's time on an unloaded core of the 2-vCPU VM the bounds were
# set on; it only fixes the scale, so reference seconds read close to
# seconds there.
REFERENCE_KERNEL_S = 0.0012
PERIOD_S = 0.2


def kernel() -> float:
    """Seconds taken by a fixed integer/list loop (1-2 ms)."""
    t0 = time.perf_counter()
    table = [0] * 4096
    acc = 0
    for i in range(4000):
        k = (i * 2654435761) & 4095
        table[k] += 1
        acc = (acc * 31 + table[k] + (i >> 3)) & 0xFFFFFFFF
    return time.perf_counter() - t0


def speed_sample() -> float:
    """The median of three kernel runs back to back."""
    return sorted(kernel() for _ in range(3))[1]


class HostClock:
    """Accumulates raw and reference seconds of work between samples.

    ``sample()`` ends the current slice; between ``start()`` and
    ``stop()`` a SIGALRM handler also samples every ``period`` seconds,
    so a long call is scaled by the host speed during it rather than
    only at its ends.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.samples: list[float] = []
        self._last: float | None = None
        self._mark = 0.0
        self._busy = False

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            c = speed_sample()
            if self._last is not None:
                work = t0 - self._mark
                self.raw_s += work
                self.ref_s += work * REFERENCE_KERNEL_S / ((self._last + c) / 2)
            self._last = c
            self.samples.append(c)
            self._mark = time.perf_counter()
        finally:
            self._busy = False

    def _on_alarm(self, _signum, _frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self.sample()

    def stop(self) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reading(self) -> tuple[float, float]:
        """(raw, reference) seconds of work so far."""
        return self.raw_s, self.ref_s

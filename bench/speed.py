"""CPU-speed correction for timings taken on a shared host.

On a VM that shares its cores, the speed of a fixed piece of code can swing
by half or more within seconds and drift over minutes, with no steal time
visible to the guest.  A timing in plain seconds then measures the host as
much as the program.  `SpeedProbe` samples the current speed while the
program runs: a timer interrupts the main thread every `INTERVAL_S` seconds
and runs `reference_kernel`, a fixed piece of pure-Python work that uses no
geoshift code.  The kernel's own time is kept out of the measured time, and
the measured time is rescaled to a reference CPU on which the kernel takes
exactly `REFERENCE_S` seconds:

    reference seconds = program seconds x mean(REFERENCE_S / kernel time)

The mean over samples taken at even intervals is the mean speed over the
measured time, so the rescaled figure is the program's work in units that
do not move with the host.  A change to geoshift changes it in full; the
kernel does not depend on geoshift.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import Callable, Optional

REFERENCE_S = 0.002   # the kernel's time on the reference CPU
INTERVAL_S = 0.1      # one speed sample per this much wall time


def reference_kernel() -> int:
    """Fixed interpreter work of about the mix geoshift does: tuple keys,
    dictionary updates, small and multi-word integer arithmetic."""
    table: dict = {}
    x = 1
    for i in range(2000):
        key = (i & 255, i >> 4)
        table[key] = table.get(key, 0) + (x & 1023)
        x = (x * 1103515245 + 12345) & 0xFFFFFFFFFFFF
    big = 3 ** 300
    for i in range(40):
        big = (big * 7 + i) % (1 << 900)
    return len(table) + x + big % 97


class SpeedProbe:
    """Context manager: samples the CPU speed while it is entered.

    `now` is a clock that stops while the kernel runs; `factor` turns a
    span of it into reference seconds.  `pause_hook`, if given, is called
    with each kernel's duration, so a tracer can keep that time out of the
    span that was open when the timer fired.  One sample is taken on entry
    and one on exit, so even a very short block has a speed.
    """

    def __init__(self, pause_hook: Optional[Callable[[float], None]] = None):
        self.pause_hook = pause_hook
        self.samples: list = []
        self.paused = 0.0
        self._previous = None

    def _sample(self, *_):
        t0 = perf_counter()
        reference_kernel()
        d = perf_counter() - t0
        self.samples.append(d)
        self.paused += d
        if self.pause_hook is not None:
            self.pause_hook(d)

    def now(self) -> float:
        return perf_counter() - self.paused

    def factor(self) -> float:
        speeds = [REFERENCE_S / d for d in self.samples]
        return sum(speeds) / len(speeds)

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False


def reference_seconds(fn: Callable[[], object]) -> tuple:
    """Run `fn` once; its time in reference seconds, and its result."""
    with SpeedProbe() as probe:
        t0 = probe.now()
        out = fn()
        elapsed = probe.now() - t0
    return elapsed * probe.factor(), out

"""The reference kernel: a fixed, stdlib-only workload that serves as the
benchmark's unit of time.

Every timed section of a run is divided by the wall time of this kernel,
timed just before and just after the section on the same core, and
multiplied by NOMINAL_KERNEL_S.  A host that runs everything 30% slower for
a while then runs the kernel 30% slower too, and the quotient stays put.
Sections longer than SAMPLE_EVERY_S are also sampled from inside
(ReferenceClock), because the host's speed can change within a second.

The kernel does the kind of work the measured program does in its hot
loops: Fraction arithmetic on small rationals, tuple building and hashing,
and dict updates.  It imports nothing outside the standard library, so no
change to the measured program can move the unit it is measured in.
Changing ROUNDS, the loop body or NOMINAL_KERNEL_S re-defines the unit and
breaks comparison with every earlier run.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

ROUNDS = 50

# Nominal wall time of one kernel call: reference times are expressed at a
# host speed where the kernel takes exactly this long.
NOMINAL_KERNEL_S = 0.001

# (number of distinct keys, checksum) of one kernel call; any edit to the
# loop that changes the work changes this.
EXPECTED_RESULT = (49, 175748)

# Period of the kernel samples taken inside a long timed section.
SAMPLE_EVERY_S = 0.025


def reference_kernel() -> tuple[int, int]:
    """One fixed unit of work; returns a checksum of what it computed."""
    seen: dict[tuple[int, int, int], int] = {}
    acc = Fraction(0)
    checksum = 0
    for i in range(ROUNDS):
        a = Fraction(i % 97 + 1, i % 89 + 2)
        b = Fraction(i % 13 - 6, i % 11 + 1)
        c = a * b + a - b
        acc = (acc + c) / 2
        key = (c.numerator % 1009, c.denominator % 1013, i % 17)
        seen[key] = seen.get(key, 0) + 1
        checksum = (checksum * 31 + acc.numerator % 65521 + seen[key]) % 1_000_003
    return len(seen), checksum


def time_kernel() -> float:
    """Wall seconds of one reference_kernel call."""
    t0 = time.perf_counter()
    result = reference_kernel()
    wall = time.perf_counter() - t0
    if result != EXPECTED_RESULT:
        raise RuntimeError(f"reference kernel computed {result}, not {EXPECTED_RESULT}")
    return wall


class ReferenceClock:
    """Times sections of work in reference seconds.

    While a section runs, SIGALRM interrupts it every SAMPLE_EVERY_S seconds
    to run the kernel in the same thread.  The section's own time excludes
    those kernel runs, and each stretch between two kernel runs is scaled by
    the mean of the two: reference seconds = sum of stretch * NOMINAL_KERNEL_S
    / kernel seconds.
    """

    def __init__(self):
        self.paused = 0.0
        self._samples: list[tuple[float, float]] = []
        self._sampling = False
        self._last_kernel = time_kernel()

    def now(self) -> float:
        """Wall seconds, not counting kernel runs made inside sections."""
        return time.perf_counter() - self.paused

    def _on_alarm(self, signum, frame) -> None:
        if self._sampling:
            return
        self._sampling = True
        at = self.now()
        k = time_kernel()
        self.paused += k
        self._samples.append((at, k))
        self._sampling = False

    def measure(self, fn, *args):
        """(fn(*args), wall seconds, reference seconds, kernel samples)."""
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        t0 = self.now()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            t1 = self.now()
            signal.signal(signal.SIGALRM, previous)
        k1 = time_kernel()
        points = [(t0, self._last_kernel), *self._samples, (t1, k1)]
        ref = sum((b[0] - a[0]) * 2 * NOMINAL_KERNEL_S / (a[1] + b[1])
                  for a, b in zip(points, points[1:]))
        self._last_kernel = k1
        return result, t1 - t0, ref, [k for _, k in points]

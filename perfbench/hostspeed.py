"""How fast the host runs Python right now, from a fixed reference loop.

The benchmark runs on a shared host whose speed drifts: a fixed
pure-Python loop runs at one speed for minutes, then 30-50 % slower for
minutes, in wall and CPU time alike, with no stolen time counted.  A
run that falls in a slow stretch would read as a slower program.  So
the in-process workloads time :func:`reference_loop` after each
operation (and every run after each set-up and at its end), and report
each host time scaled to the *reference host*, the one on which the
loop takes :data:`NOMINAL_S`.

The loop is what the simulator's kernels spend their time on: method
calls on slotted objects, attribute reads and writes and integer
arithmetic.  Timed after each operation on a 2-vCPU VM, over 160 s in
which `tlm-speed`'s build + run slowed by half, the operation's time
over the loop's held within ±3 % from one 20 s window to the next; a
Table-1 regeneration's, within ±10 % as it sped up by a third.  A loop
that allocates objects and fills a dict slowed down by more than the
program did, and tracked it worse.  The collector is off while the
loop runs.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

#: Seconds :func:`reference_loop` takes on the reference host.
NOMINAL_S = 0.005

#: Calls one :func:`reference_loop` makes.
LOOP_CALLS = 40000

#: Untimed loops before the timed one: a CPU that was idle runs the
#: first few milliseconds of work slower.
WARMUP_LOOPS = 2


class _Counter:
    __slots__ = ("count", "step")

    def __init__(self) -> None:
        self.count = 0
        self.step = 3

    def tick(self, value: int) -> int:
        self.count = (self.count + value * self.step) & 0xFFFF
        return self.count


def reference_loop() -> int:
    """A fixed amount of interpreter work."""
    counter = _Counter()
    total = 0
    for index in range(LOOP_CALLS):
        total += counter.tick(index)
    return total


class HostSpeed:
    """Reference-loop timings of one run."""

    def __init__(self) -> None:
        self.times: List[float] = []
        #: Wall seconds spent in :meth:`sample`, warm-up included.
        self.spent = 0.0

    def sample(self, warm: bool = False) -> float:
        """Time the loop once and return that time.

        With *warm*, for a CPU that may have been idle, untimed loops
        run first.
        """
        begin = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(WARMUP_LOOPS if warm else 0):
                reference_loop()
            start = time.perf_counter()
            reference_loop()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append(end - start)
        self.spent += end - begin
        return self.times[-1]

    def scale(self) -> float:
        """Reference-host seconds per host second over this run."""
        return NOMINAL_S / statistics.median(self.times)

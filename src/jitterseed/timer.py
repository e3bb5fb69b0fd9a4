"""Monotonic tick sources and empirical resolution probing.

Runtime deltas are only as trustworthy as the clock behind them, so the clock
is pinned down first: which source, is it monotonic, and what is the smallest
advance it can actually show us. That last number comes from measurement, not
from what the platform advertises.
"""

from __future__ import annotations

import time
from .errors import StuckClockError
from .record import Record

PROBE_READS = 1000

# How long (host wall clock, from the start of a probe) a clock may show no
# step before the probe declares it stuck.
ADVANCE_TIMEOUT_S = 1.0


class TimerSpec(Record):
    """What a probe learned about a clock."""

    name: str
    resolution_ns: int
    monotonic: bool


class PerfCounterClock:
    """The platform's highest-resolution monotonic counter, in integer ns.

    Deliberately a wall-clock-style counter rather than process CPU time:
    scheduler preemption and platform interference must show up in the deltas,
    because that interference is part of what gets harvested.
    """

    name = "perf_counter_ns"
    # CPython's perf_counter is monotonic on every platform it supports.
    monotonic = True

    def now_ticks(self) -> int:
        return time.perf_counter_ns()


class SimulatedClock(PerfCounterClock):
    """A real clock quantized to a fixed tick, for reproducing coarse timers.

    Every reading is floored to a multiple of ``quantum_ns``, so consecutive
    distinct readings differ by exactly one quantum. A 16 ms quantum recreates
    the classic low-resolution-timer failure mode on any host.
    """

    def __init__(self, quantum_ns: int):
        if quantum_ns < 1:
            raise ValueError("quantum_ns must be >= 1")
        self.quantum_ns = quantum_ns
        self.name = f"simulated-{quantum_ns}ns"

    def now_ticks(self) -> int:
        return (super().now_ticks() // self.quantum_ns) * self.quantum_ns


def default_clock() -> PerfCounterClock:
    return PerfCounterClock()


def probe_resolution(clock=None) -> TimerSpec:
    """Measure the smallest positive step the clock will show.

    Reads the clock in rounds of ``PROBE_READS`` back-to-back reads and keeps
    the minimum positive delta, stopping after the first round that saw one.
    A fine clock steps within the first round; a coarse one may sit still
    through several, so a 16 ms quantum reports 16 ms after about one tick
    instead of masquerading as a dead clock. A clock that has not moved once
    ``ADVANCE_TIMEOUT_S`` of host wall time has passed since the probe began
    raises StuckClockError.

    Probing is timing-sensitive; run it single-threaded.
    """
    if clock is None:
        clock = default_clock()

    deadline = time.monotonic() + ADVANCE_TIMEOUT_S
    best = None
    prev = clock.now_ticks()
    while True:
        for _ in range(PROBE_READS):
            cur = clock.now_ticks()
            delta = cur - prev
            if delta > 0 and (best is None or delta < best):
                best = delta
            prev = cur
        if best is not None:
            return TimerSpec(name=clock.name, resolution_ns=best, monotonic=clock.monotonic)
        if time.monotonic() >= deadline:
            raise StuckClockError(
                f"{clock.name} never advanced across {PROBE_READS} read pairs "
                f"and {ADVANCE_TIMEOUT_S:.3f}s of waiting"
            )

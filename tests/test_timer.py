import itertools
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FrozenClock, ScriptedClock
from jitterseed.errors import StuckClockError
from jitterseed import timer
from jitterseed.timer import (
    PerfCounterClock,
    SimulatedClock,
    TimerSpec,
    default_clock,
    probe_resolution,
)

QUANTUM_16MS = 16_000_000


def test_now_ticks_monotonic_and_nonnegative():
    clock = default_clock()
    readings = [clock.now_ticks() for _ in range(1000)]
    assert all(t >= 0 for t in readings)
    assert all(b >= a for a, b in zip(readings, readings[1:]))


def test_now_ticks_tracks_wall_clock():
    # Busy-loop ~1 ms against an independent clock; the tick delta must
    # account for at least 0.9 ms of it.
    clock = default_clock()
    t1 = clock.now_ticks()
    deadline = time.monotonic_ns() + 1_000_000
    while time.monotonic_ns() < deadline:
        pass
    t2 = clock.now_ticks()
    assert t2 - t1 >= 900_000


def test_probe_real_clock_fields():
    spec = probe_resolution()
    assert spec == TimerSpec(name="perf_counter_ns", resolution_ns=spec.resolution_ns, monotonic=True)
    assert spec.resolution_ns >= 1
    # Probing a ns-class clock back-to-back cannot plausibly exceed 1 ms.
    assert spec.resolution_ns < 1_000_000


def test_probe_simulated_quantum_reported():
    clock = SimulatedClock(QUANTUM_16MS)
    spec = probe_resolution(clock)
    assert QUANTUM_16MS <= spec.resolution_ns <= 2 * QUANTUM_16MS
    assert spec.resolution_ns % QUANTUM_16MS == 0
    assert spec.name == f"simulated-{QUANTUM_16MS}ns"


def test_probe_simulated_is_repeatable():
    clock = SimulatedClock(QUANTUM_16MS)
    first = probe_resolution(clock)
    second = probe_resolution(clock)
    assert first.resolution_ns == second.resolution_ns


def test_probe_frozen_clock_raises_stuck(monkeypatch):
    monkeypatch.setattr(timer, "ADVANCE_TIMEOUT_S", 0.05)
    with pytest.raises(StuckClockError):
        probe_resolution(FrozenClock())


class ReadLimitedFrozenClock(FrozenClock):
    """A frozen clock that fails the test once read more than `reads` times."""

    def __init__(self, reads):
        super().__init__()
        self.reads_left = reads

    def now_ticks(self):
        assert self.reads_left > 0, "the probe kept reading a stuck clock"
        self.reads_left -= 1
        return super().now_ticks()


def test_probe_gives_up_on_a_stuck_clock_once_its_deadline_passes(monkeypatch):
    # Host time jumps a whole timeout per reading, so the deadline has passed
    # after the first round; a probe that went on reading would fail on the
    # clock's read limit at once instead of spinning.
    instants = itertools.count(0.0, timer.ADVANCE_TIMEOUT_S)
    monkeypatch.setattr(timer, "time", types.SimpleNamespace(monotonic=lambda: next(instants)))
    with pytest.raises(StuckClockError):
        probe_resolution(ReadLimitedFrozenClock(2 * timer.PROBE_READS + 1))


class CountingClock:
    """Steps by quantum once every `every` reads, at most `steps` times, and
    counts its reads."""

    name = "counting"
    monotonic = True

    def __init__(self, quantum, every, steps=None):
        self.quantum, self.every, self.steps = quantum, every, steps
        self.reads = 0

    def now_ticks(self):
        ticks = self.reads // self.every
        if self.steps is not None:
            ticks = min(ticks, self.steps)
        self.reads += 1
        return ticks * self.quantum


def test_probe_stops_at_the_first_round_with_a_step():
    # A clock slower than a round of reads is reported within the round that
    # sees its first step, not after three waited-for steps.
    clock = CountingClock(QUANTUM_16MS, every=2500)
    assert probe_resolution(clock).resolution_ns == QUANTUM_16MS
    assert clock.reads <= 3 * timer.PROBE_READS + 1


def test_probe_returns_a_single_step_without_waiting(monkeypatch):
    # A clock that steps once in the second round and never again is not
    # waited on until the deadline.
    monkeypatch.setattr(timer, "ADVANCE_TIMEOUT_S", 0.2)
    clock = CountingClock(QUANTUM_16MS, every=1500, steps=1)
    assert probe_resolution(clock).resolution_ns == QUANTUM_16MS
    assert clock.reads <= 2 * timer.PROBE_READS + 1


def test_probe_reports_the_smallest_step():
    # Steps of 5, 3 and 7 ns, then none: the resolution is the smallest.
    assert probe_resolution(ScriptedClock([0, 5, 8, 15])).resolution_ns == 3


def test_simulated_clock_quantizes_and_stays_monotonic():
    clock = SimulatedClock(1000)
    readings = [clock.now_ticks() for _ in range(200)]
    assert all(value % 1000 == 0 for value in readings)
    assert all(b >= a for a, b in zip(readings, readings[1:]))


@settings(max_examples=50, deadline=None)
@given(quantum=st.integers(min_value=1, max_value=10**7))
def test_simulated_clock_readings_are_quantum_multiples(quantum):
    clock = SimulatedClock(quantum)
    assert all(clock.now_ticks() % quantum == 0 for _ in range(5))


def test_simulated_clock_rejects_bad_quantum():
    with pytest.raises(ValueError):
        SimulatedClock(0)


def test_perf_counter_clock_is_monotonic_flagged():
    assert PerfCounterClock().monotonic is True

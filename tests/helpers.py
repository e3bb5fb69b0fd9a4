"""Shared test clocks, trace builders and readers for the analysis files."""

import csv

from jitterseed.analysis import HISTOGRAM_CSV_HEADER
from jitterseed.collector import CollectorConfig, TimingTrace
from jitterseed.timer import TimerSpec

TEST_TIMER = TimerSpec(name="test", resolution_ns=1, monotonic=True)


class FrozenClock:
    """Never advances; the stuck-clock case."""

    name = "frozen"
    monotonic = True

    def __init__(self, value: int = 12345):
        self.value = value

    def now_ticks(self) -> int:
        return self.value


class SteppingClock:
    """Advances by a fixed step on every read; fully deterministic."""

    name = "stepping"
    monotonic = True

    def __init__(self, step: int = 100, start: int = 0):
        self.step = step
        self._now = start

    def now_ticks(self) -> int:
        value = self._now
        self._now += self.step
        return value


class ScriptedClock:
    """Plays back an explicit list of readings, then repeats the last one."""

    name = "scripted"

    def __init__(self, readings, monotonic: bool = True):
        self._readings = list(readings)
        self._index = 0
        self.monotonic = monotonic

    def now_ticks(self) -> int:
        if self._index < len(self._readings):
            value = self._readings[self._index]
            self._index += 1
            return value
        return self._readings[-1]


def delta_script(deltas, gap: int = 7, start: int = 1000) -> list[int]:
    """Readings for one collection run whose i-th delta is deltas[i]."""
    readings = []
    now = start
    for delta in deltas:
        readings.append(now)
        readings.append(now + delta)
        now += delta + gap
    return readings


def make_trace(samples, stretch: int = 100, scale: int = 250, timer: TimerSpec = TEST_TIMER) -> TimingTrace:
    samples = tuple(samples)
    config = CollectorConfig(samples=max(len(samples), 1), scale=scale, stretch=stretch)
    return TimingTrace(samples=samples, config=config, timer=timer)


def read_value_log(path) -> list[int]:
    with open(path) as handle:
        return [int(line) for line in handle if line.strip()]


def read_histogram_csv(path) -> dict[int, int]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or tuple(rows[0]) != HISTOGRAM_CSV_HEADER:
        raise ValueError(f"unexpected histogram CSV header: {rows[:1]}")
    return {int(value): int(count) for value, count in rows[1:]}

"""Scale autotuning: grow the workload until the timer can tell runs apart.

On a coarse timer most deltas collapse onto the same few tick values, which
the distinct-count floor catches. Rather than modeling resolution, the tuner
just measures: probe the current scale three times, take the median distinct
count, and double the scale until the floor is met or the time budget says
the platform cannot get there.
"""

from __future__ import annotations

import enum
import time

from .collector import (
    DEFAULT_BUDGET_NS,
    CollectorConfig,
    collect_trace,
    distinct_count,
    projected_ns,
)
from .conditioner import DEFAULT_QUALITY_FLOOR
from .record import Record
from .timer import TimerSpec, default_clock, probe_resolution

PROBE_RUNS_PER_SCALE = 3


class TuneVerdict(str, enum.Enum):
    TUNED = "tuned"
    ALREADY_ADEQUATE = "already-adequate"
    UNATTAINABLE = "unattainable"


class TuneResult(Record):
    config: CollectorConfig
    probe_runs: int
    achieved_distinct: int
    elapsed_ns: int
    # A str enum, so JSON writes the verdict as its value.
    verdict: TuneVerdict


def tune(
    base: CollectorConfig,
    clock=None,
    timer_spec: TimerSpec | None = None,
    floor: int = DEFAULT_QUALITY_FLOOR,
    budget_ns: int = DEFAULT_BUDGET_NS,
) -> TuneResult:
    """Find the smallest power-of-two multiple of base.scale meeting `floor`.

    Never lowers the scale. Before each probe triple the projected cost is
    checked against the remaining budget; if it does not fit, the verdict is
    `unattainable` and no seed pipeline consulting this result may proceed.
    A floor above base.samples is `unattainable` without a probe run.
    """
    if floor < 2:
        raise ValueError(f"floor must be >= 2, got {floor}")
    if budget_ns <= 0:
        raise ValueError(f"budget_ns must be positive, got {budget_ns}")
    if clock is None:
        clock = default_clock()

    started = time.perf_counter_ns()
    if timer_spec is None:
        timer_spec = probe_resolution(clock)

    candidate = base
    probed = base
    probe_runs = 0
    achieved = 0
    verdict = TuneVerdict.UNATTAINABLE

    # A trace of N samples holds at most N distinct deltas, and the scale is
    # all that tuning raises.
    while floor <= base.samples:
        elapsed = time.perf_counter_ns() - started
        if elapsed + PROBE_RUNS_PER_SCALE * projected_ns(candidate) > budget_ns:
            break
        distincts = sorted(
            distinct_count(collect_trace(candidate, clock, timer_spec))
            for _ in range(PROBE_RUNS_PER_SCALE)
        )
        probe_runs += PROBE_RUNS_PER_SCALE
        achieved = distincts[PROBE_RUNS_PER_SCALE // 2]
        probed = candidate
        if achieved >= floor:
            verdict = (
                TuneVerdict.ALREADY_ADEQUATE
                if candidate.scale == base.scale
                else TuneVerdict.TUNED
            )
            break
        candidate = candidate._replace(scale=candidate.scale * 2)

    return TuneResult(
        config=probed,
        probe_runs=probe_runs,
        achieved_distinct=achieved,
        elapsed_ns=time.perf_counter_ns() - started,
        verdict=verdict,
    )

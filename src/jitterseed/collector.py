"""Benchmark kernel and timing-trace collection.

One sample = time one run of the addition kernel. The kernel itself is
deterministic and boring on purpose; the entropy is the irreproducibility of
how long each run takes on a real machine. The ordered deltas are the raw
material, so nothing here may sort, dedup, or drop them, zeros included.
"""

from __future__ import annotations

import threading
import time

from .errors import NonMonotonicTimerError
from .record import Record
from .timer import TimerSpec, default_clock, probe_resolution

# The kernel's two addends.
VAL1 = 2585566630
VAL2 = 576722363

# Collection is timing-sensitive; serialize it within the process.
_collection_lock = threading.Lock()

# Time a seed run may take: probe, tuning, collection and digest chain.
DEFAULT_BUDGET_NS = 5_000_000_000


class CollectorConfig(Record):
    """Knobs for one collection run.

    scale is the per-sample workload repeat count; it is the lever that
    stretches runtimes past the timer's granularity on coarse clocks. A value
    out of range raises ValueError when the config is built or replaced.
    """

    samples: int = 100
    scale: int = 250
    stretch: int = 100

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        if self.stretch < 0:
            raise ValueError(f"stretch must be >= 0, got {self.stretch}")


class TimingTrace(Record, hidden=("samples",)):
    """Ordered runtime deltas from one collection run, plus provenance.

    samples holds integer-nanosecond deltas in collection order. Immutable so
    traces can be shared across analysis code without defensive copies. The
    repr leaves the deltas out.
    """

    samples: tuple[int, ...]
    config: CollectorConfig
    timer: TimerSpec


def kernel(val1: int, val2: int, scale: int) -> int:
    """Run the addition workload `scale` times; return the live result.

    The return value is data-dependent on the loop so the work cannot be
    reasoned away as dead code.
    """
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    a1 = 0
    for _ in range(scale):
        a1 = val1 + val2
    return a1


def collect_trace(
    config: CollectorConfig,
    clock=None,
    timer_spec: TimerSpec | None = None,
) -> TimingTrace:
    """Time `config.samples` kernel runs and return the ordered deltas.

    Probes the clock first unless a TimerSpec is supplied. Holds the
    process-wide collection lock for the whole timed section.
    """
    if clock is None:
        clock = default_clock()
    if timer_spec is None:
        timer_spec = probe_resolution(clock)
    if not clock.monotonic or not timer_spec.monotonic:
        raise NonMonotonicTimerError(f"{clock.name} is not monotonic")

    with _collection_lock:
        # Buffer allocated in full before the timed region.
        deltas = [0] * config.samples
        read = clock.now_ticks
        val1, val2, scale = VAL1, VAL2, config.scale
        for i in range(config.samples):
            t0 = read()
            kernel(val1, val2, scale)
            t1 = read()
            delta = t1 - t0
            if delta < 0:
                raise NonMonotonicTimerError(
                    f"{clock.name} stepped backwards by {-delta} ns"
                )
            deltas[i] = delta

    return TimingTrace(samples=tuple(deltas), config=config, timer=timer_spec)


def projected_ns(config: CollectorConfig) -> int:
    """Estimate collect_trace(config)'s time without running its scale: the
    fastest of three kernel calls at the default scale (one preempted call
    cannot inflate it), scaled up to samples × scale kernel iterations.
    """
    per_call = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        kernel(VAL1, VAL2, CollectorConfig.scale)
        per_call.append(time.perf_counter_ns() - t0)
    return min(per_call) * config.samples * config.scale // CollectorConfig.scale


def distinct_count(trace: TimingTrace) -> int:
    """Number of distinct delta values; the collection-quality yardstick."""
    return len(set(trace.samples))

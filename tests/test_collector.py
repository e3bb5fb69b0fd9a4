import io
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import TEST_TIMER, ScriptedClock, SteppingClock, delta_script, make_trace
from jitterseed import collector
from jitterseed.analysis import write_value_log
from jitterseed.collector import (
    CollectorConfig,
    collect_trace,
    distinct_count,
    kernel,
    projected_ns,
)
from jitterseed.errors import NonMonotonicTimerError
from jitterseed.timer import SimulatedClock, TimerSpec


def test_kernel_single_addition_checksum():
    assert kernel(2585566630, 576722363, 1) == 3162288993


def test_kernel_result_is_data_dependent():
    assert kernel(1, 2, 5) == 3
    assert kernel(10, 20, 1) == 30


def test_kernel_rejects_zero_scale():
    with pytest.raises(ValueError):
        kernel(1, 2, 0)


def test_config_defaults():
    config = CollectorConfig()
    assert (collector.VAL1, collector.VAL2) == (2585566630, 576722363)
    assert (config.samples, config.scale, config.stretch) == (100, 250, 100)


@pytest.mark.parametrize(
    "bad", [dict(samples=0), dict(scale=0), dict(stretch=-1), dict(samples=-5)]
)
def test_collect_trace_rejects_invalid_config(bad):
    with pytest.raises(ValueError, match=r"^(samples|scale|stretch) must be >= [01], got -?\d+$"):
        collect_trace(CollectorConfig(**bad), SteppingClock(), TEST_TIMER)


def test_collect_trace_shape_and_provenance():
    config = CollectorConfig(samples=25, scale=10)
    trace = collect_trace(config)
    assert len(trace.samples) == 25
    assert all(isinstance(d, int) and d >= 0 for d in trace.samples)
    assert trace.config == config
    assert trace.timer.monotonic


def test_projection_never_runs_the_kernel_past_the_default_scale(monkeypatch):
    scales = []

    def recording_kernel(val1, val2, scale):
        scales.append(scale)
        return kernel(val1, val2, scale)

    monkeypatch.setattr(collector, "kernel", recording_kernel)
    huge = projected_ns(CollectorConfig(scale=10**20))
    assert scales and max(scales) <= CollectorConfig.scale
    # The estimate grows with samples × scale.
    assert projected_ns(CollectorConfig(samples=10)) < huge
    assert projected_ns(CollectorConfig(samples=10**20, scale=10**20)) > huge


def test_collect_trace_preserves_collection_order():
    deltas = [300, 100, 200, 100, 500]
    clock = ScriptedClock(delta_script(deltas))
    config = CollectorConfig(samples=5, scale=1)
    trace = collect_trace(config, clock, TEST_TIMER)
    assert trace.samples == tuple(deltas)  # never sorted or deduped


def test_collect_trace_keeps_zero_deltas():
    clock = ScriptedClock(delta_script([0, 0, 7, 0]))
    trace = collect_trace(CollectorConfig(samples=4, scale=1), clock, TEST_TIMER)
    assert trace.samples == (0, 0, 7, 0)


def test_value_log_to_open_handle_keeps_collection_order():
    clock = ScriptedClock(delta_script([42, 0, 42, 9000]))
    trace = collect_trace(CollectorConfig(samples=4, scale=1), clock, TEST_TIMER)
    log = io.StringIO()
    write_value_log(trace, log)
    assert not log.closed  # a handle sink is the caller's to close
    assert log.getvalue() == "42\n0\n42\n9000\n"


def test_collect_trace_rejects_non_monotonic_clock():
    clock = ScriptedClock([0, 10, 20, 30], monotonic=False)
    with pytest.raises(NonMonotonicTimerError):
        collect_trace(CollectorConfig(samples=2, scale=1), clock, TEST_TIMER)


def test_collect_trace_detects_backwards_step():
    clock = ScriptedClock([1000, 900, 2000, 2100])  # claims monotonic, lies
    with pytest.raises(NonMonotonicTimerError):
        collect_trace(CollectorConfig(samples=2, scale=1), clock, TEST_TIMER)


def test_collect_trace_detects_a_one_nanosecond_step_back():
    clock = ScriptedClock([1000, 999, 2000, 2100])
    with pytest.raises(NonMonotonicTimerError, match="stepped backwards by 1 ns"):
        collect_trace(CollectorConfig(samples=2, scale=1), clock, TEST_TIMER)


def test_collect_trace_refuses_a_spec_that_says_non_monotonic():
    # A library caller may hand in a spec from another probe; the spec's own
    # verdict is trusted even when the clock claims to be monotonic.
    spec = TimerSpec(name="stepping", resolution_ns=100, monotonic=False)
    with pytest.raises(NonMonotonicTimerError):
        collect_trace(CollectorConfig(samples=2, scale=1), SteppingClock(), spec)


def test_trace_is_immutable():
    trace = collect_trace(CollectorConfig(samples=3, scale=1), SteppingClock(), TEST_TIMER)
    with pytest.raises(AttributeError):
        trace.samples = (1, 2, 3)


def test_distinct_count_examples():
    assert distinct_count(make_trace([5, 5, 7])) == 2
    assert distinct_count(make_trace([])) == 0
    trace = collect_trace(CollectorConfig(samples=3, scale=1), SteppingClock(step=5), TEST_TIMER)
    assert distinct_count(trace) == 1  # stepping clock gives identical deltas


def test_coarse_clock_collapses_deltas():
    # 16 ms quantum vs microsecond kernel runs: nearly everything collapses
    # onto duplicate values (the motivating failure mode).
    clock = SimulatedClock(16_000_000)
    trace = collect_trace(CollectorConfig(), clock, TEST_TIMER)
    from collections import Counter

    counts = Counter(trace.samples)
    collapsed = sum(1 for d in trace.samples if d == 0 or counts[d] > 1)
    assert collapsed / len(trace.samples) > 0.9


def test_collection_lock_serializes_threads():
    entries = 0
    active = 0
    max_active = 0
    guard = threading.Lock()

    class WatchedLock:
        # Same exclusion as the real lock, but counts entries and peak
        # concurrency, so skipping the lock entirely is also caught.
        def __init__(self):
            self._inner = threading.Lock()

        def __enter__(self):
            nonlocal entries, active, max_active
            self._inner.acquire()
            with guard:
                entries += 1
                active += 1
                max_active = max(max_active, active)

        def __exit__(self, *exc):
            nonlocal active
            with guard:
                active -= 1
            self._inner.release()

    original = collector._collection_lock
    collector._collection_lock = WatchedLock()
    try:
        config = CollectorConfig(samples=50, scale=5)
        threads = [
            threading.Thread(target=collect_trace, args=(config,))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        collector._collection_lock = original
    assert entries == 4, "collect_trace must hold the collection lock"
    assert max_active == 1


@settings(max_examples=25, deadline=None)
@given(samples=st.integers(min_value=1, max_value=20), scale=st.integers(min_value=1, max_value=8))
def test_trace_length_always_matches_config(samples, scale):
    trace = collect_trace(CollectorConfig(samples=samples, scale=scale))
    assert len(trace.samples) == samples

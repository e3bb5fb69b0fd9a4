import json

import pytest

from helpers import TEST_TIMER, FrozenClock, ScriptedClock, delta_script
from jitterseed.autotune import (
    DEFAULT_BUDGET_NS,
    PROBE_RUNS_PER_SCALE,
    TuneResult,
    TuneVerdict,
    tune,
)
from jitterseed.collector import CollectorConfig
from jitterseed.conditioner import DEFAULT_QUALITY_FLOOR
from jitterseed.errors import StuckClockError
from jitterseed import autotune, timer
from jitterseed.timer import SimulatedClock


def test_validation_rejects_bad_arguments():
    base = CollectorConfig()
    with pytest.raises(ValueError):
        tune(base, floor=1)
    with pytest.raises(ValueError):
        tune(base, budget_ns=0)
    with pytest.raises(ValueError, match=r"^scale must be >= 1, got 0$"):
        tune(CollectorConfig(scale=0))


def test_defaults():
    assert DEFAULT_QUALITY_FLOOR == 20
    assert DEFAULT_BUDGET_NS == 5_000_000_000
    assert PROBE_RUNS_PER_SCALE == 3


def test_scripted_doubling_reaches_floor():
    # Three probes at the base scale all see one distinct delta, then three
    # probes at the doubled scale see four.
    script = delta_script([5, 5, 5, 5] * 3 + [1, 2, 3, 4] * 3)
    base = CollectorConfig(samples=4, scale=8)
    result = tune(
        base,
        clock=ScriptedClock(script),
        timer_spec=TEST_TIMER,
        floor=3,
        budget_ns=60_000_000_000,
    )
    assert result.verdict is TuneVerdict.TUNED
    assert result.config.scale == 16
    assert result.config == CollectorConfig(samples=4, scale=16)
    assert result.probe_runs == 2 * PROBE_RUNS_PER_SCALE
    assert result.achieved_distinct == 4


def test_scripted_adequate_base_scale_untouched():
    script = delta_script([10, 20, 30, 40] * 3)
    base = CollectorConfig(samples=4, scale=8)
    result = tune(
        base,
        clock=ScriptedClock(script),
        timer_spec=TEST_TIMER,
        floor=4,
        budget_ns=60_000_000_000,
    )
    assert result.verdict is TuneVerdict.ALREADY_ADEQUATE
    assert result.config == base
    assert result.probe_runs == PROBE_RUNS_PER_SCALE
    assert result.achieved_distinct == 4


def test_median_not_best_of_three():
    # Distincts per probe: 4, 1, 1 -> median 1, so one lucky probe must not
    # satisfy the floor.
    script = delta_script(
        [1, 2, 3, 4] + [5, 5, 5, 5] + [6, 6, 6, 6] + [7, 8, 9, 11] * 3
    )
    base = CollectorConfig(samples=4, scale=8)
    result = tune(
        base,
        clock=ScriptedClock(script),
        timer_spec=TEST_TIMER,
        floor=2,
        budget_ns=60_000_000_000,
    )
    assert result.verdict is TuneVerdict.TUNED
    assert result.config.scale == 16


def test_tiny_budget_is_unattainable_without_probing():
    result = tune(
        CollectorConfig(),
        clock=ScriptedClock(delta_script([1, 2])),
        timer_spec=TEST_TIMER,
        floor=2,
        budget_ns=1,
    )
    assert result.verdict is TuneVerdict.UNATTAINABLE
    assert result.probe_runs == 0
    assert result.achieved_distinct == 0
    assert result.config == CollectorConfig()


def test_budget_must_hold_every_probe_run_of_a_scale(monkeypatch):
    # One run fits the budget and three do not, so no run starts.
    per_run_ns = lambda config: 4_000_000_000 * config.scale // CollectorConfig.scale
    monkeypatch.setattr(autotune, "projected_ns", per_run_ns)
    result = tune(
        CollectorConfig(),
        clock=ScriptedClock(delta_script([1, 2])),
        timer_spec=TEST_TIMER,
        floor=2,
        budget_ns=10_000_000_000,
    )
    assert result.verdict is TuneVerdict.UNATTAINABLE
    assert result.probe_runs == 0


def test_scale_too_large_to_probe_is_unattainable_without_probing():
    result = tune(
        CollectorConfig(scale=10**20),
        clock=ScriptedClock(delta_script([1, 2])),
        timer_spec=TEST_TIMER,
        budget_ns=DEFAULT_BUDGET_NS,
    )
    assert result.verdict is TuneVerdict.UNATTAINABLE
    assert result.probe_runs == 0


def test_coarse_simulated_clock_unattainable():
    base = CollectorConfig()
    verdicts = []
    for _ in range(2):
        clock = SimulatedClock(16_000_000)
        result = tune(
            base,
            clock=clock,
            timer_spec=TEST_TIMER,
            floor=20,
            budget_ns=50_000_000,
        )
        verdicts.append(result.verdict)
        assert result.achieved_distinct < 20
        assert result.config.scale >= base.scale
    assert verdicts == [TuneVerdict.UNATTAINABLE, TuneVerdict.UNATTAINABLE]


def test_real_clock_meets_default_floor():
    result = tune(CollectorConfig(), floor=DEFAULT_QUALITY_FLOOR)
    assert result.verdict in (TuneVerdict.TUNED, TuneVerdict.ALREADY_ADEQUATE)
    assert result.achieved_distinct >= DEFAULT_QUALITY_FLOOR
    assert result.config.scale >= CollectorConfig().scale
    assert result.probe_runs % PROBE_RUNS_PER_SCALE == 0
    assert 0 < result.elapsed_ns


def test_stuck_clock_surfaces_during_probe(monkeypatch):
    monkeypatch.setattr(timer, "ADVANCE_TIMEOUT_S", 0.05)
    with pytest.raises(StuckClockError):
        tune(CollectorConfig(), clock=FrozenClock())


def test_result_serializes_to_json():
    result = TuneResult(
        config=CollectorConfig(samples=4, scale=16),
        probe_runs=6,
        achieved_distinct=4,
        elapsed_ns=1234,
        verdict=TuneVerdict.TUNED,
    )
    payload = json.loads(json.dumps(result._asdict()))
    assert payload["verdict"] == "tuned"
    assert payload["config"]["scale"] == 16
    assert payload["probe_runs"] == 6

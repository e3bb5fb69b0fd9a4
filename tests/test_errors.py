"""The library's error contract: a bad argument raises ValueError, and a
SeederError means a run with valid arguments failed (the CLI's exit 1)."""


import pytest

import jitterseed
from helpers import make_trace
from jitterseed import errors
from jitterseed.analysis import (
    aggregate_distribution,
    estimate_worst_case_entropy,
    merge_reports,
    top_k_overlap,
)
from jitterseed.autotune import tune
from jitterseed.cli import seed_run
from jitterseed.collector import VAL1, VAL2, CollectorConfig, kernel
from jitterseed.conditioner import condition, mk0_stream, serialize_trace
from jitterseed.timer import SimulatedClock

TWO_VALUES = aggregate_distribution([[1, 1, 2]])

BAD_CALLS = {
    "SimulatedClock(0)": lambda: SimulatedClock(0),
    "kernel(scale=0)": lambda: kernel(VAL1, VAL2, 0),
    "CollectorConfig(samples=0)": lambda: CollectorConfig(samples=0),
    "CollectorConfig(scale=0)": lambda: CollectorConfig(scale=0),
    "CollectorConfig(stretch=-1)": lambda: CollectorConfig(stretch=-1),
    "replace(CollectorConfig(), scale=0)": lambda: CollectorConfig()._replace(scale=0),
    "serialize_trace(empty)": lambda: serialize_trace(make_trace([])),
    "condition(quality_floor=-1)": lambda: condition(
        make_trace(range(1, 101)), quality_floor=-1
    ),
    "condition(delta=-1)": lambda: condition(make_trace([-1, *range(1, 30)])),
    "condition(delta=2**64)": lambda: condition(make_trace([2**64, *range(1, 30)])),
    "mk0_stream(0)": lambda: mk0_stream(0),
    "tune(floor=1)": lambda: tune(CollectorConfig(), floor=1),
    "tune(budget_ns=0)": lambda: tune(CollectorConfig(), budget_ns=0),
    "seed_run(floor=19)": lambda: seed_run(CollectorConfig(), floor=19),
    "seed_run(budget_ns=0)": lambda: seed_run(CollectorConfig(), budget_ns=0),
    "aggregate_distribution([])": lambda: aggregate_distribution([]),
    "aggregate_distribution(k=0)": lambda: aggregate_distribution([[1, 2]], k=0),
    "merge_reports([])": lambda: merge_reports([]),
    "merge_reports(k=0)": lambda: merge_reports([TWO_VALUES], k=0),
    "top_k_overlap(k=0)": lambda: top_k_overlap(TWO_VALUES, TWO_VALUES, k=0),
    "top_k_overlap(k>unique)": lambda: top_k_overlap(TWO_VALUES, TWO_VALUES, k=3),
    "estimate_worst_case_entropy(n_top=0)": lambda: estimate_worst_case_entropy(0, 100),
    "estimate_worst_case_entropy(samples=0)": lambda: estimate_worst_case_entropy(20, 0),
    # Through the package, which loads the battery (and numpy) on first use.
    "fips_block_tests(short block)": lambda: jitterseed.fips_block_tests(b"x"),
    "fips_pass_rate(blocks=0)": lambda: jitterseed.fips_pass_rate(b"", blocks=0),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_argument_raises_value_error(call):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert not isinstance(excinfo.value, errors.SeederError)


def test_seeder_errors_are_the_failures_a_run_can_have():
    failures = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type)
        and issubclass(value, errors.SeederError)
        and value is not errors.SeederError
    }
    assert failures == {
        "StuckClockError",
        "NonMonotonicTimerError",
        "InsufficientEntropyError",
        "ShortStreamError",
    }

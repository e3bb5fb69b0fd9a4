"""Seed CSPRNGs from CPU benchmark timing jitter.

Pipeline: probe the timer, time repeated runs of a fixed addition kernel,
demand a floor of distinct runtime deltas (fail-closed), then hash and
stretch the trace into seed bytes. Analysis tooling and a built-in
FIPS 140-2 battery keep the source honest.
"""

from .analysis import (
    DistributionReport,
    EntropyEstimate,
    aggregate_distribution,
    estimate_worst_case_entropy,
    meets_seed_standard,
    merge_reports,
    top_k_overlap,
)
from .autotune import TuneResult, TuneVerdict, tune
from .collector import CollectorConfig, TimingTrace, collect_trace, distinct_count, kernel
from .conditioner import SeedOutput, condition, mk0_stream, serialize_trace
from .errors import (
    EmptyInputError,
    EmptyTraceError,
    InsufficientEntropyError,
    InsufficientValuesError,
    InvalidConfigError,
    NonMonotonicTimerError,
    SeederError,
    ShortStreamError,
    StuckClockError,
    UnsupportedClockError,
    WrongBlockSizeError,
)
from .timer import TimerSpec, probe_resolution

__version__ = "0.1.0"

# The battery's names load its module, and numpy with it, on first use.
_FIPS_NAMES = frozenset(
    ("FipsBlockResult", "FipsRateReport", "fips_block_tests", "fips_pass_rate")
)


def __getattr__(name: str):
    if name in _FIPS_NAMES:
        from . import fips

        return getattr(fips, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CollectorConfig",
    "DistributionReport",
    "EmptyInputError",
    "EmptyTraceError",
    "EntropyEstimate",
    "FipsBlockResult",
    "FipsRateReport",
    "InsufficientEntropyError",
    "InsufficientValuesError",
    "InvalidConfigError",
    "NonMonotonicTimerError",
    "SeedOutput",
    "SeederError",
    "ShortStreamError",
    "StuckClockError",
    "TimerSpec",
    "TimingTrace",
    "TuneResult",
    "TuneVerdict",
    "UnsupportedClockError",
    "WrongBlockSizeError",
    "aggregate_distribution",
    "collect_trace",
    "condition",
    "distinct_count",
    "estimate_worst_case_entropy",
    "fips_block_tests",
    "fips_pass_rate",
    "kernel",
    "meets_seed_standard",
    "merge_reports",
    "mk0_stream",
    "probe_resolution",
    "serialize_trace",
    "top_k_overlap",
    "tune",
]

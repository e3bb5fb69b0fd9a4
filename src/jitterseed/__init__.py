"""Seed CSPRNGs from CPU benchmark timing jitter.

Pipeline: probe the timer, time repeated runs of a fixed addition kernel,
demand a floor of distinct runtime deltas (fail-closed), then hash and
stretch the trace into seed bytes. Analysis tooling and a built-in
FIPS 140-2 battery keep the source honest.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, under the module that defines it. A name loads its module
# on first use, so `import jitterseed` alone imports no submodule, and only
# the battery's names bring in numpy.
_NAMES = {
    "analysis": (
        "DistributionReport",
        "EntropyEstimate",
        "aggregate_distribution",
        "estimate_worst_case_entropy",
        "meets_seed_standard",
        "merge_reports",
        "top_k_overlap",
    ),
    "autotune": ("TuneResult", "TuneVerdict", "tune"),
    "collector": ("CollectorConfig", "TimingTrace", "collect_trace", "distinct_count", "kernel"),
    "conditioner": ("SeedOutput", "condition", "mk0_stream", "serialize_trace"),
    "errors": (
        "InsufficientEntropyError",
        "NonMonotonicTimerError",
        "SeederError",
        "ShortStreamError",
        "StuckClockError",
    ),
    "fips": ("FipsBlockResult", "FipsRateReport", "fips_block_tests", "fips_pass_rate"),
    "timer": ("TimerSpec", "probe_resolution"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(name for names in _NAMES.values() for name in names)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

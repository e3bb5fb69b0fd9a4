"""Distribution analysis and worst-case entropy accounting.

Exact-value histograms over runtime deltas (no binning: at nanosecond
granularity every distinct value is evidence), cross-run stability measures,
and the deliberately pessimistic key-space model: an adversary who already
knows the n_top hottest values still faces n_top^samples orderings.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter

from .record import Record

DEFAULT_TOP_K = 20

# Ratio of most- to least-common top-k count at or below which a distribution
# is called flat. Informational only; nothing gates on it.
FLAT_RATIO_MAX = 3.0

SEED_STANDARD_BITS = 256

HISTOGRAM_CSV_HEADER = ("value_ns", "count")


class DistributionReport(Record):
    """Exact-value histogram over one or more traces, plus summary stats."""

    histogram: dict[int, int]
    total_samples: int
    unique_values: int
    top_k: list[tuple[int, int]]
    flatness_ratio: float
    runs: int

    @property
    def flat(self) -> bool:
        return self.flatness_ratio <= FLAT_RATIO_MAX


class EntropyEstimate(Record):
    """Worst-case key-space size for samples draws over n_top values."""

    n_top: int
    samples: int
    bits: float
    key_space_log10: float


def _samples_of(trace) -> tuple[int, ...]:
    return tuple(getattr(trace, "samples", trace))


def _ranked(histogram: dict[int, int]) -> list[tuple[int, int]]:
    # Count descending, ties broken by ascending value.
    return sorted(histogram.items(), key=lambda item: (-item[1], item[0]))


def _report_from_histogram(
    histogram: Counter, k: int, runs: int, empty: str
) -> DistributionReport:
    """The report on histogram; `empty` is the message when it holds nothing."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not histogram:
        raise ValueError(empty)
    ranked = _ranked(histogram)
    top_k = ranked[: min(k, len(ranked))]
    counts = [count for _, count in top_k]
    return DistributionReport(
        histogram=dict(histogram),
        total_samples=sum(histogram.values()),
        unique_values=len(histogram),
        top_k=top_k,
        flatness_ratio=max(counts) / min(counts),
        runs=runs,
    )


def aggregate_distribution(traces, k: int = DEFAULT_TOP_K) -> DistributionReport:
    """Merge traces into one exact-value histogram with top-k summary."""
    histogram: Counter[int] = Counter()
    runs = 0
    for trace in traces:
        histogram.update(_samples_of(trace))
        runs += 1
    return _report_from_histogram(histogram, k, runs, "need at least one non-empty trace")


def merge_reports(reports, k: int = DEFAULT_TOP_K) -> DistributionReport:
    """Combine reports built from disjoint trace subsets.

    Merging reports is equivalent to aggregating the union of their traces;
    sample counts are conserved exactly.
    """
    merged: Counter[int] = Counter()
    runs = 0
    for report in reports:
        merged.update(report.histogram)
        runs += report.runs
    return _report_from_histogram(merged, k, runs, "need at least one report to merge")


def top_k_overlap(a: DistributionReport, b: DistributionReport, k: int = DEFAULT_TOP_K) -> int:
    """How many of the k most common values two reports share."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for name, report in (("first", a), ("second", b)):
        if report.unique_values < k:
            raise ValueError(f"{name} report has {report.unique_values} unique values, need {k}")
    top_a = {value for value, _ in _ranked(a.histogram)[:k]}
    top_b = {value for value, _ in _ranked(b.histogram)[:k]}
    return len(top_a & top_b)


def estimate_worst_case_entropy(n_top: int, samples: int) -> EntropyEstimate:
    """Key space assuming every draw lands in the n_top hottest values."""
    if n_top < 1:
        raise ValueError(f"n_top must be >= 1, got {n_top}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    return EntropyEstimate(
        n_top=n_top,
        samples=samples,
        bits=samples * math.log2(n_top),
        key_space_log10=samples * math.log10(n_top),
    )


def meets_seed_standard(estimate: EntropyEstimate) -> bool:
    """Does the worst-case key space reach the 256-bit seed standard?"""
    return estimate.bits >= SEED_STANDARD_BITS


def write_value_log(trace, handle) -> None:
    """One decimal delta per line, in collection order, to an open text handle."""
    for value in _samples_of(trace):
        handle.write(f"{value}\n")


def write_histogram_csv(report: DistributionReport, handle) -> None:
    """Full histogram as CSV, rows sorted by count desc then value asc.

    A file handle should be opened with newline="", as the csv module asks.
    """
    writer = csv.writer(handle)
    writer.writerow(HISTOGRAM_CSV_HEADER)
    writer.writerows(_ranked(report.histogram))


def report_document(timer_spec, config, report: DistributionReport) -> dict:
    """Assemble the JSON-ready analysis document.

    The entropy block records the n_top actually used: the model's standard
    20, capped at the number of distinct values really observed.
    """
    n_top = min(DEFAULT_TOP_K, report.unique_values)
    estimate = estimate_worst_case_entropy(n_top, config.samples)
    return {
        "timer": timer_spec._asdict(),
        "config": config._asdict(),
        "distribution": {
            "total_samples": report.total_samples,
            "unique_values": report.unique_values,
            "flatness_ratio": report.flatness_ratio,
            "flat": report.flat,
            "top_k": [[value, count] for value, count in report.top_k],
            "runs": report.runs,
        },
        "entropy": {**estimate._asdict(), "meets_standard": meets_seed_standard(estimate)},
    }


def write_json_report(document: dict, handle) -> None:
    json.dump(document, handle, indent=2)
    handle.write("\n")

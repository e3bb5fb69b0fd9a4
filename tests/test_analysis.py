import csv
import io
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import TEST_TIMER, make_trace, read_histogram_csv, read_value_log
from jitterseed.analysis import (
    DEFAULT_TOP_K,
    FLAT_RATIO_MAX,
    EntropyEstimate,
    aggregate_distribution,
    estimate_worst_case_entropy,
    meets_seed_standard,
    merge_reports,
    report_document,
    top_k_overlap,
    write_histogram_csv,
    write_json_report,
    write_value_log,
)
from jitterseed.collector import CollectorConfig

small_histograms = st.dictionaries(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=50),
    min_size=1,
    max_size=60,
)


def report_from_histogram(histogram, k=DEFAULT_TOP_K):
    samples = [value for value, count in histogram.items() for _ in range(count)]
    return aggregate_distribution([samples], k=k)


def test_aggregate_worked_example():
    report = aggregate_distribution([[1, 1, 2]], k=2)
    assert report.histogram == {1: 2, 2: 1}
    assert report.top_k == [(1, 2), (2, 1)]
    assert report.flatness_ratio == 2.0
    assert report.total_samples == 3
    assert report.unique_values == 2
    assert report.runs == 1


def test_aggregate_accepts_traces():
    report = aggregate_distribution([make_trace([5, 5, 7]), make_trace([7])], k=2)
    assert report.histogram == {5: 2, 7: 2}
    assert report.runs == 2


def test_aggregate_empty_inputs_rejected():
    with pytest.raises(ValueError, match="^need at least one non-empty trace$"):
        aggregate_distribution([])
    with pytest.raises(ValueError, match="^need at least one non-empty trace$"):
        aggregate_distribution([[], []])


def test_aggregate_k_must_be_positive():
    with pytest.raises(ValueError):
        aggregate_distribution([[1]], k=0)


def test_aggregate_negative_k_is_refused_not_sliced_from_the_end():
    # Slicing the ranking by k=-1 would drop its last value instead.
    with pytest.raises(ValueError, match="^k must be >= 1, got -1$"):
        aggregate_distribution([[1, 2, 3]], k=-1)


def test_top_k_tie_break_ascending_value():
    report = aggregate_distribution([[9, 3, 7, 3]], k=3)
    assert report.top_k == [(3, 2), (7, 1), (9, 1)]


def test_top_k_shorter_when_fewer_values():
    report = aggregate_distribution([[1, 1, 1]], k=5)
    assert report.top_k == [(1, 3)]
    assert report.flatness_ratio == 1.0


def test_flat_flag_threshold():
    assert FLAT_RATIO_MAX == 3.0
    flat = aggregate_distribution([[1, 1, 1, 2]], k=2)  # ratio 3.0
    assert flat.flatness_ratio == 3.0
    assert flat.flat
    spiky = aggregate_distribution([[1, 1, 1, 1, 2]], k=2)  # ratio 4.0
    assert not spiky.flat


def test_merge_matches_whole_aggregation():
    rng = random.Random(5)
    traces = [
        [rng.randrange(0, 30) for _ in range(rng.randrange(1, 40))] for _ in range(12)
    ]
    whole = aggregate_distribution(traces, k=10)
    parts = [
        aggregate_distribution(traces[:5], k=10),
        aggregate_distribution(traces[5:9], k=10),
        aggregate_distribution(traces[9:], k=10),
    ]
    merged = merge_reports(parts, k=10)
    assert merged == whole


def test_merge_requires_input():
    with pytest.raises(ValueError, match="^need at least one report to merge$"):
        merge_reports([])


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=80),
    cut=st.integers(min_value=0, max_value=80),
)
def test_merge_conserves_counts(values, cut):
    cut = min(cut, len(values))
    left, right = values[:cut], values[cut:]
    parts = [
        aggregate_distribution([part], k=5) for part in (left, right) if part
    ]
    merged = merge_reports(parts, k=5)
    whole = aggregate_distribution([values], k=5)
    assert merged.histogram == whole.histogram
    assert merged.total_samples == whole.total_samples == len(values)


def test_top_k_overlap_extremes():
    a = report_from_histogram({i: 10 for i in range(20)})
    assert top_k_overlap(a, a, k=20) == 20
    b = report_from_histogram({i + 100: 10 for i in range(20)})
    assert top_k_overlap(a, b, k=20) == 0


def test_top_k_overlap_uses_rank_not_report_k():
    # Reports built with small k still expose full histograms to overlap.
    a = aggregate_distribution([[1, 1, 2, 3]], k=1)
    b = aggregate_distribution([[2, 2, 1, 3]], k=1)
    assert top_k_overlap(a, b, k=3) == 3


def test_top_k_overlap_insufficient_values():
    a = report_from_histogram({1: 5, 2: 3})
    with pytest.raises(ValueError, match="^first report has 2 unique values, need 3$"):
        top_k_overlap(a, a, k=3)


def test_top_k_overlap_k_validation():
    a = report_from_histogram({1: 5})
    with pytest.raises(ValueError):
        top_k_overlap(a, a, k=0)


@settings(max_examples=100, deadline=None)
@given(ha=small_histograms, hb=small_histograms, k=st.integers(min_value=1, max_value=10))
def test_top_k_overlap_symmetric_and_bounded(ha, hb, k):
    a = report_from_histogram(ha)
    b = report_from_histogram(hb)
    if a.unique_values < k or b.unique_values < k:
        return
    forward = top_k_overlap(a, b, k)
    assert forward == top_k_overlap(b, a, k)
    assert 0 <= forward <= k


def test_entropy_reference_values():
    estimate = estimate_worst_case_entropy(20, 100)
    assert estimate.bits == pytest.approx(432.1928094887, abs=1e-6)
    assert estimate.key_space_log10 == pytest.approx(130.1029995664, abs=1e-6)
    assert meets_seed_standard(estimate)


def test_entropy_standard_boundary():
    assert not meets_seed_standard(estimate_worst_case_entropy(20, 59))
    assert meets_seed_standard(estimate_worst_case_entropy(20, 60))
    exactly = EntropyEstimate(n_top=2, samples=256, bits=256.0, key_space_log10=77.06)
    assert meets_seed_standard(exactly)


def test_entropy_validation():
    with pytest.raises(ValueError):
        estimate_worst_case_entropy(0, 100)
    with pytest.raises(ValueError):
        estimate_worst_case_entropy(20, 0)


def test_entropy_validation_names_n_top():
    # log2(0) raises too, but as "math domain error", which names no argument.
    with pytest.raises(ValueError, match="^n_top must be >= 1, got 0$"):
        estimate_worst_case_entropy(0, 100)


@settings(max_examples=100, deadline=None)
@given(
    n_top=st.integers(min_value=2, max_value=1000),
    samples=st.integers(min_value=1, max_value=1000),
)
def test_entropy_monotonic_in_both_arguments(n_top, samples):
    base = estimate_worst_case_entropy(n_top, samples)
    assert estimate_worst_case_entropy(n_top + 1, samples).bits > base.bits
    assert estimate_worst_case_entropy(n_top, samples + 1).bits > base.bits
    assert base.bits == pytest.approx(base.key_space_log10 * math.log2(10))


def test_value_log_round_trip(tmp_path):
    path = tmp_path / "values.log"
    with open(path, "w") as handle:
        write_value_log([17, 0, 99, 17], handle)
    assert path.read_text() == "17\n0\n99\n17\n"
    assert read_value_log(path) == [17, 0, 99, 17]


def test_histogram_csv_format_and_independent_parse(tmp_path):
    report = aggregate_distribution([[5, 5, 5, 2, 2, 9]], k=3)
    path = tmp_path / "hist.csv"
    with open(path, "w", newline="") as handle:
        write_histogram_csv(report, handle)

    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["value_ns", "count"]
    assert rows[1:] == [["5", "3"], ["2", "2"], ["9", "1"]]
    assert read_histogram_csv(path) == report.histogram


def test_report_document_contract_fields():
    report = aggregate_distribution([[1, 1, 2, 3]], k=2)
    config = CollectorConfig(samples=4)
    document = report_document(TEST_TIMER, config, report)
    assert sorted(document) == ["config", "distribution", "entropy", "timer"]
    assert document["timer"]["name"] == "test"
    assert document["config"]["samples"] == 4
    distribution = document["distribution"]
    assert distribution["unique_values"] == 3
    assert distribution["total_samples"] == 4
    assert distribution["flatness_ratio"] == 2.0
    assert distribution["top_k"] == [[1, 2], [2, 1]]
    entropy = document["entropy"]
    # n_top capped at observed distinct values
    assert entropy["n_top"] == 3
    assert entropy["samples"] == 4
    assert entropy["bits"] == pytest.approx(4 * math.log2(3))
    assert entropy["meets_standard"] is False


def test_report_document_json_round_trip():
    report = aggregate_distribution([list(range(25)) * 2], k=5)
    config = CollectorConfig(samples=50)
    document = report_document(TEST_TIMER, config, report)

    buffer = io.StringIO()
    write_json_report(document, buffer)
    parsed = json.loads(buffer.getvalue())
    assert parsed["entropy"]["n_top"] == 20

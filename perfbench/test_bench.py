"""Tests of the benchmark's own arithmetic and failure counting.

Run from the repository root: python3 -m pytest perfbench
"""

import itertools
import sys
import types

import pytest

import run
import spans


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail_percentile(range(1, 101)) == (90, 90.0, 10)
    assert run.tail_percentile([5.0] + list(range(10, 20))) == (5.0, 100 / 11, 10)
    assert run.tail_percentile(range(21, 0, -1)) == (11, 100 * 11 / 21, 10)


def test_tail_of_too_few_samples_is_the_minimum_with_all_others_beyond():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (1.0, 100 / 3, 2)
    assert run.tail_percentile([7.0]) == (7.0, 100.0, 0)


class FailClosedOnce(run.Bench):
    """Runs seed_cli, but its second operation seeds from a 16 ms clock, which
    the CLI refuses with exit code 1."""

    def jitterseed(self, op, parent, args, **kwargs):
        if op.op_id == "seed_cli.1":
            args = [*args, "--simulate-quantum-ns", "16000000"]
        return super().jitterseed(op, parent, args, **kwargs)


def test_forced_nonzero_exit_counts_as_one_failure(tmp_path):
    bench = FailClosedOnce(tmp_path / "work")
    try:
        loop = bench.loop("seed_cli", itertools.repeat(False, 3))
    finally:
        bench.close()
    assert [op.ok for op in loop.ops] == [True, False, True]
    assert "seed exited 1" in loop.ops[1].error
    assert run.failed_ratio(loop.ops) == pytest.approx(1 / 3)


def test_failed_ratio_counts_every_kind_of_failure():
    ops = [types.SimpleNamespace(ok=ok) for ok in (True, False, False, True)]
    assert run.failed_ratio(ops) == 0.5


def _span(id, parent, start, end):
    return {"id": id, "name": f"x.{id}", "parent": parent, "op": "o", "start": start, "end": end}


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    recorded = [
        _span("p", None, 0, 100),
        _span("a", "p", 10, 40),
        _span("b", "p", 30, 60),  # overlaps a, as two piped processes do
        _span("c", "p", 90, 120),  # ends after its parent
        _span("g", "a", 15, 20),
    ]
    assert spans.self_times(recorded) == {"p": 40, "a": 25, "b": 30, "c": 30, "g": 5}


def test_covered_ns_merges_nested_and_disjoint_intervals():
    assert spans.covered_ns(0, 50, [(5, 30), (10, 20), (40, 45)]) == 30
    assert spans.covered_ns(0, 50, []) == 0


def test_wrapped_calls_nest_and_are_restored():
    module = types.ModuleType("fake")
    module.inner = lambda: 1
    module.outer = lambda: module.inner() + 1
    sys.modules["fake_layer"] = module
    tracer = spans.Tracer(op="o", parent="root")
    try:
        with tracer.patched([("fake_layer", "outer", "fake.outer"),
                             ("fake_layer", "inner", "fake.inner")]):
            assert module.outer() == 2
    finally:
        del sys.modules["fake_layer"]
    inner, outer = tracer.spans
    assert (outer["name"], outer["parent"]) == ("fake.outer", "root")
    assert (inner["name"], inner["parent"]) == ("fake.inner", outer["id"])
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert module.outer.__name__ == "<lambda>" and module.inner() == 1

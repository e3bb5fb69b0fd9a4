"""In-memory spans recorded around calls into jitterseed, and self-time math.

A span is a dict with id, name, start, end, parent, op and attrs. Times are
time.perf_counter_ns() readings, which on Linux come from CLOCK_MONOTONIC, so
spans written by the CLI driver processes line up with the benchmark's own.
The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import os
import time
from collections import defaultdict


def _trace_attrs(args, trace):
    samples = trace.samples
    return {
        "samples": len(samples),
        "distinct": len(set(samples)),
        "scale": trace.config.scale,
        "timed_ns": sum(samples),
    }


def _condition_attrs(args, seed):
    trace_bytes = 8 * len(args[0].samples)
    stretch = len(seed.digests) - 1
    return {"bytes_hashed": trace_bytes + stretch * (32 + trace_bytes)}


def _rate_attrs(args, report):
    return {"blocks": report.blocks_tested, "passed": report.blocks_passed}


# Aggregates kept from the result of each wrapped call. Only counts and sums
# leave the call: never a delta, a digest or a seed byte.
ATTRS = {
    "timer.probe_resolution": lambda args, spec: {"resolution_ns": spec.resolution_ns},
    "collector.collect_trace": _trace_attrs,
    "conditioner.condition": _condition_attrs,
    "fips.fips_pass_rate": _rate_attrs,
}


class Tracer:
    """Collects spans in memory; nothing is written until the caller asks."""

    def __init__(self, op=None, parent=None):
        self.spans: list[dict] = []
        self.op = op
        self._stack = [parent]
        self._ids = (f"{os.getpid()}.{n}" for n in itertools.count())

    def _open(self, name):
        record = {"id": next(self._ids), "name": name, "parent": self._stack[-1],
                  "op": self.op, "attrs": {}}
        self._stack.append(record["id"])
        record["start"] = time.perf_counter_ns()
        return record

    def _close(self, record):
        record["end"] = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(record)

    @contextlib.contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrapped(self, name, func):
        attrs = ATTRS.get(name)

        def call(*args, **kwargs):
            record = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(record)
            if attrs is not None:
                record["attrs"] = attrs(args, result)
            return result

        return call

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap each (module name, attribute, span name) for the duration."""
        saved = []
        try:
            for module_name, attr, name in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrapped(name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer(span) -> str:
    return span["name"].split(".", 1)[0]


def covered_ns(start, end, intervals) -> int:
    """Length of [start, end) covered by the union of the given intervals."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[str, int]:
    """Span id -> duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: span["end"]
        - span["start"]
        - covered_ns(span["start"], span["end"], children[span["id"]])
        for span in spans
    }

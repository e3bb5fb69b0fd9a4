#!/usr/bin/env python3
"""jitterseed benchmark: three closed-loop workloads, checked outputs, spans.

Usage (from the repository root):

    python3 perfbench/run.py --workload seed_cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs one operation at a time from this single client process
for --seconds seconds. With --trace 0 it prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced operations, adds a few traced
operations of the other workloads so that every layer is reached, and prints
the per-layer metrics. The last line of standard output is one JSON object.
perfbench/README.md lists the workloads, the metrics and what each should
move.

The program is the source tree under src/ of the directory that holds this
script's parent; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.metadata
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, layer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
SEED_SCALE = 2000
SEED_FILE_BYTES = 32 * 101
STRETCH = 390625
MATERIAL_BYTES = 32 * (STRETCH + 1)
VERIFY_BLOCKS = 5000
MIN_PASS_RATE = 0.997
MK0_COUNT = 400000
# fips verdict on the mk0 stream of MK0_COUNT digests.
MK0_BLOCKS, MK0_PASSED = 5120, 5116
CONTINUOUS_BLOCKS = 1024
TAIL_BEYOND = 10

WORKLOADS = ("seed_cli", "verify_stretch", "battery_mk0")
INPUT = {
    "seed_cli": "one `jitterseed seed --scale 2000 --out FILE` process (3232-byte seed)",
    "verify_stretch": "in-process probe, collect stretch=390625, condition "
    "(12500032 bytes), battery over 5000 blocks",
    "battery_mk0": "`jitterseed mk0 --count 400000 | jitterseed fips - --continuous "
    "--per-block FILE` (12.8 MB, 5120 blocks)",
}
# The workload seed selects nothing: seed_cli and verify_stretch read the
# machine's timing noise, which no seed can choose, and battery_mk0 reads the
# fixed mk0 reference stream.
SEED_NOTE = "the workload seed selects no input (timing noise and the fixed mk0 stream)"

# Traced operations of the other workloads in a --trace 1 run, so that every
# per-layer metric is measured from the workload that reaches the layer.
COMPLEMENT = {
    "seed_cli": (False, True) * 3,
    "verify_stretch": (True,),
    "battery_mk0": (True,),
}

IN_PROCESS_TARGETS = (
    ("jitterseed.timer", "probe_resolution", "timer.probe_resolution"),
    ("jitterseed.collector", "collect_trace", "collector.collect_trace"),
    ("jitterseed.conditioner", "condition", "conditioner.condition"),
    ("jitterseed.fips", "fips_pass_rate", "fips.fips_pass_rate"),
    ("jitterseed.fips", "fips_block_tests", "fips.fips_block_tests"),
)


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


@dataclass
class Op:
    workload: str
    op_id: str
    traced: bool
    latency_ns: int = 0
    ok: bool = False
    error: str = ""
    rss_kb: int = 0
    # (wall_ns, cpu_ns, rss_kb) per CLI process of the operation.
    procs: list = field(default_factory=list)
    span_files: list = field(default_factory=list)


@dataclass
class Loop:
    ops: list
    elapsed_s: float


def tail_percentile(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond). With TAIL_BEYOND or fewer
    samples no percentile qualifies, and the smallest value is returned with
    the count that lies beyond it.
    """
    ordered = sorted(values)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def failed_ratio(ops) -> float:
    return sum(not op.ok for op in ops) / len(ops)


def median(values, default=0.0):
    # Only a run whose operations all failed has nothing to take a median of;
    # its result is marked incorrect.
    return statistics.median(values) if values else default


class Bench:
    def __init__(self, work: Path):
        self.work = work
        self.work.mkdir(parents=True, exist_ok=True)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.log = open(work / "stderr.log", "ab")
        self.tracer = Tracer()
        self.ids = itertools.count()
        self.seed_digests: set[bytes] = set()
        self.csv_digest: str | None = None

    def close(self):
        self.log.close()

    # -- set-up -------------------------------------------------------------

    def setup(self) -> tuple[float, int]:
        """Byte-compile the package and smoke-check the CLI in fresh processes.

        Both run in child processes: a child's peak resident set, as wait4
        reports it, includes the parent's at the moment of the spawn, so this
        process stays small while it measures CLI processes.
        """
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "-f", str(SRC / "jitterseed")],
            env=self.env, stdout=self.log, stderr=self.log, check=True,
        )
        probe = subprocess.run(
            [sys.executable, "-m", "jitterseed", "probe"],
            env=self.env, stdout=subprocess.PIPE, stderr=self.log, check=True,
        )
        elapsed = time.perf_counter() - started
        return elapsed, json.loads(probe.stdout)["resolution_ns"]

    # -- operations ---------------------------------------------------------

    def jitterseed(self, op: Op, parent, args, **kwargs):
        if op.traced:
            spans_file = self.work / f"{op.op_id}.{args[0]}.spans.json"
            op.span_files.append(spans_file)
            argv = [str(HERE / "cli_driver.py"), str(spans_file), op.op_id, parent, *args]
        else:
            argv = ["-m", "jitterseed", *args]
        spawned_ns = time.perf_counter_ns()
        proc = subprocess.Popen([sys.executable, *argv], env=self.env, stderr=self.log, **kwargs)
        proc.spawned_ns = spawned_ns
        return proc

    @staticmethod
    def reap(op: Op, proc) -> int:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter_ns() - proc.spawned_ns
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = round((usage.ru_utime + usage.ru_stime) * 1e9)
        op.procs.append((wall, cpu, usage.ru_maxrss))
        op.rss_kb = max(op.rss_kb, usage.ru_maxrss)
        return proc.returncode

    @contextlib.contextmanager
    def reaped(self, op: Op, procs: list):
        """Reap every started process, killing any left over by an error."""
        try:
            yield
        finally:
            for proc in procs:
                if proc.returncode is None:
                    proc.kill()
                    self.reap(op, proc)

    def seed_cli(self, op: Op, parent):
        out = self.work / f"{op.op_id}.bin"
        procs = []
        with self.reaped(op, procs):
            procs.append(self.jitterseed(
                op, parent, ["seed", "--scale", str(SEED_SCALE), "--out", str(out)],
                stdout=subprocess.DEVNULL,
            ))
            code = self.reap(op, procs[0])
        return code, out

    def check_seed_cli(self, op: Op, outputs):
        code, out = outputs
        if code != 0:
            raise CheckFailed(f"seed exited {code}")
        seed = out.read_bytes()
        out.unlink()
        if len(seed) != SEED_FILE_BYTES:
            raise CheckFailed(f"seed file has {len(seed)} bytes, expected {SEED_FILE_BYTES}")
        digest = hashlib.sha256(seed).digest()
        if digest in self.seed_digests:
            raise CheckFailed("seed repeats an earlier seed of this run")
        self.seed_digests.add(digest)

    def verify_stretch(self, op: Op, parent):
        from jitterseed import collector, conditioner, fips, timer

        patched = self.tracer.patched(IN_PROCESS_TARGETS) if op.traced else contextlib.nullcontext()
        with patched:
            spec = timer.probe_resolution()
            trace = collector.collect_trace(
                collector.CollectorConfig(stretch=STRETCH), timer_spec=spec
            )
            material = conditioner.condition(trace).to_bytes()
            report = fips.fips_pass_rate(material, blocks=VERIFY_BLOCKS, continuous_check=False)
        op.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return len(material), report

    def check_verify_stretch(self, op: Op, outputs):
        size, report = outputs
        if size != MATERIAL_BYTES:
            raise CheckFailed(f"material has {size} bytes, expected {MATERIAL_BYTES}")
        if report.blocks_tested != VERIFY_BLOCKS:
            raise CheckFailed(f"{report.blocks_tested} blocks tested, expected {VERIFY_BLOCKS}")
        if report.pass_rate < MIN_PASS_RATE:
            raise CheckFailed(f"pass rate {report.pass_rate} below {MIN_PASS_RATE}")

    def battery_mk0(self, op: Op, parent):
        csv = self.work / f"{op.op_id}.csv"
        procs = []
        with self.reaped(op, procs):
            mk0 = self.jitterseed(op, parent, ["mk0", "--count", str(MK0_COUNT)],
                                  stdout=subprocess.PIPE)
            procs.append(mk0)
            battery = self.jitterseed(
                op, parent, ["fips", "-", "--continuous", "--per-block", str(csv)],
                stdin=mk0.stdout, stdout=subprocess.PIPE,
            )
            procs.append(battery)
            mk0.stdout.close()
            summary = battery.stdout.read()
            battery.stdout.close()
            codes = [self.reap(op, proc) for proc in procs]
        return codes, summary, csv

    def check_battery_mk0(self, op: Op, outputs):
        codes, summary, csv = outputs
        if codes != [0, 0]:
            raise CheckFailed(f"mk0 | fips exited {codes}")
        fields = dict(item.split("=", 1) for item in summary.decode().split())
        verdict = (int(fields.get("blocks", -1)), int(fields.get("passed", -1)))
        if verdict != (MK0_BLOCKS, MK0_PASSED):
            raise CheckFailed(f"fips printed {summary!r}, expected "
                              f"blocks={MK0_BLOCKS} passed={MK0_PASSED}")
        text = csv.read_bytes()
        csv.unlink()
        digest = hashlib.sha256(text).hexdigest()
        if self.csv_digest is None:
            header, *rows = text.decode().splitlines()
            columns = header.split(",")
            records = [dict(zip(columns, row.split(","))) for row in rows]
            if [int(r["block"]) for r in records] != list(range(MK0_BLOCKS)):
                raise CheckFailed("per-block CSV does not list every block once, in order")
            if sum(int(r["pass"]) for r in records) != MK0_PASSED:
                raise CheckFailed("per-block CSV disagrees with the summary line")
            self.csv_digest = digest
        elif digest != self.csv_digest:
            raise CheckFailed("per-block CSV differs from the first operation's")

    def run_op(self, workload: str, traced: bool) -> Op:
        op = Op(workload, f"{workload}.{next(self.ids)}", traced)
        self.tracer.op = op.op_id
        span = self.tracer.span(f"op.{workload}") if traced else contextlib.nullcontext({"id": None})
        try:
            with span as record:
                started = time.perf_counter_ns()
                outputs = getattr(self, workload)(op, record["id"])
                op.latency_ns = time.perf_counter_ns() - started
            for spans_file in op.span_files:
                with open(spans_file) as handle:
                    self.tracer.spans.extend(json.load(handle))
                spans_file.unlink()
            getattr(self, f"check_{workload}")(op, outputs)
            op.ok = True
        except Exception as exc:  # any failure of one operation is counted, not fatal
            op.error = f"{type(exc).__name__}: {exc}"
            print(f"failed {op.op_id}: {op.error}", file=sys.stderr)
        return op

    def loop(self, workload: str, traced_flags, seconds=None) -> Loop:
        """Closed loop: the next operation starts when the previous one ends."""
        if workload == "verify_stretch":
            importlib.import_module("jitterseed.fips")
        ops = []
        started = time.perf_counter()
        for traced in traced_flags:
            if seconds is not None and time.perf_counter() - started >= seconds:
                break
            ops.append(self.run_op(workload, traced))
        return Loop(ops, time.perf_counter() - started)

    def continuous_extra_ms(self) -> float:
        """Extra cost of continuous_check=True over False on the same bytes."""
        from jitterseed import conditioner, fips

        data = conditioner.mk0_stream(CONTINUOUS_BLOCKS * fips.BLOCK_BYTES // 32)
        times = {True: [], False: []}
        for flag in (True, False, False, True, True, False):
            started = time.perf_counter_ns()
            fips.fips_pass_rate(data, continuous_check=flag)
            times[flag].append(time.perf_counter_ns() - started)
        return (median(times[True]) - median(times[False])) / 1e6


# -- metrics -------------------------------------------------------------------


def host_facts(resolution_ns) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle
                    if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "timer.resolution_ns": resolution_ns,
    }


def end_to_end(loop: Loop, setup_s):
    ok = [op for op in loop.ops if op.ok]
    latencies = [op.latency_ns / 1e6 for op in ok]
    tail, percentile, beyond = tail_percentile(latencies) if latencies else (0.0, 0.0, 0)
    return [
        ("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} set-ups"),
        ("latency_p50_ms", median(latencies), "ms", f"{len(latencies)} operations"),
        ("latency_tail_ms", tail, "ms",
         f"p{percentile:.1f}, {beyond} of {len(latencies)} samples beyond"),
        ("ops_per_s", len(ok) / loop.elapsed_s, "1/s", "closed loop, 1 client"),
        ("peak_rss_mb", median([op.rss_kb / 1024 for op in ok]), "MB",
         "median over operations of the largest process"),
    ]


def per_layer(loops: dict, tracer: Tracer, continuous_ms: float):
    """Per-layer metrics, each from the workload that reaches the layer."""
    home = {op.op_id: op.workload for loop in loops.values() for op in loop.ops if op.ok}
    spans = [s for s in tracer.spans if s["op"] in home]

    def named(name, workload):
        return [s for s in spans if s["name"] == name and home[s["op"]] == workload]

    def ms(span):
        return (span["end"] - span["start"]) / 1e6

    def children_end(span):
        return max((c["end"] for c in spans if c["parent"] == span["id"]), default=span["start"])

    seed_procs = [p for op in loops["seed_cli"].ops if op.ok and not op.traced for p in op.procs]
    probes = named("timer.probe_resolution", "seed_cli")
    collects = named("collector.collect_trace", "seed_cli")
    conditions = named("conditioner.condition", "verify_stretch")
    rates = named("fips.fips_pass_rate", "verify_stretch")
    block_tests = defaultdict(list)
    for span in named("fips.fips_block_tests", "verify_stretch"):
        block_tests[span["op"]].append(ms(span))
    return [
        ("cli.import_ms", median([ms(s) for s in named("cli.import", "seed_cli")]), "ms"),
        ("cli.process_ms", median([p[0] / 1e6 for p in seed_procs]), "ms"),
        ("cli.cpu_ms", median([p[1] / 1e6 for p in seed_procs]), "ms"),
        ("cli.rss_mb", median([p[2] / 1024 for p in seed_procs]), "MB"),
        ("cli.write_ms", median([(s["end"] - children_end(s)) / 1e6
                                 for s in named("cli.run", "seed_cli")]), "ms"),
        ("timer.probe_ms", median([ms(s) for s in probes]), "ms"),
        ("timer.resolution_ns", median([s["attrs"]["resolution_ns"] for s in probes]), "ns"),
        ("collector.collect_ms", median([ms(s) for s in collects]), "ms"),
        ("collector.ns_per_kernel_iter", median([
            s["attrs"]["timed_ns"] / (s["attrs"]["samples"] * s["attrs"]["scale"])
            for s in collects]), "ns"),
        ("collector.distinct_ratio", median([
            s["attrs"]["distinct"] / s["attrs"]["samples"] for s in collects]), "ratio"),
        ("conditioner.condition_ms", median([ms(s) for s in conditions]), "ms"),
        ("conditioner.hash_mb_s", median([
            s["attrs"]["bytes_hashed"] / ms(s) / 1e3 for s in conditions]), "MB/s"),
        ("conditioner.mk0_ms", median([
            ms(s) for s in named("conditioner.mk0_stream", "battery_mk0")]), "ms"),
        ("fips.pass_rate_ms", median([ms(s) for s in rates]), "ms"),
        ("fips.block_us", median([1e3 * ms(s) / s["attrs"]["blocks"] for s in rates]), "us"),
        ("fips.block_tests_us", median([
            1e3 * statistics.fmean(times) for times in block_tests.values()]), "us"),
        ("fips.continuous_ms", continuous_ms, "ms"),
        ("fips.pass_ratio", median([
            s["attrs"]["passed"] / s["attrs"]["blocks"] for s in rates]), "ratio"),
    ]


def trace_summary(loop: Loop, tracer: Tracer):
    """Tracing overhead, unattributed share and self time per layer for one workload."""
    traced = [op for op in loop.ops if op.ok and op.traced]
    untraced = [op for op in loop.ops if op.ok and not op.traced]
    traced_p50 = median([op.latency_ns / 1e6 for op in traced])
    overhead = traced_p50 - median([op.latency_ns / 1e6 for op in untraced])

    ids = {op.op_id for op in traced}
    spans = [s for s in tracer.spans if s["op"] in ids]
    own = self_times(spans)
    per_op = {op_id: {} for op_id in ids}
    unattributed = []
    for span in spans:
        layers = per_op[span["op"]]
        layers[layer(span)] = layers.get(layer(span), 0) + own[span["id"]]
        if span["parent"] is None:
            unattributed.append(own[span["id"]] / (span["end"] - span["start"]))
    names = sorted({name for layers in per_op.values() for name in layers})
    self_ms = {name: median([layers.get(name, 0) / 1e6 for layers in per_op.values()])
               for name in names}
    metrics = [
        ("trace.unattributed_share", median(unattributed), "ratio"),
        ("trace.overhead_ms", overhead, "ms"),
    ]
    return metrics, traced_p50, self_ms


# -- main ----------------------------------------------------------------------


def print_metric(name, value, unit, note=""):
    print(f"  {name:<30} {value:>14.6g} {unit:<6} {note}")


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    work = ROOT / ".bench_tmp" / f"{workload}-{os.getpid()}"
    bench = Bench(work)
    try:
        setups = [bench.setup() for _ in range(SETUP_REPEATS)]
        host = host_facts(median([resolution for _, resolution in setups]))
        flags = itertools.cycle((False, True)) if trace else itertools.repeat(False)
        loops = {}
        if trace and workload != "seed_cli":
            # Before anything is imported here: cli.rss_mb comes from these.
            loops["seed_cli"] = bench.loop("seed_cli", COMPLEMENT["seed_cli"])
        loops[workload] = bench.loop(workload, flags, seconds)
        continuous_ms = 0.0
        if trace:
            for other, other_flags in COMPLEMENT.items():
                if other not in loops:
                    loops[other] = bench.loop(other, other_flags)
            continuous_ms = bench.continuous_extra_ms()
    finally:
        bench.close()
        shutil.rmtree(work)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    ops = [op for loop in loops.values() for op in loop.ops]
    failed = sum(not op.ok for op in ops)
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print(f"  input per operation: {INPUT[workload]}; {SEED_NOTE}")
    print("  host " + json.dumps(host))
    print_metric("failed_ratio", failed_ratio(ops), "ratio", f"{failed} of {len(ops)} failed")
    if trace:
        layer_metrics = per_layer(loops, bench.tracer, continuous_ms)
        trace_metrics, traced_p50, self_ms = trace_summary(loops[workload], bench.tracer)
        metrics = layer_metrics + trace_metrics
        for name, value, unit in metrics:
            print_metric(name, value, unit)
        for name, value in self_ms.items():
            share = value / traced_p50 if traced_p50 else 0.0
            print_metric(f"self.{name}", value, "ms", f"{share:.1%} of traced p50 {traced_p50:.4g} ms")
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        with open(out / f"spans-{workload}.json", "w") as handle:
            json.dump({"workload": workload, "seed": seed, "host": host,
                       "spans": bench.tracer.spans}, handle)
    else:
        metrics = []
        for name, value, unit, note in end_to_end(loops[workload], median([s for s, _ in setups])):
            print_metric(name, value, unit, note)
            metrics.append((name, value, unit))
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jitterseed" / "__init__.py").is_file():
        print(f"error: no jitterseed source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload, as a single run has: a workload that
        # imports jitterseed here would inflate the next one's peak_rss_mb.
        for workload in WORKLOADS:
            code = subprocess.run([
                sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]).returncode
            if code:
                return code
        return 0
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

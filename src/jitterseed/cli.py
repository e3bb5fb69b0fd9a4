"""Command-line front end.

Exit codes: 0 success, 1 operational failure (insufficient entropy, stuck
clock, unattainable tuning, short stream, file I/O), 2 usage error, including
out-of-range option values. Seed bytes go to the chosen sink and nothing else
ever shares it: when seeding to stdout, all summaries and diagnostics go to
stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys
from dataclasses import asdict

from . import analysis, autotune
from .collector import CollectorConfig, collect_trace, distinct_count
from .conditioner import DEFAULT_QUALITY_FLOOR, condition, mk0_stream
from .errors import SeederError, ShortStreamError
from .timer import DEFAULT_PROBE_READS, SimulatedClock, default_clock, probe_resolution


def _int_at_least(minimum: int):
    """Argparse type for an integer >= minimum; anything else is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _path(text: str) -> str:
    """Argparse type for an output path; an empty one is a usage error."""
    if not text:
        raise argparse.ArgumentTypeError("path must not be empty")
    return text


def _add_floor_budget(parser: argparse.ArgumentParser) -> None:
    # The floor can only be raised: a lower one would let a seed out of fewer
    # distinct deltas than the library's default gate demands.
    parser.add_argument(
        "--floor",
        type=_int_at_least(DEFAULT_QUALITY_FLOOR),
        default=DEFAULT_QUALITY_FLOOR,
        help="minimum distinct deltas required (fail-closed)",
    )
    parser.add_argument(
        "--budget-ms",
        type=_int_at_least(1),
        default=autotune.DEFAULT_BUDGET_NS // 1_000_000,
        help="tuning time budget",
    )


def _tune(args, base: CollectorConfig, clock, timer_spec=None) -> autotune.TuneResult:
    """Tune base within the command's floor and budget; report unattainable on stderr."""
    result = autotune.tune(
        base, clock, timer_spec, floor=args.floor, budget_ns=args.budget_ms * 1_000_000
    )
    if result.verdict is autotune.TuneVerdict.UNATTAINABLE:
        print(
            f"error: tuning unattainable within {args.budget_ms} ms "
            f"(best median distinct {result.achieved_distinct}, floor {args.floor})",
            file=sys.stderr,
        )
    return result


def _write_all(sink, payload: bytes) -> None:
    """Write every byte of payload to sink and flush it.

    A pipe whose reader has gone can take part of a write without raising;
    the loop's next write then raises BrokenPipeError instead of losing bytes.
    """
    view = memoryview(payload)
    while view:
        view = view[sink.write(view) :]
    sink.flush()


@contextlib.contextmanager
def _output(path):
    """Yield the binary sink for a command's output: stdout when path is None,
    else a file that replaces path only if the block completes.

    The file is written as a new mode-0600 file beside path, fsynced and then
    renamed over path, so path holds either its old content or all of the
    output, and no other user can read it. On any exception the temporary
    file is removed. An existing path that is not a regular file is refused.
    """
    if path is None:
        yield sys.stdout.buffer
        return
    # A rename would put a file in place of a FIFO or device; a symlink to a
    # regular file is itself replaced.
    with contextlib.suppress(FileNotFoundError):
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise OSError(f"refusing to replace {path}: not a regular file")
    directory, name = os.path.split(os.path.abspath(path))
    temp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with open(fd, "wb") as sink:
            yield sink
            os.fsync(sink.fileno())
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


def cmd_seed(args) -> int:
    quantum_ns = args.simulate_quantum_ns
    clock = default_clock() if quantum_ns is None else SimulatedClock(quantum_ns)
    timer_spec = probe_resolution(clock)
    config = CollectorConfig(samples=args.samples, scale=args.scale, stretch=args.stretch)

    if args.tune:
        result = _tune(args, config, clock, timer_spec)
        if result.verdict is autotune.TuneVerdict.UNATTAINABLE:
            return 1
        config = result.config

    trace = collect_trace(config, clock, timer_spec)
    seed = condition(trace, quality_floor=args.floor)

    payload = seed.hex().encode() + b"\n" if args.hex else seed.to_bytes()
    with _output(args.out) as sink:
        _write_all(sink, payload)

    note = f" after tuning to scale={config.scale}" if args.tune else ""
    print(
        f"seed: {seed.total_bytes} bytes from {distinct_count(trace)} distinct "
        f"deltas (samples={config.samples} scale={config.scale} "
        f"stretch={config.stretch}){note}",
        file=sys.stderr,
    )
    return 0


def cmd_tune(args) -> int:
    result = _tune(args, CollectorConfig(), default_clock())
    analysis.write_json_report(result.to_dict(), sys.stdout)
    return 1 if result.verdict is autotune.TuneVerdict.UNATTAINABLE else 0


def cmd_analyze(args) -> int:
    clock = default_clock()
    timer_spec = probe_resolution(clock)
    config = CollectorConfig()

    traces = [collect_trace(config, clock, timer_spec) for _ in range(args.runs)]
    report = analysis.aggregate_distribution(traces, k=args.k)

    if args.log is not None:
        all_values = [value for trace in traces for value in trace.samples]
        analysis.write_value_log(all_values, args.log)
    if args.csv is not None:
        analysis.write_histogram_csv(report, args.csv)

    document = analysis.report_document(timer_spec, config, report)
    if args.json is not None:
        analysis.write_json_report(document, args.json)
    analysis.write_json_report(document, sys.stdout)
    return 0


def cmd_fips(args) -> int:
    # Only the battery needs numpy; importing it here keeps it off every
    # other command's start-up.
    from . import fips

    with contextlib.ExitStack() as stack:
        if args.source == "-":
            stream = sys.stdin.buffer
        else:
            stream = stack.enter_context(open(args.source, "rb"))
        sink = None
        if args.per_block is not None:
            csv_handle = stack.enter_context(open(args.per_block, "w"))
            csv_handle.write(fips.BLOCK_CSV_HEADER + "\n")
            sink = lambda result: csv_handle.write(fips.block_csv_row(result) + "\n")
        try:
            report = fips.fips_pass_rate(
                stream,
                args.blocks,
                continuous_check=args.continuous,
                block_sink=sink,
            )
        except ShortStreamError as exc:
            if exc.partial is not None:
                print(fips.summary_line(exc.partial))
            print(f"error: {exc}", file=sys.stderr)
            return 1

    print(fips.summary_line(report))
    return 0


def cmd_mk0(args) -> int:
    with _output(args.out) as sink:
        mk0_stream(args.count, lambda chunk: _write_all(sink, chunk))
    return 0


def cmd_probe(args) -> int:
    timer_spec = probe_resolution(default_clock(), reads=args.reads)
    analysis.write_json_report(asdict(timer_spec), sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jitterseed",
        description="Seed CSPRNGs from CPU benchmark timing jitter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seed = sub.add_parser("seed", help="collect one trace and emit seed bytes")
    seed.add_argument(
        "--scale",
        type=_int_at_least(1),
        default=CollectorConfig.scale,
        help="kernel repeat count per sample",
    )
    seed.add_argument(
        "--samples",
        type=_int_at_least(1),
        default=CollectorConfig.samples,
        help="timed runs per trace",
    )
    seed.add_argument(
        "--stretch",
        type=_int_at_least(0),
        default=CollectorConfig.stretch,
        help="extra digest links",
    )
    seed.add_argument("--tune", action="store_true", help="autotune scale first")
    _add_floor_budget(seed)
    seed.add_argument("--out", type=_path, help="write seed bytes to this file")
    seed.add_argument("--hex", action="store_true", help="emit lowercase hex text")
    # Quantizes the real clock. Kept only for the benchmark's FailClosedOnce
    # (perfbench/test_bench.py), which runs seed processes; tests inject
    # cli.default_clock instead.
    seed.add_argument("--simulate-quantum-ns", type=_int_at_least(1), help=argparse.SUPPRESS)
    seed.set_defaults(func=cmd_seed)

    tune = sub.add_parser("tune", help="find the smallest adequate scale")
    _add_floor_budget(tune)
    tune.set_defaults(func=cmd_tune)

    analyze = sub.add_parser("analyze", help="collect traces and report the delta distribution")
    analyze.add_argument(
        "--runs", type=_int_at_least(1), default=30, help="collection runs to aggregate"
    )
    analyze.add_argument("--k", type=_int_at_least(1), default=analysis.DEFAULT_TOP_K)
    analyze.add_argument("--log", type=_path, help="raw value log path")
    analyze.add_argument("--csv", type=_path, help="histogram CSV path")
    analyze.add_argument("--json", type=_path, help="JSON report path")
    analyze.set_defaults(func=cmd_analyze)

    fips_cmd = sub.add_parser("fips", help="run the statistical battery over a byte stream")
    fips_cmd.add_argument("source", metavar="FILE", help="input file, or - for stdin")
    fips_cmd.add_argument(
        "--blocks",
        type=_int_at_least(1),
        help="exact block count (default: all complete blocks until EOF)",
    )
    fips_cmd.add_argument("--per-block", type=_path, help="per-block verdict CSV path")
    fips_cmd.add_argument(
        "--continuous", action="store_true", help="also flag repeated 32-bit words"
    )
    fips_cmd.set_defaults(func=cmd_fips)

    mk0 = sub.add_parser("mk0", help="emit the reference counter-hash stream")
    mk0.add_argument(
        "--count", type=_int_at_least(1), default=100000, help="number of 32-byte digests"
    )
    mk0.add_argument("--out", type=_path, help="write stream to this file")
    mk0.set_defaults(func=cmd_mk0)

    probe = sub.add_parser("probe", help="measure the timer's empirical resolution")
    probe.add_argument("--reads", type=_int_at_least(2), default=DEFAULT_PROBE_READS)
    probe.set_defaults(func=cmd_probe)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SeederError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream stopped reading (mk0 | head, etc). Point stdout at
        # devnull so interpreter shutdown does not trip over it again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())

"""Command-line front end.

Exit codes: 0 success, 1 operational failure (insufficient entropy, stuck
clock, unattainable tuning, a seed run over budget, short stream, file I/O,
out of memory), 2 usage error, including out-of-range option values. Seed
bytes go to the chosen sink and nothing else ever shares it: when seeding to
stdout, all summaries and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import os
import stat
import sys
import time

# analysis and autotune are imported inside the commands that use them, so a
# seed, mk0 or fips process never loads them.
from .collector import DEFAULT_BUDGET_NS, CollectorConfig, collect_trace, projected_ns
from .conditioner import (
    DEFAULT_QUALITY_FLOOR,
    SeedOutput,
    condition,
    mk0_stream,
    projected_chain_ns,
    require_floor,
)
from .errors import InsufficientEntropyError, SeederError, ShortStreamError
from .record import Record
from .timer import SimulatedClock, default_clock, probe_resolution

# The capacity mk0 gives a pipe it writes to. At the default 64 KiB, mk0 and
# a slower reader such as fips take turns instead of running side by side:
# for `mk0 --count 400000 | fips - --continuous --per-block` (median of
# alternating runs, 2 vCPU Xeon, Python 3.11.7), 64 KiB took 588.5 and
# 708.7 ms to 1 MiB's 537.1 and 646.1 ms (1 MiB faster in 13 and 12 of 14).
# 1 MiB is Linux's default pipe-max-size, the most a writer without
# CAP_SYS_RESOURCE may set: a larger size is refused with EPERM.
MK0_PIPE_BYTES = 1 << 20

# seed --hex encodes this many bytes at a time: the text never exists whole.
HEX_PIECE_BYTES = 1 << 16


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
        default=DEFAULT_BUDGET_NS // 1_000_000,
        help="time budget for the whole run",
    )


def _ms(ns: int) -> str:
    """ns in milliseconds, written as an integer when it is one."""
    return str(ns // 1_000_000) if ns % 1_000_000 == 0 else str(ns / 1_000_000)


def _tuned_config(result, floor: int, budget_ns: int) -> CollectorConfig:
    """The tuned config of an autotune.TuneResult; a floor the tuner could not
    reach fails the run."""
    from .autotune import TuneVerdict

    if result.verdict is TuneVerdict.UNATTAINABLE:
        raise InsufficientEntropyError(
            f"tuning unattainable within {_ms(budget_ns)} ms "
            f"(best median distinct {result.achieved_distinct}, floor {floor})"
        )
    return result.config


# seed_run lives in this module because it calls this module's
# probe_resolution, collect_trace, condition, projected_ns and time, names
# that perfbench/cli_driver.py wraps and tests substitute.
class SeedRun(Record):
    """What seed_run made: the config it collected with (the tuned one, if it
    tuned), the trace's distinct-delta count and the seed. The trace itself is
    not kept, since anyone holding it can recompute the seed."""

    config: CollectorConfig
    distinct: int
    seed: SeedOutput


def seed_run(
    config: CollectorConfig,
    clock=None,
    *,
    floor: int = DEFAULT_QUALITY_FLOOR,
    budget_ns: int = DEFAULT_BUDGET_NS,
    tune: bool = False,
) -> SeedRun:
    """Make one seed: probe the clock, with tune double config's scale until
    the trace clears floor, collect a trace and condition it.

    The budget covers the whole run. After the probe and any tuning, the time
    spent, the projected collection (collector.projected_ns) and the projected
    digest chain (conditioner.projected_chain_ns) must fit in budget_ns, or
    InsufficientEntropyError is raised before the first timed kernel run. A
    trace below floor raises it too, before the trace is hashed. floor may
    raise the gate above DEFAULT_QUALITY_FLOOR, never lower it: a lower floor,
    or a budget_ns below 1, raises ValueError. The clock defaults to
    default_clock(). The process's core-dump policy is the caller's.
    """
    if floor < DEFAULT_QUALITY_FLOOR:
        raise ValueError(f"floor must be >= {DEFAULT_QUALITY_FLOOR}, got {floor}")
    if budget_ns < 1:
        raise ValueError(f"budget_ns must be >= 1, got {budget_ns}")
    if clock is None:
        clock = default_clock()
    started = time.perf_counter_ns()
    timer_spec = probe_resolution(clock)
    if tune:
        from . import autotune

        result = autotune.tune(config, clock, timer_spec, floor=floor, budget_ns=budget_ns)
        config = _tuned_config(result, floor, budget_ns)
    elapsed = time.perf_counter_ns() - started
    if elapsed + projected_ns(config) + projected_chain_ns(config) > budget_ns:
        raise InsufficientEntropyError(
            f"collecting {config.samples} samples at scale={config.scale} "
            f"and {config.stretch} chain links would exceed {_ms(budget_ns)} ms"
        )

    trace = collect_trace(config, clock, timer_spec)
    distinct = require_floor(trace, floor)
    return SeedRun(config=config, distinct=distinct, seed=condition(trace, quality_floor=floor))


def _std_stream(name: str):
    """sys.stdin or sys.stdout. A process started with that stream closed has
    None there, which is an operational failure, not a traceback."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(f"{name} is closed")
    return stream


def _note(message: str) -> None:
    """Print message to stderr, where every summary and diagnostic goes.

    A process started with stderr closed has None there, and print would then
    write to stdout, which may hold the seed; a stderr that cannot be written
    loses the message but changes neither stdout nor the exit code.
    """
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(message, file=sys.stderr)


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
    output, and no other user can read it. An exception or Ctrl-C removes
    the temporary file; SIGTERM, SIGHUP or SIGKILL can leave it behind. An
    existing path that is not a regular file is refused.
    Where the platform can open a directory, the directory is fsynced after
    the rename, so that a crash cannot bring the old file back; if that
    fsync fails, the new file stays in place and the error propagates.
    """
    if path is None:
        yield _std_stream("stdout").buffer
        return
    # A rename would put a file in place of a FIFO or device; a symlink to a
    # regular file is itself replaced.
    with contextlib.suppress(FileNotFoundError):
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise OSError(f"refusing to replace {path}: not a regular file")
    directory, name = os.path.split(os.path.abspath(path))
    # At most 32 characters of the name (128 bytes of UTF-8) keep the
    # temporary name within 255 bytes whatever the target's length.
    temp = os.path.join(directory, f".{name[:32]}.{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    except OSError as exc:
        # The temporary name means nothing to the user; the target does.
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "wb") as sink:
            yield sink
            os.fsync(sink.fileno())
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
    if hasattr(os, "O_DIRECTORY"):
        dir_fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def cmd_seed(args) -> int:
    """Make a seed with seed_run and write it. The core-file limit drops to 0
    first, so that no core file can hold the trace or the seed; a process that
    calls run_cli in-process, such as pytest, keeps that limit for life."""
    with contextlib.suppress(ImportError):
        import resource

        resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
    config = CollectorConfig(samples=args.samples, scale=args.scale, stretch=args.stretch)
    clock = None if args.simulate_quantum_ns is None else SimulatedClock(args.simulate_quantum_ns)
    budget_ns = args.budget_ms * 1_000_000
    run = seed_run(config, clock, floor=args.floor, budget_ns=budget_ns, tune=args.tune)

    material = run.seed.to_bytes()
    with _output(args.out) as sink:
        if not args.hex:
            _write_all(sink, material)
        else:
            view = memoryview(material)
            for start in range(0, len(view), HEX_PIECE_BYTES):
                _write_all(sink, view[start : start + HEX_PIECE_BYTES].hex().encode())
            _write_all(sink, b"\n")

    config = run.config
    note = f" after tuning to scale={config.scale}" if args.tune else ""
    _note(
        f"seed: {len(material)} bytes from {run.distinct} distinct "
        f"deltas (samples={config.samples} scale={config.scale} "
        f"stretch={config.stretch}){note}"
    )
    return 0


def cmd_tune(args) -> int:
    from .analysis import write_json_report
    from .autotune import tune

    stdout = _std_stream("stdout")
    budget_ns = args.budget_ms * 1_000_000
    result = tune(CollectorConfig(), default_clock(), floor=args.floor, budget_ns=budget_ns)
    # The report is written whatever the verdict, then an unattainable one fails.
    write_json_report(result._asdict(), stdout)
    _tuned_config(result, args.floor, budget_ns)
    return 0


def cmd_analyze(args) -> int:
    if (
        args.log is not None
        and args.csv is not None
        and os.path.realpath(args.log) == os.path.realpath(args.csv)
    ):
        _note(f"error: --log and --csv name the same file: {args.csv}")
        return 2
    from . import analysis

    # Checked first, so that no file is written for a report that cannot be.
    stdout = _std_stream("stdout")
    clock = default_clock()
    timer_spec = probe_resolution(clock)
    config = CollectorConfig()

    traces = [collect_trace(config, clock, timer_spec) for _ in range(args.runs)]
    report = analysis.aggregate_distribution(traces)

    all_values = [value for trace in traces for value in trace.samples]
    artifacts = (
        (args.log, analysis.write_value_log, all_values),
        (args.csv, analysis.write_histogram_csv, report),
    )
    # Written like --out. Both stay open until both are written and the
    # report has left for stdout, so a refused or failed file, or a stdout
    # that cannot take the report, leaves both targets as they were.
    with contextlib.ExitStack() as stack:
        for path, write, data in artifacts:
            if path is not None:
                text = io.StringIO()
                write(data, text)
                _write_all(stack.enter_context(_output(path)), text.getvalue().encode())
        analysis.write_json_report(analysis.report_document(timer_spec, config, report), stdout)
        stdout.flush()
    return 0


def cmd_fips(args) -> int:
    # Only the battery needs numpy; importing it here keeps it off every
    # other command's start-up. The battery runs on one thread, so OpenBLAS
    # need not start a thread pool (about 70 ms of CPU) unless asked to.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        from . import fips
    except ModuleNotFoundError as exc:
        # Any other missing module is a fault of the package, not of the host.
        if str(exc.name).partition(".")[0] != "numpy":
            raise
        raise SeederError(
            f"the battery needs numpy, which cannot be imported: {exc} "
            "(pip install 'jitterseed[battery]')"
        ) from None

    # Checked first, so that the CSV replaces nothing when the summary has
    # nowhere to go.
    stdout = _std_stream("stdout")
    with contextlib.ExitStack() as stack:
        if args.source == "-":
            stream = _std_stream("stdin").buffer
        else:
            stream = stack.enter_context(open(args.source, "rb"))
        sink = None
        if args.per_block is not None:
            # Written like --out, so the CSV may replace the file being read.
            csv_file = stack.enter_context(_output(args.per_block))
            csv_file.write(f"{fips.BLOCK_CSV_HEADER}\n".encode())
            sink = lambda result: csv_file.write(f"{fips.block_csv_row(result)}\n".encode())
        try:
            report = fips.fips_pass_rate(
                stream,
                args.blocks,
                continuous_check=args.continuous,
                block_sink=sink,
            )
        except ShortStreamError as exc:
            # Leaving the block by an exception keeps the CSV from replacing
            # its target; the partial tally is still reported.
            print(fips.summary_line(exc.partial), file=stdout)
            raise
        # Before the CSV replaces its target, so that a stdout that cannot
        # take the summary leaves the target as it was.
        print(fips.summary_line(report), file=stdout, flush=True)
    return 0


def _grow_pipe(sink) -> None:
    """Give the pipe that sink writes to at least MK0_PIPE_BYTES of capacity.

    Anything but a pipe, a platform without F_SETPIPE_SZ (it is Linux's, in
    Python 3.10 and later), a pipe-max-size below it and a user over the pipe
    quota leave sink as it is.
    """
    with contextlib.suppress(ImportError, AttributeError, OSError):
        import fcntl

        fd = sink.fileno()
        if fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ) < MK0_PIPE_BYTES:
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, MK0_PIPE_BYTES)


def cmd_mk0(args) -> int:
    # Each 64 KiB chunk is written as it is hashed, so a run holds one chunk
    # at a time; the pipe holds what a reader slow to start (fips spends
    # about 125 ms importing numpy) has not read yet.
    with _output(args.out) as sink:
        _grow_pipe(sink)
        mk0_stream(args.count, lambda chunk: _write_all(sink, chunk))
    return 0


def cmd_probe(args) -> int:
    from .analysis import write_json_report

    stdout = _std_stream("stdout")
    timer_spec = probe_resolution(default_clock())
    write_json_report(timer_spec._asdict(), stdout)
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
    # Quantizes the real clock. Its users: the benchmark's FailClosedOnce
    # (perfbench/test_bench.py), acceptance criteria 7 and 8, and the
    # subprocess cases of test_bad_input_exits_cleanly. Every other test
    # injects cli.default_clock.
    seed.add_argument("--simulate-quantum-ns", type=_int_at_least(1), help=argparse.SUPPRESS)
    seed.set_defaults(func=cmd_seed)

    tune = sub.add_parser("tune", help="find the smallest adequate scale")
    _add_floor_budget(tune)
    tune.set_defaults(func=cmd_tune)

    analyze = sub.add_parser("analyze", help="collect traces and report the delta distribution")
    analyze.add_argument(
        "--runs", type=_int_at_least(1), default=30, help="collection runs to aggregate"
    )
    analyze.add_argument("--log", type=_path, help="raw value log path")
    analyze.add_argument("--csv", type=_path, help="histogram CSV path")
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
    except BrokenPipeError:
        # Downstream stopped reading (mk0 | head, etc). Point stdout at
        # devnull so interpreter shutdown does not trip over it again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (SeederError, OSError) as exc:
        _note(f"error: {exc}")
        return 1
    except (MemoryError, OverflowError):
        # A size past the platform's word size is the same failure.
        _note("error: out of memory")
        return 1


def main() -> None:
    try:
        code = run_cli()
    except KeyboardInterrupt:
        # End by the signal, as an interrupted command should, without a
        # traceback, and without the exit-time flush of a stdout whose
        # reader may have stalled. Any output file was removed on the way.
        import signal

        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
    # Every object left now lives until the process ends, so the collections
    # that run while the interpreter shuts down need not scan them: frozen,
    # they are skipped (about 20 ms once numpy is loaded, on a 2 vCPU Xeon
    # with Python 3.11). Teardown still runs as before: reference counts,
    # atexit, flushing the streams. Only the entry point freezes; run_cli
    # runs inside processes that go on.
    gc.freeze()
    sys.exit(code)

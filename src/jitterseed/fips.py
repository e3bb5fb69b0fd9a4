"""FIPS 140-2 statistical battery over 20000-bit blocks.

Implements the four change-notice tests (monobit, poker, runs, long run) with
the exact published intervals, on blocks of exactly 2500 bytes. Bits are taken
most-significant-first within each byte, bytes in stream order, matching the
reference hardware-RNG tooling. These tests catch gross defects only; passing
them is a floor, not a proof of randomness.
"""

from __future__ import annotations

import io
import threading
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import ShortStreamError

BLOCK_BITS = 20000
BLOCK_BYTES = BLOCK_BITS // 8

# Monobit: ones count strictly inside (9725, 10275).
MONOBIT_LO = 9725
MONOBIT_HI = 10275

# Poker over 5000 4-bit segments. With d = sum of squared pattern counts the
# statistic is X = (16/5000)*d - 5000 and the pass band 2.16 < X < 46.17;
# comparing d against precomputed integer bounds keeps the test float-free.
POKER_D_LO = 1563176
POKER_D_HI = 1576928

# Required count interval per run length (1..5, then 6 and longer), applied to
# zero-runs and one-runs alike. Bounds are inclusive.
RUN_INTERVALS = ((2315, 2685), (1114, 1386), (527, 723), (240, 384), (103, 209), (103, 209))

# Any run of 26 or more identical bits fails the long-run test.
LONG_RUN_BITS = 26

# The four block tests, in battery order; each names its `<name>_pass` field.
BATTERY_TESTS = ("monobit", "poker", "runs", "long_run")
_BATTERY_FLAGS = attrgetter(*(f"{name}_pass" for name in BATTERY_TESTS))

BLOCK_CSV_HEADER = "block,monobit,poker,runs,longrun,pass"


@dataclass(frozen=True)
class FipsBlockResult:
    """Verdicts and raw statistics for one 20000-bit block."""

    block_index: int
    ones: int
    monobit_pass: bool
    poker_statistic: float
    poker_pass: bool
    # run_counts[bit_value][i] = number of runs of length i+1 (last bucket: >= 6)
    run_counts: tuple[tuple[int, ...], tuple[int, ...]]
    runs_pass: bool
    max_run: int
    long_run_pass: bool
    continuous_pass: bool | None = None

    @property
    def verdicts(self) -> dict[str, bool]:
        """Pass flag per test name; `continuous` only when that check ran."""
        table = dict(zip(BATTERY_TESTS, _BATTERY_FLAGS(self)))
        if self.continuous_pass is not None:
            table["continuous"] = self.continuous_pass
        return table

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


@dataclass(frozen=True)
class FipsRateReport:
    """Aggregate verdict tally over a run of consecutive blocks."""

    blocks_tested: int
    blocks_passed: int
    failures: dict[str, int] = field(default_factory=dict)

    @property
    def pass_rate(self) -> float:
        """Share of tested blocks that passed every test; 0.0 when none was."""
        return self.blocks_passed / self.blocks_tested if self.blocks_tested else 0.0


class _BlockBuffers(threading.local):
    """Scratch arrays sized for one block, reused by every block a thread tests.

    Fresh int64 temporaries for each block (about 300 KB) let glibc trim the
    heap top when they are freed and fault it back in on the next block. The
    temporaries left are the unpacked bits and the histogram's widened copy of
    the block (20 KB each) and the run-edge index (8 bytes a run, about 80 KB
    on random data).
    """

    def __init__(self) -> None:
        # change[i]: bit i starts a run, or i == BLOCK_BITS ends the last one.
        self.change = np.ones(BLOCK_BITS + 1, dtype=bool)
        self.lengths = np.empty(BLOCK_BITS, dtype=np.intp)


_buffers = _BlockBuffers()

# Set bits of each byte value.
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.intp
)


def fips_block_tests(
    block: bytes, block_index: int = 0, continuous_pass: bool | None = None
) -> FipsBlockResult:
    """Run the four tests on exactly one 20000-bit block.

    continuous_pass is the caller's continuous-check verdict for the block,
    recorded in the result as given (None when the check did not run).
    """
    if len(block) != BLOCK_BYTES:
        raise ValueError(f"block must be exactly {BLOCK_BYTES} bytes, got {len(block)}")
    arr = np.frombuffer(block, dtype=np.uint8)

    # Monobit and poker both read one 256-bin histogram of the byte values.
    byte_counts = np.bincount(arr, minlength=256)
    ones = int(byte_counts @ _POPCOUNT)
    monobit_pass = MONOBIT_LO < ones < MONOBIT_HI

    # Row h, column l of the 16x16 view counts the bytes 0xhl.
    by_nibbles = byte_counts.reshape(16, 16)
    nibble_counts = by_nibbles.sum(axis=0) + by_nibbles.sum(axis=1)
    d = int(nibble_counts @ nibble_counts)
    poker_pass = POKER_D_LO < d < POKER_D_HI
    poker_statistic = 16.0 * d / 5000.0 - 5000.0

    # Run edges: the start of every maximal same-bit stretch, then BLOCK_BITS.
    bits = np.unpackbits(arr)
    np.not_equal(bits[1:], bits[:-1], out=_buffers.change[1:-1])
    edges = np.flatnonzero(_buffers.change)
    lengths = _buffers.lengths[: edges.size - 1]
    np.subtract(edges[1:], edges[:-1], out=lengths)
    max_run = int(lengths.max())
    long_run_pass = max_run < LONG_RUN_BITS

    # Bucket 6*bit + min(length, 6) - 1, formed in place: zero-runs in 0..5,
    # one-runs in 6..11. Runs alternate in value, so every other run is a
    # one-run, starting with the first when the block's first bit is 1.
    buckets = np.minimum(lengths, 6, out=lengths)
    buckets[int(bits[0] == 0) :: 2] += 6
    buckets -= 1
    counts = np.bincount(buckets, minlength=12).reshape(2, 6).tolist()
    runs_pass = all(
        lo <= counts[bit_value][i] <= hi
        for bit_value in (0, 1)
        for i, (lo, hi) in enumerate(RUN_INTERVALS)
    )

    return FipsBlockResult(
        block_index=block_index,
        ones=ones,
        monobit_pass=monobit_pass,
        poker_statistic=poker_statistic,
        poker_pass=poker_pass,
        run_counts=(tuple(counts[0]), tuple(counts[1])),
        runs_pass=runs_pass,
        max_run=max_run,
        long_run_pass=long_run_pass,
        continuous_pass=continuous_pass,
    )


def _repeated_word(block: bytes, last_word: bytes | None) -> tuple[bool, bytes]:
    """Scan consecutive 32-bit words (carrying across blocks) for a repeat."""
    # Equality does not depend on byte order, and native words compare faster.
    words = np.frombuffer(block, dtype=np.uint32)
    repeated = block[:4] == last_word or bool((words[1:] == words[:-1]).any())
    return repeated, block[-4:]


def fips_pass_rate(
    source,
    blocks: int | None = None,
    continuous_check: bool = False,
    block_sink=None,
) -> FipsRateReport:
    """Test consecutive blocks from bytes or a binary stream.

    With `blocks` given, exactly that many are required; running dry early
    raises ShortStreamError with the partial report attached. With blocks=None
    every complete block until EOF is tested (at least one must exist).
    block_sink, if given, receives each FipsBlockResult as it is produced.
    The continuous check flags any repeat of consecutive 32-bit words, carried
    across block boundaries; it is off by default.
    """
    if blocks is not None and blocks < 1:
        raise ValueError(f"blocks must be >= 1, got {blocks}")
    stream = io.BytesIO(source) if isinstance(source, (bytes, bytearray)) else source

    failures = dict.fromkeys(BATTERY_TESTS, 0)
    if continuous_check:
        failures["continuous"] = 0
    tested = 0
    passed = 0
    last_word: bytes | None = None

    while blocks is None or tested < blocks:
        block = stream.read(BLOCK_BYTES)
        if len(block) < BLOCK_BYTES:
            # A raw or interactive stream can return less than asked before
            # EOF; only an empty read ends the stream.
            while len(block) < BLOCK_BYTES and (more := stream.read(BLOCK_BYTES - len(block))):
                block += more
            if len(block) < BLOCK_BYTES:
                break
        continuous_pass = None
        if continuous_check:
            repeated, last_word = _repeated_word(block, last_word)
            continuous_pass = not repeated
        result = fips_block_tests(block, block_index=tested, continuous_pass=continuous_pass)
        tested += 1
        if result.passed:
            passed += 1
        for name, ok in result.verdicts.items():
            if not ok:
                failures[name] += 1
        if block_sink is not None:
            block_sink(result)

    report = FipsRateReport(blocks_tested=tested, blocks_passed=passed, failures=failures)
    if tested < (blocks or 1):
        wanted = "at least 1" if blocks is None else str(blocks)
        raise ShortStreamError(
            f"stream exhausted after {tested} of {wanted} blocks", partial=report
        )
    return report


def summary_line(report: FipsRateReport) -> str:
    return (
        f"blocks={report.blocks_tested} "
        f"passed={report.blocks_passed} "
        f"rate={report.pass_rate:.6f}"
    )


def block_csv_row(result: FipsBlockResult) -> str:
    verdicts = result.verdicts
    flags = [verdicts[name] for name in BATTERY_TESTS] + [result.passed]
    return f"{result.block_index}," + ",".join(["1" if flag else "0" for flag in flags])

"""FIPS 140-2 statistical battery over 20000-bit blocks.

Implements the four change-notice tests (monobit, poker, runs, long run) with
the exact published intervals, on blocks of exactly 2500 bytes. Bits are taken
most-significant-first within each byte, bytes in stream order, matching the
reference hardware-RNG tooling. These tests catch gross defects only; passing
them is a floor, not a proof of randomness.
"""

from __future__ import annotations

import io
from operator import attrgetter

import numpy as np

from .errors import ShortStreamError
from .record import Record

BLOCK_BITS = 20000
BLOCK_BYTES = BLOCK_BITS // 8

# Monobit: ones count strictly inside (9725, 10275).
MONOBIT_LO = 9725
MONOBIT_HI = 10275

# Poker over 5000 4-bit segments. With d = sum of squared pattern counts the
# statistic is X = (16/5000)*d - 5000 and the pass band 2.16 < X < 46.17.
# X moves in steps of 0.0032, so POKER_D_LO < d < POKER_D_HI is exactly that
# band: d = 1563176 (X = 2.1632) and d = 1576928 (X = 46.1696) both pass.
POKER_D_LO = 1563175
POKER_D_HI = 1576929

# Required count interval per run length (1..5, then 6 and longer), applied to
# zero-runs and one-runs alike. Bounds are inclusive.
RUN_INTERVALS = ((2315, 2685), (1114, 1386), (527, 723), (240, 384), (103, 209), (103, 209))

# Any run of 26 or more identical bits fails the long-run test.
LONG_RUN_BITS = 26

# The four block tests, in battery order; each names its `<name>_pass` field.
BATTERY_TESTS = ("monobit", "poker", "runs", "long_run")
_BATTERY_FLAGS = attrgetter(*(f"{name}_pass" for name in BATTERY_TESTS))

BLOCK_CSV_HEADER = "block,monobit,poker,runs,longrun,pass"


class FipsBlockResult(Record):
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
        return all(_BATTERY_FLAGS(self)) and self.continuous_pass is not False


class FipsRateReport(Record):
    """Aggregate verdict tally over a run of consecutive blocks."""

    blocks_tested: int
    blocks_passed: int
    failures: dict[str, int]

    @property
    def pass_rate(self) -> float:
        """Share of tested blocks that passed every test; 0.0 when none was."""
        return self.blocks_passed / self.blocks_tested if self.blocks_tested else 0.0


# Blocks tested per numpy call; fips_pass_rate reads this many at a time.
CHUNK_BLOCKS = 16

_WORDS_PER_BLOCK = BLOCK_BYTES // 4

# The run tallies come from counts of all-equal windows. With W(L) the number
# of L-bit windows whose bits all equal one value, that value has
# W(L) - W(L+1) runs of L bits or more, so W(L) - 2*W(L+1) + W(L+2) of exactly
# L. Lengths 1-5 and "6 or more" need W(1) to W(7).
_WINDOW_BITS = 7


def _byte_tables():
    """Per-byte run tables and the window table, built once at import.

    A byte's lead is its first run and its trail its last, each coded as
    8 * bit value + length - 1; the pair code 16 * trail + lead of a byte and
    the next describes the boundary between them. Row b < 256 of the window
    table counts the all-equal windows inside byte b, row 256 + pair code those
    that cross such a boundary; column 7 * v + L - 1 counts windows of L bits
    equal to v. A window of at most 7 bits lies in one byte or crosses one
    boundary, so the two histograms give W(1) to W(7).
    """
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    # run[b, p]: length of the run of byte b that ends at bit p. The first run
    # reaches bit p when that length is p + 1, and the last ends at bit 7.
    run = np.ones((256, 8), dtype=np.intp)
    for p in range(1, 8):
        run[:, p] += (bits[:, p] == bits[:, p - 1]) * run[:, p - 1]
    lead = (run == np.arange(1, 9)).sum(axis=1)
    trail = run[:, 7]
    lead_zeros = np.where(bits[:, 0], 0, lead)
    trail_zeros = np.where(bits[:, 7], 0, trail)

    # Window counts are indexed [..., bit value, window length - 1].
    window = np.arange(1, _WINDOW_BITS + 1)
    of_value = np.arange(2)[:, None]
    # An L-bit window inside a byte ends where a run has reached L bits.
    inside = ((bits[..., None, None] == of_value) & (run[..., None, None] >= window)).sum(axis=1)

    def windows(n):
        """The L-bit windows in a run of n bits, for L = 1 to _WINDOW_BITS."""
        return np.maximum(n[..., None] - window + 1, 0)

    code = np.arange(16)
    value, length = code >> 3, (code & 7) + 1
    joined = value[:, None] == value
    joins = (length[:, None] + length) * joined
    # A boundary's crossing windows are the joined run's less those of its two
    # halves; there are none where trail and lead differ in value.
    crossing = (windows(joins) - windows(length[:, None]) - windows(length)) * joined[..., None]
    pairs = crossing[:, :, None] * (value[:, None, None, None] == of_value)

    # Float64 holds every window count exactly, and its BLAS product is far
    # faster than numpy's integer one.
    table = np.concatenate((inside, pairs.reshape(256, 2, -1))).reshape(512, -1).astype(np.float64)
    run_codes = np.stack((16 * (8 * bits[:, 7] + trail - 1), 8 * bits[:, 0] + lead - 1), axis=1)
    return run_codes.astype(np.uint8), trail_zeros, lead_zeros, table, joins.reshape(256)


# _RUN_CODES[b] holds 16 * trail code and the lead code of byte b; the bitwise or
# of a byte's first and the next byte's second is their pair code. _TRAIL_ZEROS[b]
# and _LEAD_ZEROS[b] count the zero bits that end and start byte b. _JOIN_BITS[pair
# code] is the run joined across the boundary (0 when trail and lead differ in value).
_RUN_CODES, _TRAIL_ZEROS, _LEAD_ZEROS, _WINDOW_TABLE, _JOIN_BITS = _byte_tables()

# Block k of a chunk counts its bytes into bins 512k + byte value and its
# boundaries into bins 512k + 256 + pair code.
_BYTE_BINS = 512 * np.arange(CHUNK_BLOCKS, dtype=np.intp)[:, None]
_PAIR_BINS = _BYTE_BINS + 256

_RUN_LO = np.array([lo for lo, _ in RUN_INTERVALS])
_RUN_HI = np.array([hi for _, hi in RUN_INTERVALS])


def _chunk_scratch(blocks: int) -> tuple:
    """Kernel scratch for chunks of up to `blocks` blocks, made once per call:
    fresh bin indices freed after every chunk would let glibc trim the heap
    top and fault it back in on the next chunk."""
    return (
        np.empty((blocks, BLOCK_BYTES), dtype=np.intp),
        np.empty((blocks, BLOCK_BYTES, 2), dtype=np.uint8),
    )


def _raise_to_chain_runs(flat, longest) -> None:
    """Raise each block's longest run to its runs through 0x00 or 0xff bytes.

    Such a run is a chain of equal uniform bytes, plus the bits of the byte
    before and the byte after that equal the chain's: the trailing and the
    leading zeros of those bytes xor the chain's byte.
    """
    at = ((flat == 0) | (flat == 0xFF)).nonzero()[0]
    if not at.size:
        return
    uniform, offset = flat[at], at % BLOCK_BYTES
    # A chain ends before a gap, a change of byte or the start of a block.
    starts = np.ones(at.size, dtype=bool)
    starts[1:] = (np.diff(at) != 1) | (uniform[1:] != uniform[:-1]) | (offset[1:] == 0)
    first = starts.nonzero()[0]
    last = np.append(first[1:], at.size) - 1
    start, end, chain = at[first], at[last], uniform[first]
    bits = 8 * (end - start + 1)
    bits += _TRAIL_ZEROS[flat[start - 1] ^ chain] * (offset[first] != 0)
    bits += _LEAD_ZEROS[flat.take(end + 1, mode="clip") ^ chain] * (offset[last] != BLOCK_BYTES - 1)
    np.maximum.at(longest, start // BLOCK_BYTES, bits)


def _test_blocks(data, first_index: int, continuous: list, scratch) -> list[FipsBlockResult]:
    """Run the four tests on each whole block of data, at most CHUNK_BLOCKS.

    continuous holds each block's continuous-check verdict, recorded as given.
    Besides temporaries it writes only scratch (_chunk_scratch, 25 KB a
    block), which its caller makes once per call and reuses for every chunk:
    concurrent and nested calls share nothing.
    """
    bins, run_codes = scratch
    count = len(data) // BLOCK_BYTES
    arr = np.frombuffer(data, dtype=np.uint8).reshape(count, BLOCK_BYTES)
    index = bins[:count]
    np.copyto(index, arr)
    # mode="clip" lets take write straight into out; every index is in range.
    codes = np.take(_RUN_CODES, index, axis=0, out=run_codes[:count], mode="clip")
    index += _BYTE_BINS[:count]
    histogram = np.bincount(index.ravel(), minlength=512 * count)
    # Counted, the byte bins are free: the pair bins take their first elements.
    pairs = bins.ravel()[: count * (BLOCK_BYTES - 1)].reshape(count, BLOCK_BYTES - 1)
    np.bitwise_or(codes[:, :-1, 0], codes[:, 1:, 1], out=pairs)
    pairs += _PAIR_BINS[:count]
    histogram += np.bincount(pairs.ravel(), minlength=512 * count)
    histogram = histogram.reshape(count, 512)

    windows = (histogram @ _WINDOW_TABLE).reshape(count, 2, _WINDOW_BITS)
    # Runs of L bits or more (L = 1-6), then of exactly L (L = 1-5) and of 6 or more.
    at_least = (windows[..., :-1] - windows[..., 1:]).astype(np.intp)
    runs = np.concatenate((at_least[..., :-1] - at_least[..., 1:], at_least[..., -1:]), axis=-1)
    runs_pass = ((_RUN_LO <= runs) & (runs <= _RUN_HI)).all(axis=(1, 2))
    ones = windows[:, 1, 0].astype(np.intp)

    # Row h, column l of each 16x16 view counts the bytes 0xhl.
    by_nibbles = histogram[:, :256].reshape(count, 16, 16)
    nibbles = by_nibbles.sum(axis=1) + by_nibbles.sum(axis=2)
    d = (nibbles * nibbles).sum(axis=1)

    # The longest run: within 7 bits the windows say it, a run across one
    # boundary is a trail joined to a lead, and a longer one holds a uniform byte.
    present = windows > 0
    longest = np.maximum(
        (present[:, 0] | present[:, 1]).sum(axis=1),
        ((histogram[:, 256:] > 0) * _JOIN_BITS).max(axis=1),
    )
    _raise_to_chain_runs(arr.ravel(), longest)

    columns = zip(
        ones.tolist(), d.tolist(), runs.tolist(), runs_pass.tolist(), longest.tolist(), continuous
    )
    return [
        FipsBlockResult(
            block_index=block_index,
            ones=block_ones,
            monobit_pass=MONOBIT_LO < block_ones < MONOBIT_HI,
            poker_statistic=16.0 * block_d / 5000.0 - 5000.0,
            poker_pass=POKER_D_LO < block_d < POKER_D_HI,
            run_counts=(tuple(zero_runs), tuple(one_runs)),
            runs_pass=block_runs_pass,
            max_run=max_run,
            long_run_pass=max_run < LONG_RUN_BITS,
            continuous_pass=continuous_pass,
        )
        for block_index, (
            block_ones,
            block_d,
            (zero_runs, one_runs),
            block_runs_pass,
            max_run,
            continuous_pass,
        ) in enumerate(columns, first_index)
    ]


def fips_block_tests(block: bytes, block_index: int = 0) -> FipsBlockResult:
    """Run the four tests on exactly one 20000-bit block (no continuous check)."""
    if len(block) != BLOCK_BYTES:
        raise ValueError(f"block must be exactly {BLOCK_BYTES} bytes, got {len(block)}")
    return _test_blocks(block, block_index, [None], _chunk_scratch(1))[0]


def _repeated_words(data: bytes, last_word: bytes | None) -> tuple[list[bool], bytes]:
    """Per block of data, whether one of its 32-bit words repeats the word
    before it (carried across blocks, the first from last_word); and the last
    word of data."""
    # Equality does not depend on byte order, and native words compare faster.
    words = np.frombuffer(data, dtype=np.uint32)
    repeated = np.empty(words.size, dtype=bool)
    repeated[0] = data[:4] == last_word
    np.equal(words[1:], words[:-1], out=repeated[1:])
    return repeated.reshape(-1, _WORDS_PER_BLOCK).any(axis=1).tolist(), data[-4:]


def _read_blocks(stream, count: int) -> bytes:
    """The whole blocks among the next count * BLOCK_BYTES bytes of stream.

    A raw or interactive stream can return less than asked before EOF; only
    an empty read ends the stream. Bytes of a last partial block are dropped.
    """
    wanted = count * BLOCK_BYTES
    parts = []
    while wanted and (part := stream.read(wanted)):
        parts.append(part)
        wanted -= len(part)
    data = b"".join(parts)
    return data[: len(data) - len(data) % BLOCK_BYTES]


def fips_pass_rate(
    source,
    blocks: int | None = None,
    continuous_check: bool = False,
    block_sink=None,
) -> FipsRateReport:
    """Test consecutive blocks from a bytes-like object or a binary stream.

    With `blocks` given, exactly that many are required; running dry early
    raises ShortStreamError with the partial report attached. With blocks=None
    every complete block until EOF is tested (at least one must exist).
    Blocks are read and tested CHUNK_BLOCKS at a time, and never past `blocks`.
    block_sink, if given, receives each FipsBlockResult in block order.
    The continuous check flags any repeat of consecutive 32-bit words, carried
    across block boundaries; it is off by default.
    """
    if blocks is not None and blocks < 1:
        raise ValueError(f"blocks must be >= 1, got {blocks}")
    # Anything without a read method is taken as a buffer: bytes, bytearray,
    # memoryview, array.
    stream = source if hasattr(source, "read") else io.BytesIO(source)

    failures = dict.fromkeys(BATTERY_TESTS, 0)
    if continuous_check:
        failures["continuous"] = 0
    tested = 0
    passed = 0
    last_word: bytes | None = None
    scratch = _chunk_scratch(CHUNK_BLOCKS if blocks is None else min(CHUNK_BLOCKS, blocks))

    while blocks is None or tested < blocks:
        wanted = CHUNK_BLOCKS if blocks is None else min(CHUNK_BLOCKS, blocks - tested)
        data = _read_blocks(stream, wanted)
        count = len(data) // BLOCK_BYTES
        if not count:
            break
        continuous = [None] * count
        if continuous_check:
            repeated, last_word = _repeated_words(data, last_word)
            continuous = [not flag for flag in repeated]
        for result in _test_blocks(data, tested, continuous, scratch):
            if result.passed:
                passed += 1
            else:
                for name, ok in result.verdicts.items():
                    if not ok:
                        failures[name] += 1
            if block_sink is not None:
                block_sink(result)
        tested += count
        if count < wanted:
            break

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
    monobit, poker, runs, long_run = _BATTERY_FLAGS(result)
    return f"{result.block_index},{monobit:d},{poker:d},{runs:d},{long_run:d},{result.passed:d}"

import io
import itertools
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_blocks import (
    BLOCK_BITS,
    BLOCK_BYTES,
    biased_block,
    block_with_ones,
    block_with_run,
    flat_nibble_block,
    golden_corpus,
    pack_bits,
)
from jitterseed.conditioner import mk0_stream
from jitterseed.errors import ShortStreamError
from jitterseed.fips import (
    BATTERY_TESTS,
    BLOCK_CSV_HEADER,
    CHUNK_BLOCKS,
    LONG_RUN_BITS,
    RUN_INTERVALS,
    FipsBlockResult,
    _repeated_words,
    block_csv_row,
    fips_block_tests,
    fips_pass_rate,
    summary_line,
)
from reference_fips import numpy_reference_block_tests, reference_verdicts

REPO = Path(__file__).resolve().parent.parent


def loop_run_counts(block: bytes):
    """Run tally and longest run as the battery first computed them: one
    masked sum per (bit, length) bucket."""
    bits = np.unpackbits(np.frombuffer(block, dtype=np.uint8))
    starts = np.concatenate(([0], np.flatnonzero(bits[1:] != bits[:-1]) + 1))
    lengths = np.diff(np.concatenate((starts, [bits.size])))
    values = bits[starts]
    counts = [[0] * 6, [0] * 6]
    for bit_value in (0, 1):
        run_lengths = lengths[values == bit_value]
        for length in range(1, 6):
            counts[bit_value][length - 1] = int((run_lengths == length).sum())
        counts[bit_value][5] = int((run_lengths >= 6).sum())
    return (tuple(counts[0]), tuple(counts[1])), int(lengths.max())


def loop_repeated_word(block: bytes, last_word):
    """The word-at-a-time continuous check the battery first used."""
    repeated = False
    for offset in range(0, len(block), 4):
        word = block[offset : offset + 4]
        if word == last_word:
            repeated = True
        last_word = word
    return repeated, last_word


def crafted_repeat_blocks() -> list[bytes]:
    """Blocks whose only repeated word pair sits at the start, middle or end."""
    clean = mk0_stream(79)[:2500]
    blocks = []
    for offset in (4, 1248, 2496):
        block = bytearray(clean)
        block[offset : offset + 4] = block[offset - 4 : offset]
        blocks.append(bytes(block))
    return blocks


def test_block_size_is_20000_bits():
    assert BLOCK_BYTES == 2500
    for bad in (b"", b"\x00" * 2499, b"\x00" * 2501):
        with pytest.raises(ValueError, match=rf"^block must be exactly 2500 bytes, got {len(bad)}$"):
            fips_block_tests(bad)


def test_all_zeros_block_fails_everything():
    result = fips_block_tests(b"\x00" * 2500)
    assert result.ones == 0
    assert not result.monobit_pass
    assert result.max_run == 20000
    assert not result.long_run_pass
    assert not result.poker_pass
    assert not result.runs_pass
    assert not result.passed


def test_all_ones_block_mirrors_all_zeros():
    result = fips_block_tests(b"\xff" * 2500)
    assert result.ones == 20000
    assert not result.monobit_pass
    assert not result.long_run_pass


def test_alternating_block_hand_computed():
    # 0101...: exactly half ones, a single 4-bit pattern, all runs length 1.
    result = fips_block_tests(b"\x55" * 2500)
    assert result.ones == 10000
    assert result.monobit_pass
    assert result.poker_statistic == 75000.0
    assert not result.poker_pass
    assert result.run_counts == ((10000, 0, 0, 0, 0, 0), (10000, 0, 0, 0, 0, 0))
    assert not result.runs_pass
    assert result.max_run == 1
    assert result.long_run_pass
    assert not result.passed


@pytest.mark.parametrize(
    "ones,expected",
    [(9725, False), (9726, True), (10274, True), (10275, False)],
)
def test_monobit_strict_bounds(ones, expected):
    result = fips_block_tests(block_with_ones(ones))
    assert result.ones == ones
    assert result.monobit_pass is expected


@pytest.mark.parametrize("run_length,expected", [(25, True), (26, False)])
def test_long_run_boundary(run_length, expected):
    result = fips_block_tests(block_with_run(run_length))
    assert result.max_run == run_length
    assert result.long_run_pass is expected


def test_too_uniform_nibbles_fail_poker():
    result = fips_block_tests(flat_nibble_block())
    # d = 8*312^2 + 8*313^2 = 1562504 -> statistic 64/5000
    assert result.poker_statistic == pytest.approx(0.0128)
    assert not result.poker_pass


def poker_block(d: int) -> bytes:
    """A block whose nibble counts have sum of squares exactly d.

    Starts from counts of eight 312s and eight 313s (d = 1562504) and moves
    single counts from a count a to a count b, each move adding 2(b - a + 1),
    taking the largest move that does not overshoot.
    """
    counts = [312] * 8 + [313] * 8
    remaining = d - sum(c * c for c in counts)
    while remaining:
        step, i, j = max(
            (2 * (counts[j] - counts[i] + 1), i, j)
            for i in range(16)
            for j in range(16)
            if i != j and 0 < 2 * (counts[j] - counts[i] + 1) <= remaining
        )
        counts[i] -= 1
        counts[j] += 1
        remaining -= step
    nibbles = [pattern for pattern, count in enumerate(counts) for _ in range(count)]
    random.Random(7).shuffle(nibbles)
    return bytes((hi << 4) | lo for hi, lo in zip(nibbles[::2], nibbles[1::2]))


@pytest.mark.parametrize(
    "d,expected",
    [(1563174, False), (1563176, True), (1576928, True), (1576930, False)],
)
def test_poker_band_is_the_published_band(d, expected):
    # d = 1563176 and 1576928 are X = 2.1632 and 46.1696, just inside
    # 2.16 < X < 46.17; their neighbours two steps out lie outside it.
    block = poker_block(d)
    result = fips_block_tests(block)
    statistic = (16 / 5000) * d - 5000
    assert result.poker_statistic == pytest.approx(statistic)
    assert result.poker_pass is reference_verdicts(block)["poker"] is (2.16 < statistic < 46.17)
    assert result.poker_pass is expected


# Near the expected run counts of a random block; each bit value has 5000 runs.
NOMINAL_RUNS = (2500, 1250, 625, 312, 156, 157)


def run_counts_with(bit: int, bucket: int, count: int) -> list[list[int]]:
    """Nominal run counts with counts[bit][bucket] = count. The other buckets of
    that bit take up the difference, staying strictly inside their intervals,
    so that both bit values keep 5000 runs."""
    counts = [list(NOMINAL_RUNS), list(NOMINAL_RUNS)]
    counts[bit][bucket] = count
    surplus = count - NOMINAL_RUNS[bucket]
    for other, (lo, hi) in enumerate(RUN_INTERVALS):
        if other != bucket:
            take = min(max(surplus, counts[bit][other] - hi + 1), counts[bit][other] - lo - 1)
            counts[bit][other] -= take
            surplus -= take
    assert surplus == 0
    return counts


def block_with_run_counts(counts) -> bytes:
    """Alternating zero-runs and one-runs, counts[v][i] of them of bit v and
    length i + 1; the runs of 6 or more share the bits left over as evenly as
    they can."""
    assert sum(counts[0]) == sum(counts[1])
    spare = BLOCK_BITS - sum((i + 1) * c for bit in (0, 1) for i, c in enumerate(counts[bit][:5]))
    share, extra = divmod(spare, counts[0][5] + counts[1][5])
    assert 6 <= share < LONG_RUN_BITS - 1
    long_lengths = [share + 1] * extra + [share] * (counts[0][5] + counts[1][5] - extra)
    long_by_bit = (long_lengths[: counts[0][5]], long_lengths[counts[0][5] :])
    rng = random.Random(sum(map(sum, counts)))
    runs = []
    for bit in (0, 1):
        lengths = [i + 1 for i, c in enumerate(counts[bit][:5]) for _ in range(c)]
        lengths += long_by_bit[bit]
        rng.shuffle(lengths)
        runs.append(lengths)
    bits = []
    for zeros, ones in zip(*runs):
        bits += [0] * zeros + [1] * ones
    return pack_bits(bits)


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("bucket", range(6), ids=["1", "2", "3", "4", "5", "6+"])
@pytest.mark.parametrize(
    "edge,step,expected",
    [("lo", -1, False), ("lo", 0, True), ("hi", 0, True), ("hi", 1, False)],
    ids=["lo-1", "lo", "hi", "hi+1"],
)
def test_run_count_bounds_are_inclusive(bit, bucket, edge, step, expected):
    # One count at a bound of its interval, or one step past it; every other
    # count strictly inside its own.
    lo, hi = RUN_INTERVALS[bucket]
    counts = run_counts_with(bit, bucket, (lo if edge == "lo" else hi) + step)
    block = block_with_run_counts(counts)
    result = fips_block_tests(block)
    assert result.run_counts == (tuple(counts[0]), tuple(counts[1]))
    assert result.runs_pass is reference_verdicts(block)["runs"] is expected


def test_mk0_stream_blocks_pass_at_reference_rate():
    report = fips_pass_rate(mk0_stream(100000), blocks=128)
    assert report.blocks_tested == 128
    assert report.pass_rate >= 0.992


def test_bit_order_is_msb_first():
    # 0x80 = bit pattern 10000000: the single one-bit must be first.
    block = b"\x80" + b"\x00" * 2499
    result = fips_block_tests(block)
    assert result.ones == 1
    # One run of a single 1, then 19999 zeros: MSB-first makes the one lead.
    assert result.run_counts[1][0] == 1
    assert result.max_run == 19999


def test_block_index_recorded():
    data = mk0_stream(160)  # 5120 bytes -> 2 blocks
    seen = []
    fips_pass_rate(data, blocks=2, block_sink=seen.append)
    assert [r.block_index for r in seen] == [0, 1]


def test_same_block_same_verdicts():
    block = mk0_stream(79)[:2500]
    assert fips_block_tests(block) == fips_block_tests(block)


def test_bytes_and_stream_sources_agree():
    data = mk0_stream(400)  # 12800 bytes -> 5 complete blocks
    from_bytes = fips_pass_rate(data, blocks=5)
    from_stream = fips_pass_rate(io.BytesIO(data), blocks=5)
    assert from_bytes == from_stream


def test_memoryview_source_reports_as_its_bytes():
    data = mk0_stream(3200)  # 40 complete blocks, in three chunks
    assert fips_pass_rate(memoryview(data), continuous_check=True) == fips_pass_rate(
        data, continuous_check=True
    )


class TrickleStream(io.RawIOBase):
    """A raw stream that returns at most `most` bytes per read, as a pipe or
    terminal can long before EOF."""

    def __init__(self, data: bytes, most: int = 1000):
        self._data = memoryview(data)
        self._most = most

    def readable(self):
        return True

    def readinto(self, buffer):
        n = min(len(buffer), self._most, len(self._data))
        buffer[:n] = self._data[:n]
        self._data = self._data[n:]
        return n


@pytest.mark.parametrize("blocks", [None, 128])
def test_short_reads_are_not_eof(blocks):
    data = mk0_stream(10000)  # exactly 128 blocks
    assert fips_pass_rate(TrickleStream(data), blocks) == fips_pass_rate(data, blocks)


def test_short_stream_carries_partial_tally():
    data = mk0_stream(200)  # 6400 bytes -> 2 complete blocks + remainder
    with pytest.raises(ShortStreamError) as excinfo:
        fips_pass_rate(data, blocks=5)
    partial = excinfo.value.partial
    assert partial.blocks_tested == 2
    assert partial.blocks_passed <= 2
    assert "2 of 5" in str(excinfo.value)


def test_empty_source_is_short_stream():
    with pytest.raises(ShortStreamError) as excinfo:
        fips_pass_rate(b"", blocks=1)
    assert excinfo.value.partial.blocks_tested == 0


def test_eof_mode_tests_all_complete_blocks():
    data = mk0_stream(300)  # 9600 bytes -> 3 complete blocks + 2100 left over
    report = fips_pass_rate(data)
    assert report.blocks_tested == 3


def test_eof_mode_requires_one_block():
    with pytest.raises(ShortStreamError):
        fips_pass_rate(b"\x00" * 100)


def test_blocks_must_be_positive():
    with pytest.raises(ValueError):
        fips_pass_rate(b"\x00" * 2500, blocks=0)


def test_failure_tallies_add_up():
    corpus = golden_corpus()
    report = fips_pass_rate(b"".join(corpus), blocks=len(corpus))
    assert report.blocks_tested == 143
    assert report.blocks_passed < 143  # the crafted blocks must fail
    assert report.pass_rate == report.blocks_passed / report.blocks_tested
    assert set(report.failures) == {"monobit", "poker", "runs", "long_run"}
    assert report.failures["monobit"] > 0
    assert report.failures["long_run"] > 0


def test_continuous_check_flags_repeated_words():
    clean = mk0_stream(79)[:2500]  # digest stream: no repeated words
    repeated = bytearray(clean)
    repeated[40:44] = repeated[36:40]  # duplicate one 32-bit word
    report = fips_pass_rate(bytes(repeated), blocks=1, continuous_check=True)
    assert report.failures["continuous"] == 1
    clean_report = fips_pass_rate(clean, blocks=1, continuous_check=True)
    assert clean_report.failures["continuous"] == 0


def test_continuous_check_spans_block_boundary():
    block = mk0_stream(79)[:2500]
    # Second block starts with the first block's final word.
    second = block[-4:] + block[4:]
    report = fips_pass_rate(block + second, blocks=2, continuous_check=True)
    assert report.failures["continuous"] == 1


def test_continuous_check_off_by_default():
    block = mk0_stream(79)[:2500]
    report = fips_pass_rate(block, blocks=1)
    assert "continuous" not in report.failures
    results = []
    fips_pass_rate(block, blocks=1, block_sink=results.append)
    assert results[0].continuous_pass is None


def mk0_blocks(count: int) -> bytes:
    return mk0_stream(-(-count * BLOCK_BYTES // 32))[: count * BLOCK_BYTES]


def test_repeated_word_across_chunks_flags_the_second_block():
    data = bytearray(mk0_blocks(CHUNK_BLOCKS + 1))
    boundary = CHUNK_BLOCKS * BLOCK_BYTES
    data[boundary : boundary + 4] = data[boundary - 4 : boundary]
    seen = []
    report = fips_pass_rate(bytes(data), continuous_check=True, block_sink=seen.append)
    assert [r.continuous_pass for r in seen] == [True] * CHUNK_BLOCKS + [False]
    assert report.failures["continuous"] == 1


def test_block_count_reads_no_further_than_its_blocks():
    stream = io.BytesIO(mk0_blocks(2 * CHUNK_BLOCKS + 1))
    report = fips_pass_rate(stream, blocks=CHUNK_BLOCKS + 3)
    assert report.blocks_tested == CHUNK_BLOCKS + 3
    assert stream.tell() == (CHUNK_BLOCKS + 3) * BLOCK_BYTES


def mixed_blocks(count: int) -> list[bytes]:
    """Random, biased and constant blocks; most start or end with a chain of
    0x00 or 0xff bytes, so that chains of one value meet at block boundaries."""
    rng = random.Random(2 * CHUNK_BLOCKS + 5)
    constants = [b"\x00" * BLOCK_BYTES, b"\xff" * BLOCK_BYTES, b"\x55" * BLOCK_BYTES]
    blocks = []
    for index in range(count):
        if index % 7 == 3:
            block = bytearray(constants[index % 3])
        elif index % 7 == 5:
            block = bytearray(biased_block(rng.choice((0.1, 0.9)), seed=index))
        else:
            block = bytearray(rng.randbytes(BLOCK_BYTES))
        head, tail = rng.randrange(4), rng.randrange(4)
        block[:head] = bytes([rng.choice((0x00, 0xFF))]) * head
        block[BLOCK_BYTES - tail :] = bytes([rng.choice((0x00, 0xFF))]) * tail
        blocks.append(bytes(block))
    return blocks


def test_chunked_results_match_single_block_tests():
    blocks = mixed_blocks(2 * CHUNK_BLOCKS + 5)
    seen = []
    fips_pass_rate(b"".join(blocks), block_sink=seen.append)
    assert seen == [fips_block_tests(block, block_index=i) for i, block in enumerate(blocks)]
    assert seen == [numpy_reference_block_tests(block, i) for i, block in enumerate(blocks)]


def test_summary_line_format():
    report = fips_pass_rate(mk0_stream(160), blocks=2)
    line = summary_line(report)
    assert re.fullmatch(r"blocks=2 passed=\d+ rate=[01]\.\d{6}", line)


def test_block_csv_row_format():
    result = fips_block_tests(b"\x55" * 2500, block_index=7)
    assert BLOCK_CSV_HEADER == "block,monobit,poker,runs,longrun,pass"
    assert block_csv_row(result) == "7,1,0,0,1,0"


@pytest.mark.parametrize("continuous", [None, True, False])
@pytest.mark.parametrize("flags", list(itertools.product((False, True), repeat=4)))
def test_row_and_pass_read_the_same_flags_as_verdicts(flags, continuous):
    base = fips_block_tests(mk0_stream(79)[:2500], block_index=3)
    result = base._replace(
        **{f"{name}_pass": flag for name, flag in zip(BATTERY_TESTS, flags)},
        continuous_pass=continuous,
    )
    verdicts = result.verdicts
    assert result.passed is all(verdicts.values())
    expected = [verdicts[name] for name in BATTERY_TESTS] + [all(verdicts.values())]
    assert block_csv_row(result) == "3," + ",".join(str(int(flag)) for flag in expected)


def test_battery_agrees_with_independent_reference_on_random_blocks():
    rng = random.Random(424242)
    for _ in range(40):
        block = rng.randbytes(2500)
        result = fips_block_tests(block)
        expected = reference_verdicts(block)
        got = {
            "monobit": result.monobit_pass,
            "poker": result.poker_pass,
            "runs": result.runs_pass,
            "long_run": result.long_run_pass,
        }
        assert got == expected


@settings(max_examples=30, deadline=None)
@given(data=st.binary(min_size=2500, max_size=2500))
def test_battery_agrees_with_reference_on_arbitrary_blocks(data):
    result = fips_block_tests(data)
    expected = reference_verdicts(data)
    assert result.monobit_pass == expected["monobit"]
    assert result.poker_pass == expected["poker"]
    assert result.runs_pass == expected["runs"]
    assert result.long_run_pass == expected["long_run"]


def test_run_counts_match_loop_reference():
    rng = random.Random(715)
    blocks = golden_corpus() + crafted_repeat_blocks()
    blocks += [rng.randbytes(2500) for _ in range(20)]
    for block in blocks:
        result = fips_block_tests(block)
        assert (result.run_counts, result.max_run) == loop_run_counts(block)


def test_repeated_word_matches_loop_reference():
    blocks = golden_corpus() + crafted_repeat_blocks()
    for block in blocks:
        carried = (None, block[:4], block[-4:], bytes(b ^ 0xFF for b in block[:4]))
        for last_word in carried:
            repeated, last = loop_repeated_word(block, last_word)
            assert _repeated_words(block, last_word) == ([repeated], last)
    # One chunk: the word carried into each block is the one before it.
    chunk = blocks[-CHUNK_BLOCKS:]
    expected, last = [], None
    for block in chunk:
        repeated, last = loop_repeated_word(block, last)
        expected.append(repeated)
    assert True in expected
    assert _repeated_words(b"".join(chunk), None) == (expected, last)


@pytest.mark.parametrize("continuous", [False, True])
def test_failure_tally_matches_per_block_flags(continuous):
    corpus = golden_corpus() + crafted_repeat_blocks()
    seen = []
    report = fips_pass_rate(
        b"".join(corpus),
        blocks=len(corpus),
        continuous_check=continuous,
        block_sink=seen.append,
    )
    expected = {
        "monobit": sum(not r.monobit_pass for r in seen),
        "poker": sum(not r.poker_pass for r in seen),
        "runs": sum(not r.runs_pass for r in seen),
        "long_run": sum(not r.long_run_pass for r in seen),
    }
    if continuous:
        expected["continuous"] = sum(r.continuous_pass is False for r in seen)
        assert expected["continuous"] > 0
    assert report.failures == expected
    assert report.blocks_passed == sum(
        r.monobit_pass
        and r.poker_pass
        and r.runs_pass
        and r.long_run_pass
        and r.continuous_pass is not False
        for r in seen
    )


def test_rngtest_compare_reference_regenerates_golden_csv(tmp_path):
    out = tmp_path / "golden.csv"
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "tests" / "golden_blocks.py"),
            "--use-reference",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (REPO / "tests" / "data" / "fips_golden.csv").read_bytes()


def edge_run_block(bit: int, length: int, at_end: bool) -> bytes:
    """Alternating bits with one run of `bit`, of exact length, at a block end."""
    bits = [i & 1 for i in range(BLOCK_BITS)]
    span = range(BLOCK_BITS - length, BLOCK_BITS) if at_end else range(length)
    for i in span:
        bits[i] = bit
    bits[span[0] - 1 if at_end else span[-1] + 1] = 1 - bit
    return pack_bits(bits)


def crafted_kernel_blocks() -> list[bytes]:
    blocks = [b"\x00" * BLOCK_BYTES, b"\xff" * BLOCK_BYTES, b"\x55" * BLOCK_BYTES]
    blocks.append(b"\x80" + b"\x00" * (BLOCK_BYTES - 1))
    blocks.append(b"\x00" * (BLOCK_BYTES - 1) + b"\x01")
    blocks += [
        edge_run_block(bit, length, at_end)
        for bit in (0, 1)
        for length in (25, 26)
        for at_end in (False, True)
    ]
    return blocks


def test_kernel_matches_numpy_reference():
    stream = mk0_stream(512 * BLOCK_BYTES // 32)
    mk0_blocks = [stream[i : i + BLOCK_BYTES] for i in range(0, len(stream), BLOCK_BYTES)]
    assert len(mk0_blocks) == 512
    for index, block in enumerate(golden_corpus() + crafted_kernel_blocks() + mk0_blocks):
        got = fips_block_tests(block, block_index=index)
        assert got == numpy_reference_block_tests(block, index)


def test_concurrent_pass_rates_match_sequential():
    # Each thread must work in its own buffers: the kernel's numpy calls
    # release the interpreter lock, so shared buffers would mix blocks.
    sources = [b"".join(golden_corpus()), mk0_stream(128 * BLOCK_BYTES // 32)]

    def run(source):
        seen = []
        report = fips_pass_rate(source, continuous_check=True, block_sink=seen.append)
        return report, seen

    expected = [run(source) for source in sources]
    got = [None] * len(sources)

    def worker(slot):
        got[slot] = run(sources[slot])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected


def test_nested_pass_rates_match_sequential():
    # A block_sink may run the battery itself, on the same thread; neither
    # call may see the other's blocks.
    outer_source = mk0_stream(40 * BLOCK_BYTES // 32)
    corpus = golden_corpus()

    def inner_runs(result):
        # Other data for every outer block: a 5-block run with the word
        # check, 20 blocks until EOF (two chunks), and one block on its own.
        start = result.block_index % len(corpus)
        rotated = corpus[start:] + corpus[:start]
        seen = []
        few = b"".join(rotated[:5])
        report = fips_pass_rate(few, blocks=5, continuous_check=True, block_sink=seen.append)
        many = fips_pass_rate(b"".join(rotated[:20]))
        return report, seen, many, fips_block_tests(rotated[-1], start)

    outer_seen, nested = [], []

    def sink(result):
        outer_seen.append(result)
        nested.append(inner_runs(result))

    report = fips_pass_rate(outer_source, continuous_check=True, block_sink=sink)

    expected_seen = []
    expected = fips_pass_rate(outer_source, continuous_check=True, block_sink=expected_seen.append)
    assert report == expected
    assert report.blocks_tested == 40
    assert outer_seen == expected_seen
    assert nested == [inner_runs(result) for result in expected_seen]


def _minor_faults(args) -> int:
    proc = subprocess.Popen(
        [sys.executable, "-m", "jitterseed", "fips", *args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_minflt


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap behaviour")
def test_battery_does_not_fault_per_block(tmp_path):
    # Freed per-block temporaries can let glibc trim the heap and fault it back
    # in on every block. A kernel that churned showed no churn over the first
    # 1024 blocks, so this takes the full 5120-block mk0 stream.
    stream = tmp_path / "mk0.bin"
    one_block = tmp_path / "one.bin"
    stream.write_bytes(mk0_stream(400000))
    one_block.write_bytes(stream.read_bytes()[:BLOCK_BYTES])
    csv = str(tmp_path / "blocks.csv")
    full = _minor_faults([str(stream), "--continuous", "--per-block", csv])
    base = _minor_faults([str(one_block), "--continuous", "--per-block", csv])
    assert full - base < 5120

import dataclasses
import io
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
    block_with_ones,
    block_with_run,
    flat_nibble_block,
    golden_corpus,
    pack_bits,
)
from jitterseed.conditioner import mk0_stream
from jitterseed.errors import ShortStreamError, WrongBlockSizeError
from jitterseed.fips import (
    BLOCK_CSV_HEADER,
    FipsBlockResult,
    _repeated_word,
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
        with pytest.raises(WrongBlockSizeError):
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


def test_summary_line_format():
    report = fips_pass_rate(mk0_stream(160), blocks=2)
    line = summary_line(report)
    assert re.fullmatch(r"blocks=2 passed=\d+ rate=[01]\.\d{6}", line)


def test_block_csv_row_format():
    result = fips_block_tests(b"\x55" * 2500, block_index=7)
    assert BLOCK_CSV_HEADER == "block,monobit,poker,runs,longrun,pass"
    assert block_csv_row(result) == "7,1,0,0,1,0"


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
            assert _repeated_word(block, last_word) == loop_repeated_word(
                block, last_word
            )


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
        got = dataclasses.astuple(fips_block_tests(block, block_index=index))
        assert got == dataclasses.astuple(numpy_reference_block_tests(block, index))


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

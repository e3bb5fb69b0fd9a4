"""FIPS 140-2 block tests written independently of the shipped battery.

Bit-at-a-time, float poker statistic, naive run walking: slow but transparent
against the published test definitions. Verdicts from here are compared
verdict-for-verdict with the production implementation and frozen into the
golden CSV replayed by the acceptance suite. rngtest_verdicts scores a block
with the system `rngtest` tool (rng-tools) instead, as a second oracle.
numpy_reference_block_tests is the battery's earlier kernel, which built fresh
arrays for every block; the buffer-reusing kernel must match it field for field.
"""

import re
import subprocess

import numpy as np

from jitterseed.fips import (
    LONG_RUN_BITS,
    MONOBIT_HI,
    MONOBIT_LO,
    POKER_D_HI,
    POKER_D_LO,
    RUN_INTERVALS,
    FipsBlockResult,
)

BLOCK_BYTES = 2500

RUN_BOUNDS = {
    1: (2315, 2685),
    2: (1114, 1386),
    3: (527, 723),
    4: (240, 384),
    5: (103, 209),
    6: (103, 209),
}


def block_bits(block: bytes) -> list[int]:
    bits = []
    for byte in block:
        for shift in range(7, -1, -1):
            bits.append((byte >> shift) & 1)
    return bits


def reference_verdicts(block: bytes) -> dict[str, bool]:
    """Monobit, poker, runs, long-run verdicts for one 20000-bit block."""
    assert len(block) == BLOCK_BYTES
    bits = block_bits(block)

    ones = sum(bits)
    monobit = 9725 < ones < 10275

    segment_counts = [0] * 16
    for i in range(0, len(bits), 4):
        pattern = bits[i] * 8 + bits[i + 1] * 4 + bits[i + 2] * 2 + bits[i + 3]
        segment_counts[pattern] += 1
    statistic = (16 / 5000) * sum(c * c for c in segment_counts) - 5000
    poker = 2.16 < statistic < 46.17

    run_tally = {0: dict.fromkeys(range(1, 7), 0), 1: dict.fromkeys(range(1, 7), 0)}
    longest = 0
    current = bits[0]
    length = 1
    for bit in bits[1:]:
        if bit == current:
            length += 1
        else:
            run_tally[current][min(length, 6)] += 1
            longest = max(longest, length)
            current = bit
            length = 1
    run_tally[current][min(length, 6)] += 1
    longest = max(longest, length)

    runs = all(
        RUN_BOUNDS[run_length][0] <= run_tally[value][run_length] <= RUN_BOUNDS[run_length][1]
        for value in (0, 1)
        for run_length in range(1, 7)
    )
    long_run = longest < 26

    return {"monobit": monobit, "poker": poker, "runs": runs, "long_run": long_run}


_RNGTEST_LINES = {
    "monobit": re.compile(r"Monobit: (\d+)"),
    "poker": re.compile(r"Poker: (\d+)"),
    "runs": re.compile(r"Runs: (\d+)"),
    "long_run": re.compile(r"Long run: (\d+)"),
}


def rngtest_verdicts(block: bytes) -> dict[str, bool]:
    """The same four verdicts, from one `rngtest -c 1` run over the block."""
    # rngtest consumes the first 32 bits to prime its continuous-run state and
    # does not test them; prefix bytes that cannot equal the block's first word.
    bootstrap = bytes(b ^ 0xFF for b in block[:4])
    proc = subprocess.run(
        ["rngtest", "-c", "1"], input=bootstrap + block, capture_output=True
    )
    text = proc.stderr.decode()
    verdicts = {}
    for name, pattern in _RNGTEST_LINES.items():
        match = pattern.search(text)
        if match is None:
            raise RuntimeError(f"could not parse rngtest output:\n{text}")
        verdicts[name] = int(match.group(1)) == 0
    return verdicts


def numpy_reference_block_tests(block: bytes, block_index: int = 0) -> FipsBlockResult:
    """The four tests as the battery computed them with per-block temporaries."""
    assert len(block) == BLOCK_BYTES
    arr = np.frombuffer(block, dtype=np.uint8)
    bits = np.unpackbits(arr)

    ones = int(bits.sum())
    nibble_counts = np.bincount(np.concatenate((arr >> 4, arr & 0x0F)), minlength=16)
    d = int(np.dot(nibble_counts, nibble_counts))

    boundaries = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    lengths = np.diff(np.concatenate((starts, [bits.size])))
    values = bits[starts]
    buckets = 6 * values + np.minimum(lengths, 6) - 1
    counts = np.bincount(buckets, minlength=12).reshape(2, 6).tolist()
    max_run = int(lengths.max())

    return FipsBlockResult(
        block_index=block_index,
        ones=ones,
        monobit_pass=MONOBIT_LO < ones < MONOBIT_HI,
        poker_statistic=16.0 * d / 5000.0 - 5000.0,
        poker_pass=POKER_D_LO < d < POKER_D_HI,
        run_counts=(tuple(counts[0]), tuple(counts[1])),
        runs_pass=all(
            lo <= counts[bit_value][i] <= hi
            for bit_value in (0, 1)
            for i, (lo, hi) in enumerate(RUN_INTERVALS)
        ),
        max_run=max_run,
        long_run_pass=max_run < LONG_RUN_BITS,
    )

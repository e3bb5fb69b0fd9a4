"""Deterministic 143-block corpus for verdict-equivalence testing.

Mix of known-good stream blocks, degenerate constants, exact monobit and
long-run boundary constructions, a bias ladder straddling the monobit bound,
a too-uniform nibble histogram, and repeated-byte patterns with varied run
structure. Fully reproducible from code; no binary fixture needed.

Run as a script to regenerate tests/data/fips_golden.csv, the verdicts of an
independent scorer on this corpus:

    python tests/golden_blocks.py [--use-reference] [--out PATH]

The system `rngtest` tool (rng-tools) scores each block when it is on PATH
(reference_fips.rngtest_verdicts); otherwise, or with --use-reference, the
in-repo reference implementation does (reference_fips.reference_verdicts).
"""

import argparse
import random
import shutil
import sys
from pathlib import Path

from reference_fips import reference_verdicts, rngtest_verdicts

from jitterseed.conditioner import mk0_stream
from jitterseed.fips import BLOCK_CSV_HEADER

BLOCK_BYTES = 2500
BLOCK_BITS = BLOCK_BYTES * 8


def pack_bits(bits) -> bytes:
    assert len(bits) == BLOCK_BITS
    out = bytearray(BLOCK_BYTES)
    for i, bit in enumerate(bits):
        if bit:
            out[i >> 3] |= 0x80 >> (i & 7)
    return bytes(out)


def block_with_ones(ones: int) -> bytes:
    """Exactly `ones` one-bits, all leading."""
    return pack_bits([1] * ones + [0] * (BLOCK_BITS - ones))


def block_with_run(run_length: int) -> bytes:
    """Alternating bits with one embedded all-ones run of exact length."""
    bits = [i & 1 for i in range(BLOCK_BITS)]
    start = 5000
    bits[start - 1] = 0
    for i in range(start, start + run_length):
        bits[i] = 1
    bits[start + run_length] = 0
    return pack_bits(bits)


def biased_block(ones_probability: float, seed: int) -> bytes:
    rng = random.Random(seed)
    return pack_bits([1 if rng.random() < ones_probability else 0 for _ in range(BLOCK_BITS)])


def flat_nibble_block() -> bytes:
    """Near-perfectly flat 4-bit histogram; fails poker for being too uniform."""
    nibbles = []
    for pattern in range(16):
        nibbles.extend([pattern] * (312 if pattern < 8 else 313))
    rng = random.Random(99)
    rng.shuffle(nibbles)
    out = bytearray()
    for i in range(0, len(nibbles), 2):
        out.append((nibbles[i] << 4) | nibbles[i + 1])
    return bytes(out)


# Ones probabilities: well inside the pass band, straddling the monobit
# boundary (10275/20000 = 0.51375), and far outside it.
BIAS_LADDER = (
    0.48, 0.49, 0.495, 0.50, 0.505, 0.507, 0.510, 0.5125, 0.5135, 0.514,
    0.5145, 0.515, 0.517, 0.52, 0.53, 0.55, 0.60, 0.65, 0.75, 0.90,
)

PATTERN_BYTES = (0x0F, 0x33, 0x3C, 0x5A, 0x66, 0x69, 0x96, 0x99, 0xA5, 0xC3, 0xCC, 0xF0)


def golden_corpus() -> list[bytes]:
    blocks = []
    stream = mk0_stream(7813)  # 250016 bytes, 100 complete blocks
    blocks.extend(stream[i * BLOCK_BYTES : (i + 1) * BLOCK_BYTES] for i in range(100))
    blocks.append(b"\x00" * BLOCK_BYTES)
    blocks.append(b"\xff" * BLOCK_BYTES)
    blocks.append(b"\x55" * BLOCK_BYTES)
    blocks.append(b"\xaa" * BLOCK_BYTES)
    for ones in (9725, 9726, 10274, 10275):
        blocks.append(block_with_ones(ones))
    for run_length in (25, 26):
        blocks.append(block_with_run(run_length))
    for i, p in enumerate(BIAS_LADDER):
        blocks.append(biased_block(p, seed=1000 + i))
    blocks.append(flat_nibble_block())
    blocks.extend(bytes([pattern]) * BLOCK_BYTES for pattern in PATTERN_BYTES)
    assert len(blocks) == 143
    return blocks


def main() -> int:
    parser = argparse.ArgumentParser(description="Regenerate the golden verdict CSV.")
    parser.add_argument("--use-reference", action="store_true",
                        help="score with the in-repo reference even if rngtest exists")
    parser.add_argument("--out", default=str(Path(__file__).parent / "data" / "fips_golden.csv"))
    args = parser.parse_args()

    use_rngtest = not args.use_reference and shutil.which("rngtest") is not None
    oracle = rngtest_verdicts if use_rngtest else reference_verdicts
    print(f"oracle: {'system rngtest' if use_rngtest else 'in-repo reference'}",
          file=sys.stderr)

    blocks = golden_corpus()
    with open(args.out, "w") as handle:
        handle.write(BLOCK_CSV_HEADER + "\n")
        for index, block in enumerate(blocks):
            flags = [int(flag) for flag in oracle(block).values()]
            handle.write(",".join(map(str, [index, *flags, int(all(flags))])) + "\n")

    print(f"wrote {len(blocks)} golden rows to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

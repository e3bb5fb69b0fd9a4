#!/usr/bin/env python3
"""Regenerate the golden per-block verdict CSV and cross-check the battery.

Oracle selection:
  * If the system `rngtest` tool is on PATH (rng-tools), every corpus block is
    scored by it one block at a time (tests/reference_fips.rngtest_verdicts).
  * Otherwise the independent in-repo reference implementation
    (tests/reference_fips.reference_verdicts) scores the corpus.

Either way the script reports any disagreement with the shipped battery and
rewrites tests/data/fips_golden.csv.

Usage: python scripts/rngtest_compare.py [--use-reference] [--out PATH]
"""

import argparse
import shutil
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))

from golden_blocks import golden_corpus  # noqa: E402
from reference_fips import reference_verdicts, rngtest_verdicts  # noqa: E402

from jitterseed.fips import BLOCK_CSV_HEADER, fips_block_tests  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--use-reference", action="store_true",
                        help="score with the in-repo reference even if rngtest exists")
    parser.add_argument("--out", default=str(REPO / "tests" / "data" / "fips_golden.csv"))
    args = parser.parse_args()

    use_rngtest = not args.use_reference and shutil.which("rngtest") is not None
    oracle = rngtest_verdicts if use_rngtest else reference_verdicts
    print(f"oracle: {'system rngtest' if use_rngtest else 'in-repo reference'}",
          file=sys.stderr)

    rows = []
    mismatches = 0
    for index, block in enumerate(golden_corpus()):
        expected = oracle(block)
        got = fips_block_tests(block).verdicts
        if expected != got:
            mismatches += 1
            print(f"MISMATCH block {index}: oracle={expected} battery={got}",
                  file=sys.stderr)
        flags = list(expected.values())
        rows.append([index, *map(int, flags), int(all(flags))])

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        handle.write(BLOCK_CSV_HEADER + "\n")
        for row in rows:
            handle.write(",".join(map(str, row)) + "\n")

    print(f"wrote {len(rows)} golden rows to {out}", file=sys.stderr)
    print(f"battery vs oracle mismatches: {mismatches}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

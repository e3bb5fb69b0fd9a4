"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line with
the measured figures (visible with pytest -s), and asserts the same condition.
"""

import csv
import json
import random
import shutil
import time
from pathlib import Path

import reference_sha256
from helpers import make_trace, read_histogram_csv
from jitterseed.analysis import (
    SEED_STANDARD_BITS,
    aggregate_distribution,
    estimate_worst_case_entropy,
    meets_seed_standard,
    merge_reports,
    report_document,
    top_k_overlap,
    write_histogram_csv,
    write_json_report,
)
from jitterseed.autotune import TuneVerdict, tune
from jitterseed.cli import run_cli
from jitterseed.collector import CollectorConfig, collect_trace, distinct_count
from jitterseed.conditioner import condition, mk0_stream, serialize_trace
from jitterseed.timer import SimulatedClock, default_clock, probe_resolution

DATA_DIR = Path(__file__).parent / "data"

# Frozen conditioning oracle for the trace with deltas 1..100 (see
# test_conditioner.py, verified against the independent implementation).
TRACE_1_TO_100_DIGEST0 = "b46936c9f8111ea80622c1fc6dca0d4ef29366c99ffbfff577b5e8fd3963badd"
TRACE_1_TO_100_DIGEST1 = "655ba59cf72a450261110d6de39629911b270626c59e18446e26f22a4799491e"


def check(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_reference_stream_pass_rate():
    from jitterseed.fips import fips_pass_rate

    started = time.perf_counter()
    stream = mk0_stream(400000)
    report = fips_pass_rate(stream, blocks=5000)
    elapsed = time.perf_counter() - started
    ok = 0.997 <= report.pass_rate <= 1.0 and elapsed < 60.0
    check(1, ok, f"rate={report.pass_rate:.6f} over 5000 blocks in {elapsed:.1f}s")


def test_criterion_2_per_block_verdicts_match_external_tool():
    from golden_blocks import golden_corpus
    from jitterseed.fips import BLOCK_CSV_HEADER, block_csv_row, fips_block_tests
    from reference_fips import rngtest_verdicts

    corpus = golden_corpus()
    header, *rows = (DATA_DIR / "fips_golden.csv").read_text().splitlines()
    assert header == BLOCK_CSV_HEADER
    assert len(rows) == len(corpus) >= 100

    # Each golden row holds block index, all four flags and the overall pass.
    results = [fips_block_tests(block, index) for index, block in enumerate(corpus)]
    golden_mismatches = sum(
        block_csv_row(result) != row for result, row in zip(results, rows)
    )

    live = shutil.which("rngtest") is not None
    live_mismatches = 0
    if live:
        live_mismatches = sum(
            result.verdicts != rngtest_verdicts(block)
            for result, block in zip(results, corpus)
        )

    ok = golden_mismatches == 0 and live_mismatches == 0
    oracle = "rngtest+golden" if live else "golden replay"
    check(
        2,
        ok,
        f"{len(corpus)} blocks via {oracle}, "
        f"mismatches golden={golden_mismatches} live={live_mismatches}",
    )


def test_criterion_3_seed_material_passes_battery():
    from jitterseed.fips import BLOCK_BYTES, fips_pass_rate

    started = time.perf_counter()
    # 390626 digests: just over the 5000 blocks the battery needs.
    trace = collect_trace(CollectorConfig(stretch=390625))
    material = condition(trace).to_bytes()
    assert len(material) >= 5000 * BLOCK_BYTES
    report = fips_pass_rate(material, blocks=5000)
    elapsed = time.perf_counter() - started
    ok = report.pass_rate >= 0.997 and elapsed < 120.0
    check(
        3,
        ok,
        f"rate={report.pass_rate:.6f} over 5000 blocks "
        f"({distinct_count(trace)} distinct deltas) in {elapsed:.1f}s",
    )


def test_criterion_4_worst_case_entropy_model():
    estimate = estimate_worst_case_entropy(20, 100)
    bits_ok = abs(estimate.bits - 432.19) <= 0.01
    log10_ok = abs(estimate.key_space_log10 - 130.10) <= 0.01
    standard_ok = meets_seed_standard(estimate)
    relative = abs(2**SEED_STANDARD_BITS - 1.15e77) / 1.15e77
    ok = bits_ok and log10_ok and standard_ok and relative < 0.01
    check(
        4,
        ok,
        f"bits={estimate.bits:.4f} log10={estimate.key_space_log10:.4f} "
        f"standard={standard_ok} 2^256 off nominal by {relative:.4f}",
    )


def test_criterion_5_seed_throughput(tmp_path):
    out = tmp_path / "seed.bin"
    started = time.perf_counter()
    code = run_cli(["seed", "--scale", "2000", "--out", str(out)])
    elapsed = time.perf_counter() - started
    ok = code == 0 and out.stat().st_size == 32 * 101 and elapsed < 1.0
    check(5, ok, f"exit={code} {32 * 101} bytes in {elapsed * 1000:.0f}ms")


def test_criterion_6_quality_floor_on_real_hardware():
    started = time.perf_counter()
    result = tune(CollectorConfig(), floor=20, budget_ns=5_000_000_000)
    clock = default_clock()
    spec = probe_resolution(clock)
    good = sum(
        distinct_count(collect_trace(result.config, clock, spec)) >= 20
        for _ in range(100)
    )
    elapsed = time.perf_counter() - started
    ok = (
        result.verdict is not TuneVerdict.UNATTAINABLE
        and good >= 95
        and elapsed < 30.0
    )
    check(
        6,
        ok,
        f"verdict={result.verdict.value} scale={result.config.scale} "
        f"{good}/100 runs at floor in {elapsed:.1f}s",
    )


def test_criterion_7_coarse_clock_fails_closed(tmp_path, capsys):
    started = time.perf_counter()
    out = tmp_path / "seed.bin"
    code = run_cli(["seed", "--simulate-quantum-ns", "16000000", "--out", str(out)])
    err = capsys.readouterr().err
    seed_ok = code == 1 and not out.exists() and "error:" in err

    result = tune(
        CollectorConfig(),
        clock=SimulatedClock(16_000_000),
        floor=20,
        budget_ns=2_000_000_000,
    )
    elapsed = time.perf_counter() - started
    ok = seed_ok and result.verdict is TuneVerdict.UNATTAINABLE and elapsed < 10.0
    check(
        7,
        ok,
        f"seed exit={code} sink={'absent' if not out.exists() else 'WRITTEN'} "
        f"tune={result.verdict.value} in {elapsed:.1f}s",
    )


def test_criterion_8_conditioning_invariants(tmp_path):
    golden = make_trace(range(1, 101))
    replays = {condition(golden).to_bytes() for _ in range(100)}
    seed = condition(golden)
    replay_ok = (
        len(replays) == 1
        and seed.digests[0].hex() == TRACE_1_TO_100_DIGEST0
        and seed.digests[1].hex() == TRACE_1_TO_100_DIGEST1
    )

    rng = random.Random(0xC8)
    chain_ok = True
    for _ in range(1000):
        deltas = [rng.randrange(2**64) for _ in range(rng.randrange(1, 20))]
        trace = make_trace(deltas, stretch=2)
        produced = condition(trace, quality_floor=1).digests
        blob = serialize_trace(trace)
        expected = [reference_sha256.sha256(blob)]
        for _ in range(trace.config.stretch):
            expected.append(reference_sha256.sha256(expected[-1] + blob))
        if list(produced) != expected:
            chain_ok = False
            break

    base = make_trace([rng.randrange(2**64) for _ in range(100)], stretch=0)
    base_digest = int.from_bytes(condition(base).digests[0], "big")
    flipped_bits = 0
    for _ in range(1000):
        mutated = list(base.samples)
        mutated[rng.randrange(100)] ^= 1 << rng.randrange(64)
        digest = int.from_bytes(
            condition(make_trace(mutated, stretch=0)).digests[0], "big"
        )
        flipped_bits += (digest ^ base_digest).bit_count()
    avalanche = flipped_bits / (1000 * 256)

    sink = tmp_path / "never.bin"
    codes = [
        run_cli(["seed", "--floor", "101", "--out", str(sink)]),
        run_cli(["seed", "--scale", "0", "--out", str(sink)]),
        run_cli(
            [
                "seed",
                "--tune",
                "--budget-ms",
                "150",
                "--simulate-quantum-ns",
                "16000000",
                "--out",
                str(sink),
            ]
        ),
        run_cli(["seed", "--out", str(sink), "--no-such-flag"]),
    ]
    fail_closed_ok = codes == [1, 2, 1, 2] and not sink.exists()

    ok = replay_ok and chain_ok and avalanche >= 0.35 and fail_closed_ok
    check(
        8,
        ok,
        f"replay={'stable' if replay_ok else 'UNSTABLE'} "
        f"chain={'verified' if chain_ok else 'BROKEN'} "
        f"avalanche={avalanche:.3f} exits={codes} "
        f"sink={'absent' if not sink.exists() else 'WRITTEN'}",
    )


def test_criterion_9_analysis_conservation(tmp_path):
    rng = random.Random(0xC9)

    merge_ok = True
    for _ in range(1000):
        traces = [
            [rng.randrange(0, 40) for _ in range(rng.randrange(1, 15))]
            for _ in range(rng.randrange(2, 8))
        ]
        groups = []
        remaining = traces
        while remaining:
            take = rng.randrange(1, len(remaining) + 1)
            groups.append(remaining[:take])
            remaining = remaining[take:]
        parts = [aggregate_distribution(group, k=7) for group in groups]
        if merge_reports(parts, k=7) != aggregate_distribution(traces, k=7):
            merge_ok = False
            break

    overlap_ok = True
    for _ in range(1000):
        a = aggregate_distribution(
            [[rng.randrange(0, 25) for _ in range(60)]], k=5
        )
        b = aggregate_distribution(
            [[rng.randrange(0, 25) for _ in range(60)]], k=5
        )
        k = rng.randrange(1, 11)
        if a.unique_values < k or b.unique_values < k:
            continue
        forward = top_k_overlap(a, b, k)
        if forward != top_k_overlap(b, a, k) or not 0 <= forward <= k:
            overlap_ok = False
            break
        if top_k_overlap(a, a, k) != k:
            overlap_ok = False
            break

    report = aggregate_distribution([[rng.randrange(0, 50) for _ in range(500)]])
    csv_path = tmp_path / "hist.csv"
    with open(csv_path, "w", newline="") as handle:
        write_histogram_csv(report, handle)
    with open(csv_path, newline="") as handle:
        parsed_rows = list(csv.reader(handle))
    csv_ok = (
        parsed_rows[0] == ["value_ns", "count"]
        and {int(v): int(c) for v, c in parsed_rows[1:]} == report.histogram
        and read_histogram_csv(csv_path) == report.histogram
    )

    document = report_document(
        probe_resolution(default_clock()), CollectorConfig(), report
    )
    json_path = tmp_path / "report.json"
    with open(json_path, "w") as handle:
        write_json_report(document, handle)
    json_ok = json.loads(json_path.read_text()) == document

    ok = merge_ok and overlap_ok and csv_ok and json_ok
    check(
        9,
        ok,
        f"merge={'conserved' if merge_ok else 'LOST'} "
        f"overlap={'held' if overlap_ok else 'VIOLATED'} "
        f"csv={'ok' if csv_ok else 'BAD'} json={'ok' if json_ok else 'BAD'}",
    )

"""Check that Tier-1 kills each mutant that loosens a gate, a check or a safe write.

    python tests/mutants.py

Each mutant replaces one exact piece of text in one module of a fresh copy of
src/jitterseed, and the test named beside it must then fail. Those tests must
first pass on an unmutated copy. Text that is not found exactly once fails the
script, so that a mutant cannot go stale unnoticed. The exit status is 1 when
a mutant survives, a run cannot be judged or a run times out.

Left out as equivalent: poker's `<` to `<=` at both ends. d is a sum of
sixteen squared counts that add up to 5000; a square has the parity of its
root, so d is even, and both bounds (1563175 and 1576929) are odd.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

BUDGET_CHECK = "if elapsed + PROBE_RUNS_PER_SCALE * projected_ns(candidate) > budget_ns:"
SEED_BUDGET_CHECK = "if elapsed + projected_ns(config) > args.budget_ms * 1_000_000:"
BAD_INPUT = "tests/test_cli.py::test_bad_input_exits_cleanly"
# A run that takes longer, say a mutant that spins, counts as a failure.
TIMEOUT_S = 600


def floor_one_below(text: str, node: str) -> tuple:
    """The mutant that moves the _int_at_least floor in cli.py's text down by one."""
    floor = text.partition("_int_at_least(")[2].partition(")")[0]
    lowered = text.replace(f"_int_at_least({floor})", f"_int_at_least({floor} - 1)")
    return ("cli.py", text, lowered, node)


# (module, text, replacement, test node that kills it)
MUTANTS = (
    (
        "cli.py",
        SEED_BUDGET_CHECK,
        SEED_BUDGET_CHECK.replace("elapsed + ", ""),
        "tests/test_cli.py::test_seed_counts_the_time_already_spent_against_the_budget",
    ),
    (
        "cli.py",
        "os.O_WRONLY | os.O_CREAT | os.O_EXCL",
        "os.O_WRONLY | os.O_CREAT",
        "tests/test_cli.py::test_out_does_not_open_a_planted_temporary_name",
    ),
    (
        "collector.py",
        "if not clock.monotonic or not timer_spec.monotonic:",
        "if not clock.monotonic:",
        "tests/test_collector.py::test_collect_trace_refuses_a_spec_that_says_non_monotonic",
    ),
    (
        "collector.py",
        "if delta < 0:",
        "if delta < -1:",
        "tests/test_collector.py::test_collect_trace_detects_a_one_nanosecond_step_back",
    ),
    (
        "autotune.py",
        BUDGET_CHECK,
        BUDGET_CHECK.replace("elapsed + ", ""),
        "tests/test_cli.py::test_tune_counts_the_time_already_spent_against_the_budget",
    ),
    (
        "autotune.py",
        BUDGET_CHECK,
        BUDGET_CHECK.replace("PROBE_RUNS_PER_SCALE * ", ""),
        "tests/test_autotune.py::test_budget_must_hold_every_probe_run_of_a_scale",
    ),
    (
        "timer.py",
        "delta < best",
        "delta > best",
        "tests/test_timer.py::test_probe_reports_the_smallest_step",
    ),
    (
        "fips.py",
        "(_RUN_LO <= runs)",
        "(_RUN_LO - 1 <= runs)",
        "tests/test_fips.py::test_run_count_bounds_are_inclusive",
    ),
    (
        "fips.py",
        "at_least[..., :-1] - at_least[..., 1:]",
        "at_least[..., :-1]",
        "tests/test_fips.py::test_run_count_bounds_are_inclusive",
    ),
    (
        "fips.py",
        "MONOBIT_LO < block_ones < MONOBIT_HI",
        "MONOBIT_LO <= block_ones <= MONOBIT_HI",
        "tests/test_fips.py::test_monobit_strict_bounds",
    ),
    (
        "fips.py",
        "max_run < LONG_RUN_BITS",
        "max_run <= LONG_RUN_BITS",
        "tests/test_fips.py::test_long_run_boundary",
    ),
    (
        "fips.py",
        "if tested < (blocks or 1):",
        "if tested < (blocks or 1) - 1:",
        "tests/test_fips.py::test_empty_source_is_short_stream",
    ),
    (
        "conditioner.py",
        "if observed < quality_floor:",
        "if observed < quality_floor - 1:",
        "tests/test_conditioner.py::test_fail_closed_below_floor",
    ),
    (
        "conditioner.py",
        "if quality_floor < 0:",
        "if quality_floor < -1:",
        "tests/test_conditioner.py::test_negative_floor_rejected",
    ),
    (
        "collector.py",
        "if not clock.monotonic or not timer_spec.monotonic:",
        "if not timer_spec.monotonic:",
        "tests/test_collector.py::test_collect_trace_rejects_non_monotonic_clock",
    ),
    (
        "autotune.py",
        "if floor < 2:",
        "if floor < 1:",
        "tests/test_autotune.py::test_validation_rejects_bad_arguments",
    ),
    (
        "autotune.py",
        "if budget_ns <= 0:",
        "if budget_ns < 0:",
        "tests/test_autotune.py::test_validation_rejects_bad_arguments",
    ),
    (
        "autotune.py",
        "if achieved >= floor:",
        "if achieved > floor:",
        "tests/test_autotune.py::test_scripted_adequate_base_scale_untouched",
    ),
    (
        "cli.py",
        SEED_BUDGET_CHECK,
        SEED_BUDGET_CHECK.replace("args.budget_ms", "2 * args.budget_ms"),
        "tests/test_cli.py::test_seed_tune_checks_its_own_collection_against_the_budget",
    ),
    (
        "cli.py",
        "if result.verdict is TuneVerdict.UNATTAINABLE:",
        "if False:",
        "tests/test_cli.py::test_seed_tune_unattainable_fails_closed",
    ),
    (
        "cli.py",
        "if stream is None:",
        "if False:",
        "tests/test_cli.py::test_closed_standard_stream_fails_with_one_line",
    ),
    (
        "cli.py",
        "if not stat.S_ISREG(os.stat(path).st_mode):",
        "if False:",
        "tests/test_cli.py::test_out_refuses_a_target_that_is_not_a_regular_file",
    ),
    (
        "cli.py",
        "0o600",
        "0o644",
        "tests/test_cli.py::test_seed_file_is_private",
    ),
    (
        "cli.py",
        "os.fsync(sink.fileno())",
        "sink.flush()",
        "tests/test_cli.py::test_out_fsyncs_the_file_and_then_its_directory",
    ),
    (
        "cli.py",
        "os.fsync(dir_fd)",
        "pass",
        "tests/test_cli.py::test_out_fsyncs_the_file_and_then_its_directory",
    ),
    (
        "cli.py",
        "os.unlink(temp)",
        "pass",
        "tests/test_cli.py::test_write_error_leaves_no_file",
    ),
    (
        "cli.py",
        "if value < minimum:",
        "if value < minimum - 1:",
        f"{BAD_INPUT}[argv0-2]",
    ),
    floor_one_below('"--scale",\n        type=_int_at_least(1),', f"{BAD_INPUT}[argv27-2]"),
    floor_one_below('"--samples",\n        type=_int_at_least(1),', f"{BAD_INPUT}[argv22-2]"),
    floor_one_below('"--stretch",\n        type=_int_at_least(0),', f"{BAD_INPUT}[argv23-2]"),
    floor_one_below("type=_int_at_least(DEFAULT_QUALITY_FLOOR),", f"{BAD_INPUT}[argv21-2]"),
    floor_one_below('"--budget-ms",\n        type=_int_at_least(1),', f"{BAD_INPUT}[argv10-2]"),
    floor_one_below(
        '"--simulate-quantum-ns", type=_int_at_least(1)',
        "tests/test_cli.py::test_simulated_quantum_below_one_is_a_usage_error",
    ),
    floor_one_below('"--runs", type=_int_at_least(1)', f"{BAD_INPUT}[argv11-2]"),
    floor_one_below('"--blocks",\n        type=_int_at_least(1),', f"{BAD_INPUT}[argv1-2]"),
    floor_one_below('"--count", type=_int_at_least(1)', f"{BAD_INPUT}[argv0-2]"),
    (
        "cli.py",
        '"numpy":\n            raise',
        '"numpy":\n            pass',
        "tests/test_cli.py::test_fips_lets_a_missing_module_other_than_numpy_through",
    ),
    (
        "analysis.py",
        'if k < 1:\n        raise ValueError(f"k must be >= 1, got {k}")\n    if not histogram:',
        "if k < 1:\n        pass\n    if not histogram:",
        "tests/test_analysis.py::test_aggregate_negative_k_is_refused_not_sliced_from_the_end",
    ),
    (
        "analysis.py",
        'raise ValueError(f"n_top must be >= 1, got {n_top}")',
        "pass",
        "tests/test_analysis.py::test_entropy_validation_names_n_top",
    ),
    (
        "timer.py",
        "raise StuckClockError(",
        "StuckClockError(",
        "tests/test_timer.py::test_probe_gives_up_on_a_stuck_clock_once_its_deadline_passes",
    ),
)


def run_tests(src: Path, nodes) -> int | None:
    """Pytest's exit status for nodes, with the package imported from src, or
    None when the run takes longer than TIMEOUT_S."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    where = subprocess.run(
        [sys.executable, "-c", "import jitterseed; print(jitterseed.__file__)"],
        cwd=REPO, env=env, capture_output=True, text=True, check=True,
    ).stdout
    if not Path(where.strip()).is_relative_to(src):
        sys.exit(f"the tests would import jitterseed from {where.strip()}, not from {src}")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes]
    try:
        run = subprocess.run(command, cwd=REPO, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return run.returncode


def verdict_of(status: int | None) -> str:
    # Pytest exits 1 when a test failed, and otherwise for anything else.
    return {0: "SURVIVED", 1: "killed", None: "timeout"}.get(status, f"pytest exit {status}")


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(REPO / "src" / "jitterseed", src / "jitterseed")
        status = run_tests(src, sorted({node for *_, node in MUTANTS}))
        if status != 0:
            sys.exit(f"the killing tests fail on the unmutated source ({verdict_of(status)})")
        for module, text, replacement, node in MUTANTS:
            path = src / "jitterseed" / module
            original = path.read_text()
            if original.count(text) != 1:
                sys.exit(f"{module}: {text!r} is not found exactly once")
            path.write_text(original.replace(text, replacement))
            try:
                status = run_tests(src, [node])
            finally:
                path.write_text(original)
            failures += status != 1
            print(f"{verdict_of(status):<9} {module}: {text!r} -> {replacement!r}  [{node}]")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that Tier-1 kills each loosening mutant of a gate comparison.

    python tests/mutants.py

Each mutant replaces one exact piece of text in one module of a fresh copy of
src/jitterseed, and the test named beside it must then fail. Those tests must
first pass on an unmutated copy. Text that is not found exactly once fails the
script, so that a mutant cannot go stale unnoticed. The exit status is 1 when
a mutant survives or a run cannot be judged.

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

# (module, text, replacement, test node that kills it)
MUTANTS = (
    (
        "cli.py",
        "if elapsed + projected_ns(config) > args.budget_ms * 1_000_000:",
        "if projected_ns(config) > args.budget_ms * 1_000_000:",
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
)


def run_tests(src: Path, nodes) -> int:
    """Pytest's exit status for nodes, with the package imported from src."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    where = subprocess.run(
        [sys.executable, "-c", "import jitterseed; print(jitterseed.__file__)"],
        cwd=REPO, env=env, capture_output=True, text=True, check=True,
    ).stdout
    if not Path(where.strip()).is_relative_to(src):
        sys.exit(f"the tests would import jitterseed from {where.strip()}, not from {src}")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes]
    return subprocess.run(command, cwd=REPO, env=env, capture_output=True, timeout=600).returncode


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(REPO / "src" / "jitterseed", src / "jitterseed")
        status = run_tests(src, sorted({node for *_, node in MUTANTS}))
        if status != 0:
            sys.exit(f"the killing tests fail on the unmutated source (pytest exit {status})")
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
            # Pytest exits 1 when a test failed, and otherwise for anything else.
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"pytest exit {status}")
            failures += status != 1
            print(f"{verdict:<9} {module}: {text!r} -> {replacement!r}  [{node}]")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

import gc
import hashlib
import io
import json
import os
import re
import shlex
import signal
import stat
import subprocess
import sys
import textwrap
import threading
import time

import pytest

import jitterseed
from jitterseed import autotune, cli
from jitterseed.autotune import DEFAULT_BUDGET_NS
from jitterseed.cli import run_cli
from jitterseed.conditioner import DEFAULT_QUALITY_FLOOR, MK0_CHUNK_DIGESTS, mk0_stream
from jitterseed.timer import SimulatedClock

SEED_BYTES = 32 * 101  # default stretch 100 -> 101 digests
SUMMARY_RE = re.compile(r"^blocks=(\d+) passed=(\d+) rate=(\d\.\d{6})$")


@pytest.fixture(autouse=True)
def keep_openblas_threads_unset(monkeypatch):
    # cmd_fips sets OPENBLAS_NUM_THREADS for its whole process; undo that
    # after each in-process test, so that later tests start as they would.
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)


def use_quantized_clock(monkeypatch, quantum_ns):
    """Make every command read a clock quantized to quantum_ns."""
    monkeypatch.setattr(cli, "default_clock", lambda: SimulatedClock(quantum_ns))


def test_no_command_is_usage_error(capsys):
    assert run_cli([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli(["seed", "--bogus"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("seed", "tune", "analyze", "fips", "mk0", "probe"):
        assert command in out


def test_seed_to_file(tmp_path, capsys):
    out = tmp_path / "seed.bin"
    assert run_cli(["seed", "--out", str(out)]) == 0
    assert out.stat().st_size == SEED_BYTES
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed: 3232 bytes" in captured.err


def test_seed_to_stdout_is_pure_binary(capfdbinary):
    assert run_cli(["seed"]) == 0
    captured = capfdbinary.readouterr()
    assert len(captured.out) == SEED_BYTES
    assert b"seed: 3232 bytes" in captured.err


def test_seed_file_is_private(tmp_path):
    out = tmp_path / "seed.bin"
    assert run_cli(["seed", "--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o600
    assert os.listdir(tmp_path) == ["seed.bin"]


def test_seed_replaces_readable_target_privately(tmp_path):
    out = tmp_path / "seed.bin"
    out.write_bytes(b"old")
    out.chmod(0o644)
    assert run_cli(["seed", "--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o600
    assert out.stat().st_size == SEED_BYTES
    assert os.listdir(tmp_path) == ["seed.bin"]


def test_failed_seed_leaves_directory_empty(tmp_path, monkeypatch, capsys):
    use_quantized_clock(monkeypatch, 16_000_000)
    out = tmp_path / "seed.bin"
    assert run_cli(["seed", "--out", str(out)]) == 1
    assert os.listdir(tmp_path) == []
    capsys.readouterr()


def test_write_error_leaves_no_file(tmp_path, monkeypatch, capsys):
    def fail_midway(sink, payload):
        sink.write(payload[:100])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write_all", fail_midway)
    out = tmp_path / "seed.bin"
    assert run_cli(["seed", "--out", str(out)]) == 1
    assert os.listdir(tmp_path) == []
    assert "No space left on device" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["seed", "--out", "{target}"],
        ["mk0", "--count", "10", "--out", "{target}"],
        ["fips", "{source}", "--per-block", "{target}"],
        ["analyze", "--runs", "1", "--csv", "{target}"],
        ["analyze", "--runs", "1", "--log", "{target}"],
    ],
    ids=["seed", "mk0", "fips", "analyze-csv", "analyze-log"],
)
def test_uncreatable_output_is_named_in_the_error(tmp_path, argv, capsys):
    # The error names the target, not the temporary file beside it.
    source = tmp_path / "in.bin"
    source.write_bytes(mk0_stream(80))
    target = tmp_path / "missing" / "out"
    assert run_cli([arg.format(source=source, target=target) for arg in argv]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and str(target) in line and ".tmp" not in line
    assert os.listdir(tmp_path) == ["in.bin"]


def _identity(st) -> tuple:
    return st.st_dev, st.st_ino


@pytest.mark.skipif(not hasattr(os, "O_DIRECTORY"), reason="needs directory descriptors")
def test_out_fsyncs_the_file_and_then_its_directory(tmp_path, monkeypatch, capsys):
    # Without the directory's fsync, a crash can lose the rename and bring
    # the old seed file back.
    fsync = os.fsync
    synced = []

    def record(fd):
        synced.append(_identity(os.fstat(fd)))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", record)
    out = tmp_path / "seed.bin"
    assert run_cli(["seed", "--out", str(out)]) == 0
    capsys.readouterr()
    assert synced == [_identity(out.stat()), _identity(tmp_path.stat())]


@pytest.mark.skipif(not hasattr(os, "O_DIRECTORY"), reason="needs directory descriptors")
def test_failed_directory_fsync_exits_one_and_keeps_the_new_file(tmp_path, monkeypatch, capsys):
    # The rename cannot be undone, so the complete new file stays.
    fsync = os.fsync

    def fail_on_a_directory(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(5, "Input/output error")
        fsync(fd)

    monkeypatch.setattr(os, "fsync", fail_on_a_directory)
    out = tmp_path / "seed.bin"
    assert run_cli(["seed", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: [Errno 5] Input/output error"]
    assert out.stat().st_size == SEED_BYTES
    assert os.listdir(tmp_path) == ["seed.bin"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("argv", [["seed", "--stretch", "0"], ["mk0", "--count", "10"]])
def test_out_refuses_a_target_that_is_not_a_regular_file(tmp_path, argv, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    assert run_cli([*argv, "--out", str(fifo)]) == 1
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1
    assert "not a regular file" in captured.err


def test_out_replaces_a_symlink_to_a_regular_file(tmp_path):
    target = tmp_path / "target.bin"
    target.write_bytes(b"old")
    link = tmp_path / "link.bin"
    link.symlink_to(target)
    assert run_cli(["mk0", "--count", "10", "--out", str(link)]) == 0
    assert not link.is_symlink()
    assert link.read_bytes() == mk0_stream(10)
    assert target.read_bytes() == b"old"


def test_out_does_not_open_a_planted_temporary_name(tmp_path, monkeypatch, capsys):
    # With os.urandom fixed, the temporary name is known in advance; a symlink
    # planted there must not lead the seed into the file it points to.
    victim = tmp_path / "victim"
    victim.write_bytes(b"old")
    victim.chmod(0o644)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    monkeypatch.setattr(cli.os, "urandom", lambda size: bytes(size))
    planted = out_dir / f".seed.bin.{bytes(6).hex()}.tmp"
    planted.symlink_to(victim)
    out = out_dir / "seed.bin"
    assert run_cli(["seed", "--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and str(out) in line
    assert victim.read_bytes() == b"old"
    assert stat.S_IMODE(victim.stat().st_mode) == 0o644
    assert os.listdir(out_dir) == [planted.name]


def test_out_takes_a_name_of_250_bytes(tmp_path, capsys):
    out = tmp_path / ("a" * 250)
    assert run_cli(["seed", "--out", str(out)]) == 0
    capsys.readouterr()
    assert os.listdir(tmp_path) == [out.name]
    assert out.stat().st_size == SEED_BYTES


def test_seed_hex_output(tmp_path):
    out = tmp_path / "seed.hex"
    assert run_cli(["seed", "--hex", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.endswith("\n")
    assert len(bytes.fromhex(text.strip())) == SEED_BYTES


def test_seed_stretch_changes_size(tmp_path):
    out = tmp_path / "seed.bin"
    assert run_cli(["seed", "--stretch", "3", "--out", str(out)]) == 0
    assert out.stat().st_size == 32 * 4


def test_seed_fails_closed_on_coarse_clock(tmp_path, monkeypatch, capsys):
    use_quantized_clock(monkeypatch, 16_000_000)
    out = tmp_path / "seed.bin"
    assert run_cli(["seed", "--out", str(out)]) == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_seed_unreachable_floor_fails_closed(tmp_path, capsys):
    # samples=100 caps distinct at 100, so a floor of 101 can never be met.
    out = tmp_path / "seed.bin"
    assert run_cli(["seed", "--floor", "101", "--out", str(out)]) == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_seed_tune_unattainable_fails_closed(tmp_path, monkeypatch, capsys):
    use_quantized_clock(monkeypatch, 16_000_000)
    out = tmp_path / "seed.bin"
    assert run_cli(["seed", "--tune", "--budget-ms", "200", "--out", str(out)]) == 1
    assert not out.exists()
    assert "unattainable" in capsys.readouterr().err


def test_seed_invalid_scale_is_usage_error(tmp_path, capsys):
    out = tmp_path / "seed.bin"
    assert run_cli(["seed", "--scale", "0", "--out", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()


def test_seed_tune_success_writes_seed(tmp_path, capsys):
    out = tmp_path / "seed.bin"
    assert run_cli(["seed", "--tune", "--out", str(out)]) == 0
    assert out.stat().st_size == SEED_BYTES
    assert stat.S_IMODE(out.stat().st_mode) == 0o600
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(r"seed: 3232 bytes .* after tuning to scale=\d+\n\Z", captured.err)


def test_seed_tune_checks_its_own_collection_against_the_budget(tmp_path, monkeypatch, capsys):
    # Tuning reads autotune's own projected_ns and succeeds; only the check
    # of the tuned seed's collection sees a projection past the budget.
    monkeypatch.setattr(cli, "projected_ns", lambda config: 1000 * 1_000_000 + 1)
    out = tmp_path / "seed.bin"
    assert run_cli(["seed", "--tune", "--budget-ms", "1000", "--out", str(out)]) == 1
    assert os.listdir(tmp_path) == []
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "would exceed 1000 ms" in errors[0]


class LeapingTime:
    """Stands in for the time module: every read is 1001 ms after the last."""

    def __init__(self):
        self.now = 0

    def perf_counter_ns(self) -> int:
        self.now += 1001 * 1_000_000
        return self.now


def test_seed_counts_the_time_already_spent_against_the_budget(tmp_path, monkeypatch, capsys):
    # The probe alone outlasts the budget, though the collection would take 1 ns.
    monkeypatch.setattr(cli, "time", LeapingTime())
    monkeypatch.setattr(cli, "projected_ns", lambda config: 1)
    out = tmp_path / "seed.bin"
    out.write_bytes(b"old")
    assert run_cli(["seed", "--budget-ms", "1000", "--out", str(out)]) == 1
    assert os.listdir(tmp_path) == ["seed.bin"]
    assert out.read_bytes() == b"old"
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "would exceed 1000 ms" in line


def test_tune_counts_the_time_already_spent_against_the_budget(monkeypatch, capsys):
    monkeypatch.setattr(autotune, "time", LeapingTime())
    monkeypatch.setattr(autotune, "projected_ns", lambda config: 1)
    assert run_cli(["tune", "--budget-ms", "1000"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "unattainable"
    assert report["probe_runs"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["probe"],
        ["tune", "--budget-ms", "200"],
        ["analyze", "--runs", "1"],
    ],
)
def test_json_stdout_is_indented_with_one_newline(argv, monkeypatch, capsys):
    if argv[0] == "tune":
        use_quantized_clock(monkeypatch, 16_000_000)
    run_cli(argv)
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_tune_emits_json(capsys):
    assert run_cli(["tune"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] in ("tuned", "already-adequate")
    assert payload["achieved_distinct"] >= 20
    assert payload["config"]["scale"] >= 250


def test_tune_unattainable_exits_one_with_json(monkeypatch, capsys):
    use_quantized_clock(monkeypatch, 16_000_000)
    assert run_cli(["tune", "--budget-ms", "200"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] == "unattainable"
    assert "unattainable" in captured.err


def test_analyze_writes_all_artifacts(tmp_path, capsys):
    log = tmp_path / "values.log"
    csv_path = tmp_path / "hist.csv"
    code = run_cli(
        [
            "analyze",
            "--runs",
            "3",
            "--log",
            str(log),
            "--csv",
            str(csv_path),
        ]
    )
    assert code == 0

    document = json.loads(capsys.readouterr().out)
    assert document["distribution"]["total_samples"] == 300
    assert document["distribution"]["runs"] == 3
    assert len(document["distribution"]["top_k"]) == document["entropy"]["n_top"]
    assert document["entropy"]["n_top"] <= 20

    lines = log.read_text().splitlines()
    assert len(lines) == 300
    assert all(int(line) >= 0 for line in lines)

    csv_lines = csv_path.read_text().splitlines()
    assert csv_lines[0] == "value_ns,count"
    counts = [int(line.split(",")[1]) for line in csv_lines[1:]]
    assert sum(counts) == 300


def test_fips_file_eof_mode(tmp_path, capsys):
    data = tmp_path / "stream.bin"
    data.write_bytes(mk0_stream(7813)[: 100 * 2500])
    assert run_cli(["fips", str(data)]) == 0
    match = SUMMARY_RE.match(capsys.readouterr().out.strip())
    assert match
    assert int(match.group(1)) == 100
    assert float(match.group(3)) >= 0.99


def test_fips_exact_blocks_and_per_block_csv(tmp_path, capsys):
    data = tmp_path / "stream.bin"
    data.write_bytes(mk0_stream(7813))
    per_block = tmp_path / "blocks.csv"
    code = run_cli(
        ["fips", str(data), "--blocks", "100", "--per-block", str(per_block)]
    )
    assert code == 0
    capsys.readouterr()

    lines = per_block.read_text().splitlines()
    assert lines[0] == "block,monobit,poker,runs,longrun,pass"
    assert len(lines) == 101
    first = lines[1].split(",")
    assert first[0] == "0"
    assert set("".join(first[1:])) <= {"0", "1"}


def test_fips_per_block_may_replace_its_own_input(tmp_path, capsys):
    data = tmp_path / "stream.bin"
    data.write_bytes(mk0_stream(400))  # 12800 bytes: five blocks
    assert run_cli(["fips", str(data)]) == 0
    summary = capsys.readouterr().out

    assert run_cli(["fips", str(data), "--per-block", str(data)]) == 0
    assert capsys.readouterr().out == summary
    assert summary.startswith("blocks=5 ")
    lines = data.read_text().splitlines()
    assert lines[0] == "block,monobit,poker,runs,longrun,pass"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]
    assert stat.S_IMODE(data.stat().st_mode) == 0o600
    assert os.listdir(tmp_path) == ["stream.bin"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_fips_per_block_refuses_a_fifo(tmp_path):
    data = tmp_path / "stream.bin"
    data.write_bytes(mk0_stream(400))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # A subprocess, so that opening the FIFO for writing cannot hang the suite.
    proc = subprocess.run(
        [sys.executable, "-m", "jitterseed", "fips", str(data), "--per-block", str(fifo)],
        capture_output=True,
        timeout=30,
    )
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: refusing to replace")
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["fifo", "stream.bin"]


def test_analyze_files_are_private_and_atomic(tmp_path, capsys):
    log, csv_path = tmp_path / "values.log", tmp_path / "hist.csv"
    log.write_text("old\n")
    assert run_cli(["analyze", "--runs", "1", "--log", str(log), "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    assert len(log.read_text().splitlines()) == 100
    assert csv_path.read_bytes().startswith(b"value_ns,count\r\n")
    assert stat.S_IMODE(log.stat().st_mode) == stat.S_IMODE(csv_path.stat().st_mode) == 0o600
    assert sorted(os.listdir(tmp_path)) == ["hist.csv", "values.log"]


def test_analyze_log_and_csv_may_not_share_a_path(tmp_path, capsys):
    same = tmp_path / "same.txt"
    argv = ["analyze", "--runs", "1", "--log", str(same), "--csv", f"{tmp_path}/./same.txt"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --log and --csv name the same file")
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("flag", ["--log", "--csv"])
def test_analyze_refuses_a_fifo(tmp_path, flag):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    other = "--csv" if flag == "--log" else "--log"
    # A subprocess, so that opening the FIFO for writing cannot hang the suite.
    proc = subprocess.run(
        [sys.executable, "-m", "jitterseed", "analyze", "--runs", "1"]
        + [other, str(tmp_path / "other.txt"), flag, str(fifo)],
        capture_output=True,
        timeout=30,
    )
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: refusing to replace")
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    # Neither file is written when one of them is refused.
    assert os.listdir(tmp_path) == ["fifo"]


# Records OPENBLAS_NUM_THREADS as numpy is first imported, then runs fips.
OPENBLAS_SCRIPT = """
import os, sys
from jitterseed.cli import run_cli

seen = []

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Spy())
assert run_cli(["fips", sys.argv[1], "--blocks", "1"]) == 0
print(seen[0])
"""


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
def test_fips_keeps_openblas_to_one_thread_unless_told(tmp_path, preset, expected):
    data = tmp_path / "one.bin"
    data.write_bytes(mk0_stream(79))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", OPENBLAS_SCRIPT, str(data)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == expected


def test_fips_short_stream_partial_summary(tmp_path, capsys):
    data = tmp_path / "short.bin"
    data.write_bytes(mk0_stream(79))  # 2528 bytes: one full block plus change
    assert run_cli(["fips", str(data), "--blocks", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out.strip().startswith("blocks=1 ")
    assert "after 1 of 3 blocks" in captured.err


def test_fips_empty_file_eof_mode_fails(tmp_path, capsys):
    data = tmp_path / "empty.bin"
    data.write_bytes(b"")
    assert run_cli(["fips", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.out.strip() == "blocks=0 passed=0 rate=0.000000"
    assert "at least 1" in captured.err


def test_failed_fips_keeps_its_per_block_target(tmp_path, capsys):
    # The CSV would replace the input; a short stream must leave it as it was.
    data = tmp_path / "short.bin"
    data.write_bytes(mk0_stream(79)[:2500])  # exactly one block
    before = data.read_bytes()
    assert run_cli(["fips", str(data), "--blocks", "3", "--per-block", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("blocks=1 ")
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert data.read_bytes() == before
    assert os.listdir(tmp_path) == ["short.bin"]


def test_failed_fips_creates_no_per_block_file(tmp_path, capsys):
    data = tmp_path / "empty.bin"
    data.write_bytes(b"")
    new = tmp_path / "new.csv"
    assert run_cli(["fips", str(data), "--per-block", str(new)]) == 1
    capsys.readouterr()
    assert not new.exists()
    assert os.listdir(tmp_path) == ["empty.bin"]


def test_fips_reads_stdin_dash(monkeypatch, capsys):
    fake = type("FakeStdin", (), {"buffer": io.BytesIO(mk0_stream(1000)[:2500])})()
    monkeypatch.setattr(sys, "stdin", fake)
    assert run_cli(["fips", "-", "--blocks", "1"]) == 0
    assert SUMMARY_RE.match(capsys.readouterr().out.strip())


def test_fips_continuous_flag(tmp_path, capsys):
    block = mk0_stream(79)[:2500]
    data = tmp_path / "repeat.bin"
    data.write_bytes(block[:4] + block[:4] + block[8:2500])
    assert run_cli(["fips", str(data), "--continuous"]) == 0
    assert capsys.readouterr().out.strip().startswith("blocks=1 passed=0")


def test_mk0_stdout_exact_bytes(capfdbinary):
    assert run_cli(["mk0", "--count", "3"]) == 0
    assert capfdbinary.readouterr().out == mk0_stream(3)


def test_mk0_to_file(tmp_path):
    out = tmp_path / "mk0.bin"
    assert run_cli(["mk0", "--count", "10", "--out", str(out)]) == 0
    assert out.read_bytes() == mk0_stream(10)


def test_probe_reports_timer_json(capsys):
    assert run_cli(["probe"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload.keys() == {"name", "resolution_ns", "monotonic"}
    assert payload["monotonic"] is True
    assert payload["resolution_ns"] >= 1


def test_probe_simulated_quantum(monkeypatch, capsys):
    use_quantized_clock(monkeypatch, 1_000_000)
    assert run_cli(["probe"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "simulated-1000000ns"
    assert payload["resolution_ns"] % 1_000_000 == 0
    assert 1_000_000 <= payload["resolution_ns"] <= 2_000_000


@pytest.mark.parametrize(
    "count, fips_args, summary, csv_sha256",
    [
        # 10000 digests are exactly 128 blocks.
        (10000, "--blocks 128", "blocks=128 ", None),
        # The battery's golden verdicts on the reference stream, read through
        # a real pipe from mk0: the summary and the SHA-256 of
        # the per-block CSV.
        (
            400000,
            "--continuous --per-block {csv}",
            "blocks=5120 passed=5116 ",
            "bd2b6db5d05f4427ccc8fadc37fab5254ed4264b301dad58619fa5cd6871c4f5",
        ),
    ],
    ids=["blocks128", "golden"],
)
def test_pipeline_mk0_into_fips(tmp_path, count, fips_args, summary, csv_sha256):
    csv_path = tmp_path / "blocks.csv"
    pipeline = (
        f"{sys.executable} -m jitterseed mk0 --count {count} | "
        f"{sys.executable} -m jitterseed fips - {fips_args.format(csv=csv_path)}"
    )
    proc = subprocess.run(
        ["sh", "-c", pipeline], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    match = SUMMARY_RE.match(proc.stdout.strip())
    assert match
    assert proc.stdout.startswith(summary)
    assert float(match.group(3)) >= 0.992
    if csv_sha256 is not None:
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_sha256


@pytest.mark.parametrize(
    "argv,code",
    [
        (["mk0", "--count", "0", "--out", "{out}"], 2),
        (["fips", "--blocks", "0", "-"], 2),
        (["fips", "{missing}"], 1),
        # The one row for an option no command has.
        (["probe", "--reads", "1"], 2),
        (["fips", "--blocks", "x", "-"], 2),
        (["mk0", "--count", "-1", "--out", "{out}"], 2),
        (["seed", "--floor", "-1", "--out", "{out}"], 2),
        (["seed", "--tune", "--floor", "1", "--out", "{out}"], 2),
        (["seed", "--floor", "1", "--simulate-quantum-ns", "16000000", "--stretch", "0", "--hex"], 2),
        (["seed", "--out", "{missing}/seed.bin"], 1),
        (["tune", "--budget-ms", "0"], 2),
        (["analyze", "--runs", "0"], 2),
        (["analyze", "--runs", "-3"], 2),
        (["seed", "--out", ""], 2),
        (["mk0", "--count", "1", "--out", ""], 2),
        (["analyze", "--runs", "1", "--log", ""], 2),
        (["analyze", "--runs", "1", "--csv", ""], 2),
        (["tune", "--floor", "20.5"], 2),
        (["fips", "{missing}", "--per-block", ""], 2),
        (["seed", "--samples", "2", "--floor", "2", "--out", "{out}"], 2),
        (["seed", "--simulate-quantum-ns", "20000", "--floor", "2", "--stretch", "0", "--out", "{out}"], 2),
        (["tune", "--floor", "19"], 2),
        (["seed", "--samples", "0", "--out", "{out}"], 2),
        (["seed", "--stretch", "-1", "--out", "{out}"], 2),
        (["seed", "--budget-ms", "0", "--out", "{out}"], 2),
        (["probe", "extra"], 2),
        (["analyze", "--runs", "1", "--log", "{out}", "--csv", "{out}"], 2),
        (["seed", "--scale", "0", "--out", "{out}"], 2),
        # Sizes past the platform's word size fail as running out of memory,
        # or, for --samples, as a collection over the time budget.
        (["seed", "--samples", "100000000000000000000", "--out", "{out}"], 1),
        (["seed", "--stretch", "1000000000000000000000", "--out", "{out}"], 1),
        # Collections projected past --budget-ms fail before collecting.
        (["seed", "--scale", "100000000000000000000", "--out", "{out}"], 1),
        (["seed", "--tune", "--scale", "100000000000000000000", "--out", "{out}"], 1),
        (["seed", "--samples", "100000000", "--out", "{out}"], 1),
    ],
)
def test_bad_input_exits_cleanly(tmp_path, argv, code):
    out = tmp_path / "out.bin"
    missing = tmp_path / "missing"
    argv = [arg.format(out=out, missing=missing) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "jitterseed", *argv], capture_output=True, timeout=60
    )
    assert proc.returncode == code
    assert proc.stdout == b""
    assert b"error:" in proc.stderr
    assert b"Traceback" not in proc.stderr
    assert not out.exists() and not missing.exists()


def test_simulated_quantum_below_one_is_a_usage_error(tmp_path):
    # A quantum of 0 would reach SimulatedClock, whose ValueError is a traceback.
    out = tmp_path / "out.bin"
    argv = ["seed", "--simulate-quantum-ns", "0", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "jitterseed", *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: jitterseed seed ")
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert errors == ["jitterseed seed: error: argument --simulate-quantum-ns: must be >= 1, got 0"]
    assert not out.exists()


@pytest.mark.skipif(sys.platform == "win32", reason="sh redirections")
@pytest.mark.parametrize(
    "argv, closed, code",
    [
        (["fips", "-"], "stdin", 1),
        (["fips", "{data}"], "stdout", 1),
        (["fips", "{data}", "--per-block", "{kept}"], "stdout", 1),
        (["seed"], "stdout", 1),
        (["mk0", "--count", "10"], "stdout", 1),
        (["probe"], "stdout", 1),
        (["tune", "--budget-ms", "200"], "stdout", 1),
        (["analyze", "--runs", "1", "--log", "{kept}"], "stdout", 1),
        (["seed", "--out", "{kept}"], "stdout", 0),
        (["mk0", "--count", "10", "--out", "{kept}"], "stdout", 0),
    ],
)
def test_closed_standard_stream_fails_with_one_line(tmp_path, argv, closed, code):
    # A process started with a standard stream closed has None for it in sys.
    data, kept = tmp_path / "in.bin", tmp_path / "kept"
    data.write_bytes(mk0_stream(400))
    kept.write_bytes(b"old")
    argv = [sys.executable, "-m", "jitterseed", *(a.format(data=data, kept=kept) for a in argv)]
    redirect = {"stdin": "<&-", "stdout": ">&-"}[closed]
    proc = subprocess.run(
        ["sh", "-c", f"{shlex.join(argv)} {redirect}"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr.splitlines() == [f"error: {closed} is closed"]
        assert kept.read_bytes() == b"old"
    else:
        assert "Traceback" not in proc.stderr
        assert kept.read_bytes() != b"old"
    assert sorted(os.listdir(tmp_path)) == ["in.bin", "kept"]


@pytest.mark.skipif(sys.platform == "win32", reason="sh redirections")
@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
@pytest.mark.parametrize(
    "argv, code, stdout_bytes",
    [
        (["seed"], 0, SEED_BYTES),
        (["seed", "--floor", "101"], 1, 0),
        (["seed", "--out", "{kept}"], 0, 0),
    ],
    ids=["seed", "failed", "out"],
)
def test_unusable_stderr_changes_neither_stdout_nor_the_exit_code(
    tmp_path, redirect, argv, code, stdout_bytes
):
    # With stderr closed, sys.stderr is None, and print(file=None) would
    # write the summary or the error into stdout after the seed.
    kept = tmp_path / "kept"
    kept.write_bytes(b"old")
    argv = [a.format(kept=kept) for a in argv]
    command = shlex.join([sys.executable, "-m", "jitterseed", *argv])
    proc = subprocess.run(["sh", "-c", f"{command} {redirect}"], capture_output=True, timeout=60)
    assert proc.returncode == code
    assert len(proc.stdout) == stdout_bytes
    assert (kept.read_bytes() == b"old") == ("--out" not in argv)
    assert os.listdir(tmp_path) == ["kept"]


@pytest.mark.parametrize(
    "argv",
    [["fips", "{data}", "--per-block", "{kept}"], ["analyze", "--runs", "1", "--log", "{kept}"]],
    ids=["fips", "analyze"],
)
def test_broken_stdout_leaves_the_files_as_they_were(tmp_path, argv):
    # The pipe's reader is gone before the command starts.
    data, kept = tmp_path / "in.bin", tmp_path / "kept"
    data.write_bytes(mk0_stream(400))
    kept.write_bytes(b"old")
    argv = [sys.executable, "-m", "jitterseed", *(a.format(data=data, kept=kept) for a in argv)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1, proc.stderr
    assert kept.read_bytes() == b"old"
    assert sorted(os.listdir(tmp_path)) == ["in.bin", "kept"]


def test_parsed_defaults_come_from_the_library():
    parser = cli.build_parser()
    for command in ("seed", "tune"):
        args = parser.parse_args([command])
        assert args.budget_ms == DEFAULT_BUDGET_NS // 1_000_000
        assert args.floor == DEFAULT_QUALITY_FLOOR


# What each command must leave unloaded: only the battery needs numpy, and
# the battery makes no digest, so it never maps OpenSSL's libcrypto.
# The tuner and the analysis tools (with csv and json) load only in the commands
# that use them.
UNUSED_TOOLS = {"jitterseed.analysis", "jitterseed.autotune", "csv", "json"}

# No command builds a record through dataclasses, which imports inspect.
RECORD_TOOLS = {"dataclasses", "inspect"}

COMMAND_MODULES_NOT_LOADED = {
    "seed": (["seed", "--out", "{tmp}/seed.bin"], {"numpy", *UNUSED_TOOLS, *RECORD_TOOLS}),
    "probe": (["probe"], {"numpy", *RECORD_TOOLS}),
    "tune": (["tune", "--budget-ms", "200"], {"numpy", *RECORD_TOOLS}),
    "mk0": (
        ["mk0", "--count", "10", "--out", "{tmp}/mk0.bin"],
        {"numpy", "queue", *UNUSED_TOOLS, *RECORD_TOOLS},
    ),
    "analyze": (["analyze", "--runs", "1"], {"numpy", *RECORD_TOOLS}),
    "fips": (
        ["fips", "{tmp}/in.bin", "--continuous", "--per-block", "{tmp}/blocks.csv"],
        {"_hashlib", "hashlib", *UNUSED_TOOLS, *RECORD_TOOLS},
    ),
}


def modules_numpy_loads() -> set:
    """The modules a bare `import numpy` loads. numpy 1.x imports numpy.random
    at start-up, and with it secrets, hmac and hashlib; that is numpy's doing,
    not the battery's."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print(*sys.modules)"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "argv, modules",
    COMMAND_MODULES_NOT_LOADED.values(),
    ids=COMMAND_MODULES_NOT_LOADED.keys(),
)
def test_commands_leave_modules_they_do_not_need_unloaded(tmp_path, argv, modules):
    (tmp_path / "in.bin").write_bytes(mk0_stream(400))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if argv[0] == "fips":
        modules = modules - modules_numpy_loads()
    script = textwrap.dedent(
        f"""
        import sys
        from jitterseed.cli import run_cli
        assert run_cli({argv!r}) == 0
        loaded = [m for m in {sorted(modules)!r} if m in sys.modules]
        assert not loaded, loaded
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_fips_without_numpy_is_one_error_line(tmp_path):
    # A host without numpy (say, after pip install --no-deps) loses only the
    # battery, and says so in one line instead of a traceback.
    (tmp_path / "in.bin").write_bytes(mk0_stream(100))

    def run_without_numpy(argv):
        script = textwrap.dedent(
            f"""
            import sys

            class BlockNumpy:
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy" or name.startswith("numpy."):
                        raise ModuleNotFoundError(f"No module named {{name!r}}", name=name)
                    return None

            sys.meta_path.insert(0, BlockNumpy())
            sys.argv = ["jitterseed", *{argv!r}]
            from jitterseed import cli
            cli.main()
            """
        )
        return subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=120)

    proc = run_without_numpy(["fips", str(tmp_path / "in.bin")])
    assert proc.returncode == 1
    assert proc.stdout == b""
    stderr = proc.stderr.decode()
    assert len(stderr.splitlines()) == 1, stderr
    assert stderr.startswith("error:") and "numpy" in stderr and "Traceback" not in stderr
    assert "pip install 'jitterseed[battery]'" in stderr
    proc = run_without_numpy(["seed", "--out", str(tmp_path / "seed.bin")])
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "seed.bin").stat().st_size == SEED_BYTES
    proc = run_without_numpy(["mk0", "--count", "10"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == mk0_stream(10)
    for argv in (["probe"], ["analyze", "--runs", "2"], ["tune"]):
        proc = run_without_numpy(argv)
        assert proc.returncode == 0, proc.stderr
        assert b"Traceback" not in proc.stderr
        assert isinstance(json.loads(proc.stdout), dict)


def test_fips_lets_a_missing_module_other_than_numpy_through(tmp_path, monkeypatch):
    # A dependency of the battery other than numpy that cannot be found is a
    # fault of the package: it must not be reported as the missing battery.
    class MissingDependency:
        def find_spec(self, name, path=None, target=None):
            if name == "jitterseed.fips":
                raise ModuleNotFoundError("No module named 'somedep'", name="somedep")
            return None

    (tmp_path / "in.bin").write_bytes(mk0_stream(100))
    monkeypatch.delitem(sys.modules, "jitterseed.fips", raising=False)
    monkeypatch.delattr(jitterseed, "fips", raising=False)
    monkeypatch.setattr(sys, "meta_path", [MissingDependency(), *sys.meta_path])
    with pytest.raises(ModuleNotFoundError) as excinfo:
        run_cli(["fips", str(tmp_path / "in.bin")])
    assert excinfo.value.name == "somedep"


def test_console_entry_point_freezes_the_collector_before_exit():
    # Shutdown's collections then skip every object left, which all live
    # until the process ends anyway.
    script = textwrap.dedent(
        """
        import atexit, gc, sys
        from jitterseed import cli
        atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
        sys.argv = ["jitterseed", "probe"]
        cli.main()
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "frozen True"


def test_run_cli_leaves_the_collector_as_it_was(capsys):
    # run_cli runs inside processes that go on, such as this one.
    before = gc.get_freeze_count()
    assert run_cli(["probe"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_every_exported_name_resolves():
    for name in jitterseed.__all__:
        assert getattr(jitterseed, name) is not None
    assert jitterseed.fips_pass_rate is jitterseed.fips.fips_pass_rate
    with pytest.raises(AttributeError):
        jitterseed.no_such_name


@pytest.mark.parametrize(
    "check",
    [
        # Importing the package alone loads none of its modules.
        "import jitterseed\n"
        "assert not [m for m in sys.modules if m.startswith('jitterseed.')]",
        # A name loads its own module and what that imports, nothing more.
        "from jitterseed import CollectorConfig, collect_trace, condition\n"
        "for m in ('analysis', 'autotune', 'fips'):\n"
        "    assert 'jitterseed.' + m not in sys.modules, m",
        "import jitterseed\n"
        "assert set(jitterseed.__all__) <= set(dir(jitterseed))",
        "import jitterseed\n"
        "assert jitterseed.__all__ == sorted(set(jitterseed.__all__))",
    ],
    ids=["package-alone", "seed-names", "dir-lists-all", "all-sorted-unique"],
)
def test_public_names_load_lazily(check):
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{check}"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_mk0_broken_pipe_exits_one():
    proc = subprocess.Popen(
        [sys.executable, "-m", "jitterseed", "mk0", "--count", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.read(2500)
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    proc.stderr.close()


# Counts this process's open descriptors around a run_cli whose stdout is a
# pipe with no reader. The broken-pipe branch replaces fd 1, so it runs in a
# process of its own.
BROKEN_PIPE_FD_SCRIPT = """
import os, sys
from jitterseed.cli import run_cli

read_end, write_end = os.pipe()
os.close(read_end)
os.dup2(write_end, sys.stdout.fileno())
os.close(write_end)
before = len(os.listdir("/proc/self/fd"))
code = run_cli(["mk0", "--count", "5000"])
print(code, before, len(os.listdir("/proc/self/fd")), file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_broken_pipe_leaves_no_descriptor_open():
    proc = subprocess.run(
        [sys.executable, "-c", BROKEN_PIPE_FD_SCRIPT], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    code, before, after = proc.stderr.split()
    assert code == "1"
    assert after == before


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="F_GETPIPE_SZ")
def test_mk0_grows_the_pipe_it_writes_to():
    import fcntl

    proc = subprocess.Popen(
        [sys.executable, "-m", "jitterseed", "mk0", "--count", "10"], stdout=subprocess.PIPE
    )
    with proc.stdout:
        assert proc.stdout.read() == mk0_stream(10)
        assert proc.wait(timeout=60) == 0
        assert fcntl.fcntl(proc.stdout.fileno(), fcntl.F_GETPIPE_SZ) >= cli.MK0_PIPE_BYTES


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="F_GETPIPE_SZ")
@pytest.mark.parametrize("settable", [True, False], ids=["grown", "without-F_SETPIPE_SZ"])
def test_mk0_writes_its_stream_into_a_pipe(monkeypatch, settable):
    # 5000 digests are 160 KB, more than a default pipe holds, so mk0 waits
    # for the reader whether or not the pipe could grow.
    import fcntl

    if not settable:
        monkeypatch.delattr(fcntl, "F_SETPIPE_SZ")
    read_end, write_end = os.pipe()
    default = fcntl.fcntl(read_end, fcntl.F_GETPIPE_SZ)
    received = []
    with open(read_end, "rb") as reader:
        thread = threading.Thread(target=lambda: received.append(reader.read()))
        thread.start()
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            code = run_cli(["mk0", "--count", "5000"])
            capacity = fcntl.fcntl(read_end, fcntl.F_GETPIPE_SZ)
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert code == 0
    assert received == [mk0_stream(5000)]
    if settable:
        assert capacity >= cli.MK0_PIPE_BYTES
    else:
        assert capacity == default


def test_mk0_file_is_private_and_complete(tmp_path):
    out = tmp_path / "mk0.bin"
    assert run_cli(["mk0", "--count", "5000", "--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o600
    assert out.read_bytes() == mk0_stream(5000)


def test_mk0_write_error_leaves_directory_empty(tmp_path, monkeypatch, capsys):
    write_all = cli._write_all
    calls = []

    def fail_on_second_chunk(sink, payload):
        calls.append(len(payload))
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        write_all(sink, payload)

    monkeypatch.setattr(cli, "_write_all", fail_on_second_chunk)
    assert run_cli(["mk0", "--count", "5000", "--out", str(tmp_path / "mk0.bin")]) == 1
    assert len(calls) == 2
    assert os.listdir(tmp_path) == []
    assert "No space left on device" in capsys.readouterr().err


# A child's ru_maxrss starts at the peak of the process that spawned it, and
# a test session's peak can exceed anything mk0 uses, so a fresh interpreter
# spawns the command and reports the figure.
PEAK_RSS_SCRIPT = """
import os, subprocess, sys
proc = subprocess.Popen(
    [sys.executable, "-m", "jitterseed", *sys.argv[1:]], stdout=subprocess.DEVNULL
)
_, status, usage = os.wait4(proc.pid, 0)
assert os.waitstatus_to_exitcode(status) == 0
print(usage.ru_maxrss)
"""


def _peak_rss_kb(*args) -> int:
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_mk0_streams_in_constant_memory():
    # 400000 digests are 12.8 MB; a stream held whole would show here.
    large = _peak_rss_kb("mk0", "--count", "400000")
    small = _peak_rss_kb("mk0", "--count", "10")
    assert large - small <= 4 * 1024


# As PEAK_RSS_SCRIPT, but the reader reads nothing for a second, then all of
# it; it prints the digest of what it read and the command's peak RSS.
STALLED_READER_SCRIPT = """
import hashlib, os, subprocess, sys, time
proc = subprocess.Popen(
    [sys.executable, "-m", "jitterseed", *sys.argv[1:]], stdout=subprocess.PIPE
)
time.sleep(1)
digest = hashlib.sha256(proc.stdout.read()).hexdigest()
proc.stdout.close()
_, status, usage = os.wait4(proc.pid, 0)
assert os.waitstatus_to_exitcode(status) == 0
print(digest, usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_mk0_backlog_for_a_stalled_reader_is_bounded():
    # A second is long enough to hash all 12.8 MB, so only the pipe's
    # capacity keeps the stream from being held whole.
    proc = subprocess.run(
        [sys.executable, "-c", STALLED_READER_SCRIPT, "mk0", "--count", "400000"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    digest, peak = proc.stdout.split()
    assert digest == hashlib.sha256(mk0_stream(400000)).hexdigest()
    pipe_kb = cli.MK0_PIPE_BYTES // 1024
    assert int(peak) - _peak_rss_kb("mk0", "--count", "10") <= pipe_kb + 4 * 1024


def _hand_over_then_fail(chunks):
    """An mk0_stream that hands over `chunks` zero-filled chunks and then fails."""

    def fake_mk0_stream(count, write):
        for _ in range(chunks):
            write(bytes(MK0_CHUNK_DIGESTS * 32))
        raise OSError(5, "Input/output error")

    return fake_mk0_stream


def test_mk0_failing_producer_stops_its_writer(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "mk0_stream", _hand_over_then_fail(3))
    threads = threading.active_count()
    assert run_cli(["mk0", "--out", str(tmp_path / "mk0.bin")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: [Errno 5] Input/output error"]
    assert os.listdir(tmp_path) == []
    assert threading.active_count() == threads


def _default_sigint():
    # A suite started as a background job ignores SIGINT, and so would the
    # child; Python turns SIGINT into KeyboardInterrupt only from the default.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


@pytest.mark.skipif(sys.platform == "win32", reason="SIGINT")
def test_mk0_interrupt_does_not_wait_for_a_stalled_reader():
    # Nothing reads the pipe, so the writer is stuck in a write when the
    # interrupt comes; the run ends by the interrupt all the same. Its stdout
    # is buffered, as outside a test, so a writer stuck holding the buffer's
    # lock would also make the interpreter abort at exit.
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "jitterseed", "mk0", "--count", "2000000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        preexec_fn=_default_sigint,
    )
    time.sleep(1)
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.returncode == -signal.SIGINT, stderr
    assert "Traceback" not in stderr


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS")
def test_out_of_memory_exits_one_with_one_line(tmp_path):
    # A 10^10-link chain needs 320 GB, far past a 2 GiB address space.
    out = tmp_path / "seed.bin"
    proc = subprocess.run(
        [sys.executable, "-m", "jitterseed", "seed", "--stretch", "10000000000", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: out of memory"]
    assert os.listdir(tmp_path) == []

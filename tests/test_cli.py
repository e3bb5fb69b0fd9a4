import io
import json
import os
import re
import stat
import subprocess
import sys
import textwrap

import pytest

import jitterseed
from jitterseed import cli
from jitterseed.autotune import DEFAULT_BUDGET_NS
from jitterseed.cli import run_cli
from jitterseed.conditioner import DEFAULT_QUALITY_FLOOR, mk0_stream
from jitterseed.timer import DEFAULT_PROBE_READS, SimulatedClock

SEED_BYTES = 32 * 101  # default stretch 100 -> 101 digests
SUMMARY_RE = re.compile(r"^blocks=(\d+) passed=(\d+) rate=(\d\.\d{6})$")


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


def test_failed_seed_leaves_directory_empty(tmp_path, capsys):
    out = tmp_path / "seed.bin"
    assert run_cli(["seed", "--simulate-quantum-ns", "16000000", "--out", str(out)]) == 1
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


def test_seed_fails_closed_on_coarse_clock(tmp_path, capsys):
    out = tmp_path / "seed.bin"
    code = run_cli(
        ["seed", "--simulate-quantum-ns", "16000000", "--out", str(out)]
    )
    assert code == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_seed_unreachable_floor_fails_closed(tmp_path, capsys):
    # samples=100 caps distinct at 100, so a floor of 101 can never be met.
    out = tmp_path / "seed.bin"
    assert run_cli(["seed", "--floor", "101", "--out", str(out)]) == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_seed_tune_unattainable_fails_closed(tmp_path, capsys):
    out = tmp_path / "seed.bin"
    code = run_cli(
        [
            "seed",
            "--tune",
            "--budget-ms",
            "200",
            "--simulate-quantum-ns",
            "16000000",
            "--out",
            str(out),
        ]
    )
    assert code == 1
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
    json_path = tmp_path / "report.json"
    code = run_cli(
        [
            "analyze",
            "--runs",
            "3",
            "--k",
            "5",
            "--log",
            str(log),
            "--csv",
            str(csv_path),
            "--json",
            str(json_path),
        ]
    )
    assert code == 0

    document = json.loads(capsys.readouterr().out)
    assert document == json.loads(json_path.read_text())
    assert document["distribution"]["total_samples"] == 300
    assert document["distribution"]["runs"] == 3
    assert len(document["distribution"]["top_k"]) <= 5
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
    assert payload["monotonic"] is True
    assert payload["resolution_ns"] >= 1
    assert payload["probe_reads"] == 1000


def test_probe_simulated_quantum(monkeypatch, capsys):
    use_quantized_clock(monkeypatch, 1_000_000)
    assert run_cli(["probe"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "simulated-1000000ns"
    assert payload["resolution_ns"] % 1_000_000 == 0
    assert 1_000_000 <= payload["resolution_ns"] <= 2_000_000


def test_pipeline_mk0_into_fips():
    # 10000 digests are exactly 128 blocks.
    pipeline = (
        f"{sys.executable} -m jitterseed mk0 --count 10000 | "
        f"{sys.executable} -m jitterseed fips --blocks 128 -"
    )
    proc = subprocess.run(
        ["sh", "-c", pipeline], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    match = SUMMARY_RE.match(proc.stdout.strip())
    assert match
    assert float(match.group(3)) >= 0.992


@pytest.mark.parametrize(
    "argv,code",
    [
        (["mk0", "--count", "0", "--out", "{out}"], 2),
        (["fips", "--blocks", "0", "-"], 2),
        (["fips", "{missing}"], 1),
        (["probe", "--reads", "1"], 2),
        (["probe", "--simulate-quantum-ns", "0"], 2),
        (["analyze", "--k", "0"], 2),
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
        (["analyze", "--runs", "1", "--json", ""], 2),
        (["fips", "{missing}", "--per-block", ""], 2),
        (["seed", "--samples", "2", "--floor", "2", "--out", "{out}"], 2),
        (["seed", "--simulate-quantum-ns", "20000", "--floor", "2", "--stretch", "0", "--out", "{out}"], 2),
        (["tune", "--floor", "19"], 2),
        (["seed", "--samples", "0", "--out", "{out}"], 2),
        (["seed", "--stretch", "-1", "--out", "{out}"], 2),
        (["tune", "--budget-ms", "200", "--simulate-quantum-ns", "16000000"], 2),
        (["analyze", "--runs", "1", "--simulate-quantum-ns", "16000000"], 2),
        (["probe", "--simulate-quantum-ns", "1000000"], 2),
        (["seed", "--scale", "0", "--out", "{out}"], 2),
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


def test_parsed_defaults_come_from_the_library():
    parser = cli.build_parser()
    for command in ("seed", "tune"):
        args = parser.parse_args([command])
        assert args.budget_ms == DEFAULT_BUDGET_NS // 1_000_000
        assert args.floor == DEFAULT_QUALITY_FLOOR
    assert parser.parse_args(["probe"]).reads == DEFAULT_PROBE_READS


def test_commands_without_battery_never_import_numpy(tmp_path):
    script = textwrap.dedent(
        f"""
        import sys
        from jitterseed.cli import run_cli
        for argv in (
            ["seed", "--out", {str(tmp_path / "seed.bin")!r}],
            ["probe"],
            ["tune", "--budget-ms", "200"],
            ["mk0", "--count", "10", "--out", {str(tmp_path / "mk0.bin")!r}],
            ["analyze", "--runs", "1"],
        ):
            assert run_cli(argv) == 0, argv
        assert "numpy" not in sys.modules
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    for name in jitterseed.__all__:
        assert getattr(jitterseed, name) is not None
    assert jitterseed.fips_pass_rate is jitterseed.fips.fips_pass_rate
    with pytest.raises(AttributeError):
        jitterseed.no_such_name


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

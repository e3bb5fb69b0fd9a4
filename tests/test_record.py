"""The records' contract: construction by keyword, value semantics,
immutability, the copy and dict helpers, and the exact JSON that records
become."""

import dataclasses
import io
import pathlib

import pytest

import jitterseed
from helpers import SteppingClock
from jitterseed import cli
from jitterseed.analysis import (
    DistributionReport,
    EntropyEstimate,
    aggregate_distribution,
    report_document,
    write_json_report,
)
from jitterseed.autotune import TuneResult, TuneVerdict
from jitterseed.cli import run_cli
from jitterseed.collector import CollectorConfig, TimingTrace
from jitterseed.conditioner import SeedOutput
from jitterseed.timer import TimerSpec

DATA = pathlib.Path(__file__).parent / "data"

TIMER = TimerSpec(name="t", resolution_ns=1, monotonic=True)
TIMER_REPR = "TimerSpec(name='t', resolution_ns=1, monotonic=True)"
CONFIG_REPR = "CollectorConfig(samples=100, scale=250, stretch=100)"

# Each record's public name with the keyword arguments of one instance, in
# field order, and that instance's exact repr. The `cls` fixture resolves the
# name, so that a battery record loads numpy only in its own tests.
RECORDS = [
    ("TimerSpec", {"name": "t", "resolution_ns": 1, "monotonic": True}, TIMER_REPR),
    ("CollectorConfig", {"samples": 100, "scale": 250, "stretch": 100}, CONFIG_REPR),
    (
        "TimingTrace",
        {"samples": (5, 6, 7), "config": CollectorConfig(), "timer": TIMER},
        f"TimingTrace(config={CONFIG_REPR}, timer={TIMER_REPR})",
    ),
    ("SeedOutput", {"material": b"\x01" * 32}, "SeedOutput()"),
    (
        "TuneResult",
        {
            "config": CollectorConfig(),
            "probe_runs": 3,
            "achieved_distinct": 57,
            "elapsed_ns": 1000,
            "verdict": TuneVerdict.TUNED,
        },
        f"TuneResult(config={CONFIG_REPR}, probe_runs=3, achieved_distinct=57, "
        "elapsed_ns=1000, verdict=<TuneVerdict.TUNED: 'tuned'>)",
    ),
    (
        "DistributionReport",
        {
            "histogram": {1: 2, 3: 1},
            "total_samples": 3,
            "unique_values": 2,
            "top_k": [(1, 2), (3, 1)],
            "flatness_ratio": 2.0,
            "runs": 1,
        },
        "DistributionReport(histogram={1: 2, 3: 1}, total_samples=3, unique_values=2, "
        "top_k=[(1, 2), (3, 1)], flatness_ratio=2.0, runs=1)",
    ),
    (
        "EntropyEstimate",
        {"n_top": 2, "samples": 3, "bits": 3.0, "key_space_log10": 0.5},
        "EntropyEstimate(n_top=2, samples=3, bits=3.0, key_space_log10=0.5)",
    ),
    (
        "FipsBlockResult",
        {
            "block_index": 4,
            "ones": 10000,
            "monobit_pass": True,
            "poker_statistic": 12.5,
            "poker_pass": True,
            "run_counts": ((1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1)),
            "runs_pass": False,
            "max_run": 13,
            "long_run_pass": True,
            "continuous_pass": None,
        },
        "FipsBlockResult(block_index=4, ones=10000, monobit_pass=True, "
        "poker_statistic=12.5, poker_pass=True, "
        "run_counts=((1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1)), runs_pass=False, "
        "max_run=13, long_run_pass=True, continuous_pass=None)",
    ),
    (
        "FipsRateReport",
        {"blocks_tested": 2, "blocks_passed": 1, "failures": {"runs": 1}},
        "FipsRateReport(blocks_tested=2, blocks_passed=1, failures={'runs': 1})",
    ),
]

records = pytest.mark.parametrize(
    "cls, kwargs, expected_repr", RECORDS, ids=[name for name, _, _ in RECORDS], indirect=["cls"]
)


@pytest.fixture
def cls(request):
    return getattr(jitterseed, request.param)


@records
def test_fields_are_keyword_only_in_order(cls, kwargs, expected_repr):
    record = cls(**kwargs)
    message = rf"^{cls.__name__}\(\) takes keyword arguments {', '.join(kwargs)}$"
    with pytest.raises(TypeError, match=message):
        cls(*kwargs.values())
    assert cls._fields == cls.__match_args__ == tuple(kwargs)
    assert all(getattr(record, name) is value for name, value in kwargs.items())


@records
def test_missing_or_unknown_arguments_raise_type_error(cls, kwargs, expected_repr):
    # A field with a default is a class attribute (see below).
    required = [name for name in kwargs if not hasattr(cls, name)]
    for name in required:
        with pytest.raises(TypeError):
            cls(**{key: value for key, value in kwargs.items() if key != name})
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=1)
    with pytest.raises(TypeError):
        cls(*kwargs.values(), 1)


@records
def test_equal_and_hashed_by_value_only_within_the_class(cls, kwargs, expected_repr):
    # The twin's keywords come in reverse order; its fields do not.
    record, twin = cls(**kwargs), cls(**dict(reversed(kwargs.items())))
    assert record == twin and not record != twin
    assert record != tuple(kwargs.values())
    if any(isinstance(value, (dict, list)) for value in kwargs.values()):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(tuple(kwargs.values()))


@records
def test_repr_is_exact_and_hides_seed_and_deltas(cls, kwargs, expected_repr):
    assert repr(cls(**kwargs)) == expected_repr
    assert repr(cls(**dict(reversed(kwargs.items())))) == expected_repr


@records
def test_fields_cannot_be_assigned_or_deleted(cls, kwargs, expected_repr):
    record = cls(**kwargs)
    name = next(iter(kwargs))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, kwargs[name])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.unknown = 1
    assert getattr(record, name) is kwargs[name]


@records
def test_dataclasses_replace_and_astuple(cls, kwargs, expected_repr):
    # A record is not a dataclass, and the dataclasses functions refuse it.
    record = cls(**kwargs)
    assert not dataclasses.is_dataclass(record) and not dataclasses.is_dataclass(cls)
    for function in (dataclasses.replace, dataclasses.astuple, dataclasses.asdict):
        with pytest.raises(TypeError):
            function(record)
    assert record._replace() == record


def test_replace_validates_as_construction_does():
    with pytest.raises(ValueError, match="scale must be >= 1"):
        CollectorConfig()._replace(scale=0)
    with pytest.raises(TypeError):
        CollectorConfig()._replace(unknown=1)
    changed = CollectorConfig()._replace(scale=500)
    assert changed == CollectorConfig(scale=500) != CollectorConfig()


def test_defaults_are_class_attributes():
    assert CollectorConfig.samples == 100 and CollectorConfig.scale == 250
    assert CollectorConfig.stretch == 100
    from jitterseed.fips import FipsBlockResult

    assert FipsBlockResult.continuous_pass is None


def test_asdict_nests_a_record_as_a_dict():
    result = TuneResult(
        config=CollectorConfig(scale=500),
        probe_runs=3,
        achieved_distinct=57,
        elapsed_ns=1000,
        verdict=TuneVerdict.TUNED,
    )
    assert result._asdict() == {
        "config": {"samples": 100, "scale": 500, "stretch": 100},
        "probe_runs": 3,
        "achieved_distinct": 57,
        "elapsed_ns": 1000,
        "verdict": TuneVerdict.TUNED,
    }


def test_probe_json_is_byte_exact(monkeypatch, capsys):
    monkeypatch.setattr(cli, "default_clock", lambda: SteppingClock(7))
    assert run_cli(["probe"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "name": "stepping",\n  "resolution_ns": 7,\n  "monotonic": true\n}\n'
    )


def test_tune_json_is_byte_exact(monkeypatch, capsys):
    result = TuneResult(
        config=CollectorConfig(scale=1000),
        probe_runs=6,
        achieved_distinct=57,
        elapsed_ns=123456789,
        verdict=TuneVerdict.TUNED,
    )
    monkeypatch.setattr(cli, "_tune", lambda *args: result)
    assert run_cli(["tune"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "config": {\n    "samples": 100,\n    "scale": 1000,\n    "stretch": 100\n  },\n'
        '  "probe_runs": 6,\n  "achieved_distinct": 57,\n  "elapsed_ns": 123456789,\n'
        '  "verdict": "tuned"\n}\n'
    )


def test_analysis_document_json_is_byte_exact():
    document = report_document(TIMER, CollectorConfig(), aggregate_distribution([range(1, 101)]))
    text = io.StringIO()
    write_json_report(document, text)
    assert text.getvalue() == (DATA / "report_document_golden.json").read_text()

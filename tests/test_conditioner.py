import hashlib
import random
import struct
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_trace
from jitterseed.conditioner import (
    DEFAULT_QUALITY_FLOOR,
    DIGEST_BYTES,
    MK0_CHUNK_DIGESTS,
    condition,
    mk0_stream,
    serialize_trace,
)
from jitterseed.errors import InsufficientEntropyError
from jitterseed.timer import TimerSpec
from reference_sha256 import sha256 as ref_sha256

# Frozen oracle values, computed independently of the package.
TRACE_1_TO_100_DIGEST0 = "b46936c9f8111ea80622c1fc6dca0d4ef29366c99ffbfff577b5e8fd3963badd"
TRACE_1_TO_100_DIGEST1 = "655ba59cf72a450261110d6de39629911b270626c59e18446e26f22a4799491e"
MK0_FIRST_DIGEST = "938db8c9f82c8cb58d3f3ef4fd250036a48d26a712753d2fde5abd03a85cabf4"

deltas_lists = st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40)


def test_serialize_is_big_endian_u64_in_order():
    trace = make_trace([1, 2, 0xDEADBEEF])
    assert serialize_trace(trace) == (
        (1).to_bytes(8, "big") + (2).to_bytes(8, "big") + (0xDEADBEEF).to_bytes(8, "big")
    )


def test_serialize_empty_trace_rejected():
    with pytest.raises(ValueError, match="^cannot serialize a trace with no samples$"):
        serialize_trace(make_trace([]))


@pytest.mark.parametrize("bad", [-1, 2**64])
def test_serialize_names_a_delta_outside_eight_unsigned_bytes(bad):
    with pytest.raises(ValueError, match=f"^trace delta {bad} does not fit"):
        serialize_trace(make_trace([7, bad, 8]))


def test_digest_bytes_is_the_sha256_digest_size():
    assert DIGEST_BYTES == hashlib.sha256().digest_size


@settings(max_examples=1000, deadline=None)
@given(deltas=deltas_lists)
def test_serialize_round_trips_through_independent_parser(deltas):
    blob = serialize_trace(make_trace(deltas))
    assert len(blob) == 8 * len(deltas)
    parsed = list(struct.unpack(f">{len(deltas)}Q", blob))
    assert parsed == deltas


def test_golden_trace_digest_matches_independent_sha256():
    trace = make_trace(range(1, 101), stretch=0)
    seed = condition(trace)
    assert len(seed.digests) == 1
    assert seed.to_bytes().hex() == TRACE_1_TO_100_DIGEST0
    assert ref_sha256(serialize_trace(trace)).hex() == TRACE_1_TO_100_DIGEST0


def test_golden_trace_chain_second_link():
    seed = condition(make_trace(range(1, 101), stretch=1))
    assert seed.digests[0].hex() == TRACE_1_TO_100_DIGEST0
    assert seed.digests[1].hex() == TRACE_1_TO_100_DIGEST1


def test_default_stretch_yields_101_digests():
    seed = condition(make_trace(range(1, 101), stretch=100))
    assert len(seed.digests) == 101
    assert len(seed.to_bytes()) == 3232


def test_stretch_zero_single_digest():
    seed = condition(make_trace(range(30), stretch=0))
    assert len(seed.digests) == 1
    assert len(seed.to_bytes()) == 32


def test_chain_structure_against_reference_sha256():
    rng = random.Random(2024)
    for _ in range(50):
        deltas = [rng.randrange(0, 1 << 40) for _ in range(rng.randrange(20, 30))]
        trace = make_trace(deltas, stretch=2)
        seed = condition(trace, quality_floor=0)
        blob = serialize_trace(trace)
        assert seed.digests[0] == ref_sha256(blob)
        assert seed.digests[1] == ref_sha256(seed.digests[0] + blob)
        assert seed.digests[2] == ref_sha256(seed.digests[1] + blob)


def test_condition_is_deterministic():
    trace = make_trace(range(1, 101))
    first = condition(trace)
    second = condition(trace)
    assert first.to_bytes() == second.to_bytes()


def test_order_sensitivity():
    base = list(range(1, 101))
    swapped = base.copy()
    swapped[3], swapped[77] = swapped[77], swapped[3]
    assert condition(make_trace(base)).to_bytes() != condition(make_trace(swapped)).to_bytes()


@settings(max_examples=200, deadline=None)
@given(deltas=st.lists(st.integers(min_value=0, max_value=2**32), min_size=2, max_size=20, unique=True))
def test_any_transposition_changes_digest(deltas):
    swapped = [deltas[-1]] + deltas[1:-1] + [deltas[0]]
    a = condition(make_trace(deltas, stretch=0), quality_floor=0)
    b = condition(make_trace(swapped, stretch=0), quality_floor=0)
    assert a.to_bytes() != b.to_bytes()


def test_fail_closed_below_floor():
    trace = make_trace([7] * 100)  # one distinct value
    with pytest.raises(InsufficientEntropyError):
        condition(trace)
    with pytest.raises(InsufficientEntropyError):
        condition(make_trace(list(range(19)) + [0] * 81), quality_floor=20)
    # exactly at the floor is accepted
    seed = condition(make_trace(list(range(20)) + [0] * 80), quality_floor=20)
    assert len(seed.to_bytes()) == 3232


def test_default_floor_is_20():
    assert DEFAULT_QUALITY_FLOOR == 20
    trace = make_trace(range(20))
    assert len(condition(trace).to_bytes()) > 0


def test_negative_floor_rejected():
    with pytest.raises(ValueError):
        condition(make_trace(range(30)), quality_floor=-1)


def test_seed_bytes_ignore_the_timer():
    samples = list(range(1, 101))
    a = make_trace(samples)
    b = make_trace(samples, timer=TimerSpec(name="other", resolution_ns=500, monotonic=True))
    # Same deltas, same stretch: identical seed bytes.
    assert condition(a).to_bytes() == condition(b).to_bytes()


def test_repr_leaves_out_the_deltas_and_the_seed():
    trace = make_trace([10**12 + i for i in range(100)])
    seed = condition(trace)
    shown = repr(trace) + repr(seed)
    assert not [delta for delta in trace.samples if str(delta) in shown]
    assert not [digest for digest in seed.digests if digest.hex() in shown]
    assert repr(seed.to_bytes()) not in shown


def test_avalanche_smoke():
    rng = random.Random(11)
    fractions = []
    for _ in range(200):
        deltas = [rng.randrange(0, 1 << 48) for _ in range(25)]
        blob = serialize_trace(make_trace(deltas))
        flipped = bytearray(blob)
        bit = rng.randrange(0, len(blob) * 8)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        a = hashlib.sha256(blob).digest()
        b = hashlib.sha256(bytes(flipped)).digest()
        diff = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
        fractions.append(diff.bit_count() / 256)
    assert sum(fractions) / len(fractions) >= 0.35


def test_mk0_first_digest_and_cumulative_structure():
    first = mk0_stream(1)
    assert first == hashlib.sha256(b"01").digest()
    assert first.hex() == MK0_FIRST_DIGEST
    stream = mk0_stream(3)
    assert len(stream) == 96
    # Digest i covers the concatenated decimal texts "0".."i".
    assert stream[32:64] == hashlib.sha256(b"012").digest()
    assert stream[64:96] == ref_sha256(b"0123")


def test_mk0_length_contract():
    assert len(mk0_stream(100)) == 3200
    assert len(mk0_stream(100000)) == 3_200_000


def test_mk0_rejects_zero_count():
    with pytest.raises(ValueError):
        mk0_stream(0)


def test_digests_view_indexes_the_material():
    seed = condition(make_trace(range(1, 101), stretch=3))
    digests = seed.digests
    assert len(digests) == 4
    assert b"".join(digests) == seed.to_bytes()
    assert digests[-1] == seed.to_bytes()[-32:]
    with pytest.raises(IndexError):
        digests[4]


@pytest.mark.parametrize(
    "part",
    [slice(1, 3), slice(None), slice(-2, None), slice(None, -1), slice(None, None, 2),
     slice(None, None, -1), slice(4, 0, -3), slice(3, 1), slice(5, 9)],
    ids=repr,
)
def test_digests_view_slices_like_a_list_of_the_material_digests(part):
    seed = condition(make_trace(range(1, 101), stretch=4))
    material = seed.material
    assert seed.digests[part] == [material[i : i + 32] for i in range(0, len(material), 32)][part]


def test_condition_holds_one_copy_of_the_material():
    trace = make_trace(range(1, 101), stretch=100_000)
    tracemalloc.start()
    try:
        seed = condition(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * len(seed.to_bytes())


# Six stretched self-checks in a fresh interpreter, each printing the peak RSS
# so far (KiB): conditioning at the benchmark's stretch, then the battery over
# 5000 blocks of the material.
STRETCH_THEN_BATTERY_SCRIPT = """
import random, resource
from jitterseed.collector import CollectorConfig, TimingTrace
from jitterseed.conditioner import condition
from jitterseed.fips import fips_pass_rate
from jitterseed.timer import TimerSpec

rng = random.Random(390625)
trace = TimingTrace(
    samples=tuple(rng.randrange(40_000, 60_000) for _ in range(100)),
    config=CollectorConfig(stretch=390625),
    timer=TimerSpec(name="test", resolution_ns=1, monotonic=True),
)
for _ in range(6):
    fips_pass_rate(condition(trace).to_bytes(), blocks=5000)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_repeated_stretched_runs_keep_their_peak():
    proc = subprocess.run(
        [sys.executable, "-c", STRETCH_THEN_BATTERY_SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    peaks = [int(line) for line in proc.stdout.split()]
    assert len(peaks) == 6
    # From the end of the first run, which sizes the battery's buffers.
    assert peaks[-1] - peaks[0] < 6 * 1024


def loop_mk0(count: int) -> bytes:
    """The whole-stream loop mk0 first used."""
    h = hashlib.sha256(b"0")
    out = bytearray()
    for i in range(1, count + 1):
        h.update(str(i).encode())
        out += h.digest()
    return bytes(out)


@pytest.mark.parametrize(
    "count", [1, MK0_CHUNK_DIGESTS - 1, MK0_CHUNK_DIGESTS, MK0_CHUNK_DIGESTS + 1, 5000]
)
def test_mk0_chunks_concatenate_to_the_stream(count):
    chunks = []
    assert mk0_stream(count, chunks.append) is None
    assert all(len(chunk) <= 32 * MK0_CHUNK_DIGESTS for chunk in chunks)
    assert b"".join(chunks) == mk0_stream(count) == loop_mk0(count)

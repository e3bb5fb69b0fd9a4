"""Conditioning: turn a timing trace into stretched seed material.

The trace is serialized canonically, hashed, and the digest chain is extended
`stretch` times, each link rehashing the previous digest together with the
full trace bytes. Conditioning is fail-closed: if the trace does not clear the
distinct-value floor, no seed bytes exist at all.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from .collector import TimingTrace, distinct_count
from .errors import EmptyTraceError, InsufficientEntropyError

DEFAULT_QUALITY_FLOOR = 20


@dataclass(frozen=True)
class SeedOutput:
    """The digest chain produced from one trace.

    source_fingerprint hashes the provenance (config + timer spec) for audit
    trails only; it is never an input to the seed digests.
    """

    digests: tuple[bytes, ...]
    source_fingerprint: str

    @property
    def total_bytes(self) -> int:
        return sum(len(d) for d in self.digests)

    def to_bytes(self) -> bytes:
        return b"".join(self.digests)

    def hex(self) -> str:
        return self.to_bytes().hex()


def serialize_trace(trace: TimingTrace) -> bytes:
    """Canonical trace bytes: each delta as an 8-byte big-endian unsigned int,
    in collection order."""
    samples = trace.samples
    if not samples:
        raise EmptyTraceError("cannot serialize a trace with no samples")
    return b"".join(delta.to_bytes(8, "big") for delta in samples)


def _fingerprint(trace: TimingTrace) -> str:
    provenance = {"config": asdict(trace.config), "timer": asdict(trace.timer)}
    canonical = json.dumps(provenance, sort_keys=True).encode()
    return hashlib.sha256(canonical).hexdigest()


def condition(
    trace: TimingTrace,
    quality_floor: int = DEFAULT_QUALITY_FLOOR,
) -> SeedOutput:
    """Hash and stretch a trace into seed material, or refuse outright.

    digests[0] = H(serialized trace); each further link is
    digests[i+1] = H(digests[i] || serialized trace), for trace.config.stretch
    extra links. Refuses with InsufficientEntropyError before touching any
    hash state when distinct_count(trace) < quality_floor.
    """
    if quality_floor < 0:
        raise ValueError(f"quality_floor must be >= 0, got {quality_floor}")
    observed = distinct_count(trace)
    if observed < quality_floor:
        raise InsufficientEntropyError(
            f"trace has {observed} distinct delta values, floor is {quality_floor}"
        )

    serialized = serialize_trace(trace)
    digests = [hashlib.sha256(serialized).digest()]
    for _ in range(trace.config.stretch):
        digests.append(hashlib.sha256(digests[-1] + serialized).digest())

    return SeedOutput(digests=tuple(digests), source_fingerprint=_fingerprint(trace))


def mk0_stream(count: int) -> bytes:
    """Reference byte stream from a hashed decimal counter.

    A single SHA-256 accumulates the decimal texts "0", "1", ..., emitting the
    running digest after each update from 1 through `count`. Statistically
    well-behaved and fully reproducible, so it serves as the known-good
    calibration source for the statistical battery.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    h = hashlib.sha256(b"0")
    out = bytearray()
    for i in range(1, count + 1):
        h.update(str(i).encode())
        out += h.digest()
    return bytes(out)

"""Conditioning: turn a timing trace into stretched seed material.

The trace is serialized canonically, hashed, and the digest chain is extended
`stretch` times, each link rehashing the previous digest together with the
full trace bytes. Conditioning is fail-closed: if the trace does not clear the
distinct-value floor, no seed bytes exist at all.
"""

from __future__ import annotations

import io
from collections.abc import Sequence

from .collector import TimingTrace, distinct_count
from .errors import InsufficientEntropyError
from .record import Record

DEFAULT_QUALITY_FLOOR = 20

# SHA-256's digest size. hashlib is imported only where digests are made: it
# maps OpenSSL's libcrypto (about 3.5 MB of resident set), which a process that
# only runs the battery never needs.
DIGEST_BYTES = 32

# mk0_stream hands its output on in chunks of this many digests (64 KiB).
MK0_CHUNK_DIGESTS = 2048


class DigestChain(Sequence):
    """Read-only view of seed material as its sequence of 32-byte digests.

    Indexing slices the digest out of the material, so the view holds no
    per-digest objects however long the chain is.
    """

    __slots__ = ("_material",)

    def __init__(self, material: bytes) -> None:
        self._material = material

    def __len__(self) -> int:
        return len(self._material) // DIGEST_BYTES

    def __getitem__(self, index):
        """The digest at an int index, or a list of the digests in a slice."""
        # The range resolves negative indices and raises IndexError past the
        # end; sliced, it gives the starts of the digests in the slice.
        starts = range(0, len(self._material), DIGEST_BYTES)[index]
        if isinstance(index, slice):
            return [self._material[start : start + DIGEST_BYTES] for start in starts]
        return self._material[starts : starts + DIGEST_BYTES]


class SeedOutput(Record, hidden=("material",)):
    """The digest chain produced from one trace.

    material is the concatenated chain, digests[0] first; digests is a view
    of the same bytes. The repr leaves the material out.
    """

    material: bytes

    @property
    def digests(self) -> DigestChain:
        return DigestChain(self.material)

    def to_bytes(self) -> bytes:
        return self.material


def serialize_trace(trace: TimingTrace) -> bytes:
    """Canonical trace bytes: each delta as an 8-byte big-endian unsigned int,
    in collection order."""
    samples = trace.samples
    if not samples:
        raise ValueError("cannot serialize a trace with no samples")
    try:
        return b"".join(delta.to_bytes(8, "big") for delta in samples)
    except OverflowError:
        bad = next(delta for delta in samples if not 0 <= delta < 2**64)
        raise ValueError(f"trace delta {bad} does not fit in 8 unsigned bytes") from None


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

    from hashlib import sha256

    serialized = serialize_trace(trace)
    # Each link goes straight into one buffer; getvalue() hands that buffer
    # over without a copy. The buffer gets its final size before the first
    # link: grown link by link, its reallocations fragment the heap, and after
    # a numpy battery has raised glibc's mmap threshold the process keeps the
    # fragments (max RSS was seen to rise by 11 MB on a second stretched run).
    material = io.BytesIO()
    material.seek(DIGEST_BYTES * (trace.config.stretch + 1) - 1)
    material.write(b"\0")
    material.seek(0)
    digest = sha256(serialized).digest()
    material.write(digest)
    for _ in range(trace.config.stretch):
        digest = sha256(digest + serialized).digest()
        material.write(digest)

    return SeedOutput(material=material.getvalue())


def mk0_stream(count: int, write=None) -> bytes | None:
    """Reference byte stream from a hashed decimal counter.

    A single SHA-256 accumulates the decimal texts "0", "1", ..., emitting the
    running digest after each update from 1 through `count`. Statistically
    well-behaved and fully reproducible, so it serves as the known-good
    calibration source for the statistical battery.

    With `write` given, the stream is handed to it in chunks of
    MK0_CHUNK_DIGESTS digests as they are hashed, so memory stays constant
    whatever the count, and None is returned. Without it, the whole stream is
    returned as bytes.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if write is None:
        stream = io.BytesIO()
        mk0_stream(count, stream.write)
        return stream.getvalue()
    import hashlib

    h = hashlib.sha256(b"0")
    for start in range(1, count + 1, MK0_CHUNK_DIGESTS):
        digests = []
        for i in range(start, min(start + MK0_CHUNK_DIGESTS, count + 1)):
            h.update(str(i).encode())
            digests.append(h.digest())
        write(b"".join(digests))
    return None

"""Column codecs for the tiered storage engine (delta+varint, bitmaps).

Cold blocks — expired from the most recent window but still selectable
by a window-independent BSS — compact to compressed on-disk form (see
:class:`~repro.storage.engine.TieredBackend`).  This module owns the
encodings, behind one tiny :class:`ColumnCodec` protocol with an exact
round-trip guarantee: ``decode(encode(values), len(values))`` returns
the input bit-for-bit for every ``int64`` array.

Four integer codecs ship:

* :class:`DeltaVarintCodec` — zigzag-encoded first differences in
  LEB128 varint bytes.  Sorted TID-lists and CSR offset columns (small,
  mostly-positive deltas) compress to one or two bytes per value; the
  zigzag step keeps *unsorted* int columns (CSR value runs restart at
  every transaction) lossless.  Encode and decode are fully vectorized:
  no Python-level per-value loop touches the data.
* :class:`ChunkedBitmapCodec` — a roaring-style layout for sorted
  duplicate-free non-negative arrays: values partition into
  ``2**16``-wide containers, each stored as a sorted ``uint16`` array
  when sparse or a packed 8 KiB bitmap when it holds more than
  :data:`ARRAY_CONTAINER_MAX` values (the byte-size crossover point).
* :class:`RawU16Codec` — fixed two-byte values for unsorted narrow
  columns (item ids); trades ~0.7 bytes/value against delta-varint
  for a branch-free single-``frombuffer`` decode on the cold scan
  path.
* :class:`RawCodec` — ``tobytes``/``frombuffer``; the identity baseline
  the benchmarks compare against.

Float and pickled payloads have no integer structure to exploit, so the
byte-level helpers :func:`deflate` / :func:`inflate` (stdlib zlib) cover
the dense and pickle block layouts, and GEMM's model-spill bytes, when
those travel through the cold tier.
"""

from __future__ import annotations

import zlib
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "ARRAY_CONTAINER_MAX",
    "CONTAINER_BITS",
    "CONTAINER_SIZE",
    "ChunkedBitmapCodec",
    "CodecError",
    "ColumnCodec",
    "DeltaVarintCodec",
    "RawCodec",
    "RawU16Codec",
    "deflate",
    "encode_delta_varint_segments",
    "inflate",
    "resolve_codec",
]

#: Width of one roaring-style container in values.
CONTAINER_BITS = 16
CONTAINER_SIZE = 1 << CONTAINER_BITS

#: A container holding more values than this stores a packed bitmap
#: (8 KiB) instead of a sorted ``uint16`` array — the exact byte-size
#: crossover (``2 bytes * 4096 = 8192``).
ARRAY_CONTAINER_MAX = 4096

#: Maximum LEB128 bytes one 64-bit value can need (ceil(64 / 7)).
_MAX_VARINT_BYTES = 10

_U64 = np.uint64
_SEVEN = _U64(7)
_LOW7 = _U64(0x7F)


class CodecError(ValueError):
    """A blob cannot be decoded (wrong codec, count, or corruption)."""


@runtime_checkable
class ColumnCodec(Protocol):
    """Encodes one ``int64`` column to bytes and back, exactly.

    Implementations must round-trip every array they accept:
    ``decode(encode(values), len(values))`` equals ``values``
    element-for-element with dtype ``int64``.
    """

    #: Registry name, recorded in block ``meta.json`` files and specs.
    name: str

    def encode(self, values: np.ndarray) -> bytes:
        """Serialize a 1-d ``int64`` array."""
        ...

    def decode(self, blob: bytes, count: int) -> np.ndarray:
        """Recover exactly ``count`` values from :meth:`encode` output."""
        ...


def _as_int64(values: np.ndarray) -> np.ndarray:
    array = np.asarray(values)
    if array.ndim != 1:
        raise CodecError(f"column codecs take 1-d arrays, got shape {array.shape}")
    return array.astype(np.int64, copy=False)


# ----------------------------------------------------------------------
# Delta + varint
# ----------------------------------------------------------------------


def _zigzag(deltas: np.ndarray) -> np.ndarray:
    """Map signed deltas onto small unsigned values (int64 -> uint64)."""
    unsigned = deltas.astype(_U64)
    return (unsigned << _U64(1)) ^ (deltas >> np.int64(63)).astype(_U64)


def _unzigzag(encoded: np.ndarray) -> np.ndarray:
    return (
        (encoded >> _U64(1)) ^ (_U64(0) - (encoded & _U64(1)))
    ).astype(np.int64)


def encode_delta_varint_segments(
    values: np.ndarray, starts: np.ndarray
) -> tuple[bytes, np.ndarray]:
    """Delta+varint-encode many segments of one array in a single pass.

    ``starts`` holds the strictly increasing index of each segment's
    first value (``starts[0] == 0`` unless ``values`` is empty).  The
    delta chain restarts at every segment, so each segment's bytes are
    exactly :meth:`DeltaVarintCodec.encode` of that segment alone.
    This is the only varint writer: the codec encodes one segment with
    it, and the cold tier encodes every list of a block at once
    (:meth:`repro.itemsets.kernels.DeltaVarintTidList.from_arrays`).

    Returns:
        The concatenated payload and the byte offset of each segment in
        it, plus a final sentinel equal to the payload length
        (``len(starts) + 1`` ``int64`` values).
    """
    array = _as_int64(values)
    starts = np.asarray(starts, dtype=np.int64)
    if len(array) == 0:
        return b"", np.zeros(len(starts) + 1, dtype=np.int64)
    deltas = np.empty(len(array), dtype=np.int64)
    np.subtract(array[1:], array[:-1], out=deltas[1:])
    deltas[starts] = array[starts]
    encoded = _zigzag(deltas)
    # Bytes needed per value: one comparison per 7-bit threshold below
    # the widest value's.
    width = max(1, -(-int(encoded.max()).bit_length() // 7))
    nbytes = np.ones(len(encoded), dtype=np.int64)
    for shift in range(7, 7 * width, 7):
        nbytes += encoded >= _U64(1) << _U64(shift)
    positions = np.arange(width, dtype=np.int64)
    shifts = (_SEVEN * positions.astype(_U64))[None, :]
    payload = ((encoded[:, None] >> shifts) & _LOW7).astype(np.uint8)
    keep = positions[None, :] < nbytes[:, None]
    continued = positions[None, :] < (nbytes - 1)[:, None]
    payload |= continued.astype(np.uint8) << np.uint8(7)
    ends = np.empty(len(array) + 1, dtype=np.int64)
    ends[0] = 0
    np.cumsum(nbytes, out=ends[1:])
    offsets = np.empty(len(starts) + 1, dtype=np.int64)
    offsets[:-1] = ends[starts]
    offsets[-1] = ends[-1]
    # Row-major boolean selection emits each value's bytes in order.
    return payload[keep].tobytes(), offsets


class DeltaVarintCodec:
    """Zigzag deltas in LEB128 varints, vectorized both ways.

    The first value is stored as its own (zigzagged) delta from zero,
    so the blob is self-contained.  Continuation bits are standard
    LEB128: the high bit of every byte except a value's last is set.
    """

    name = "delta-varint"

    def encode(self, values: np.ndarray) -> bytes:
        array = _as_int64(values)
        starts = np.zeros(min(len(array), 1), dtype=np.int64)
        return encode_delta_varint_segments(array, starts)[0]

    def decode(self, blob: bytes, count: int) -> np.ndarray:
        if count == 0:
            if len(blob):
                raise CodecError("trailing bytes after the last varint")
            return np.empty(0, dtype=np.int64)
        raw = np.frombuffer(blob, dtype=np.uint8)
        if len(raw) == 0:
            raise CodecError(f"empty blob cannot hold {count} values")
        continued = (raw & np.uint8(0x80)) != 0
        if continued[-1]:
            raise CodecError("blob ends inside a varint")
        if len(raw) == count and not continued.any():
            # Every byte is its own varint (tiny deltas — the shape of
            # per-record length columns): decode is a single widen.
            return np.cumsum(_unzigzag(raw.astype(_U64)), dtype=np.int64)
        # Every varint ends in exactly one non-continuation byte, so the
        # continuation positions alone give the varint count — no start
        # scan needed to validate.
        multi = np.flatnonzero(continued)
        if len(raw) - len(multi) != count:
            raise CodecError(
                f"blob holds {len(raw) - len(multi)} varints, expected {count}"
            )
        # Fast path: no varint longer than two bytes (small deltas, the
        # overwhelmingly common shape for sorted tids and item columns).
        # Adjacent continuation bytes are the only way to spell a third
        # byte, the k-th two-byte varint starts ``k`` continuation bytes
        # past its index — so one diff and one subtract recover every
        # boundary — and the arithmetic runs at uint16 width (a
        # two-byte varint's zigzag value is under 2**14, so its delta
        # fits int16).
        starts = np.empty(len(raw), dtype=bool)
        starts[0] = True
        np.logical_not(continued[:-1], out=starts[1:])
        start_indices = np.flatnonzero(starts)
        if 2 * count >= len(raw) and not (np.diff(multi) == 1).any():
            encoded = (raw[start_indices] & np.uint8(0x7F)).astype(np.uint16)
            if len(multi):
                second = multi - np.arange(len(multi), dtype=np.int64)
                encoded[second] |= raw[multi + 1].astype(np.uint16) << np.uint16(7)
            deltas = (
                (encoded >> np.uint16(1))
                ^ (np.uint16(0) - (encoded & np.uint16(1)))
            ).view(np.int16)
            return np.cumsum(deltas, dtype=np.int64)
        low7 = (raw & np.uint8(0x7F)).astype(_U64)
        group = np.cumsum(starts) - 1
        offsets = (
            np.arange(len(raw), dtype=np.int64) - start_indices[group]
        ).astype(_U64)
        if int(offsets.max()) >= _MAX_VARINT_BYTES:
            raise CodecError("varint longer than 10 bytes")
        pieces = low7 << (_SEVEN * offsets)
        encoded = np.bitwise_or.reduceat(pieces, start_indices)
        return np.cumsum(_unzigzag(encoded), dtype=np.int64)


# ----------------------------------------------------------------------
# Roaring-style chunked bitmap
# ----------------------------------------------------------------------

#: Container kinds in the serialized layout.
_ARRAY_CONTAINER = 0
_BITMAP_CONTAINER = 1

#: Words per full-container bitmap (``2**16 / 64``).
_CONTAINER_WORDS = CONTAINER_SIZE // 64

_HEADER_DTYPE = np.dtype(
    [("key", "<u4"), ("kind", "<u4"), ("cardinality", "<u4")]
)


def split_containers(
    values: np.ndarray,
) -> list[tuple[int, np.ndarray]]:
    """Partition a sorted non-negative array into ``(key, low16)`` runs.

    ``key`` is ``value >> 16``; the returned low halves are sorted
    ``uint16`` arrays.  Shared by the codec and the compressed-domain
    kernels (:mod:`repro.itemsets.kernels`), which intersect
    container-by-container.
    """
    array = _as_int64(values)
    if len(array) == 0:
        return []
    keys = array >> np.int64(CONTAINER_BITS)
    boundaries = np.flatnonzero(np.diff(keys)) + 1
    pieces = np.split(array, boundaries)
    return [
        (int(piece[0]) >> CONTAINER_BITS, (piece & np.int64(0xFFFF)).astype(np.uint16))
        for piece in pieces
    ]


def pack_container(low: np.ndarray) -> np.ndarray:
    """Pack sorted ``uint16`` low halves into a 1024-word bitmap."""
    words = np.zeros(_CONTAINER_WORDS, dtype=np.uint64)
    offsets = low.astype(_U64)
    np.bitwise_or.at(
        words, offsets >> _U64(6), _U64(1) << (offsets & _U64(63))
    )
    return words


def unpack_container(words: np.ndarray) -> np.ndarray:
    """Sorted ``uint16`` low halves of a 1024-word bitmap."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return np.flatnonzero(bits).astype(np.uint16)


class ChunkedBitmapCodec:
    """Roaring-style serialization of sorted duplicate-free arrays.

    Layout: ``uint32`` container count, then one 12-byte header per
    container (key, kind, cardinality), then the concatenated payloads
    (sorted ``uint16`` arrays or 8 KiB packed bitmaps).  Requires the
    input to be sorted, duplicate-free, and non-negative — exactly the
    shape of a TID-list or CSR offset column.
    """

    name = "chunked-bitmap"

    def encode(self, values: np.ndarray) -> bytes:
        array = _as_int64(values)
        if len(array) and (
            int(array[0]) < 0 or np.any(array[1:] <= array[:-1])
        ):
            raise CodecError(
                "chunked-bitmap encodes sorted duplicate-free "
                "non-negative arrays"
            )
        containers = split_containers(array)
        headers = np.empty(len(containers), dtype=_HEADER_DTYPE)
        payloads: list[bytes] = []
        for index, (key, low) in enumerate(containers):
            if len(low) > ARRAY_CONTAINER_MAX:
                kind = _BITMAP_CONTAINER
                payloads.append(pack_container(low).tobytes())
            else:
                kind = _ARRAY_CONTAINER
                payloads.append(low.tobytes())
            headers[index] = (key, kind, len(low))
        return b"".join(
            [
                np.uint32(len(containers)).tobytes(),
                headers.tobytes(),
                *payloads,
            ]
        )

    def decode(self, blob: bytes, count: int) -> np.ndarray:
        if len(blob) < 4:
            raise CodecError("chunked-bitmap blob shorter than its header")
        n_containers = int(np.frombuffer(blob, dtype=np.uint32, count=1)[0])
        offset = 4 + n_containers * _HEADER_DTYPE.itemsize
        headers = np.frombuffer(
            blob, dtype=_HEADER_DTYPE, count=n_containers, offset=4
        )
        parts: list[np.ndarray] = []
        total = 0
        for key, kind, cardinality in headers:
            high = np.int64(int(key)) << np.int64(CONTAINER_BITS)
            if kind == _BITMAP_CONTAINER:
                words = np.frombuffer(
                    blob, dtype=np.uint64, count=_CONTAINER_WORDS, offset=offset
                )
                offset += _CONTAINER_WORDS * 8
                low = unpack_container(words)
                if len(low) != cardinality:
                    raise CodecError("bitmap container cardinality mismatch")
            else:
                low = np.frombuffer(
                    blob, dtype=np.uint16, count=int(cardinality), offset=offset
                )
                offset += int(cardinality) * 2
            parts.append(low.astype(np.int64) + high)
            total += int(cardinality)
        if total != count:
            raise CodecError(f"blob holds {total} values, expected {count}")
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)


class RawCodec:
    """Identity codec: little-endian ``int64`` bytes."""

    name = "raw"

    def encode(self, values: np.ndarray) -> bytes:
        return _as_int64(values).astype("<i8", copy=False).tobytes()

    def decode(self, blob: bytes, count: int) -> np.ndarray:
        if len(blob) != count * 8:
            raise CodecError(
                f"raw blob of {len(blob)} bytes cannot hold {count} int64s"
            )
        return np.frombuffer(blob, dtype="<i8").astype(np.int64, copy=False)


class RawU16Codec:
    """Fixed two-byte values for columns that fit ``uint16``.

    Item-id value columns are narrow (the DEMON datasets top out around
    a thousand distinct items) but *unsorted* within each transaction
    run, so delta-varint pays a full boundary scan per decode without
    earning bytes back.  Storing them as raw little-endian ``uint16``
    costs ~2 bytes/value instead of ~1.3 — still 4x under dense
    ``int64`` — and decode collapses to one ``frombuffer`` plus a
    widening copy, with no data-dependent branches.  Encode rejects any
    value outside ``[0, 2**16)`` so the round-trip guarantee holds.
    """

    name = "raw-u16"

    def encode(self, values: np.ndarray) -> bytes:
        array = _as_int64(values)
        if len(array) and (
            int(array.min()) < 0 or int(array.max()) > 0xFFFF
        ):
            raise CodecError("raw-u16 encodes values in [0, 65536) only")
        return array.astype("<u2").tobytes()

    def decode(self, blob: bytes, count: int) -> np.ndarray:
        if len(blob) != count * 2:
            raise CodecError(
                f"raw-u16 blob of {len(blob)} bytes cannot hold {count} values"
            )
        return np.frombuffer(blob, dtype="<u2").astype(np.int64)


# ----------------------------------------------------------------------
# Byte-payload compression (dense float / pickle chunk layouts)
# ----------------------------------------------------------------------


def deflate(payload: bytes, level: int = 6) -> bytes:
    """Compress an opaque byte payload (zlib)."""
    return zlib.compress(payload, level)


def inflate(blob: bytes) -> bytes:
    """Reverse :func:`deflate` exactly."""
    return zlib.decompress(blob)


_CODECS: dict[str, ColumnCodec] = {
    codec.name: codec
    for codec in (
        DeltaVarintCodec(),
        ChunkedBitmapCodec(),
        RawCodec(),
        RawU16Codec(),
    )
}


def resolve_codec(name: str) -> ColumnCodec:
    """Look up a registered codec by its ``meta.json``/spec name."""
    codec = _CODECS.get(name)
    if codec is None:
        raise CodecError(
            f"unknown column codec {name!r}; registered: {sorted(_CODECS)}"
        )
    return codec

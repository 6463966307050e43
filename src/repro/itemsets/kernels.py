"""Intersection kernels for ECUT-style TID-list counting (§3.1.1).

Every ECUT/ECUT+ support count is ultimately an intersection of sorted,
duplicate-free TID arrays.  ``np.intersect1d`` re-sorts its (already
sorted) inputs on every call, so this module owns the intersection
primitives instead — demonlint rule DML006 bans raw ``np.intersect1d``
everywhere else in ``src/repro``:

* :func:`intersect_gallop` — binary-searches the smaller array into the
  larger one; ``O(|small| · log |large|)``, the right kernel when the
  list sizes are skewed (a rare item against a common one).
* :func:`intersect_merge` — concatenates and stable-sorts; numpy's
  stable sort on integer keys is a radix sort, so merging two already
  sorted runs costs ``O(|a| + |b|)`` rather than a comparison sort.
* :class:`BitmapTidList` — a packed ``uint64`` dense representation of
  one block's list (one bit per transaction of the block); intersection
  is a word-wise AND + popcount, and a bitmap∧sorted-array hybrid
  probes each array element against the bitmap in ``O(|array|)``.
* :func:`intersect_pair` / :func:`intersect_many` — the adaptive
  dispatcher the stores and counters use; :func:`force_kernel` pins the
  array∧array choice for ablation benchmarks.
* :class:`DeltaVarintTidList` / :class:`ChunkedTidList` — compressed
  representations for *cold* blocks (expired from the MRW but still
  selectable by a window-independent BSS; see ``storage/codecs.py``).
  Both intersect in the compressed domain: the varint form decodes at
  most the ~1 Ki-value segments whose ``[first, last]`` range overlaps
  the probe, the roaring form intersects container-by-container — the
  full list is never materialized during counting.

The representations carry their *physical* size so the byte-metered I/O
accounting (``storage/iostats.py``) charges what a disk would serve:
``TID_BYTES`` per tid for sorted arrays, eight bytes per word for
bitmaps.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from typing import Union

import numpy as np

#: Logical bytes per stored transaction identifier.
TID_BYTES = 4

#: dtype used for TID arrays.
TID_DTYPE = np.int64

#: Use the galloping kernel when the larger array is at least this many
#: times the smaller one; below the ratio the linear merge wins because
#: its per-element constant is lower than a binary search.
GALLOP_RATIO = 8

#: Bits per bitmap word.
WORD_BITS = 64

#: Bytes per bitmap word (charged per word fetched).
WORD_BYTES = 8

#: Blocks smaller than this keep plain sorted arrays: a bitmap's word
#: overhead dominates and the arrays are tiny anyway.
BITMAP_MIN_BLOCK = 128

#: An item's list switches to the bitmap representation when it holds at
#: least this fraction of the block's transactions.  At ``1/16`` the
#: bitmap is already half the array's size (``size/8`` bytes vs
#: ``4 · len ≥ size/4``) and word-AND intersection beats any
#: element-wise kernel.
BITMAP_DENSITY = 1.0 / 16.0


if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def _popcount(words: np.ndarray) -> int:
        return int(np.bitwise_count(words).sum())

else:  # pragma: no cover - exercised only on numpy < 2.0

    def _popcount(words: np.ndarray) -> int:
        return int(np.unpackbits(words.view(np.uint8)).sum())


def _empty() -> np.ndarray:
    return np.empty(0, dtype=TID_DTYPE)


class BitmapTidList:
    """One block's TID-list as a packed bit-per-transaction bitmap.

    Bit ``i`` of the bitmap corresponds to global tid ``base + i``; the
    bitmap spans exactly the block's ``size`` transactions (the 0/1
    property guarantees a list never crosses a block boundary).

    Attributes:
        words: Packed ``uint64`` words, little-endian bit order.
        base: Global tid of the block's first transaction.
        size: Number of transactions in the block.
        count: Number of set bits (the item's support in the block).
    """

    __slots__ = ("words", "base", "size", "count")

    def __init__(self, words: np.ndarray, base: int, size: int, count: int):
        self.words = words
        self.base = base
        self.size = size
        self.count = count

    @classmethod
    def from_array(cls, tids: np.ndarray, base: int, size: int) -> "BitmapTidList":
        """Pack a sorted tid array from one block into a bitmap."""
        words = np.zeros((size + WORD_BITS - 1) // WORD_BITS, dtype=np.uint64)
        offsets = (np.asarray(tids, dtype=TID_DTYPE) - base).astype(np.uint64)
        np.bitwise_or.at(
            words,
            offsets >> np.uint64(6),
            np.uint64(1) << (offsets & np.uint64(63)),
        )
        words.flags.writeable = False
        return cls(words, base, size, len(tids))

    def __len__(self) -> int:
        return self.count

    @property
    def nbytes(self) -> int:
        """Physical size: what a fetch of this list is charged."""
        return self.words.nbytes

    def to_array(self) -> np.ndarray:
        """Unpack to the equivalent sorted tid array."""
        bits = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return np.flatnonzero(bits[: self.size]).astype(TID_DTYPE) + self.base


#: Values per independently decodable segment of a varint-compressed
#: list.  Each segment restarts the delta chain, so a probe touching a
#: narrow tid range decodes only the overlapping segments.
VARINT_SEGMENT = 1024


class DeltaVarintTidList:
    """One block's TID-list as segmented delta+varint bytes.

    The sorted tids split into :data:`VARINT_SEGMENT`-value segments,
    each encoded as a standalone ``delta-varint`` blob (its first value
    is absolute).  ``firsts``/``lasts`` index the segment tid ranges so
    intersection against a sorted probe decodes only the segments the
    probe can touch.

    Attributes:
        blob: Concatenated per-segment varint bytes.
        offsets: Byte offset of each segment in ``blob`` (plus a final
            sentinel equal to ``len(blob)``).
        firsts: First tid of each segment.
        lasts: Last tid of each segment.
        base: Global tid of the block's first transaction.
        size: Number of transactions in the block.
        count: Number of tids in the list.
    """

    __slots__ = ("blob", "offsets", "firsts", "lasts", "base", "size", "count")

    def __init__(
        self,
        blob: bytes,
        offsets: np.ndarray,
        firsts: np.ndarray,
        lasts: np.ndarray,
        base: int,
        size: int,
        count: int,
    ):
        self.blob = blob
        self.offsets = offsets
        self.firsts = firsts
        self.lasts = lasts
        self.base = base
        self.size = size
        self.count = count

    @classmethod
    def from_array(
        cls, tids: np.ndarray, base: int, size: int
    ) -> "DeltaVarintTidList":
        """Compress a sorted tid array from one block."""
        return cls.from_arrays([tids], base, size)[0]

    @classmethod
    def from_arrays(
        cls, arrays: Sequence[np.ndarray], base: int, size: int
    ) -> list["DeltaVarintTidList"]:
        """Compress many sorted tid arrays from one block in one pass.

        The arrays are concatenated and encoded by a single
        :func:`~repro.storage.codecs.encode_delta_varint_segments` call
        whose delta chain restarts at every list start and every
        :data:`VARINT_SEGMENT` values within a list; each list's blob,
        offsets and segment ranges are then sliced out of the shared
        result.  Every list is byte-identical to what compressing it
        alone produces.
        """
        from ..storage.codecs import encode_delta_varint_segments

        if not arrays:
            return []
        n_lists = len(arrays)
        counts = np.fromiter(map(len, arrays), dtype=np.int64, count=n_lists)
        values = np.concatenate(arrays).astype(TID_DTYPE, copy=False)
        list_starts = np.cumsum(counts) - counts
        n_segments = -(-counts // VARINT_SEGMENT)
        segment_stops = np.cumsum(n_segments)
        segment_starts = segment_stops - n_segments
        owner = np.repeat(np.arange(n_lists), n_segments)
        rank = np.arange(len(owner)) - segment_starts[owner]
        starts = list_starts[owner] + rank * VARINT_SEGMENT
        stops = np.minimum(starts + VARINT_SEGMENT, (list_starts + counts)[owner])
        blob, offsets = encode_delta_varint_segments(values, starts)
        firsts = values[starts]
        lasts = values[stops - 1]
        # List i's offsets (its segments' plus a sentinel, rebased to
        # its own blob) sit at entries segment_starts[i] + i onward, so
        # entry k reads segment offset k - i.
        entry_owner = np.repeat(np.arange(n_lists), n_segments + 1)
        first_entry = segment_starts + np.arange(n_lists)
        relative = (
            offsets[np.arange(len(entry_owner)) - entry_owner]
            - offsets[segment_starts][entry_owner]
        )
        for shared in (firsts, lasts, relative):
            shared.flags.writeable = False
        return [
            cls(
                blob[lo:hi],
                relative[entry : entry + segment_hi - segment_lo + 1],
                firsts[segment_lo:segment_hi],
                lasts[segment_lo:segment_hi],
                base,
                size,
                count,
            )
            for lo, hi, entry, segment_lo, segment_hi, count in zip(
                offsets[segment_starts].tolist(),
                offsets[segment_stops].tolist(),
                first_entry.tolist(),
                segment_starts.tolist(),
                segment_stops.tolist(),
                counts.tolist(),
            )
        ]

    def __len__(self) -> int:
        return self.count

    @property
    def nbytes(self) -> int:
        """Physical size: what a fetch of this list is charged."""
        return len(self.blob)

    @property
    def num_segments(self) -> int:
        return len(self.firsts)

    def decode_segment(self, index: int) -> np.ndarray:
        """Decode one segment to its sorted tid array."""
        from ..storage.codecs import DeltaVarintCodec

        lo = int(self.offsets[index])
        hi = int(self.offsets[index + 1])
        count = min(VARINT_SEGMENT, self.count - index * VARINT_SEGMENT)
        return DeltaVarintCodec().decode(self.blob[lo:hi], count)

    def iter_segments(self) -> Iterator[np.ndarray]:
        for index in range(self.num_segments):
            yield self.decode_segment(index)

    def to_array(self) -> np.ndarray:
        """Decompress to the equivalent sorted tid array."""
        if self.count == 0:
            return _empty()
        return np.concatenate(list(self.iter_segments()))

    def _overlapping(self, probe: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """Segments the sorted ``probe`` can intersect, with its slice."""
        if len(probe) == 0 or self.count == 0:
            return
        los = np.searchsorted(probe, self.firsts, side="left")
        his = np.searchsorted(probe, self.lasts, side="right")
        for index in np.flatnonzero(his > los):
            yield int(index), probe[los[index] : his[index]]

    def intersect_array(self, probe: np.ndarray) -> np.ndarray:
        """Intersect with a sorted array, decoding overlapping segments."""
        parts = [
            intersect_arrays(self.decode_segment(index), piece)
            for index, piece in self._overlapping(probe)
        ]
        parts = [p for p in parts if len(p)]
        if not parts:
            return _empty()
        return np.concatenate(parts)

    def count_array(self, probe: np.ndarray) -> int:
        """``len(intersect_array(probe))`` without materializing it."""
        return sum(
            count_arrays(self.decode_segment(index), piece)
            for index, piece in self._overlapping(probe)
        )


class ChunkedTidList:
    """One block's TID-list as roaring-style containers (cold blocks).

    Local coordinates (``tid - base``) partition into ``2**16``-wide
    containers; sparse containers store sorted ``uint16`` arrays, dense
    ones packed 1024-word bitmaps.  Intersection proceeds container by
    container, never materializing the whole list.

    Attributes:
        keys: Sorted container keys (``local >> 16``), ``int64``.
        kinds: Per-container kind (0 = array, 1 = bitmap), ``uint8``.
        payloads: Per-container payload arrays.
        base: Global tid of the block's first transaction.
        size: Number of transactions in the block.
        count: Number of tids in the list.
    """

    __slots__ = ("keys", "kinds", "payloads", "base", "size", "count")

    def __init__(
        self,
        keys: np.ndarray,
        kinds: np.ndarray,
        payloads: list[np.ndarray],
        base: int,
        size: int,
        count: int,
    ):
        self.keys = keys
        self.kinds = kinds
        self.payloads = payloads
        self.base = base
        self.size = size
        self.count = count

    @classmethod
    def from_array(cls, tids: np.ndarray, base: int, size: int) -> "ChunkedTidList":
        """Compress a sorted tid array from one block."""
        from ..storage.codecs import (
            ARRAY_CONTAINER_MAX,
            pack_container,
            split_containers,
        )

        local = np.asarray(tids, dtype=TID_DTYPE) - base
        keys: list[int] = []
        kinds: list[int] = []
        payloads: list[np.ndarray] = []
        for key, low in split_containers(local):
            keys.append(key)
            if len(low) > ARRAY_CONTAINER_MAX:
                kinds.append(1)
                payloads.append(pack_container(low))
            else:
                kinds.append(0)
                payloads.append(low)
        for payload in payloads:
            payload.flags.writeable = False
        key_array = np.asarray(keys, dtype=np.int64)
        kind_array = np.asarray(kinds, dtype=np.uint8)
        key_array.flags.writeable = False
        kind_array.flags.writeable = False
        return cls(key_array, kind_array, payloads, base, size, len(tids))

    def __len__(self) -> int:
        return self.count

    @property
    def nbytes(self) -> int:
        """Physical size: payload bytes plus a 12-byte header/container."""
        return sum(p.nbytes for p in self.payloads) + 12 * len(self.keys)

    def _container_array(self, index: int) -> np.ndarray:
        """Sorted ``uint16`` low halves of container ``index``."""
        from ..storage.codecs import unpack_container

        if self.kinds[index]:
            return unpack_container(self.payloads[index])
        return self.payloads[index]

    def to_array(self) -> np.ndarray:
        """Decompress to the equivalent sorted tid array."""
        if self.count == 0:
            return _empty()
        parts = [
            self._container_array(index).astype(TID_DTYPE)
            + (int(self.keys[index]) << 16)
            + self.base
            for index in range(len(self.keys))
        ]
        return np.concatenate(parts)

    def intersect_array(self, probe: np.ndarray) -> np.ndarray:
        """Intersect with a sorted global tid array, per container."""
        if len(probe) == 0 or self.count == 0:
            return _empty()
        local = probe - self.base
        probe_keys = local >> np.int64(16)
        los = np.searchsorted(probe_keys, self.keys, side="left")
        his = np.searchsorted(probe_keys, self.keys, side="right")
        parts: list[np.ndarray] = []
        for index in np.flatnonzero(his > los):
            piece = local[los[index] : his[index]]
            low = (piece & np.int64(0xFFFF)).astype(np.uint64)
            if self.kinds[index]:
                words = self.payloads[index]
                hits = (words[low >> np.uint64(6)] >> (low & np.uint64(63))) & 1
                hit_mask = hits.astype(bool)
            else:
                container = self.payloads[index]
                positions = np.searchsorted(container, low.astype(np.uint16))
                hit_mask = (
                    np.take(container, positions, mode="clip")
                    == low.astype(np.uint16)
                )
            if hit_mask.any():
                parts.append(probe[los[index] : his[index]][hit_mask])
        if not parts:
            return _empty()
        return np.concatenate(parts)

    def count_array(self, probe: np.ndarray) -> int:
        """``len(intersect_array(probe))`` without materializing it."""
        if len(probe) == 0 or self.count == 0:
            return 0
        return len(self.intersect_array(probe))

    def _dense_words(self, dense: "BitmapTidList", index: int) -> np.ndarray:
        """The 1024-word slice of a dense block bitmap for container ``index``."""
        key = int(self.keys[index])
        words = dense.words[key * 1024 : (key + 1) * 1024]
        if len(words) < 1024:
            padded = np.zeros(1024, dtype=np.uint64)
            padded[: len(words)] = words
            return padded
        return words

    def intersect_dense(self, dense: "BitmapTidList") -> "ChunkedTidList":
        """Intersect with a same-block dense bitmap, container-wise."""
        if dense.base != self.base or dense.size != self.size:
            raise ValueError("bitmap intersection requires lists of the same block")
        keys: list[int] = []
        kinds: list[int] = []
        payloads: list[np.ndarray] = []
        count = 0
        for index in range(len(self.keys)):
            words = self._dense_words(dense, index)
            if self.kinds[index]:
                anded = self.payloads[index] & words
                hit = _popcount(anded)
                if hit:
                    keys.append(int(self.keys[index]))
                    kinds.append(1)
                    payloads.append(anded)
                    count += hit
            else:
                low = self.payloads[index].astype(np.uint64)
                hits = (words[low >> np.uint64(6)] >> (low & np.uint64(63))) & 1
                mask = hits.astype(bool)
                if mask.any():
                    keys.append(int(self.keys[index]))
                    kinds.append(0)
                    payloads.append(self.payloads[index][mask])
                    count += int(mask.sum())
        return ChunkedTidList(
            np.asarray(keys, dtype=np.int64),
            np.asarray(kinds, dtype=np.uint8),
            payloads,
            self.base,
            self.size,
            count,
        )

    def intersect_chunked(self, other: "ChunkedTidList") -> "ChunkedTidList":
        """Intersect with another roaring list of the same block."""
        if other.base != self.base or other.size != self.size:
            raise ValueError("bitmap intersection requires lists of the same block")
        keys: list[int] = []
        kinds: list[int] = []
        payloads: list[np.ndarray] = []
        count = 0
        positions = np.searchsorted(other.keys, self.keys)
        matched = (
            np.take(other.keys, positions, mode="clip") == self.keys
            if len(other.keys)
            else np.zeros(len(self.keys), dtype=bool)
        )
        for index in np.flatnonzero(matched):
            mine = index
            theirs = int(positions[index])
            a_bitmap = bool(self.kinds[mine])
            b_bitmap = bool(other.kinds[theirs])
            if a_bitmap and b_bitmap:
                anded = self.payloads[mine] & other.payloads[theirs]
                hit = _popcount(anded)
                if hit:
                    keys.append(int(self.keys[mine]))
                    kinds.append(1)
                    payloads.append(anded)
                    count += hit
                continue
            if a_bitmap or b_bitmap:
                words = self.payloads[mine] if a_bitmap else other.payloads[theirs]
                array = other.payloads[theirs] if a_bitmap else self.payloads[mine]
                low = array.astype(np.uint64)
                hits = (words[low >> np.uint64(6)] >> (low & np.uint64(63))) & 1
                mask = hits.astype(bool)
            else:
                small = self.payloads[mine]
                large = other.payloads[theirs]
                if len(small) > len(large):
                    small, large = large, small
                spots = np.searchsorted(large, small)
                mask = np.take(large, spots, mode="clip") == small
                array = small
            if mask.any():
                keys.append(int(self.keys[mine]))
                kinds.append(0)
                payloads.append(array[mask])
                count += int(mask.sum())
        return ChunkedTidList(
            np.asarray(keys, dtype=np.int64),
            np.asarray(kinds, dtype=np.uint8),
            payloads,
            self.base,
            self.size,
            count,
        )


#: A TID-list in any physical representation.
TidList = Union[np.ndarray, BitmapTidList, DeltaVarintTidList, ChunkedTidList]

#: The compressed (cold-tier) representations.
CompressedTidList = Union[DeltaVarintTidList, ChunkedTidList]

_COMPRESSED_TYPES = (DeltaVarintTidList, ChunkedTidList)


def compress_lists(
    lists: Sequence[TidList], base: int, size: int
) -> tuple[list[TidList], int]:
    """Re-encode one block's lists for the cold tier, keeping the smaller forms.

    Sorted arrays become :class:`DeltaVarintTidList`s (typically 1-2
    bytes per tid against :data:`TID_BYTES`), all of them in one
    vectorized pass (:meth:`DeltaVarintTidList.from_arrays`); dense
    bitmaps, which are rare, become roaring :class:`ChunkedTidList`s
    one at a time.  Either conversion is kept only when it actually
    shrinks the list — a packed bitmap at exactly the
    :data:`BITMAP_DENSITY` cutoff is already near-optimal, and a
    two-element array has nothing to gain — so compressing never grows
    a block.  The choice depends only on each list's contents, keeping
    it deterministic across backends and restarts.  Already-compressed
    lists pass through unchanged.

    Returns the lists and their total physical bytes (the sum of
    :func:`list_nbytes`), read off the sizes the choice compares.
    """
    result = list(lists)
    array_slots: list[int] = []
    other_slots: list[int] = []
    for index, tids in enumerate(result):
        (array_slots if isinstance(tids, np.ndarray) else other_slots).append(index)
    varints = DeltaVarintTidList.from_arrays(
        [result[index] for index in array_slots], base, size
    )
    nbytes = 0
    for index, varint in zip(array_slots, varints):
        packed, raw = varint.nbytes, TID_BYTES * varint.count
        if packed < raw:
            result[index] = varint
            nbytes += packed
        else:
            nbytes += raw
    for index in other_slots:
        tids = result[index]
        if isinstance(tids, BitmapTidList):
            chunked = ChunkedTidList.from_array(tids.to_array(), base, size)
            if chunked.nbytes < tids.nbytes:
                result[index] = tids = chunked
        nbytes += tids.nbytes
    return result, nbytes


def list_len(tids: TidList) -> int:
    """Cardinality of a list in any representation."""
    return len(tids)


def list_nbytes(tids: TidList) -> int:
    """Physical bytes a fetch of this list is charged."""
    if isinstance(tids, np.ndarray):
        return TID_BYTES * len(tids)
    return tids.nbytes


def as_array(tids: TidList) -> np.ndarray:
    """The sorted-array view of a list in any representation."""
    if isinstance(tids, np.ndarray):
        return tids
    return tids.to_array()


# ----------------------------------------------------------------------
# Array ∧ array kernels
# ----------------------------------------------------------------------

_FORCED_KERNEL: str | None = None


@contextmanager
def force_kernel(name: str | None) -> Iterator[None]:
    """Pin the array∧array kernel choice (``"gallop"``/``"merge"``).

    Used by the kernel-ablation benchmarks; ``None`` restores adaptive
    dispatch.  Not thread-safe — benchmarks are single-threaded.
    """
    global _FORCED_KERNEL
    if name not in (None, "gallop", "merge"):
        raise ValueError(f"unknown kernel {name!r}; use 'gallop', 'merge', or None")
    previous = _FORCED_KERNEL
    _FORCED_KERNEL = name
    try:
        yield
    finally:
        _FORCED_KERNEL = previous


def intersect_gallop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersect two sorted unique arrays by searching small into large.

    ``O(|small| · log |large|)`` — wins when the sizes are skewed.
    """
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    if len(small) == 0:
        return _empty()
    positions = np.searchsorted(large, small)
    # Clamped positions (elements past the end of ``large``) compare a
    # too-large element against large[-1], which cannot match.
    return small[np.take(large, positions, mode="clip") == small]


def intersect_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersect two sorted unique arrays by a linear merge.

    The concatenation of two sorted runs is stable-sorted (radix sort
    for integer tids, so effectively ``O(|a| + |b|)``); an element in
    both inputs appears exactly twice, adjacently.
    """
    if len(a) == 0 or len(b) == 0:
        return _empty()
    merged = np.concatenate((a, b))
    merged.sort(kind="stable")
    return merged[:-1][merged[:-1] == merged[1:]]


def intersect_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Adaptive array∧array intersection (gallop vs merge by skew)."""
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    if len(small) == 0:
        return _empty()
    if _FORCED_KERNEL == "gallop":
        return intersect_gallop(small, large)
    if _FORCED_KERNEL == "merge":
        return intersect_merge(small, large)
    if len(large) >= GALLOP_RATIO * len(small):
        return intersect_gallop(small, large)
    return intersect_merge(small, large)


def count_arrays(a: np.ndarray, b: np.ndarray) -> int:
    """``len(intersect_arrays(a, b))`` without materializing the result.

    Terminal trie edges in the batched counter only need the support
    count, which saves the final fancy-index of each kernel.
    """
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    if len(small) == 0:
        return 0
    if _FORCED_KERNEL != "merge" and (
        _FORCED_KERNEL == "gallop" or len(large) >= GALLOP_RATIO * len(small)
    ):
        positions = np.searchsorted(large, small)
        return int(
            np.count_nonzero(np.take(large, positions, mode="clip") == small)
        )
    merged = np.concatenate((small, large))
    merged.sort(kind="stable")
    return int(np.count_nonzero(merged[:-1] == merged[1:]))


def count_segments(running: np.ndarray, probes: Sequence[np.ndarray]) -> list[int]:
    """``[count_arrays(running, p) for p in probes]`` in one numpy pass.

    All probe arrays are concatenated and searched into ``running``
    together; per-probe hit counts fall out of a prefix sum over the
    match mask.  Empty probes are allowed and count zero.  This is the
    sibling-leaf kernel of the batched counter: one call replaces
    ``len(probes)`` separate intersections.
    """
    if not probes:
        return []
    if len(running) == 0:
        return [0] * len(probes)
    if _FORCED_KERNEL == "merge":
        # Keep the ablation honest: forcing the merge kernel disables
        # the searchsorted-based segmented fast path too.
        return [count_arrays(running, p) for p in probes]
    sizes = np.fromiter((len(p) for p in probes), dtype=np.intp, count=len(probes))
    if int(sizes.sum()) == 0:
        return [0] * len(probes)
    concatenated = np.concatenate(probes)
    positions = np.searchsorted(running, concatenated)
    hits = np.take(running, positions, mode="clip") == concatenated
    prefix = np.concatenate(([0], np.cumsum(hits)))
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    return (prefix[bounds[1:]] - prefix[bounds[:-1]]).tolist()


def pack_rows(
    arrays: Sequence[np.ndarray], base_tid: int, block_size: int
) -> np.ndarray:
    """Pack sorted tid arrays of one block into bitset rows.

    Row ``r`` holds ``arrays[r]`` as a little-endian packed bitset (bit
    ``t`` = "tid ``base_tid + t`` present"), byte-compatible with
    :attr:`BitmapTidList.words` viewed as bytes.  The scatter goes
    through a boolean staging buffer processed in bounded-size chunks,
    so packing a whole block's catalog never allocates more than a few
    megabytes of scratch.
    """
    width = (block_size + 7) >> 3
    out = np.empty((len(arrays), width), dtype=np.uint8)
    chunk = max(1, (1 << 23) // max(block_size, 1))
    for start in range(0, len(arrays), chunk):
        part = arrays[start : start + chunk]
        buf = np.zeros((len(part), block_size), dtype=bool)
        flat = np.concatenate(part) - base_tid
        flat += np.repeat(
            np.arange(len(part), dtype=np.int64) * block_size,
            [len(a) for a in part],
        )
        buf.flat[flat] = True
        out[start : start + len(part)] = np.packbits(
            buf, axis=1, bitorder="little"
        )
    return out


# ----------------------------------------------------------------------
# Bitmap kernels
# ----------------------------------------------------------------------


def intersect_bitmaps(a: BitmapTidList, b: BitmapTidList) -> BitmapTidList:
    """Word-wise AND of two bitmaps from the same block."""
    if a.base != b.base or a.size != b.size:
        raise ValueError("bitmap intersection requires lists of the same block")
    words = a.words & b.words
    return BitmapTidList(words, a.base, a.size, _popcount(words))


def intersect_bitmap_array(bitmap: BitmapTidList, array: np.ndarray) -> np.ndarray:
    """Hybrid: keep the sorted tids whose bit is set in the bitmap.

    ``O(|array|)`` — each tid probes one word; the result stays a sorted
    array (the sparser representation once a hybrid step happened).
    """
    if len(array) == 0:
        return _empty()
    offsets = (array - bitmap.base).astype(np.uint64)
    hits = (bitmap.words[offsets >> np.uint64(6)] >> (offsets & np.uint64(63))) & 1
    return array[hits.astype(bool)]


# ----------------------------------------------------------------------
# Compressed-domain kernels
# ----------------------------------------------------------------------


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    parts = [p for p in parts if len(p)]
    if not parts:
        return _empty()
    return np.concatenate(parts)


def _intersect_compressed(a: TidList, b: TidList) -> TidList:
    """Dispatch when at least one operand is a compressed list.

    Every case stays in the compressed domain: varint operands decode
    one ~1 Ki-value segment at a time, roaring operands intersect per
    container.  roaring∧roaring and roaring∧dense-bitmap keep the
    roaring representation; every other pairing degrades to a sorted
    array (the sparser representation once a hybrid step happened).
    """
    if not isinstance(a, _COMPRESSED_TYPES):
        a, b = b, a
    if isinstance(b, np.ndarray):
        return a.intersect_array(b)
    if isinstance(a, ChunkedTidList):
        if isinstance(b, BitmapTidList):
            return a.intersect_dense(b)
        if isinstance(b, ChunkedTidList):
            return a.intersect_chunked(b)
        # roaring ∧ varint: decode the varint side segment-wise and
        # probe each segment against the containers.
        return _concat([a.intersect_array(seg) for seg in b.iter_segments()])
    # ``a`` is varint.
    if isinstance(b, BitmapTidList):
        return _concat(
            [intersect_bitmap_array(b, seg) for seg in a.iter_segments()]
        )
    if isinstance(b, ChunkedTidList):
        return _concat([b.intersect_array(seg) for seg in a.iter_segments()])
    # varint ∧ varint: decode the smaller list segment-wise; each
    # decoded segment prunes the larger list's segment index, so the
    # larger side is never fully decompressed.
    small, large = (a, b) if a.count <= b.count else (b, a)
    return _concat([large.intersect_array(seg) for seg in small.iter_segments()])


def _count_compressed(a: TidList, b: TidList) -> int:
    """Support count for :func:`_intersect_compressed` pairings."""
    if not isinstance(a, _COMPRESSED_TYPES):
        a, b = b, a
    if isinstance(b, np.ndarray):
        return a.count_array(b)
    if isinstance(a, ChunkedTidList):
        if isinstance(b, BitmapTidList):
            return a.intersect_dense(b).count
        if isinstance(b, ChunkedTidList):
            return a.intersect_chunked(b).count
        return sum(a.count_array(seg) for seg in b.iter_segments())
    if isinstance(b, BitmapTidList):
        return sum(count_pair(b, seg) for seg in a.iter_segments())
    if isinstance(b, ChunkedTidList):
        return sum(b.count_array(seg) for seg in a.iter_segments())
    small, large = (a, b) if a.count <= b.count else (b, a)
    return sum(large.count_array(seg) for seg in small.iter_segments())


# ----------------------------------------------------------------------
# Unified dispatch
# ----------------------------------------------------------------------


def intersect_pair(a: TidList, b: TidList) -> TidList:
    """Intersect two TID-lists of one block, picking the best kernel.

    bitmap∧bitmap stays a bitmap (word AND); bitmap∧array degrades to a
    sorted array via the hybrid probe; array∧array dispatches between
    galloping and linear merge on size skew; compressed operands route
    through the compressed-domain kernels (:func:`_intersect_compressed`)
    without full decompression.
    """
    if isinstance(a, _COMPRESSED_TYPES) or isinstance(b, _COMPRESSED_TYPES):
        return _intersect_compressed(a, b)
    a_dense = isinstance(a, BitmapTidList)
    b_dense = isinstance(b, BitmapTidList)
    if a_dense and b_dense:
        return intersect_bitmaps(a, b)
    if a_dense:
        return intersect_bitmap_array(a, b)
    if b_dense:
        return intersect_bitmap_array(b, a)
    return intersect_arrays(a, b)


def count_pair(a: TidList, b: TidList) -> int:
    """``len(intersect_pair(a, b))`` without materializing the result."""
    if isinstance(a, _COMPRESSED_TYPES) or isinstance(b, _COMPRESSED_TYPES):
        return _count_compressed(a, b)
    a_dense = isinstance(a, BitmapTidList)
    b_dense = isinstance(b, BitmapTidList)
    if a_dense and b_dense:
        if a.base != b.base or a.size != b.size:
            raise ValueError("bitmap intersection requires lists of the same block")
        return _popcount(a.words & b.words)
    if a_dense or b_dense:
        bitmap, array = (a, b) if a_dense else (b, a)
        if len(array) == 0:
            return 0
        offsets = (array - bitmap.base).astype(np.uint64)
        hits = (bitmap.words[offsets >> np.uint64(6)] >> (offsets & np.uint64(63))) & 1
        return int(hits.sum())
    return count_arrays(a, b)


def intersect_many(lists: Sequence[TidList]) -> TidList:
    """Intersect several TID-lists of one block, smallest first.

    The running intersection only shrinks; an empty one short-circuits.
    Returns an empty array for no input (callers treat the empty
    itemset separately, as the whole block).
    """
    if not lists:
        return _empty()
    ordered = sorted(lists, key=len)
    running: TidList = ordered[0]
    for other in ordered[1:]:
        if len(running) == 0:
            break
        running = intersect_pair(running, other)
    return running

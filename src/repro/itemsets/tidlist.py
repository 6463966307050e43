"""Per-block TID-lists and merge-intersection support counting (§3.1.1).

ECUT counts the support of an itemset ``X = {i1, ..., ik}`` by
intersecting the TID-lists ``θ(i1), ..., θ(ik)``; the cardinality of
the intersection is the support.  Two properties of systematic block
evolution let TID-lists be partitioned one-per-block and built exactly
once, when the block arrives:

* **additivity** — the support of ``X`` on ``D[1, t]`` is the sum of
  its per-block supports;
* **0/1 property** — a BSS selects a block completely or not at all, so
  a per-block list never needs to be split.

Transaction identifiers are global and increase in arrival order, so
within a block the per-item lists are built by a single scan appending
each transaction's tid to the list of every item it contains.

Physically each per-block list is stored either as a sorted tid array
or — for items dense enough in a large enough block — as a packed
bitmap (see :mod:`repro.itemsets.kernels`); the store picks the
representation at :meth:`TidListStore.materialize_block` time and the
byte-metered fetches charge whichever representation is actually read.
Materialized arrays are frozen (``writeable = False``): fetches return
the store's physical arrays without copying, so a caller mutating a
fetched list would otherwise silently corrupt every later count.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain
from typing import Any

import numpy as np

from repro.core.blocks import Block
from repro.itemsets.itemset import Itemset, Transaction
from repro.itemsets.kernels import (
    TID_BYTES,
    TID_DTYPE,
    BITMAP_DENSITY,
    BITMAP_MIN_BLOCK,
    BitmapTidList,
    ChunkedTidList,
    DeltaVarintTidList,
    TidList,
    as_array,
    compress_lists,
    intersect_many,
    intersect_pair,
    list_nbytes,
    pack_rows,
)
from repro.storage.iostats import IOStats, IOStatsRegistry

__all__ = [
    "TID_BYTES",
    "TID_DTYPE",
    "NonCanonicalTransactionError",
    "TidListStore",
    "intersect_sorted",
]


class NonCanonicalTransactionError(ValueError):
    """A transaction is not a strictly increasing tuple of item ids.

    TID-lists are built with one tid appended per (transaction, item)
    occurrence, so a repeated item would get its tid twice and its
    support would exceed the number of transactions holding it.  Every
    count BORDERS takes comes from these lists, so the store refuses
    such a block instead of building wrong ones.

    Attributes:
        block_id: The block holding the transaction.
        record_index: Position of the transaction within the block.
        transaction: The offending transaction.
    """

    def __init__(self, block_id: int, record_index: int, transaction: Sequence[int]):
        self.block_id = block_id
        self.record_index = record_index
        self.transaction = tuple(transaction)
        super().__init__(
            f"block {block_id}, record {record_index}: transaction "
            f"{self.transaction} is not sorted and duplicate-free"
        )


def intersect_sorted(lists: Sequence[np.ndarray]) -> np.ndarray:
    """Intersect sorted, duplicate-free tid arrays (adaptive kernels).

    Processes the arrays smallest-first so the running intersection only
    shrinks; returns an empty array as soon as it empties.  May return
    one of its inputs unchanged (e.g. a single-element ``lists``), so
    callers must not mutate the result — store-fetched arrays are
    read-only precisely to catch that.
    """
    return as_array(intersect_many(lists))


def _check_canonical(block_id: int, items: np.ndarray, ends: np.ndarray) -> None:
    """Raise unless every transaction's items strictly increase.

    ``items`` is the block's transactions concatenated and ``ends[r]``
    the end offset of transaction ``r`` in it.
    """
    rising = items[1:] > items[:-1]
    # Steps across a transaction boundary compare different records.
    boundaries = ends[:-1] - 1
    rising[boundaries[(boundaries >= 0) & (boundaries < len(rising))]] = True
    if rising.all():
        return
    position = int(np.argmin(rising))
    record = int(np.searchsorted(ends, position, side="right"))
    start = int(ends[record - 1]) if record else 0
    transaction = items[start : int(ends[record])].tolist()
    raise NonCanonicalTransactionError(block_id, record, transaction)


class TidListStore:
    """Disk-simulated store of per-block, per-item TID-lists.

    Every fetch is charged to an I/O counter at the list's physical
    size (:data:`TID_BYTES` per tid for arrays, eight bytes per word
    for dense bitmaps), so benchmarks can verify the paper's claim that
    ECUT touches one to two orders of magnitude fewer bytes than a full
    scan.

    Args:
        registry: I/O registry to charge fetches to; private if omitted.
        counter_name: Counter name within the registry.
    """

    def __init__(
        self,
        registry: IOStatsRegistry | None = None,
        counter_name: str = "tidlist_fetch",
    ):
        self.registry = registry if registry is not None else IOStatsRegistry()
        self._stats = self.registry.get(counter_name)
        self._lists: dict[int, dict[int, TidList]] = {}
        self._block_sizes: dict[int, int] = {}
        self._base_tids: dict[int, int] = {}
        self._catalogs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._packed: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._sources: dict[int, Block[Transaction]] = {}
        self._compressed: set[int] = set()
        self._next_tid = 0

    @property
    def stats(self) -> IOStats:
        """The counter fetches are charged to."""
        return self._stats

    def materialize_block(self, block: Block[Transaction]) -> None:
        """Build the TID-lists of all items for one arriving block.

        Transaction identifiers continue the global sequence.  The block
        is read once and the lists are cut from one stable sort of its
        (item, tid) occurrences; the read is not charged here (the
        block store charges it when the caller appends the block).
        Items holding at least
        :data:`~repro.itemsets.kernels.BITMAP_DENSITY` of a block of at
        least :data:`~repro.itemsets.kernels.BITMAP_MIN_BLOCK`
        transactions are packed into bitmaps; everything else stays a
        frozen sorted array.

        Raises:
            NonCanonicalTransactionError: A transaction is not strictly
                increasing (e.g. it repeats an item); the store is left
                unchanged.
        """
        if block.block_id in self._lists:
            raise ValueError(f"TID-lists for block {block.block_id} already built")
        lengths: list[int] = []
        flat: list[int] = []
        for chunk in block.iter_chunks():
            lengths.extend(map(len, chunk))
            flat.extend(chain.from_iterable(chunk))
        size = len(lengths)
        lens = np.asarray(lengths, dtype=np.int64)
        items = np.asarray(flat, dtype=np.int64)
        ends = np.cumsum(lens)
        _check_canonical(block.block_id, items, ends)
        base = self._next_tid
        tids = np.repeat(np.arange(base, base + size, dtype=TID_DTYPE), lens)
        # A stable sort by item keeps each item's tids ascending; the
        # runs of equal items are the per-item lists.
        order = np.argsort(items, kind="stable")
        items = items[order]
        tids = tids[order]
        first = np.ones(len(items), dtype=bool)
        first[1:] = items[1:] != items[:-1]
        run_starts = np.flatnonzero(first)
        starts = run_starts.tolist()
        stops = run_starts[1:].tolist() + [len(items)]
        dense_cutoff = (
            BITMAP_DENSITY * size if size >= BITMAP_MIN_BLOCK else float("inf")
        )
        block_lists: dict[int, TidList] = {}
        for item, start, stop in zip(items[run_starts].tolist(), starts, stops):
            array = tids[start:stop].copy()
            array.flags.writeable = False
            if stop - start >= dense_cutoff:
                block_lists[item] = BitmapTidList.from_array(array, base, size)
            else:
                block_lists[item] = array
        self._next_tid = base + size
        self._lists[block.block_id] = block_lists
        self._block_sizes[block.block_id] = size
        self._base_tids[block.block_id] = base
        self._sources[block.block_id] = block

    def has_block(self, block_id: int) -> bool:
        """Whether TID-lists for this block have been materialized."""
        return block_id in self._lists

    def block_size(self, block_id: int) -> int:
        """Number of transactions in a materialized block."""
        return self._block_sizes[block_id]

    def base_tid(self, block_id: int) -> int:
        """Global tid of a block's first transaction."""
        return self._base_tids[block_id]

    def drop_block(self, block_id: int) -> None:
        """Discard a block's lists (when it can never be selected again)."""
        self._lists.pop(block_id, None)
        self._block_sizes.pop(block_id, None)
        self._base_tids.pop(block_id, None)
        self._catalogs.pop(block_id, None)
        self._packed.pop(block_id, None)
        self._sources.pop(block_id, None)
        self._compressed.discard(block_id)

    # -- the cold tier (compressed lists for expired blocks) -----------

    def block_compressed(self, block_id: int) -> bool:
        """Whether this block's lists are in compressed representations."""
        return block_id in self._compressed

    def compressed_nbytes(self) -> int:
        """Physical bytes of all compressed blocks' lists."""
        return sum(self.nbytes(block_id) for block_id in self._compressed)

    def compress_block(self, block_id: int) -> int:
        """Swap one block's lists to compressed representations.

        Called by the session when the block expires from the most
        recent window: the lists stay selectable by window-independent
        BSSes, but cold — sorted arrays become segmented delta+varint
        blobs (all of the block's in one vectorized pass), dense
        bitmaps become roaring-style container sets, and
        counting proceeds in the compressed domain
        (:mod:`repro.itemsets.kernels`).  Fetch charges shrink to the
        compressed physical sizes.  Idempotent; returns the compressed
        bytes now holding the block (0 if unknown or already
        compressed).  The replacement mapping is built fully before the
        one-assignment swap, so a failure mid-compression leaves the
        store untouched (DML018).
        """
        if block_id in self._compressed or block_id not in self._lists:
            return 0
        base = self._base_tids[block_id]
        size = self._block_sizes[block_id]
        block_lists = self._block_lists(block_id)
        lists, nbytes = compress_lists(list(block_lists.values()), base, size)
        self._lists[block_id] = dict(zip(block_lists, lists))
        self._catalogs.pop(block_id, None)
        self._packed.pop(block_id, None)
        self._compressed.add(block_id)
        return nbytes

    def _canonical_lists(self, block_id: int) -> dict[int, TidList]:
        """A compressed block's lists in their original dense forms.

        Compression maps arrays to varint lists and bitmaps to roaring
        sets, so the inverse is representation-exact: a
        compress/decompress cycle (or a checkpoint, which stores the
        canonical forms) reproduces the lists
        :meth:`materialize_block` built, byte for byte.
        """
        base = self._base_tids[block_id]
        size = self._block_sizes[block_id]
        canonical: dict[int, TidList] = {}
        for item, tids in self._block_lists(block_id).items():
            if isinstance(tids, ChunkedTidList):
                canonical[item] = BitmapTidList.from_array(
                    tids.to_array(), base, size
                )
            elif isinstance(tids, DeltaVarintTidList):
                array = tids.to_array()
                array.flags.writeable = False
                canonical[item] = array
            else:
                canonical[item] = tids
        return canonical

    def decompress_block(self, block_id: int) -> bool:
        """Restore one block's lists to their dense representations."""
        if block_id not in self._compressed:
            return False
        self._lists[block_id] = self._canonical_lists(block_id)
        self._catalogs.pop(block_id, None)
        self._packed.pop(block_id, None)
        self._compressed.discard(block_id)
        return True

    def source_block(self, block_id: int) -> Block[Transaction] | None:
        """The block handle this store materialized ``block_id`` from.

        The sharded counting path (:mod:`repro.parallel`) uses the
        handle to build a zero-copy ref for workers.  ``None`` when the
        block was never materialized here or the store was restored
        from a checkpoint (handles are execution state, not model
        state — see ``__getstate__`` — so a freshly restored session
        counts serially until new blocks arrive).
        """
        return self._sources.get(block_id)

    def __getstate__(self) -> dict[str, Any]:
        # Block handles are backend-bound execution state: pickling
        # them would materialize every block into the checkpoint (and
        # make its bytes depend on registration order of live handles).
        # The packed-row catalogs are lazy caches derived from
        # ``_lists`` — persisting them would make checkpoint bytes
        # depend on which process happened to count which block (the
        # sharded path builds them worker-side).  The TID-lists
        # themselves are self-contained and are what persists — in
        # their *canonical* dense forms: compression is a placement
        # decision, and checkpoint bytes must be identical regardless
        # of where (or how compactly) a block currently lives.  The
        # sorted id list records which blocks were cold so restore can
        # re-compress them deterministically.
        state = dict(self.__dict__)
        state["_sources"] = {}
        state["_catalogs"] = {}
        state["_packed"] = {}
        if self._compressed:
            lists = dict(self._lists)
            for block_id in self._compressed:
                lists[block_id] = self._canonical_lists(block_id)
            state["_lists"] = lists
        state["_compressed"] = sorted(self._compressed)
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        state.setdefault("_sources", {})
        state.setdefault("_catalogs", {})
        state.setdefault("_packed", {})
        cold_ids = state.pop("_compressed", ())
        self.__dict__.update(state)
        self._compressed = set()
        for block_id in cold_ids:
            self.compress_block(block_id)

    def _block_lists(self, block_id: int) -> dict[int, TidList]:
        block_lists = self._lists.get(block_id)
        if block_lists is None:
            raise KeyError(f"no TID-lists materialized for block {block_id}")
        return block_lists

    def lists_view(self, block_id: int) -> dict[int, TidList]:
        """Direct (read-only by convention) view of one block's lists.

        The batched counting engine resolves many lists per block and
        meters the reads itself in aggregate
        (:meth:`~repro.storage.iostats.IOStats.record_reads`); going
        through :meth:`fetch_list` per list would double the engine's
        Python overhead.  Callers must not mutate the mapping and must
        charge every list they take from it.
        """
        return self._block_lists(block_id)

    def fetch_list(self, block_id: int, item: int) -> TidList:
        """Fetch one list in its physical representation, charging it.

        The hot counting paths use this and intersect through
        :mod:`repro.itemsets.kernels`, so dense bitmaps are ANDed
        word-wise instead of being unpacked.
        """
        tids = self._block_lists(block_id).get(item)
        if tids is None:
            tids = np.empty(0, dtype=TID_DTYPE)
        self._stats.record_read(list_nbytes(tids))
        return tids

    def fetch(self, block_id: int, item: int) -> np.ndarray:
        """Fetch one item's TID-list as a sorted array, charging the read.

        The charge is the physical representation's size; bitmaps are
        unpacked for the caller after the (cheaper) bitmap fetch.  The
        returned array is read-only when it aliases store memory.
        """
        return as_array(self.fetch_list(block_id, item))

    def item_count(self, block_id: int, item: int) -> int:
        """Length of one per-block list without charging a fetch.

        List lengths are catalog metadata (they equal the item's support
        in the block), available without reading the list body.
        """
        tids = self._block_lists(block_id).get(item)
        return 0 if tids is None else len(tids)

    def item_counts(self, block_id: int, items: Iterable[int]) -> dict[int, int]:
        """Catalog lengths for several items at once (not charged)."""
        block_lists = self._block_lists(block_id)
        result: dict[int, int] = {}
        for item in items:
            tids = block_lists.get(item)
            result[item] = 0 if tids is None else len(tids)
        return result

    def catalog(self, block_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Every item of one block with its count, as sorted arrays.

        A list's length is the item's support in the block, so the
        catalog is the block's item counts — catalog metadata, read
        without charging a fetch.  Blocks are immutable once
        materialized, so the catalog is built at most once per block
        and dropped with the block.  The arrays are read-only.
        """
        catalog = self._catalogs.get(block_id)
        if catalog is None:
            block_lists = self._block_lists(block_id)
            items = np.fromiter(
                block_lists.keys(), dtype=np.int64, count=len(block_lists)
            )
            counts = np.fromiter(
                (len(tids) for tids in block_lists.values()),
                dtype=np.int64,
                count=len(block_lists),
            )
            order = np.argsort(items)
            catalog = (items[order], counts[order])
            for array in catalog:
                array.flags.writeable = False
            self._catalogs[block_id] = catalog
        return catalog

    def item_counts_array(self, block_id: int, items: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`item_counts`: lengths aligned to ``items``.

        One ``searchsorted`` against the cached per-block catalog —
        the batched counting engine asks for hundreds of lengths per
        block, where a Python-loop lookup would dominate its runtime.
        Items absent from the block get length 0.
        """
        cat_items, cat_counts = self.catalog(block_id)
        if len(cat_items) == 0:
            return np.zeros(len(items), dtype=np.int64)
        pos = np.searchsorted(cat_items, items)
        found = np.take(cat_items, pos, mode="clip") == items
        return np.where(found, np.take(cat_counts, pos, mode="clip"), 0)

    def _packed_catalog(self, block_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Lazily-built (packed bitset rows, physical sizes) per block.

        Row ``r`` is the bitset of catalog item ``r``'s list; bitmap
        lists contribute their words directly, arrays are packed once
        via :func:`~repro.itemsets.kernels.pack_rows`.  The cache costs
        ``ceil(block_size / 8)`` bytes per catalog item, is built on
        first batched count against the block, and is dropped with the
        block.  It is a decoded in-memory representation only — fetch
        *charges* are still metered per batch by the counting engine.
        """
        packed = self._packed.get(block_id)
        if packed is None:
            cat_items, cat_counts = self.catalog(block_id)
            block_lists = self._block_lists(block_id)
            size = self._block_sizes[block_id]
            base = self._base_tids[block_id]
            width = (size + 7) >> 3
            matrix = np.zeros((len(cat_items), width), dtype=np.uint8)
            nbytes = cat_counts * TID_BYTES
            arrays: list[np.ndarray] = []
            rows: list[int] = []
            for r, item in enumerate(cat_items.tolist()):
                tids = block_lists[item]
                if isinstance(tids, BitmapTidList):
                    nbytes[r] = tids.nbytes
                    matrix[r] = tids.words.view(np.uint8)[:width]
                else:
                    if not isinstance(tids, np.ndarray):
                        # Compressed (cold) list: the dense engine
                        # wants packed rows, so decode this once; the
                        # charge stays the compressed physical size.
                        nbytes[r] = tids.nbytes
                        tids = tids.to_array()
                    arrays.append(tids)
                    rows.append(r)
            if arrays:
                matrix[np.asarray(rows, dtype=np.int64)] = pack_rows(
                    arrays, base, size
                )
            matrix.flags.writeable = False
            nbytes.flags.writeable = False
            packed = (matrix, nbytes)
            self._packed[block_id] = packed
        return packed

    def packed_rows(
        self, block_id: int, items: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bitset rows, lengths, and physical sizes aligned to ``items``.

        The batched counting engine's bulk access path: one catalog
        lookup per call instead of one store fetch per list.  Items
        absent from the block get an all-zero row and size 0.  Returns
        fresh (writable) arrays; the underlying cache is frozen.
        """
        cat_items, cat_counts = self.catalog(block_id)
        matrix, cat_nbytes = self._packed_catalog(block_id)
        n = len(items)
        if len(cat_items) == 0:
            width = (self._block_sizes[block_id] + 7) >> 3
            return (
                np.zeros((n, width), dtype=np.uint8),
                np.zeros(n, dtype=np.int64),
                np.zeros(n, dtype=np.int64),
            )
        pos = np.minimum(np.searchsorted(cat_items, items), len(cat_items) - 1)
        found = cat_items[pos] == items
        rows = matrix[pos]
        rows[~found] = 0
        lens = np.where(found, cat_counts[pos], 0)
        nbytes = np.where(found, cat_nbytes[pos], 0)
        return rows, lens, nbytes

    def nbytes(self, block_id: int) -> int:
        """Physical size of one block's item TID-lists."""
        return sum(list_nbytes(t) for t in self._block_lists(block_id).values())

    def total_nbytes(self) -> int:
        """Physical size of all materialized item TID-lists."""
        return sum(self.nbytes(block_id) for block_id in self._lists)

    def count_itemset_in_block(self, block_id: int, itemset: Itemset) -> int:
        """Support count of ``itemset`` within one block via intersection."""
        if not itemset:
            return self._block_sizes.get(block_id, 0)
        # Fetch rarest-first and intersect progressively: the running
        # intersection only shrinks, and an empty one stops the fetches.
        by_rarity = sorted(itemset, key=lambda item: self.item_count(block_id, item))
        running = self.fetch_list(block_id, by_rarity[0])
        for item in by_rarity[1:]:
            if len(running) == 0:
                return 0
            running = intersect_pair(running, self.fetch_list(block_id, item))
        return int(len(running))

    def count_itemset(self, block_ids: Iterable[int], itemset: Itemset) -> int:
        """Support count of ``itemset`` over several blocks (additivity)."""
        return sum(self.count_itemset_in_block(b, itemset) for b in block_ids)

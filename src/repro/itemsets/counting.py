"""Support counters for BORDERS' update phase: PT-Scan, ECUT, ECUT+.

The update phase of BORDERS must count a (typically small) set ``S`` of
new candidate itemsets over the selected blocks of the whole history.
The paper compares three ways to do it:

* **PT-Scan** — organize ``S`` in a prefix tree and scan every selected
  block in full.  Cost is proportional to the dataset size and nearly
  independent of ``|S|``'s composition, so it wins only when ``|S|`` is
  large.
* **ECUT** — intersect the per-block TID-lists of each itemset's items.
  Cost is proportional to the summed supports of the items involved —
  typically one to two orders of magnitude less data than a full scan.
* **ECUT+** — like ECUT but prefer materialized 2-itemset TID-lists
  when a block has them, fetching fewer and shorter lists.

All three implement :class:`SupportCounter` so BORDERS treats them
interchangeably.  The choice covers the update phase only: BORDERS'
detection and its Apriori ``build`` always count with the ECUT engine
on the blocks' own TID-lists (§3.1.1 additivity).

Each counter additionally exposes :meth:`SupportCounter.count_batch`,
the batched engine BORDERS actually calls: per block, the candidate set
is organized in a prefix trie over rarest-first fetch-key sequences, so
candidates sharing a prefix share the partial intersection computed at
the common trie node, and a per-batch fetch cache reads each distinct
physical list exactly once per block (repeat uses are recorded as cache
hits, not re-charged — the byte meter sees what a buffer pool would
serve from disk).  PT-Scan's plain :meth:`~PTScanCounter.count` is
already batched — one prefix tree, one scan — so its batch path is the
same code.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Collection, Iterable, Sequence
from itertools import chain
from typing import Any, Union

import numpy as np

from repro.itemsets.itemset import Itemset, Transaction
from repro.itemsets.kernels import (
    TID_BYTES,
    BitmapTidList,
    ChunkedTidList,
    DeltaVarintTidList,
    TidList,
    as_array,
    count_pair,
    count_segments,
    intersect_many,
    intersect_pair,
    list_nbytes,
)
from repro.itemsets.materialize import Pair, PairTidListStore, plan_cover
from repro.itemsets.prefix_tree import PrefixTree
from repro.itemsets.tidlist import TidListStore
from repro.storage.blockstore import BlockStore
from repro.storage.iostats import IOStats


class SupportCounter(ABC):
    """Counts the supports of a set of itemsets over selected blocks."""

    #: Short name used in benchmark output ("PT-Scan", "ECUT", "ECUT+").
    name: str = "abstract"

    @abstractmethod
    def count(
        self, itemsets: Collection[Itemset], block_ids: Sequence[int]
    ) -> dict[Itemset, int]:
        """Absolute support counts of ``itemsets`` over ``block_ids``."""

    def count_batch(
        self, itemsets: Collection[Itemset], block_ids: Sequence[int]
    ) -> dict[Itemset, int]:
        """Batched support counting; equals :meth:`count` exactly.

        The default falls back to the per-itemset path; TID-list
        counters override it with the shared-prefix trie engine.
        """
        return self.count(itemsets, block_ids)


class PTScanCounter(SupportCounter):
    """Full-scan counting through a prefix tree (the BORDERS baseline).

    The scan path is inherently batched (one prefix tree over all of
    ``S``, one pass over the data), so :meth:`count_batch` is the same
    code.

    Args:
        store: Block store holding the transactional data; every
            selected block is scanned in full (and charged).
    """

    name = "PT-Scan"

    def __init__(self, store: BlockStore[Transaction]):
        self._store = store

    def count(
        self, itemsets: Collection[Itemset], block_ids: Sequence[int]
    ) -> dict[Itemset, int]:
        if not itemsets:
            return {}
        tree = PrefixTree(itemsets)
        tree.count_dataset(self._store.scan_many(block_ids))
        return tree.counts()


# ----------------------------------------------------------------------
# The batched TID-list engine: fetch cache + shared-prefix trie
# ----------------------------------------------------------------------

#: A fetch key names one physical list: a bare ``int`` is a single-item
#: list, an ``(a, b)`` tuple a materialized 2-itemset list.  The two
#: never collide as dict keys, and plain ints keep the hot ECUT trie
#: free of per-edge tuple allocation.
_FetchKey = Union[int, Pair]

#: Compressed lists up to this many tids are decoded once per
#: (batch, block) pass when first fetched: a trie walk touches each
#: hot list many times, and re-decoding per intersection costs more
#: than the one bounded array (at most 512 KB) the decode produces.
#: Longer lists stay compressed and intersect through the
#: segment-skipping kernels, which only decode what a probe overlaps.
#: The threshold depends only on list length, so counting stays
#: deterministic across backends, workers, and restarts.
DECODE_AT_FETCH_MAX = 1 << 16


class _BlockFetchCache:
    """Per-(batch, block) read-through cache over the TID-list stores.

    The first use of a list fetches (and charges) it through the store;
    every further use within the batch is served from the cache and
    recorded as a cache hit on the same I/O counter — each distinct
    physical list is charged exactly once per block, exactly what a
    buffer pool large enough for one block's working set would do.
    Short compressed lists are decoded on that first fetch (see
    :data:`DECODE_AT_FETCH_MAX`); hits keep charging the *fetched*
    (compressed) bytes, because that is what was read from the store.
    """

    __slots__ = ("cached", "_tidlists", "_pairs", "_block_id", "_fetched_nbytes")

    def __init__(
        self,
        tidlists: TidListStore,
        block_id: int,
        pairs: PairTidListStore | None = None,
    ):
        self._tidlists = tidlists
        self._pairs = pairs
        self._block_id = block_id
        self._fetched_nbytes: dict[_FetchKey, int] = {}
        #: Key → list map; the engines probe this dict directly on their
        #: hot path and only call :meth:`fetch_new` / :meth:`record_hit`
        #: on a miss / hit.
        self.cached: dict[_FetchKey, TidList] = {}

    def fetch_new(self, key: _FetchKey) -> TidList:
        """Fetch (and charge) a list not yet in the cache."""
        if type(key) is tuple:
            assert self._pairs is not None
            tids = self._pairs.fetch(self._block_id, key)
        else:
            tids = self._tidlists.fetch_list(self._block_id, key)
        self._fetched_nbytes[key] = list_nbytes(tids)
        if (
            isinstance(tids, (ChunkedTidList, DeltaVarintTidList))
            and len(tids) <= DECODE_AT_FETCH_MAX
        ):
            tids = as_array(tids)
        self.cached[key] = tids
        return tids

    def record_hit(self, key: _FetchKey, tids: TidList) -> None:
        """Account one re-use of an already-fetched list."""
        store = self._pairs if type(key) is tuple else self._tidlists
        assert store is not None
        store.stats.record_cached_read(self._fetched_nbytes[key])

    def get(self, key: _FetchKey) -> TidList:
        tids = self.cached.get(key)
        if tids is not None:
            self.record_hit(key, tids)
            return tids
        return self.fetch_new(key)


class _TrieNode:
    """One node of the per-block fetch-key trie."""

    __slots__ = ("children", "terminals")

    def __init__(self) -> None:
        self.children: dict[_FetchKey, _TrieNode] = {}
        self.terminals: list[Itemset] = []


def _build_trie(
    sequences: Iterable[tuple[Itemset, Sequence[_FetchKey]]],
) -> _TrieNode:
    root = _TrieNode()
    for itemset, keys in sequences:
        node = root
        for key in keys:
            child = node.children.get(key)
            if child is None:
                child = _TrieNode()
                node.children[key] = child
            node = child
        node.terminals.append(itemset)
    return root


def _zero_descendants(node: _TrieNode, counts: dict[Itemset, int]) -> None:
    stack = list(node.children.values())
    while stack:
        child = stack.pop()
        for itemset in child.terminals:
            counts[itemset] = 0
        stack.extend(child.children.values())


def _count_trie(
    root: _TrieNode, cache: _BlockFetchCache, block_size: int
) -> dict[Itemset, int]:
    """One DFS over the trie: every node's partial intersection is
    computed once and shared by all of its descendants.

    Two terminal-edge optimizations keep the per-candidate constant
    below the per-itemset path's: a child with no grandchildren only
    needs a *count*, never the intersection array, and all such sibling
    leaves are counted in a single segmented kernel call
    (:func:`~repro.itemsets.kernels.count_segments`) when the running
    intersection and the leaf lists are plain arrays.
    """
    counts: dict[Itemset, int] = {}
    stack: list[tuple[_TrieNode, TidList | None]] = [(root, None)]
    while stack:
        node, running = stack.pop()
        if node.terminals:
            support = block_size if running is None else len(running)
            for itemset in node.terminals:
                counts[itemset] = support
        if not node.children:
            continue
        if running is not None and len(running) == 0:
            # Subtrees below an empty intersection are all zero; skip
            # their fetches entirely (the per-itemset path would have
            # stopped fetching at this point too).
            _zero_descendants(node, counts)
            continue
        # The segmented sibling-leaf kernel needs plain ndarrays on
        # both sides; bitmap and compressed lists go through the
        # representation-aware pair kernels instead.
        running_is_array = isinstance(running, np.ndarray)
        leaves: list[tuple[list[Itemset], TidList]] | None = None
        for key, child in node.children.items():
            tids = cache.get(key)
            if child.children:
                stack.append(
                    (child, tids if running is None else intersect_pair(running, tids))
                )
            elif running is None:
                # Depth-1 leaf: the candidate is a single list, its
                # support is the list's catalog length.
                support = len(tids)
                for itemset in child.terminals:
                    counts[itemset] = support
            elif running_is_array and isinstance(tids, np.ndarray):
                if leaves is None:
                    leaves = []
                leaves.append((child.terminals, tids))
            else:
                support = count_pair(running, tids)
                for itemset in child.terminals:
                    counts[itemset] = support
        if leaves is not None:
            if len(leaves) == 1:
                terminals, tids = leaves[0]
                supports = [count_pair(running, tids)]
            else:
                supports = count_segments(running, [tids for _, tids in leaves])
            for (terminals, _), support in zip(leaves, supports):
                for itemset in terminals:
                    counts[itemset] = support
    return counts


#: Cap on the dense engine's scratch matrices, in cells ((distinct
#: lists + candidates of one row chunk) × block transactions; one byte
#: per cell).  64M cells = 64 MB; blocks whose matrices would be larger
#: fall back to the per-node trie DFS.
DENSE_MAX_CELLS = 1 << 26

#: Candidates per dense-engine pass.  A batch of ``n`` candidates needs
#: an ``n × ceil(block_size / 8)`` running-intersection matrix plus
#: same-sized temporaries; BORDERS' detection counts the whole tracked
#: lattice (``|L ∪ NB⁻|``, often 10k+) on one block, so the rows are
#: evaluated in chunks to bound that scratch memory.
DENSE_CHUNK_ROWS = 2048

_PAD = np.iinfo(np.int64).max


class _SingleKeyAccountant:
    """Meters the dense engine's reads against the single-item store.

    Fetch charges and cache-hit audits are recorded in aggregate
    (one call per block per depth), with totals identical to per-list
    accounting.
    """

    __slots__ = ("_stats",)

    def __init__(self, stats: IOStats):
        self._stats = stats

    def record_fetches(self, key_indices: np.ndarray, nbytes: np.ndarray) -> None:
        self._stats.record_reads(len(key_indices), int(nbytes.sum()))

    def record_hits(
        self, uniq: np.ndarray, hit_uses: np.ndarray, nbytes: np.ndarray
    ) -> None:
        hits = int(hit_uses.sum())
        if hits:
            self._stats.record_cached_reads(
                hits, int((nbytes[uniq] * hit_uses).sum())
            )


class _CoverKeyAccountant:
    """Like :class:`_SingleKeyAccountant` but over ECUT+ cover keys.

    A key is a single item (``int``) or a materialized 2-itemset
    (``tuple``); fetches and hits are charged to the matching store.
    """

    __slots__ = ("_sstats", "_pstats", "_is_pair")

    def __init__(
        self,
        tidlists: TidListStore,
        pairs: PairTidListStore,
        keys: list[_FetchKey],
    ):
        self._sstats = tidlists.stats
        self._pstats = pairs.stats
        self._is_pair = np.fromiter(
            (type(k) is tuple for k in keys), dtype=bool, count=len(keys)
        )

    def record_fetches(self, key_indices: np.ndarray, nbytes: np.ndarray) -> None:
        pair_mask = self._is_pair[key_indices]
        pairs = int(pair_mask.sum())
        if pairs:
            self._pstats.record_reads(pairs, int(nbytes[pair_mask].sum()))
        if pairs < len(key_indices):
            self._sstats.record_reads(
                len(key_indices) - pairs, int(nbytes[~pair_mask].sum())
            )

    def record_hits(
        self, uniq: np.ndarray, hit_uses: np.ndarray, nbytes: np.ndarray
    ) -> None:
        pair_mask = self._is_pair[uniq]
        for stats, mask in ((self._sstats, ~pair_mask), (self._pstats, pair_mask)):
            hits = int(hit_uses[mask].sum())
            if hits:
                stats.record_cached_reads(
                    hits, int((nbytes[uniq[mask]] * hit_uses[mask]).sum())
                )


if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def _row_popcounts(rows: np.ndarray) -> np.ndarray:
        """Per-row set-bit counts of a packed uint8 matrix."""
        return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)

else:  # pragma: no cover - exercised only on numpy < 2.0
    _POP8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)

    def _row_popcounts(rows: np.ndarray) -> np.ndarray:
        """Per-row set-bit counts of a packed uint8 matrix."""
        return _POP8[rows].sum(axis=1, dtype=np.int64)


def _dense_count_block(
    S: np.ndarray,
    last_col: np.ndarray,
    accountant: _SingleKeyAccountant | _CoverKeyAccountant,
    keys_matrix: np.ndarray,
    key_lens: np.ndarray,
    key_nbytes: np.ndarray,
    block_size: int,
    supports: np.ndarray,
    built: np.ndarray | None = None,
) -> None:
    """Level-synchronous dense evaluation of one block's batch.

    ``S`` holds each candidate's fetch-key indices in per-block
    rarest-first order (``-1``-padded); ``last_col[r]`` is the index of
    candidate ``r``'s final key (``-1`` for the empty itemset).
    ``keys_matrix[k]`` is key ``k``'s list as a packed bitset row (bit
    ``t`` = "transaction ``t`` of the block contains this list",
    gathered from the stores' packed-row caches), ``key_lens[k]`` its
    catalog length, ``key_nbytes[k]`` its physical fetch size.  The
    candidates' running intersections are rows of a second bitset
    matrix, advanced one trie level at a time: all partial
    intersections of a depth are one fancy-indexed ``&``, all supports
    of a depth one row-popcount.  Python-level work per depth is a
    handful of numpy calls, and the per-depth data volume is one bit
    per (row, transaction).

    Pruning matches the per-itemset path exactly: a candidate's key at
    depth ``d`` is only charged while its depth ``d-1`` intersection
    is non-empty, so each key use either re-uses an already-charged
    fetch (a recorded cache hit) or charges the store — and the block's
    ``bytes_read + bytes_cached`` equals what the per-itemset path
    charges, with ``bytes_read`` a deduplicated (≤) share of it.

    ``built`` marks the keys already fetched for this block; callers
    that split one block's batch into row chunks pass the same array to
    every chunk, so each key is still charged once per block.
    """
    n_keys = len(key_lens)
    if built is None:
        built = np.zeros(n_keys, dtype=bool)
    running = np.empty((len(S), keys_matrix.shape[1]), dtype=np.uint8)
    alive = last_col >= 0
    supports[~alive] += block_size
    for depth in range(S.shape[1]):
        col = S[:, depth]
        idx = np.flatnonzero(alive & (col >= 0))
        if idx.size == 0:
            break
        ks = col[idx]
        # bincount-based distinct/use counts: ks indexes a small dense
        # key space, so this beats a sort-based np.unique.
        all_uses = np.bincount(ks, minlength=n_keys)
        uniq = np.flatnonzero(all_uses)
        uses = all_uses[uniq]
        new_mask = ~built[uniq]
        new = uniq[new_mask]
        if new.size:
            built[new] = True
            accountant.record_fetches(new, key_nbytes[new])
        # Each use beyond the first fetch of a key is a cache hit.
        accountant.record_hits(uniq, uses - new_mask, key_nbytes)
        if depth == 0:
            running[idx] = keys_matrix[ks]
            counts = key_lens[ks]
        else:
            advanced = running[idx] & keys_matrix[ks]
            running[idx] = advanced
            counts = _row_popcounts(advanced)
        done = last_col[idx] == depth
        if done.any():
            supports[idx[done]] += counts[done]
        dead = counts == 0
        if dead.any():
            # An empty intersection zeroes the whole subtree: deeper
            # keys of these candidates are never charged (the
            # per-itemset path would have stopped fetching here too).
            alive[idx[dead]] = False


def _contiguous_shards(
    values: list[Any], weights: list[int], parts: int
) -> list[list[Any]]:
    """Split ``values`` into <= ``parts`` contiguous, weight-balanced runs.

    Contiguity keeps each shard's blocks in arrival order (workers
    then touch a dense range of any path-local cache) and makes the
    partition a pure function of the block set, independent of worker
    scheduling.
    """
    count = min(parts, len(values))
    total = sum(weights) or len(values)
    shards: list[list[Any]] = []
    current: list[Any] = []
    accumulated = 0.0
    for value, weight in zip(values, weights):
        current.append(value)
        accumulated += weight if weight > 0 else 1
        if len(shards) < count - 1 and accumulated >= total * (len(shards) + 1) / count:
            shards.append(current)
            current = []
    if current:
        shards.append(current)
    return shards


class ECUTCounter(SupportCounter):
    """TID-list intersection counting (Efficient Counting Using TID-lists).

    Args:
        tidlists: Per-block single-item TID-list store.
    """

    name = "ECUT"

    def __init__(self, tidlists: TidListStore, pool: Any = None):
        self._tidlists = tidlists
        self._pool = pool

    def bind_pool(self, pool: Any) -> None:
        """Attach a :class:`~repro.parallel.pool.WorkerPool`.

        With a pool of more than one worker, :meth:`count_batch` shards
        by block and merges the per-shard count vectors by TID-list
        additivity (§2.2) — the merged supports are exactly the serial
        ones.  ``None`` detaches.
        """
        self._pool = pool

    def __getstate__(self) -> dict[str, Any]:
        # The pool is execution wiring, not model state: a counter
        # pickled into a checkpoint (or shipped to a worker) must not
        # drag the parent's dispatch config along, and checkpoint bytes
        # must not depend on the worker count.
        state = dict(self.__dict__)
        state["_pool"] = None
        return state

    def count(
        self, itemsets: Collection[Itemset], block_ids: Sequence[int]
    ) -> dict[Itemset, int]:
        return {
            itemset: self._tidlists.count_itemset(block_ids, itemset)
            for itemset in itemsets
        }

    def count_batch(
        self, itemsets: Collection[Itemset], block_ids: Sequence[int]
    ) -> dict[Itemset, int]:
        """Batched ECUT: per block, a rarest-first shared-prefix trie.

        Orders every itemset's items rarest-first (the same order the
        per-itemset path fetches in), so itemsets sharing rare items
        share both the fetches and the partial intersections.  The
        itemsets are encoded as item-index rows by array operations,
        and the dense engine runs over :data:`DENSE_CHUNK_ROWS` rows at
        a time.
        """
        targets = list(dict.fromkeys(itemsets))
        if not targets:
            return {}
        n = len(targets)
        lengths = np.fromiter(map(len, targets), dtype=np.int64, count=n)
        flat = np.fromiter(
            chain.from_iterable(targets), dtype=np.int64, count=int(lengths.sum())
        )
        if flat.size == 0:
            # Only empty itemsets: each counts every block in full.
            total = sum(self._tidlists.block_size(b) for b in block_ids)
            return dict.fromkeys(targets, total)
        pool = self._pool
        if pool is not None and pool.workers > 1 and len(block_ids) > 1:
            sharded = self._count_batch_sharded(targets, list(block_ids), pool)
            if sharded is not None:
                return dict(zip(targets, sharded))
        # T[r] = itemset r as indices into the sorted distinct items,
        # -1-padded; filled in one scatter from the flattened itemsets.
        items_array, flat_index = np.unique(flat, return_inverse=True)
        width = int(lengths.max())
        T = np.full((n, width), -1, dtype=np.int64)
        starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        T[np.repeat(np.arange(n), lengths), np.arange(flat.size) - starts] = (
            flat_index.reshape(-1)
        )
        last_col = lengths - 1
        supports = np.zeros(n, dtype=np.int64)
        n_items = len(items_array)
        item_arange = np.arange(n_items, dtype=np.int64)
        for block_id in block_ids:
            block_size = self._tidlists.block_size(block_id)
            if (n_items + min(n, DENSE_CHUNK_ROWS)) * block_size > DENSE_MAX_CELLS:
                # Oversized blocks fall back to the per-node trie DFS
                # for scratch-size reasons.  Compressed (cold) blocks
                # take the dense path like hot ones: the packed catalog
                # decodes each list at most once per block while the
                # accountant keeps charging the compressed physical
                # sizes, so byte accounting stays placement-independent.
                self._count_block_trie(targets, block_id, supports)
                continue
            # Rank items by (per-block count, item): `items` is sorted,
            # so the index is the tie-break — exactly the stable
            # count-sort the per-itemset path applies, which keeps the
            # engine's fetch set a subset of the per-itemset path's.
            keys_matrix, block_counts, key_nbytes = self._tidlists.packed_rows(
                block_id, items_array
            )
            rank = block_counts * n_items + item_arange
            keyed = np.where(T >= 0, rank[T], _PAD)
            order = np.argsort(keyed, axis=1, kind="stable")
            S = np.take_along_axis(T, order, axis=1)
            accountant = _SingleKeyAccountant(self._tidlists.stats)
            built = np.zeros(n_items, dtype=bool)
            for start in range(0, n, DENSE_CHUNK_ROWS):
                rows = slice(start, start + DENSE_CHUNK_ROWS)
                _dense_count_block(
                    S[rows],
                    last_col[rows],
                    accountant,
                    keys_matrix,
                    block_counts,
                    key_nbytes,
                    block_size,
                    supports[rows],
                    built,
                )
        return dict(zip(targets, supports.tolist()))

    def _count_batch_sharded(
        self, targets: list[Itemset], block_ids: list[int], pool: Any
    ) -> list[int] | None:
        """Fan per-block counting out to workers; sum the vectors.

        Each shard is a contiguous run of blocks (weight-balanced by
        transaction count) whose refs workers resolve zero-copy for
        mmap-backed blocks.  Additivity makes the merge a plain integer
        sum, so the result is byte-for-byte the serial one.  Returns
        ``None`` — caller counts serially — when any block has no
        source handle (e.g. right after a checkpoint restore: TID-lists
        survive, block handles do not).
        """
        from repro.parallel.shards import block_ref, count_shard

        refs = []
        for block_id in block_ids:
            block = self._tidlists.source_block(block_id)
            if block is None:
                return None
            refs.append(block_ref(block))
        weights = [self._tidlists.block_size(b) for b in block_ids]
        shards = _contiguous_shards(refs, weights, pool.workers)
        frozen = tuple(targets)
        results = pool.run(
            count_shard, [(frozen, tuple(shard)) for shard in shards]
        )
        totals = [0] * len(targets)
        for vector in results:
            for index, value in enumerate(vector):
                totals[index] += value
        return totals

    def _count_block_trie(
        self, targets: list[Itemset], block_id: int, supports: np.ndarray
    ) -> None:
        """Per-node trie DFS fallback for blocks too large to densify."""
        rarity = self._tidlists.item_counts(
            block_id, {item for itemset in targets for item in itemset}
        )
        sequences = [
            (itemset, sorted(itemset, key=rarity.__getitem__))
            for itemset in targets
        ]
        cache = _BlockFetchCache(self._tidlists, block_id)
        block_counts = _count_trie(
            _build_trie(sequences), cache, self._tidlists.block_size(block_id)
        )
        for r, itemset in enumerate(targets):
            supports[r] += block_counts[itemset]


class ECUTPlusCounter(SupportCounter):
    """ECUT with materialized 2-itemset TID-lists (§3.1.1, ECUT+).

    For each block, the counter plans a cover of the target itemset out
    of the pairs materialized *for that block* plus leftover single
    items, then intersects the fetched lists.  Blocks without
    materialized pairs degrade gracefully to plain ECUT.

    Args:
        tidlists: Per-block single-item TID-list store.
        pairs: Per-block materialized 2-itemset store.
    """

    name = "ECUT+"

    def __init__(self, tidlists: TidListStore, pairs: PairTidListStore):
        self._tidlists = tidlists
        self._pairs = pairs
        # Cover plans are deterministic in (block, itemset) once the
        # block's pair lists exist — pair materialization is one-shot —
        # so the batch path memoizes them across maintenance cycles.
        self._plan_cache: dict[tuple[int, Itemset], list[_FetchKey]] = {}

    def __getstate__(self) -> dict[str, Any]:
        # The plan memo is a derived cache, rebuilt on demand from the
        # stores; persisting it would make checkpoint bytes depend on
        # which process happened to count which block (the sharded
        # counting path plans covers worker-side).
        state = dict(self.__dict__)
        state["_plan_cache"] = {}
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        state.setdefault("_plan_cache", {})
        self.__dict__.update(state)

    def count(
        self, itemsets: Collection[Itemset], block_ids: Sequence[int]
    ) -> dict[Itemset, int]:
        return {
            itemset: sum(
                self._count_in_block(itemset, block_id) for block_id in block_ids
            )
            for itemset in itemsets
        }

    def count_batch(
        self, itemsets: Collection[Itemset], block_ids: Sequence[int]
    ) -> dict[Itemset, int]:
        """Batched ECUT+: per block, covers feed the shared-prefix trie.

        Every itemset's :func:`plan_cover` result (against the block's
        materialized pairs) becomes a sequence of fetch keys, ordered
        shortest-list-first; itemsets whose covers share pairs or rare
        singles share fetches and partial intersections.
        """
        counts = {itemset: 0 for itemset in itemsets}
        if not counts:
            return {}
        targets = list(counts)
        n = len(targets)
        supports = np.zeros(n, dtype=np.int64)
        for block_id in block_ids:
            available = (
                self._pairs.available(block_id)
                if self._pairs.has_block(block_id)
                else set()
            )
            # Covers are per block (they depend on the block's
            # materialized pairs), so the key catalog is too.
            sequences = [
                self._cover_keys(itemset, block_id, available)
                for itemset in targets
            ]
            block_size = self._tidlists.block_size(block_id)
            key_index: dict[_FetchKey, int] = {}
            width = max(1, max(len(keys) for keys in sequences))
            S = np.full((n, width), -1, dtype=np.int64)
            for r, keys in enumerate(sequences):
                for c, key in enumerate(keys):
                    ki = key_index.get(key)
                    if ki is None:
                        ki = len(key_index)
                        key_index[key] = ki
                    S[r, c] = ki
            if (len(key_index) + n) * block_size > DENSE_MAX_CELLS:
                cache = _BlockFetchCache(self._tidlists, block_id, self._pairs)
                block_counts = _count_trie(
                    _build_trie(zip(targets, sequences)), cache, block_size
                )
                for r, itemset in enumerate(targets):
                    supports[r] += block_counts[itemset]
                continue
            last_col = np.fromiter(
                (len(keys) - 1 for keys in sequences), dtype=np.int64, count=n
            )
            keys = list(key_index)
            n_keys = len(keys)
            width = (block_size + 7) >> 3
            keys_matrix = np.zeros((n_keys, width), dtype=np.uint8)
            key_lens = np.zeros(n_keys, dtype=np.int64)
            key_nbytes = np.zeros(n_keys, dtype=np.int64)
            single_pos = [k for k, key in enumerate(keys) if type(key) is not tuple]
            pair_pos = [k for k, key in enumerate(keys) if type(key) is tuple]
            if single_pos:
                items_array = np.fromiter(
                    (keys[k] for k in single_pos),
                    dtype=np.int64,
                    count=len(single_pos),
                )
                rows, lens, nbytes = self._tidlists.packed_rows(
                    block_id, items_array
                )
                sp = np.asarray(single_pos, dtype=np.int64)
                keys_matrix[sp] = rows
                key_lens[sp] = lens
                key_nbytes[sp] = nbytes
            if pair_pos:
                pair_rows, pair_matrix, pair_lens = self._pairs.packed_rows(
                    block_id, block_size
                )
                rows = np.fromiter(
                    (pair_rows[keys[k]] for k in pair_pos),
                    dtype=np.int64,
                    count=len(pair_pos),
                )
                pp = np.asarray(pair_pos, dtype=np.int64)
                keys_matrix[pp] = pair_matrix[rows]
                key_lens[pp] = pair_lens[rows]
                key_nbytes[pp] = pair_lens[rows] * TID_BYTES
            _dense_count_block(
                S,
                last_col,
                _CoverKeyAccountant(self._tidlists, self._pairs, keys),
                keys_matrix,
                key_lens,
                key_nbytes,
                block_size,
                supports,
            )
        for r, itemset in enumerate(targets):
            counts[itemset] = int(supports[r])
        return counts

    def _cover_keys(
        self, itemset: Itemset, block_id: int, available: set[Pair]
    ) -> list[_FetchKey]:
        """Fetch-key sequence for one itemset in one block, rarest first.

        Memoized per (block, itemset) once the block's pairs exist —
        the plan and the ordering depend only on immutable per-block
        catalog state, and BORDERS re-counts overlapping candidate sets
        across maintenance cycles.
        """
        if len(itemset) < 2:
            return list(itemset)
        cache_key = (block_id, itemset)
        keys = self._plan_cache.get(cache_key)
        if keys is not None:
            return keys
        pair_cover, single_cover = plan_cover(itemset, available)
        # Sort entries (count, tag, key): the tag keeps int and tuple
        # keys from being compared with each other on count ties.
        keyed: list[tuple[int, int, _FetchKey]] = [
            (self._pairs.pair_count(block_id, pair), 0, pair) for pair in pair_cover
        ]
        keyed.extend(
            (self._tidlists.item_count(block_id, item), 1, item)
            for item in single_cover
        )
        keyed.sort()
        keys = [key for _, _, key in keyed]
        if self._pairs.has_block(block_id):
            # Before materialization the plan would be pairless and go
            # stale once pairs arrive; don't cache it.
            self._plan_cache[cache_key] = keys
        return keys

    def _count_in_block(self, itemset: Itemset, block_id: int) -> int:
        if not itemset:
            return self._tidlists.block_size(block_id)
        if len(itemset) == 1:
            return int(len(self._tidlists.fetch_list(block_id, itemset[0])))
        available = (
            self._pairs.available(block_id) if self._pairs.has_block(block_id) else set()
        )
        pair_cover, single_cover = plan_cover(itemset, available)
        lists: list[TidList] = []
        for pair in pair_cover:
            lists.append(self._pairs.fetch(block_id, pair))
        for item in single_cover:
            lists.append(self._tidlists.fetch_list(block_id, item))
        return int(len(intersect_many(lists)))

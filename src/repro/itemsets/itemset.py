"""Itemset and transaction primitives.

An *item* is a small non-negative integer identifier; a *transaction*
and an *itemset* are sets of items (paper §3).  Throughout the package
an itemset is canonically represented as a sorted tuple of item ids —
hashable, ordered (which makes the Apriori prefix join trivial), and
cheap to subset.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable, Iterator, Sequence
from itertools import combinations

import numpy as np

#: Canonical itemset type: strictly increasing tuple of item ids.
Itemset = tuple[int, ...]

#: Canonical transaction type: strictly increasing tuple of item ids.
Transaction = tuple[int, ...]


def make_itemset(items: Iterable[int]) -> Itemset:
    """Canonicalize ``items`` into a sorted duplicate-free tuple."""
    return tuple(sorted(set(items)))


def normalize_transaction(items: Iterable[int]) -> Transaction:
    """Canonicalize a transaction: sorted, duplicate-free item ids."""
    return tuple(sorted(set(items)))


def is_canonical(itemset: Sequence[int]) -> bool:
    """Whether ``itemset`` is already sorted and duplicate-free."""
    return all(itemset[i] < itemset[i + 1] for i in range(len(itemset) - 1))


def contains(transaction: Transaction, itemset: Itemset) -> bool:
    """Whether the transaction contains the itemset (``X ⊆ T``).

    Both arguments must be canonical (sorted); the check is a linear
    merge rather than building sets.
    """
    ti = 0
    n = len(transaction)
    for item in itemset:
        while ti < n and transaction[ti] < item:
            ti += 1
        if ti >= n or transaction[ti] != item:
            return False
        ti += 1
    return True


def proper_subsets(itemset: Itemset) -> Iterator[Itemset]:
    """All proper subsets of size ``len(itemset) - 1``.

    These are the subsets Apriori's prune step and the negative-border
    definition quantify over.
    """
    for i in range(len(itemset)):
        yield itemset[:i] + itemset[i + 1 :]


def all_subsets(itemset: Itemset) -> Iterator[Itemset]:
    """Every non-empty proper subset of the itemset, smallest first."""
    for size in range(1, len(itemset)):
        yield from combinations(itemset, size)


def prefix_join(a: Itemset, b: Itemset) -> Itemset | None:
    """Join two k-itemsets sharing their first ``k-1`` items (AMS+96).

    Returns the (k+1)-itemset, or ``None`` when the join is undefined.
    The caller is expected to present ``a < b`` lexicographically; the
    function returns ``None`` otherwise so callers can iterate ordered
    pairs without pre-filtering.
    """
    if len(a) != len(b) or not a:
        return None
    if a[:-1] != b[:-1] or a[-1] >= b[-1]:
        return None
    return a + (b[-1],)


def generate_candidates(frequent: Collection[Itemset]) -> set[Itemset]:
    """Apriori candidate generation: prefix join + subset prune.

    Given the frequent k-itemsets, produce the (k+1)-candidates whose
    every k-subset is frequent.
    """
    frequent_set = set(frequent)
    ordered = sorted(frequent_set)
    candidates: set[Itemset] = set()
    # Group by shared (k-1)-prefix so the join is near-linear.
    by_prefix: dict[Itemset, list[Itemset]] = {}
    for itemset in ordered:
        by_prefix.setdefault(itemset[:-1], []).append(itemset)
    for group in by_prefix.values():
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                joined = prefix_join(a, b)
                if joined is None:
                    continue
                if all(s in frequent_set for s in proper_subsets(joined)):
                    candidates.add(joined)
    return candidates


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque, comparable key per row (its bytes, for membership)."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def join_level(level: np.ndarray) -> np.ndarray:
    """:func:`generate_candidates` over an int-encoded level.

    ``level`` holds the frequent k-itemsets (``k >= 1``) as the rows of
    an ``(m, k)`` integer matrix, each row strictly increasing.  The
    result holds the (k+1)-candidates as rows, in lexicographic order.
    The prefix join pairs rows of one (k-1)-prefix run of the sorted
    level; the prune looks up the k-subsets that are not join parents
    by binary search over the level's row keys.
    """
    level = np.asarray(level, dtype=np.int64)
    m, k = level.shape
    level = level[np.lexsort(level.T[::-1])]
    run_start = np.ones(m, dtype=bool)
    run_start[1:] = np.any(level[1:, :-1] != level[:-1, :-1], axis=1)
    starts = np.flatnonzero(run_start)
    run_end = np.append(starts[1:], m)[np.cumsum(run_start) - 1]
    partners = run_end - np.arange(m) - 1
    total = int(partners.sum())
    candidates = np.empty((total, k + 1), dtype=np.int64)
    if total == 0:
        return candidates
    left = np.repeat(np.arange(m), partners)
    right = left + 1 + np.arange(total) - np.repeat(
        np.cumsum(partners) - partners, partners
    )
    candidates[:, :k] = level[left]
    candidates[:, k] = level[right, k - 1]
    if k > 1:
        # Dropping either of the last two items gives a join parent;
        # every other k-subset must be a row of the level.
        keys = np.sort(_row_keys(level))
        keep = np.ones(total, dtype=bool)
        for drop in range(k - 1):
            subsets = _row_keys(np.delete(candidates, drop, axis=1))
            pos = np.minimum(np.searchsorted(keys, subsets), m - 1)
            keep &= keys[pos] == subsets
        candidates = candidates[keep]
    return candidates


def support_fraction(count: int, total: int) -> float:
    """Support ``σ_D(X)`` as a fraction; 0.0 over an empty dataset."""
    if total <= 0:
        return 0.0
    return count / total


def minimum_count(minsup: float, total: int) -> int:
    """The smallest absolute count that meets ``σ >= minsup``.

    Uses a half-ulp tolerance so that e.g. ``minsup=0.01, total=300``
    yields 3 rather than 4 when ``0.01 * 300`` lands on 3.0 minus one
    floating-point ulp.
    """
    if not 0 < minsup < 1:
        raise ValueError(f"minimum support must be in (0, 1), got {minsup}")
    exact = minsup * total
    threshold = math.ceil(exact - 1e-9)
    return max(threshold, 1)

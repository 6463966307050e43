"""Agglomerative clustering of cluster features (BIRCH phase-2 option).

Merges the two closest sub-clusters repeatedly — under any of the CF
distance metrics — until the requested number of clusters remains.
Because the inputs are CFs, a merge is exact (additivity), not an
approximation, and the variance-increase metric D4 makes this a
Ward-style agglomeration over the summarized data.

The distances live in one ``n × n`` matrix indexed by *slot*: a merge
writes the merged cluster into the lower of its two slots, computes that
slot's row with one kernel call and retires the other slot.  Each row
caches its best partner, so finding the next merge reads one value per
live slot instead of every pair.

Ties are broken by cluster ids: the inputs are ids ``0..n-1`` and every
merged cluster takes the next id.  Among pairs at equal distance, two
inputs ``i < j`` order as ``(i, j)`` and a pair holding a merged cluster
as ``(younger id, older id)``; the lowest such pair merges first.  That
is the order in which a heap of ``(distance, id, id)`` candidates,
filled with all input pairs and then with each merged cluster's pairs
as it is created, would pop them.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.clustering.cf import (
    ClusterFeature,
    cf_one,
    cf_stack,
    get_kernel,
    pairwise,
    set_row,
)


def agglomerate(
    cfs: Sequence[ClusterFeature],
    k: int,
    metric: str = "d4",
) -> tuple[list[ClusterFeature], list[int]]:
    """Merge CFs until ``k`` clusters remain.

    Args:
        cfs: Input sub-cluster features (all non-empty).
        k: Target number of clusters; clamped to ``len(cfs)``.
        metric: CF distance metric name (default ``d4``).

    Returns:
        ``(clusters, assignment)`` where ``clusters`` lists the surviving
        inputs in input order, then the merged clusters in creation
        order, and ``assignment[i]`` is the cluster index of input
        ``cfs[i]``.
    """
    if not cfs:
        return [], []
    for cf in cfs:
        if cf.is_empty():
            raise ValueError("cannot agglomerate an empty cluster feature")
    kernel = get_kernel(metric)
    size = len(cfs)
    k = max(1, min(k, size))

    clusters = [cf.copy() for cf in cfs]
    members = [[i] for i in range(size)]
    ids = np.arange(size)
    alive = np.ones(size, dtype=bool)
    stack = cf_stack(clusters)
    dist = pairwise(kernel, stack)
    np.fill_diagonal(dist, np.inf)
    # best[r]: slot r's next merge partner; best_dist[r] its distance
    # (infinite once the slot is retired).
    best = np.zeros(size, dtype=np.intp)
    best_dist = np.full(size, np.inf)

    def pair_key(slots: np.ndarray, partners: np.ndarray) -> np.ndarray:
        """Tie order of slot pairs (see the module docstring) as one int."""
        low = np.minimum(ids[slots], ids[partners])
        high = np.maximum(ids[slots], ids[partners])
        merged = high >= size
        first = np.where(merged, high, low)
        second = np.where(merged, low, high)
        return first * (2 * size) + second

    def refresh(rows: np.ndarray) -> None:
        """Recompute the best partner of ``rows`` from their full rows."""
        band = dist[rows]
        lowest = band.min(axis=1)
        best[rows] = band.argmin(axis=1)
        best_dist[rows] = lowest
        ties = band == lowest[:, None]
        tied = ties.sum(axis=1) > 1
        if tied.any() or np.isinf(lowest).any():
            # Several partners at the same distance: the lowest pair in
            # tie order wins, among live partners only.
            tied |= np.isinf(lowest)
            rows, ties = rows[tied], ties[tied] & alive
            ties[np.arange(len(rows)), rows] = False
            keys = pair_key(rows[:, None], np.arange(size)[None, :])
            limit = np.iinfo(keys.dtype).max
            best[rows] = np.where(ties, keys, limit).argmin(axis=1)

    refresh(np.arange(size))
    for merges in range(size - k):
        lowest = best_dist.min()
        tied = np.flatnonzero(best_dist == lowest)
        if np.isinf(lowest):
            tied = tied[alive[tied]]
        # The closest pair usually shows up twice, once from each end.
        pair = len(tied) == 2 and best[tied[0]] == tied[1] and best[tied[1]] == tied[0]
        if len(tied) == 1 or pair:
            first = tied[0]
        else:
            first = tied[pair_key(tied, best[tied]).argmin()]
        second = best[first]
        keep, drop = min(first, second), max(first, second)

        merged = clusters[first].merged(clusters[second])
        clusters[keep] = merged
        members[keep] = members[first] + members[second]
        ids[keep] = size + merges
        alive[drop] = False
        set_row(stack, keep, merged)

        row = kernel(cf_one(merged), stack)
        row[~alive] = np.inf
        row[keep] = np.inf
        dist[keep] = row
        dist[:, keep] = row
        dist[drop] = np.inf
        dist[:, drop] = np.inf
        best_dist[drop] = np.inf

        # Rows whose partner was merged away need a full rescan; every
        # other row only compares its partner with the new cluster.
        stale = alive & ((best == keep) | (best == drop))
        stale[keep] = True
        closer = ~stale & (row < best_dist)
        best[closer] = keep
        best_dist[closer] = row[closer]
        level = np.flatnonzero(alive & ~stale & (row == best_dist) & (best != keep))
        if len(level):
            wins = pair_key(level, np.full_like(level, keep)) < pair_key(
                level, best[level]
            )
            best[level[wins]] = keep
        refresh(np.flatnonzero(stale))

    order = np.flatnonzero(alive)[np.argsort(ids[alive])]
    assignment = [0] * size
    for cluster_index, slot in enumerate(order):
        for original in members[slot]:
            assignment[original] = cluster_index
    return [clusters[slot] for slot in order], assignment

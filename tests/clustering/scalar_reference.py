"""Pair-at-a-time reference implementations of the BIRCH distance code.

These are the loops the array kernels replaced, kept as test oracles:
the two-CF distance formulas, the heap-based ``agglomerate`` and the
CF-tree's closest-entry, split and threshold loops.  The kernels must
reproduce them bit for bit.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator, Sequence
from contextlib import contextmanager

import numpy as np
import pytest

from repro.clustering import birch
from repro.clustering.cf import CFStack, ClusterFeature
from repro.clustering.cftree import CFTree, _Node


def scalar_d0(a: ClusterFeature, b: ClusterFeature) -> float:
    diff = a.centroid() - b.centroid()
    return float(math.sqrt(diff @ diff))


def scalar_d1(a: ClusterFeature, b: ClusterFeature) -> float:
    return float(np.abs(a.centroid() - b.centroid()).sum())


def scalar_d2(a: ClusterFeature, b: ClusterFeature) -> float:
    value = a.ss / a.n + b.ss / b.n - 2.0 * float(a.ls @ b.ls) / (a.n * b.n)
    return math.sqrt(max(value, 0.0))


def scalar_d4(a: ClusterFeature, b: ClusterFeature) -> float:
    diff = a.centroid() - b.centroid()
    return float((a.n * b.n) / (a.n + b.n) * (diff @ diff))


SCALAR_METRICS = {"d0": scalar_d0, "d1": scalar_d1, "d2": scalar_d2, "d4": scalar_d4}


def heap_agglomerate(
    cfs: Sequence[ClusterFeature], k: int, metric: str = "d4"
) -> tuple[list[ClusterFeature], list[int]]:
    """Lazy-deletion heap of ``(distance, id, id)`` merge candidates."""
    if not cfs:
        return [], []
    distance = SCALAR_METRICS[metric]
    k = max(1, min(k, len(cfs)))
    active = {i: cf.copy() for i, cf in enumerate(cfs)}
    members = {i: [i] for i in range(len(cfs))}
    next_id = len(cfs)
    heap: list[tuple[float, int, int]] = []
    ids = list(active)
    for a_pos, a in enumerate(ids):
        for b in ids[a_pos + 1 :]:
            heapq.heappush(heap, (distance(active[a], active[b]), a, b))
    while len(active) > k and heap:
        _dist, a, b = heapq.heappop(heap)
        if a not in active or b not in active:
            continue
        merged = active[a].merged(active[b])
        merged_members = members[a] + members[b]
        for stale in (a, b):
            del active[stale]
            del members[stale]
        new_id = next_id
        next_id += 1
        members[new_id] = merged_members
        for other, other_cf in active.items():
            heapq.heappush(heap, (distance(merged, other_cf), new_id, other))
        active[new_id] = merged
    clusters = list(active.values())
    assignment = [0] * len(cfs)
    for cluster_index, cluster_id in enumerate(active):
        for original in members[cluster_id]:
            assignment[original] = cluster_index
    return clusters, assignment


def _closest_entry(tree: CFTree, node: _Node, one: CFStack) -> int:
    distance = SCALAR_METRICS[tree.metric_name]
    cf = ClusterFeature(int(one[0]), one[1], float(one[2]))
    best_index = 0
    best_distance = float("inf")
    for i, entry in enumerate(node.entries):
        d = distance(entry, cf)
        if d < best_distance:
            best_distance = d
            best_index = i
    return best_index


def _split_node(tree: CFTree, node: _Node) -> tuple[_Node, _Node]:
    distance = SCALAR_METRICS[tree.metric_name]
    entries = node.entries
    n = len(entries)
    seed_a, seed_b, worst = 0, 1, -1.0
    for i in range(n):
        for j in range(i + 1, n):
            d = distance(entries[i], entries[j])
            if d > worst:
                worst = d
                seed_a, seed_b = i, j
    left = _Node(is_leaf=node.is_leaf)
    right = _Node(is_leaf=node.is_leaf)
    for i in range(n):
        target = (
            left
            if distance(entries[i], entries[seed_a])
            <= distance(entries[i], entries[seed_b])
            else right
        )
        target.entries.append(entries[i])
        if not node.is_leaf:
            target.children.append(node.children[i])
    for source, sink in ((left, right), (right, left)):
        if not sink.entries:
            sink.entries.append(source.entries.pop())
            if not node.is_leaf:
                sink.children.append(source.children.pop())
    return left, right


def _next_threshold(tree: CFTree, entries: list[ClusterFeature]) -> float:
    distance = SCALAR_METRICS[tree.metric_name]
    floor = max(tree.threshold * 2.0, 1e-9)
    if len(entries) < 2:
        return floor
    sample = entries[:: max(1, len(entries) // 64)]
    nearest: list[float] = []
    for i, a in enumerate(sample):
        best = float("inf")
        for j, b in enumerate(sample):
            if i == j:
                continue
            best = min(best, distance(a, b))
        if best < float("inf"):
            nearest.append(best)
    if not nearest:
        return floor
    return max(floor, float(np.mean(nearest)))


@contextmanager
def scalar_birch() -> Iterator[None]:
    """Run every CF-tree and BIRCH phase 2 on the reference loops.

    Patches class and module attributes only, so trees built inside
    pickle exactly as trees built by the kernels would.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CFTree, "_closest_entry", _closest_entry)
        patch.setattr(CFTree, "_split_node", _split_node)
        patch.setattr(CFTree, "_next_threshold", _next_threshold)
        patch.setattr(birch, "agglomerate", heap_agglomerate)
        yield


def cf_key(cf: ClusterFeature) -> tuple:
    """A CF as exact, comparable values."""
    return (cf.n, cf.ls.tobytes(), cf.ss)

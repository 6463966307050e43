"""The CF-tree: BIRCH's phase-1 summarization structure.

A CF-tree is a height-balanced tree of cluster features.  Leaf nodes
hold up to ``leaf_capacity`` sub-cluster entries whose *diameter* may
not exceed the absorption threshold ``T``; internal nodes hold up to
``branching_factor`` children, each summarized by the merged CF of its
subtree.  A point descends to the closest child at every level; at the
leaf it is absorbed by the closest entry when the threshold allows,
otherwise it starts a new entry, which may split the leaf and propagate
splits upward.

When the number of leaf entries outgrows ``max_leaf_entries`` (the
in-memory budget of the paper's analogy: only so many "tennis balls"),
the tree is rebuilt with a larger threshold by reinserting all leaf
entries — BIRCH's standard rebuilding step, which preserves the CF
additivity invariant exactly.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.clustering.cf import (
    CFStack,
    ClusterFeature,
    cf_one,
    cf_stack,
    get_kernel,
    get_metric,
    pairwise,
    set_row,
)


class _Node:
    """One CF-tree node; ``entries[i]`` summarizes ``children[i]``.

    Leaf nodes have no children; their entries are the sub-clusters.
    The entries are kept stacked (:data:`~repro.clustering.cf.CFStack`)
    for the distance kernels: :meth:`set_entry` updates one row, a
    change to the entry list drops the stack, and :meth:`stack`
    rebuilds it on demand.  A node pickles as its three list slots
    alone, exactly as before the stack existed, so model bytes, vault
    sizes and checkpoints do not depend on it.
    """

    __slots__ = ("entries", "children", "is_leaf", "_stack")

    def __init__(self, is_leaf: bool):
        self.entries: list[ClusterFeature] = []
        self.children: list["_Node"] = []
        self.is_leaf = is_leaf
        self._stack: CFStack | None = None

    def __getstate__(self):
        slots = {
            "entries": self.entries,
            "children": self.children,
            "is_leaf": self.is_leaf,
        }
        return None, slots

    def __setstate__(self, state) -> None:
        _dict, slots = state
        self.entries = slots["entries"]
        self.children = slots["children"]
        self.is_leaf = slots["is_leaf"]
        self._stack = None

    def stack(self) -> CFStack:
        """The entries as a :data:`CFStack`, one row per entry."""
        if self._stack is None:
            self._stack = cf_stack(self.entries)
        return self._stack

    def set_entry(self, index: int, cf: ClusterFeature) -> None:
        """Store ``cf`` (new, or changed in place) as entry ``index``."""
        self.entries[index] = cf
        if self._stack is not None:
            set_row(self._stack, index, cf)

    def entries_changed(self) -> None:
        """Entries were added, removed or reordered: drop the stack."""
        self._stack = None


class CFTree:
    """Height-balanced tree of cluster features (BIRCH phase 1).

    Args:
        threshold: Initial absorption threshold ``T`` (a leaf entry's
            diameter after absorbing a point must stay ≤ T).
        branching_factor: Maximum children per internal node.
        leaf_capacity: Maximum entries per leaf node.
        max_leaf_entries: Soft memory budget — exceeding it triggers a
            rebuild with a larger threshold.
        metric: CF distance metric name (default ``d0``).
    """

    def __init__(
        self,
        threshold: float = 0.5,
        branching_factor: int = 8,
        leaf_capacity: int = 8,
        max_leaf_entries: int = 512,
        metric: str = "d0",
    ):
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        if branching_factor < 2 or leaf_capacity < 2:
            raise ValueError("branching factor and leaf capacity must be >= 2")
        if max_leaf_entries < 2:
            raise ValueError("max_leaf_entries must be >= 2")
        self.threshold = threshold
        self.branching_factor = branching_factor
        self.leaf_capacity = leaf_capacity
        self.max_leaf_entries = max_leaf_entries
        self.metric_name = metric
        # The metric's two-CF function.  The tree looks its kernel up by
        # ``metric_name``; this attribute stays because it is part of the
        # pickled tree, and with it model bytes and checkpoints.
        self._distance = get_metric(metric)
        self._root = _Node(is_leaf=True)
        self._n_points = 0
        self._n_leaf_entries = 0
        self._rebuilds = 0

    @property
    def n_points(self) -> int:
        """Number of points absorbed so far."""
        return self._n_points

    @property
    def n_leaf_entries(self) -> int:
        """Number of sub-cluster entries across all leaves."""
        return self._n_leaf_entries

    @property
    def rebuilds(self) -> int:
        """How many threshold-raising rebuilds have occurred."""
        return self._rebuilds

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert_point(self, point: Sequence[float]) -> None:
        """Insert one point, rebuilding if the entry budget overflows."""
        self.insert_cf(ClusterFeature.from_point(point))

    def insert_points(self, points: Iterable[Sequence[float]]) -> None:
        """Insert a stream of points."""
        for point in points:
            self.insert_point(point)

    def insert_cf(self, cf: ClusterFeature) -> None:
        """Insert a pre-summarized sub-cluster (used by rebuilds too)."""
        if cf.is_empty():
            return
        split = self._insert(self._root, cf, cf_one(cf))
        if split is not None:
            left, right = split
            new_root = _Node(is_leaf=False)
            new_root.children = [left, right]
            new_root.entries = [self._subtree_cf(left), self._subtree_cf(right)]
            self._root = new_root
        self._n_points += cf.n
        if self._n_leaf_entries > self.max_leaf_entries:
            self._rebuild()

    def _insert(self, node: _Node, cf: ClusterFeature, one: CFStack):
        """Recursive insert; returns a (left, right) pair on split.

        ``one`` is ``cf`` as a kernel operand, built once per insert.
        """
        if node.is_leaf:
            return self._insert_into_leaf(node, cf, one)
        index = self._closest_entry(node, one)
        split = self._insert(node.children[index], cf, one)
        if split is None:
            entry = node.entries[index]
            entry.merge(cf)
            node.set_entry(index, entry)
            return None
        left, right = split
        node.children[index] = left
        node.entries[index] = self._subtree_cf(left)
        node.children.insert(index + 1, right)
        node.entries.insert(index + 1, self._subtree_cf(right))
        node.entries_changed()
        if len(node.children) > self.branching_factor:
            return self._split_node(node)
        return None

    def _insert_into_leaf(self, leaf: _Node, cf: ClusterFeature, one: CFStack):
        if leaf.entries:
            index = self._closest_entry(leaf, one)
            candidate = leaf.entries[index].merged(cf)
            if candidate.diameter() <= self.threshold:
                leaf.set_entry(index, candidate)
                return None
        leaf.entries.append(cf.copy())
        leaf.entries_changed()
        self._n_leaf_entries += 1
        if len(leaf.entries) > self.leaf_capacity:
            return self._split_node(leaf)
        return None

    def _closest_entry(self, node: _Node, one: CFStack) -> int:
        """Index of the entry nearest to ``one`` (the first, on ties)."""
        return int(get_kernel(self.metric_name)(node.stack(), one).argmin())

    def _split_node(self, node: _Node) -> tuple[_Node, _Node]:
        """Split an over-full node on its farthest pair of entries.

        The seeds are the first farthest pair in row-major order; each
        entry joins the nearer seed, the first seed on a tie.
        """
        entries = node.entries
        n = len(entries)
        distances = pairwise(get_kernel(self.metric_name), cf_stack(entries))
        rows, columns = np.triu_indices(n, 1)
        farthest = int(np.argmax(distances[rows, columns]))
        seed_a, seed_b = int(rows[farthest]), int(columns[farthest])
        to_left = distances[:, seed_a] <= distances[:, seed_b]
        left = _Node(is_leaf=node.is_leaf)
        right = _Node(is_leaf=node.is_leaf)
        for i in range(n):
            target = left if to_left[i] else right
            target.entries.append(entries[i])
            if not node.is_leaf:
                target.children.append(node.children[i])
        # Degenerate redistributions (all entries on one side) violate
        # the tree invariants; rebalance by moving the last entry over.
        for source, sink in ((left, right), (right, left)):
            if not sink.entries:
                sink.entries.append(source.entries.pop())
                if not node.is_leaf:
                    sink.children.append(source.children.pop())
        return left, right

    def _subtree_cf(self, node: _Node) -> ClusterFeature:
        total = ClusterFeature()
        for entry in node.entries:
            total.merge(entry)
        return total

    # ------------------------------------------------------------------
    # Rebuilding
    # ------------------------------------------------------------------

    def _rebuild(self) -> None:
        """Raise the threshold and reinsert all leaf entries."""
        entries = self.leaf_entries()
        new_threshold = self._next_threshold(entries)
        self.threshold = new_threshold
        self._root = _Node(is_leaf=True)
        self._n_leaf_entries = 0
        points_before = self._n_points
        self._n_points = 0
        self._rebuilds += 1
        for entry in entries:
            # Reinserting may recursively trigger another rebuild only if
            # the new threshold is still too tight; the doubling in
            # _next_threshold guarantees progress.
            self.insert_cf(entry)
        self._n_points = points_before

    def _next_threshold(self, entries: list[ClusterFeature]) -> float:
        """Heuristic new threshold: the BIRCH-style distance estimate.

        Uses the average distance between each entry and its nearest
        neighbour (sampled for large trees), never less than double the
        current threshold so rebuilds always make progress.
        """
        floor = max(self.threshold * 2.0, 1e-9)
        if len(entries) < 2:
            return floor
        sample = entries[:: max(1, len(entries) // 64)]
        distances = pairwise(get_kernel(self.metric_name), cf_stack(sample))
        np.fill_diagonal(distances, np.inf)
        nearest = distances.min(axis=1)
        nearest = nearest[nearest < np.inf]
        if not nearest.size:
            return floor
        return max(floor, float(np.mean(nearest)))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def leaf_entries(self) -> list[ClusterFeature]:
        """All sub-cluster CFs, left to right."""
        result: list[ClusterFeature] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                result.extend(node.entries)
            else:
                stack.extend(reversed(node.children))
        return result

    def total_cf(self) -> ClusterFeature:
        """The CF of every point ever inserted."""
        total = ClusterFeature()
        for entry in self.leaf_entries():
            total.merge(entry)
        return total

    def height(self) -> int:
        """Tree height (1 for a single leaf root)."""
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    def check_invariants(self) -> list[str]:
        """Validate structural invariants; returns violations found."""
        problems: list[str] = []
        total_points = 0
        stack: list[tuple[_Node, int]] = [(self._root, 1)]
        leaf_depths: set[int] = set()
        while stack:
            node, depth = stack.pop()
            if node.is_leaf:
                leaf_depths.add(depth)
                if node is not self._root and not node.entries:
                    problems.append("empty non-root leaf")
                if len(node.entries) > self.leaf_capacity:
                    problems.append(
                        f"leaf holds {len(node.entries)} > capacity {self.leaf_capacity}"
                    )
                total_points += sum(e.n for e in node.entries)
            else:
                if len(node.children) != len(node.entries):
                    problems.append("internal node entry/child count mismatch")
                if len(node.children) > self.branching_factor:
                    problems.append(
                        f"fanout {len(node.children)} > branching factor "
                        f"{self.branching_factor}"
                    )
                for child, entry in zip(node.children, node.entries):
                    child_cf = self._subtree_cf(child)
                    if child_cf.n != entry.n:
                        problems.append("stale internal CF (point count mismatch)")
                    stack.append((child, depth + 1))
        if len(leaf_depths) > 1:
            problems.append(f"leaves at multiple depths: {sorted(leaf_depths)}")
        if total_points != self._n_points:
            problems.append(
                f"point count drift: tree says {self._n_points}, leaves sum to "
                f"{total_points}"
            )
        return problems

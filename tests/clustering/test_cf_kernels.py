"""The CF distance kernels against the pair-at-a-time reference loops.

Every kernel value must equal the scalar formula bit for bit, and the
matrix ``agglomerate`` and the kernel-driven CF-tree must make exactly
the reference's choices — ties included, which duplicate and grid
points produce in bulk.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.birch_plus import BirchPlusMaintainer
from repro.clustering.cf import (
    DISTANCE_KERNELS,
    ClusterFeature,
    _inner,
    cf_one,
    cf_stack,
    get_metric,
    pairwise,
)
from repro.clustering.cftree import CFTree
from repro.clustering.hierarchical import agglomerate
from repro.core.blocks import make_block
from tests.clustering.scalar_reference import (
    SCALAR_METRICS,
    cf_key,
    heap_agglomerate,
    scalar_birch,
)

METRICS = sorted(DISTANCE_KERNELS)


def make_points(seed: int, count: int, dim: int, layout: str) -> np.ndarray:
    """``count`` points; ``grid`` and ``duplicates`` layouts force ties."""
    rng = np.random.default_rng(seed)
    if layout == "grid":
        return rng.integers(0, 3, size=(count, dim)).astype(float)
    points = rng.normal(scale=rng.uniform(0.1, 20.0), size=(count, dim))
    if layout == "duplicates":
        points = points[rng.integers(0, max(1, count // 4), size=count)]
    return points


def make_cfs(seed: int, count: int, dim: int, layout: str) -> list[ClusterFeature]:
    """CFs of one to three points each, so ``N`` varies."""
    points = make_points(seed, 3 * count, dim, layout)
    sizes = np.random.default_rng(seed + 1).integers(1, 4, size=count)
    cfs, start = [], 0
    for size in sizes:
        cfs.append(ClusterFeature.from_points(points[start : start + size]))
        start += size
    return cfs


layouts = st.sampled_from(["normal", "grid", "duplicates"])
seeds = st.integers(0, 2**31 - 1)


class TestKernelsBitwise:
    def test_inner_equals_one_dimensional_dot(self):
        rng = np.random.default_rng(7)
        for dim in range(1, 34):
            x = rng.normal(size=(600, dim)) * rng.exponential(10.0, size=(600, 1))
            y = rng.normal(size=(600, dim))
            expected = np.array([a @ b for a, b in zip(x, y)])
            assert np.array_equal(_inner(x, y), expected)
            # Broadcast operands reduce with the same routine.
            assert np.array_equal(_inner(x, y[0]), [a @ y[0] for a in x])

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.integers(1, 40), st.integers(1, 12), layouts,
           st.sampled_from(METRICS))
    def test_one_to_many_and_pairwise_match_scalar(
        self, seed, count, dim, layout, metric
    ):
        cfs = make_cfs(seed, count, dim, layout)
        scalar = SCALAR_METRICS[metric]
        kernel = DISTANCE_KERNELS[metric]
        stack = cf_stack(cfs)
        expected = np.array([[scalar(a, b) for b in cfs] for a in cfs])
        assert np.array_equal(pairwise(kernel, stack), expected)
        assert np.array_equal(kernel(stack, cf_one(cfs[0])), expected[:, 0])
        assert np.array_equal(kernel(cf_one(cfs[-1]), stack), expected[-1])
        assert get_metric(metric)(cfs[0], cfs[-1]) == expected[0, -1]

    def test_pairwise_bands_match_one_band(self, monkeypatch):
        cfs = make_cfs(3, 50, 4, "normal")
        whole = pairwise(DISTANCE_KERNELS["d4"], cf_stack(cfs))
        monkeypatch.setattr("repro.clustering.cf.PAIRWISE_CHUNK", 7)
        assert np.array_equal(pairwise(DISTANCE_KERNELS["d4"], cf_stack(cfs)), whole)


def assert_same_merges(cfs, k, metric):
    clusters, assignment = agglomerate(cfs, k, metric)
    ref_clusters, ref_assignment = heap_agglomerate(cfs, k, metric)
    assert assignment == ref_assignment
    assert [cf_key(cf) for cf in clusters] == [cf_key(cf) for cf in ref_clusters]


class TestAgglomerateMatchesHeap:
    @settings(max_examples=40, deadline=None)
    @given(seeds, st.integers(1, 80), st.integers(1, 6), layouts,
           st.sampled_from(METRICS), st.integers(1, 80))
    def test_small(self, seed, count, dim, layout, metric, k):
        assert_same_merges(make_cfs(seed, count, dim, layout), k, metric)

    @settings(max_examples=6, deadline=None)
    @given(seeds, st.integers(200, 600), st.integers(1, 5), layouts,
           st.sampled_from(METRICS), st.integers(1, 60))
    def test_large(self, seed, count, dim, layout, metric, k):
        assert_same_merges(make_cfs(seed, count, dim, layout), k, metric)

    @pytest.mark.parametrize("metric", METRICS)
    def test_all_duplicates_tie_at_zero(self, metric):
        cfs = [ClusterFeature.from_point((1.5, -2.0)) for _ in range(40)]
        assert_same_merges(cfs, 3, metric)

    def test_input_cfs_untouched(self):
        cfs = make_cfs(11, 30, 3, "grid")
        before = [cf_key(cf) for cf in cfs]
        agglomerate(cfs, 2)
        assert [cf_key(cf) for cf in cfs] == before


def tree_key(tree: CFTree) -> tuple:
    return (
        tree.threshold,
        tree.n_points,
        tree.rebuilds,
        tree.height(),
        [cf_key(entry) for entry in tree.leaf_entries()],
    )


def build_tree(points, metric, scalar):
    tree = CFTree(
        threshold=0.05, branching_factor=3, leaf_capacity=3,
        max_leaf_entries=24, metric=metric,
    )
    if scalar:
        with scalar_birch():
            tree.insert_points(points)
    else:
        tree.insert_points(points)
    return tree


class TestCFTreeMatchesLoops:
    @settings(max_examples=40, deadline=None)
    @given(seeds, st.integers(1, 300), st.integers(1, 5), layouts,
           st.sampled_from(METRICS))
    def test_leaf_entries(self, seed, count, dim, layout, metric):
        points = [tuple(p) for p in make_points(seed, count, dim, layout)]
        tree = build_tree(points, metric, scalar=False)
        reference = build_tree(points, metric, scalar=True)
        assert tree_key(tree) == tree_key(reference)
        assert pickle.dumps(tree) == pickle.dumps(reference)
        assert tree.check_invariants() == []

    def test_node_pickles_without_its_stack(self):
        tree = build_tree([tuple(p) for p in make_points(5, 200, 2, "normal")],
                          "d0", scalar=False)
        node = tree._root
        assert node._stack is not None
        state = node.__reduce_ex__(pickle.DEFAULT_PROTOCOL)[2]
        assert state == (None, {"entries": node.entries, "children": node.children,
                                "is_leaf": node.is_leaf})
        assert list(state[1]) == ["entries", "children", "is_leaf"]
        restored = pickle.loads(pickle.dumps(tree))
        assert restored._root._stack is None
        more = [tuple(p) for p in make_points(6, 50, 2, "normal")]
        restored.insert_points(more)
        tree.insert_points(more)
        assert tree_key(restored) == tree_key(tree)


class TestBirchStatePickle:
    @pytest.mark.parametrize("layout", ["normal", "grid", "duplicates"])
    def test_state_bytes_match_reference(self, layout):
        blocks = [
            make_block(i + 1, [tuple(p) for p in make_points(20 + i, 300, 3, layout)])
            for i in range(3)
        ]
        maintainer = BirchPlusMaintainer(
            k=5, threshold=0.1, leaf_capacity=4, max_leaf_entries=64
        )
        state = maintainer.build(blocks)
        with scalar_birch():
            reference = maintainer.build(blocks)
        assert pickle.dumps(state) == pickle.dumps(reference)
        clone = maintainer.clone(state)
        assert pickle.dumps(clone) == pickle.dumps(state)

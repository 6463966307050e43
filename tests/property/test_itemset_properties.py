"""Property-based tests (hypothesis) for itemset primitives."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.itemsets.itemset import (
    contains,
    generate_candidates,
    join_level,
    make_itemset,
    minimum_count,
    normalize_transaction,
    prefix_join,
    proper_subsets,
)

items = st.integers(min_value=0, max_value=30)
itemsets = st.sets(items, min_size=1, max_size=6).map(lambda s: tuple(sorted(s)))
transactions = st.sets(items, min_size=0, max_size=12).map(lambda s: tuple(sorted(s)))


class TestCanonicalization:
    @given(st.lists(items, max_size=20))
    def test_make_itemset_is_sorted_and_unique(self, raw):
        itemset = make_itemset(raw)
        assert list(itemset) == sorted(set(raw))

    @given(st.lists(items, max_size=20))
    def test_normalization_idempotent(self, raw):
        once = normalize_transaction(raw)
        assert normalize_transaction(once) == once


class TestContains:
    @given(transactions, itemsets)
    def test_contains_matches_set_semantics(self, transaction, itemset):
        assert contains(transaction, itemset) == set(itemset).issubset(transaction)

    @given(transactions)
    def test_transaction_contains_itself(self, transaction):
        assert contains(transaction, transaction)

    @given(transactions, itemsets)
    def test_containment_is_antitone_in_itemset(self, transaction, itemset):
        """If T contains X then T contains every subset of X."""
        if contains(transaction, itemset):
            for subset in proper_subsets(itemset):
                assert contains(transaction, subset)


class TestProperSubsets:
    @given(itemsets)
    def test_count_and_size(self, itemset):
        subsets = list(proper_subsets(itemset))
        assert len(subsets) == len(itemset)
        assert all(len(s) == len(itemset) - 1 for s in subsets)

    @given(itemsets)
    def test_subsets_are_subsets(self, itemset):
        for subset in proper_subsets(itemset):
            assert set(subset) < set(itemset)


class TestPrefixJoin:
    @given(itemsets, itemsets)
    def test_join_result_shape(self, a, b):
        joined = prefix_join(a, b)
        if joined is not None:
            assert len(joined) == len(a) + 1
            assert set(joined) == set(a) | set(b)
            assert list(joined) == sorted(joined)


class TestGenerateCandidates:
    @settings(max_examples=50)
    @given(st.sets(itemsets.filter(lambda x: len(x) == 2), max_size=12))
    def test_candidates_have_all_subsets_frequent(self, frequent_pairs):
        candidates = generate_candidates(frequent_pairs)
        for candidate in candidates:
            assert len(candidate) == 3
            for subset in proper_subsets(candidate):
                assert subset in frequent_pairs

    @settings(max_examples=50)
    @given(st.sets(items, min_size=0, max_size=8))
    def test_singleton_level_generates_all_pairs(self, frequent_items):
        frequent = {(i,) for i in frequent_items}
        candidates = generate_candidates(frequent)
        n = len(frequent_items)
        assert len(candidates) == n * (n - 1) // 2


class TestMinimumCount:
    @given(
        st.floats(min_value=0.001, max_value=0.999),
        st.integers(min_value=1, max_value=10_000),
    )
    def test_threshold_is_tight(self, minsup, total):
        threshold = minimum_count(minsup, total)
        # Meeting the threshold implies meeting the support fraction
        # (within float tolerance), and threshold-1 does not.
        assert threshold / total >= minsup - 1e-9
        if threshold > 1:
            assert (threshold - 1) / total < minsup


class TestJoinLevel:
    @settings(max_examples=100)
    @given(st.integers(min_value=1, max_value=4), st.data())
    def test_matches_generate_candidates(self, k, data):
        level = data.draw(
            st.sets(
                st.sets(st.integers(min_value=0, max_value=9), min_size=k, max_size=k)
                .map(lambda s: tuple(sorted(s))),
                max_size=30,
            )
        )
        # Any row order in, lexicographic rows out.
        rows = data.draw(st.permutations(sorted(level)))
        matrix = np.array(rows, dtype=np.int64).reshape(-1, k)
        joined = [tuple(row) for row in join_level(matrix).tolist()]
        assert joined == sorted(generate_candidates(level))

    def test_empty_and_single_row_levels_join_to_nothing(self):
        assert join_level(np.empty((0, 2), dtype=np.int64)).shape == (0, 3)
        assert join_level(np.array([[1, 2]])).shape == (0, 3)

"""Property-based tests: BORDERS maintenance equals from-scratch mining
on arbitrary random block sequences, and the L/NB⁻ invariants always
hold."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import make_block
from repro.itemsets.apriori import mine_blocks
from repro.itemsets.border import check_border_invariant
from repro.itemsets.borders import BordersMaintainer, ItemsetMiningContext

transactions = st.lists(
    st.sets(st.integers(min_value=0, max_value=10), min_size=1, max_size=5).map(
        lambda s: tuple(sorted(s))
    ),
    min_size=3,
    max_size=25,
)
block_sequences = st.lists(transactions, min_size=2, max_size=4)
minsups = st.sampled_from([0.1, 0.2, 0.35, 0.5])


def to_blocks(sequences):
    return [make_block(i + 1, txs) for i, txs in enumerate(sequences)]


class TestMaintenanceEqualsScratch:
    @settings(max_examples=40, deadline=None)
    @given(block_sequences, minsups)
    def test_add_blocks(self, sequences, minsup):
        blocks = to_blocks(sequences)
        maintainer = BordersMaintainer(minsup, ItemsetMiningContext(), counter="ecut")
        model = maintainer.build(blocks[:1])
        for block in blocks[1:]:
            model = maintainer.add_block(model, block)
        truth = mine_blocks(blocks, minsup)
        assert model.frequent == truth.frequent
        assert set(model.border) == set(truth.border)

    @settings(max_examples=40, deadline=None)
    @given(block_sequences, minsups)
    def test_invariants_after_every_step(self, sequences, minsup):
        blocks = to_blocks(sequences)
        maintainer = BordersMaintainer(minsup, ItemsetMiningContext(), counter="ecut")
        model = maintainer.build(blocks[:1])
        for block in blocks[1:]:
            model = maintainer.add_block(model, block)
            assert check_border_invariant(
                set(model.frequent), set(model.border)
            ) == []

    @settings(max_examples=30, deadline=None)
    @given(block_sequences, minsups, st.data())
    def test_delete_equals_scratch_on_remainder(self, sequences, minsup, data):
        blocks = to_blocks(sequences)
        maintainer = BordersMaintainer(minsup, ItemsetMiningContext(), counter="ecut")
        model = maintainer.build(blocks[:1])
        for block in blocks[1:]:
            model = maintainer.add_block(model, block)
        victim = data.draw(st.sampled_from(blocks))
        model = maintainer.delete_block(model, victim)
        remaining = [b for b in blocks if b.block_id != victim.block_id]
        truth = mine_blocks(remaining, minsup)
        assert model.frequent == truth.frequent
        assert model.border == truth.border
        assert check_border_invariant(set(model.frequent), set(model.border)) == []

    @settings(max_examples=30, deadline=None)
    @given(block_sequences, st.sampled_from([0.35, 0.5]), st.data())
    def test_lower_threshold_equals_scratch(self, sequences, minsup, data):
        blocks = to_blocks(sequences)
        maintainer = BordersMaintainer(minsup, ItemsetMiningContext(), counter="ecut")
        model = maintainer.build(blocks[:1])
        for block in blocks[1:]:
            model = maintainer.add_block(model, block)
        lower = data.draw(st.sampled_from([m for m in (0.1, 0.2) if m < minsup]))
        model = maintainer.lower_threshold(model, lower)
        truth = mine_blocks(blocks, lower)
        assert model.frequent == truth.frequent
        assert model.border == truth.border
        assert check_border_invariant(set(model.frequent), set(model.border)) == []

    @settings(max_examples=20, deadline=None)
    @given(block_sequences)
    def test_counts_are_exact_supports(self, sequences):
        blocks = to_blocks(sequences)
        maintainer = BordersMaintainer(0.2, ItemsetMiningContext(), counter="ecut")
        model = maintainer.build(blocks[:1])
        for block in blocks[1:]:
            model = maintainer.add_block(model, block)
        from repro.itemsets.itemset import contains

        everything = [t for b in blocks for t in b.tuples]
        for itemset, count in model.frequent.items():
            assert count == sum(1 for t in everything if contains(t, itemset))


class TestTargetedBorderRecheck:
    def test_demoted_pair_removes_its_triple_from_the_border(self):
        # Block 1 (minsup 0.5, 4 transactions): every pair of {1, 2, 3}
        # is frequent at 2/4 and (1, 2, 3) sits on the border at 1/4.
        # Block 2 leaves (1, 2) at 2/6 < 0.5 — demoted — while (1, 3),
        # (2, 3) and the singletons stay frequent, so (1, 2, 3) loses a
        # subset and must leave the border.
        first = make_block(1, [(1, 2), (1, 3), (2, 3), (1, 2, 3)])
        second = make_block(2, [(1, 3), (2, 3)])
        maintainer = BordersMaintainer(0.5, ItemsetMiningContext(), counter="ecut")
        model = maintainer.build([first])
        assert model.border[(1, 2, 3)] == 1
        model = maintainer.add_block(model, second)
        assert maintainer.last_stats.demotions == 1
        assert (1, 2, 3) not in model.border
        assert model.border[(1, 2)] == 2
        truth = mine_blocks([first, second], 0.5)
        assert model.frequent == truth.frequent
        assert model.border == truth.border
        assert check_border_invariant(set(model.frequent), set(model.border)) == []

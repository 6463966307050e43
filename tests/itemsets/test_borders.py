"""Tests for the BORDERS incremental maintainer.

The gold standard everywhere: incremental maintenance over any block
sequence must equal a from-scratch Apriori run over the same blocks —
same L, same NB⁻, same counts.
"""

import pytest

from repro.core.blocks import make_block
from repro.itemsets.apriori import mine_blocks
from repro.itemsets.border import check_border_invariant
from repro.itemsets.borders import BordersMaintainer, ItemsetMiningContext
from tests.conftest import transaction_blocks


MINSUP = 0.05


def incremental_model(blocks, counter, minsup=MINSUP, build_on=1):
    maintainer = BordersMaintainer(minsup, ItemsetMiningContext(), counter=counter)
    model = maintainer.build(blocks[:build_on])
    for block in blocks[build_on:]:
        model = maintainer.add_block(model, block)
    return maintainer, model


def assert_equals_scratch(model, blocks, minsup=MINSUP):
    truth = mine_blocks(blocks, minsup)
    assert model.frequent == truth.frequent
    assert set(model.border) == set(truth.border)
    assert model.n_transactions == truth.n_transactions


@pytest.mark.parametrize("counter", ["ptscan", "ecut", "ecut+"])
class TestIncrementalEqualsScratch:
    def test_four_blocks(self, counter):
        blocks = transaction_blocks(4, 250)
        _maintainer, model = incremental_model(blocks, counter)
        assert_equals_scratch(model, blocks)

    def test_build_on_two_blocks(self, counter):
        blocks = transaction_blocks(4, 200, seed=11)
        _maintainer, model = incremental_model(blocks, counter, build_on=2)
        assert_equals_scratch(model, blocks)

    def test_invariants_hold_after_each_step(self, counter):
        blocks = transaction_blocks(5, 150, seed=21)
        maintainer = BordersMaintainer(MINSUP, counter=counter)
        model = maintainer.build(blocks[:1])
        for block in blocks[1:]:
            model = maintainer.add_block(model, block)
            problems = check_border_invariant(
                set(model.frequent), set(model.border)
            )
            assert problems == []


class TestDetection:
    def test_new_frequent_itemsets_are_detected(self):
        """A pattern absent from block 1 but dominant in block 2 must be
        promoted through the negative border."""
        block1 = make_block(1, [(i % 5, 10 + i % 7) for i in range(100)])
        block2 = make_block(2, [(20, 21, 22)] * 100)
        maintainer = BordersMaintainer(0.2, counter="ecut")
        model = maintainer.build([block1])
        assert (20, 21, 22) not in model.frequent
        model = maintainer.add_block(model, block2)
        assert (20, 21, 22) in model.frequent
        assert model.frequent[(20, 21, 22)] == 100

    def test_itemsets_falling_below_threshold_are_demoted(self):
        block1 = make_block(1, [(1, 2)] * 50)
        block2 = make_block(2, [(3,)] * 200)
        maintainer = BordersMaintainer(0.3, counter="ecut")
        model = maintainer.build([block1])
        assert (1, 2) in model.frequent
        model = maintainer.add_block(model, block2)
        assert (1, 2) not in model.frequent
        # (1,) became infrequent too, so it sits on the border and (1,2)
        # can no longer be a border member.
        assert (1,) in model.border
        assert (1, 2) not in model.border

    def test_new_items_enter_tracking(self):
        block1 = make_block(1, [(1,)] * 10)
        block2 = make_block(2, [(1, 2)] * 10)
        maintainer = BordersMaintainer(0.4, counter="ecut")
        model = maintainer.build([block1])
        model = maintainer.add_block(model, block2)
        assert 2 in model.items
        assert (2,) in model.frequent

    def test_no_change_when_block_confirms_model(self):
        blocks = transaction_blocks(2, 300, seed=0)
        maintainer = BordersMaintainer(MINSUP, counter="ecut")
        model = maintainer.build([blocks[0]])
        # Feeding the very same distribution typically promotes little;
        # stats must reflect whatever happened consistently.
        model = maintainer.add_block(model, blocks[1])
        stats = maintainer.last_stats
        assert stats.detection_seconds >= 0
        assert stats.promotions == stats.promotions  # smoke for field access
        assert_equals_scratch(model, blocks)


class TestDeletion:
    @pytest.mark.parametrize("counter", ["ptscan", "ecut"])
    def test_delete_restores_scratch_model(self, counter):
        blocks = transaction_blocks(4, 200, seed=31)
        maintainer, model = incremental_model(blocks, counter)
        model = maintainer.delete_block(model, blocks[1])
        remaining = [blocks[0], blocks[2], blocks[3]]
        assert_equals_scratch(model, remaining)
        assert model.selected_block_ids == [1, 3, 4]

    def test_delete_then_add_round_trip(self):
        blocks = transaction_blocks(3, 200, seed=41)
        maintainer, model = incremental_model(blocks, "ecut")
        model = maintainer.delete_block(model, blocks[2])
        model = maintainer.add_block(model, blocks[2])
        assert_equals_scratch(model, blocks)

    def test_delete_unselected_block_rejected(self):
        blocks = transaction_blocks(2, 100)
        maintainer = BordersMaintainer(MINSUP, counter="ecut")
        model = maintainer.build([blocks[0]])
        maintainer.register_block(blocks[1])
        with pytest.raises(ValueError, match="not part"):
            maintainer.delete_block(model, blocks[1])


class TestThresholdChange:
    def test_lowering_threshold_equals_scratch(self):
        blocks = transaction_blocks(3, 250, seed=51)
        maintainer, model = incremental_model(blocks, "ecut", minsup=0.1)
        model = maintainer.lower_threshold(model, 0.05)
        truth = mine_blocks(blocks, 0.05)
        assert model.frequent == truth.frequent
        assert set(model.border) == set(truth.border)

    def test_raising_threshold_equals_scratch(self):
        blocks = transaction_blocks(3, 250, seed=61)
        _maintainer, model = incremental_model(blocks, "ecut", minsup=0.05)
        raised = model.raise_threshold(0.1)
        truth = mine_blocks(blocks, 0.1)
        assert raised.frequent == truth.frequent
        assert set(raised.border) == set(truth.border)

    def test_lower_threshold_validation(self):
        maintainer = BordersMaintainer(0.1, counter="ecut")
        model = maintainer.empty_model()
        with pytest.raises(ValueError):
            maintainer.lower_threshold(model, 0.2)

    def test_raise_threshold_validation(self):
        maintainer = BordersMaintainer(0.1, counter="ecut")
        model = maintainer.empty_model()
        with pytest.raises(ValueError):
            model.raise_threshold(0.05)


class TestTidListCounting:
    """Build, detection and deletion count on TID-lists (§3.1.1
    additivity); with the ECUT update counter no block is ever scanned."""

    def test_no_block_store_reads(self):
        blocks = transaction_blocks(3, 200, seed=5)
        maintainer = BordersMaintainer(MINSUP, counter="ecut")
        model = maintainer.build(blocks[:1])
        for block in blocks[1:]:
            model = maintainer.add_block(model, block)
        model = maintainer.delete_block(model, blocks[0])
        assert maintainer.context.block_store.stats.bytes_read == 0
        assert maintainer.context.tidlists.stats.bytes_read > 0
        truth = mine_blocks(blocks[1:], MINSUP)
        assert model.frequent == truth.frequent
        assert model.border == truth.border

    def test_build_counts_equal_scan_apriori(self):
        blocks = transaction_blocks(2, 250, seed=13)
        model = BordersMaintainer(MINSUP, counter="ptscan").build(blocks)
        truth = mine_blocks(blocks, MINSUP)
        assert model.frequent == truth.frequent
        assert model.border == truth.border
        assert model.items == {item for block in blocks for t in block.tuples for item in t}


class TestMaintainerMechanics:
    def test_register_block_is_idempotent(self):
        blocks = transaction_blocks(1, 50)
        maintainer = BordersMaintainer(MINSUP, counter="ecut")
        maintainer.register_block(blocks[0])
        maintainer.register_block(blocks[0])
        assert len(maintainer.context.block_store) == 1

    def test_clone_is_independent(self):
        blocks = transaction_blocks(2, 150, seed=71)
        maintainer = BordersMaintainer(MINSUP, counter="ecut")
        model = maintainer.build([blocks[0]])
        snapshot = maintainer.clone(model)
        maintainer.add_block(model, blocks[1])
        assert snapshot.selected_block_ids == [1]
        assert model.selected_block_ids == [1, 2]  # demonlint: disable=DML002 (asserts the in-place mutation)

    def test_empty_model(self):
        maintainer = BordersMaintainer(MINSUP)
        model = maintainer.empty_model()
        assert model.n_transactions == 0
        assert model.frequent == {}

    def test_build_on_no_blocks(self):
        maintainer = BordersMaintainer(MINSUP)
        assert maintainer.build([]).n_transactions == 0

    def test_minsup_validation(self):
        with pytest.raises(ValueError):
            BordersMaintainer(0.0)
        with pytest.raises(ValueError):
            BordersMaintainer(1.5)

    def test_ecut_plus_materializes_pairs_on_add(self):
        blocks = transaction_blocks(2, 200, seed=81)
        maintainer = BordersMaintainer(MINSUP, counter="ecut+")
        model = maintainer.build([blocks[0]])
        maintainer.add_block(model, blocks[1])
        assert maintainer.context.pairs.has_block(2)

    def test_shared_context_across_maintainers(self):
        """GEMM-style sharing: two maintainers over one context must not
        duplicate block registration."""
        blocks = transaction_blocks(1, 50, seed=91)
        context = ItemsetMiningContext()
        first = BordersMaintainer(MINSUP, context, counter="ecut")
        second = BordersMaintainer(MINSUP, context, counter="ecut")
        first.build([blocks[0]])
        second.register_block(blocks[0])
        assert len(context.block_store) == 1

"""The BORDERS incremental frequent-itemset maintainer (§3.1.1).

BORDERS (Feldman et al. 1997; Thomas et al. 1997) keeps the set of
frequent itemsets ``L`` *and* the negative border ``NB⁻`` with exact
counts.  When a block arrives it runs two phases:

* **Detection** — count every tracked itemset on just the new block,
  then check which border itemsets crossed the threshold (and which
  frequent itemsets fell below it).  If no border itemset became
  frequent, the model is already correct.
* **Update** — promote the newly frequent border itemsets into ``L``,
  generate fresh candidates by the prefix join, and count them over the
  *entire* selected history; iterate until no new itemset is frequent.

The update phase's counting step is pluggable — PT-Scan (full scan, as
in the original BORDERS), ECUT, or ECUT+ — which is precisely the
comparison in the paper's Figures 2 and 4–7.  Every other count the
maintainer takes — detection on the new (or deleted) block and the
Apriori levels of :meth:`BordersMaintainer.build` — comes from the
per-block TID-lists built when the block was registered, through the
batched ECUT engine: by §3.1.1's additivity a block's counts are a
function of that block's lists alone, so no block is ever scanned.

The maintainer implements :class:`DeletableModelMaintainer`, so it both
instantiates GEMM and supports the direct add+delete alternative
``A^u_M`` of §3.2.4.  It also implements the threshold-change protocol
of §3.1.1 (trivial filtering for ``κ' > κ``; BORDERS-with-ECUT
expansion for ``κ' < κ``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress
from typing import Any

from repro.contracts import maintainer_contract, pure_unless_cloned
from repro.core.blocks import Block
from repro.core.maintainer import DeletableModelMaintainer
import numpy as np

from repro.itemsets.apriori import MiningResult
from repro.itemsets.border import is_on_border
from repro.itemsets.counting import (
    ECUTCounter,
    ECUTPlusCounter,
    PTScanCounter,
    SupportCounter,
)
from repro.itemsets.itemset import (
    Itemset,
    Transaction,
    join_level,
    minimum_count,
    proper_subsets,
)
from repro.itemsets.materialize import PairTidListStore
from repro.itemsets.model import FrequentItemsetModel
from repro.itemsets.tidlist import TidListStore
from repro.storage.blockstore import BlockStore, transaction_nbytes
from repro.storage.iostats import IOStatsRegistry
from repro.storage.telemetry import DiagnosticsLog, Telemetry


def apriori(
    tidlists: TidListStore, block_ids: Sequence[int], minsup: float
) -> MiningResult:
    """Apriori with negative-border tracking, counted on TID-lists.

    The same levels as the scan-based
    :func:`repro.itemsets.apriori.apriori`, which stays the independent
    oracle, but no block is read: by §3.1.1's additivity level 1 is the
    sum of the blocks' catalogs, and level ``k`` counts its candidates
    with the batched ECUT engine over the blocks' TID-lists.
    """
    counter = ECUTCounter(tidlists)
    total = sum(tidlists.block_size(block_id) for block_id in block_ids)
    result = MiningResult(n_transactions=total, minsup=minsup, passes=1)
    if total == 0:
        return result
    catalogs = [tidlists.catalog(block_id) for block_id in block_ids]
    items, inverse = np.unique(
        np.concatenate([block_items for block_items, _ in catalogs]),
        return_inverse=True,
    )
    item_counts = np.bincount(
        inverse,
        weights=np.concatenate([block_counts for _, block_counts in catalogs]),
        minlength=len(items),
    ).astype(np.int64)
    mincount = minimum_count(minsup, total)
    level = items.reshape(-1, 1)
    itemsets: list[Itemset] = [(item,) for item in items.tolist()]
    counts = item_counts
    while True:
        frequent = counts >= mincount
        values = counts.tolist()
        for flags, store in (
            (frequent.tolist(), result.frequent),
            ((~frequent).tolist(), result.border),
        ):
            store.update(zip(compress(itemsets, flags), compress(values, flags)))
        level = join_level(level[frequent])
        if len(level) == 0:
            return result
        itemsets = list(map(tuple, level.tolist()))
        counts = np.fromiter(
            counter.count_batch(itemsets, block_ids).values(),
            dtype=np.int64,
            count=len(itemsets),
        )
        result.passes += 1


@dataclass
class MaintenanceStats:
    """Per-phase accounting for one maintenance step (figs. 4–7).

    Attributes:
        detection_seconds: Time to scan the new block and re-threshold.
        update_seconds: Time spent counting and promoting candidates.
        candidates_counted: ``|S|`` — new candidates counted over the
            full selected history during the update phase.
        promotions: Border itemsets that became frequent.
        demotions: Frequent itemsets that fell below the threshold.
        update_rounds: Iterations of the candidate-generation loop.
    """

    detection_seconds: float = 0.0
    update_seconds: float = 0.0
    candidates_counted: int = 0
    promotions: int = 0
    demotions: int = 0
    update_rounds: int = 0

    @property
    def total_seconds(self) -> float:
        return self.detection_seconds + self.update_seconds


@dataclass
class ItemsetMiningContext:
    """Shared storage backing one evolving transactional database.

    GEMM maintains many models over overlapping block subsets; they all
    share one context so each block's data and TID-lists are stored and
    built exactly once (the paper's per-block TID-list partitioning).
    """

    registry: IOStatsRegistry = field(default_factory=IOStatsRegistry)
    block_store: BlockStore[Transaction] = None  # type: ignore[assignment]
    tidlists: TidListStore = None  # type: ignore[assignment]
    pairs: PairTidListStore = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.block_store is None:
            self.block_store = BlockStore(
                sizer=transaction_nbytes, registry=self.registry
            )
        if self.tidlists is None:
            self.tidlists = TidListStore(registry=self.registry)
        if self.pairs is None:
            self.pairs = PairTidListStore(registry=self.registry)


def make_counter(kind: str, context: ItemsetMiningContext) -> SupportCounter:
    """Build one of the three update-phase counters by name."""
    normalized = kind.lower().replace("-", "").replace("_", "")
    if normalized in ("ptscan", "scan"):
        return PTScanCounter(context.block_store)
    if normalized == "ecut":
        return ECUTCounter(context.tidlists)
    if normalized in ("ecutplus", "ecut+"):
        return ECUTPlusCounter(context.tidlists, context.pairs)
    raise ValueError(f"unknown counter kind {kind!r}; use ptscan, ecut, or ecut+")


@maintainer_contract
class BordersMaintainer(
    DeletableModelMaintainer[FrequentItemsetModel, Transaction]
):
    """BORDERS with a pluggable update-phase support counter.

    Args:
        minsup: Minimum support threshold ``κ``.
        context: Shared storage; a private one is created if omitted.
        counter: Counter kind (``"ptscan"``, ``"ecut"``, ``"ecut+"``) or
            a ready :class:`SupportCounter` instance.
        pair_budget_bytes: ECUT+ per-block space budget ``M_i`` for
            materialized 2-itemset TID-lists (``None`` = unbounded).
    """

    def __init__(
        self,
        minsup: float,
        context: ItemsetMiningContext | None = None,
        counter: str | SupportCounter = "ecut",
        pair_budget_bytes: int | None = None,
    ):
        if not 0 < minsup < 1:
            raise ValueError(f"minimum support must be in (0, 1), got {minsup}")
        self.minsup = minsup
        self.context = context if context is not None else ItemsetMiningContext()
        if isinstance(counter, SupportCounter):
            self.counter = counter
        else:
            self.counter = make_counter(counter, self.context)
        self.pair_budget_bytes = pair_budget_bytes
        #: Observability side channel (DML012: pure methods report
        #: their costs here instead of storing run state on ``self``).
        self.diagnostics = DiagnosticsLog()
        #: Instrumentation spine; a session rebinds this onto its own.
        self.telemetry = Telemetry()

    @property
    def last_stats(self) -> MaintenanceStats:
        """Stats of the most recent maintenance operation."""
        return self.diagnostics.latest("borders.maintenance", MaintenanceStats())

    # ------------------------------------------------------------------
    # Block registration (storage + per-block TID-lists, built once)
    # ------------------------------------------------------------------

    def register_block(
        self, block: Block[Transaction], model: FrequentItemsetModel | None = None
    ) -> None:
        """Store a block and build its TID-lists, idempotently.

        When the counter is ECUT+ and a model is supplied, the frequent
        2-itemsets of that model are materialized for the block under
        the configured space budget (§3.1.1's heuristic).
        """
        if block.block_id not in self.context.block_store:
            self.context.block_store.append_block(block)
        if not self.context.tidlists.has_block(block.block_id):
            self.context.tidlists.materialize_block(block)
        if (
            isinstance(self.counter, ECUTPlusCounter)
            and model is not None
            and not self.context.pairs.has_block(block.block_id)
        ):
            self.materialize_pairs_for_block(block, model)

    def materialize_pairs_for_block(
        self, block: Block[Transaction], model: FrequentItemsetModel
    ) -> list[tuple[int, int]]:
        """Materialize the model's frequent 2-itemsets for one block."""
        pairs = [p for p in model.frequent_of_size(2)]
        base = self.context.tidlists.base_tid(block.block_id)
        return self.context.pairs.materialize_block(
            block,
            pairs,
            overall_supports=model.frequent,
            budget_bytes=self.pair_budget_bytes,
            base_tid=base,
        )

    # ------------------------------------------------------------------
    # Worker-pool sharding support (repro.parallel)
    # ------------------------------------------------------------------

    def worker_payload(self) -> dict[str, Any] | None:
        """A small spec from which a worker can rebuild this maintainer.

        Only the stock counters are describable by name; a custom
        :class:`SupportCounter` instance (or subclass) may carry state a
        spec cannot reproduce, so ``None`` tells the pool integration to
        fall back to shipping the whole pickled maintainer.
        """
        counter_type = type(self.counter)
        if counter_type is ECUTCounter:
            kind = "ecut"
        elif counter_type is ECUTPlusCounter:
            kind = "ecut+"
        elif counter_type is PTScanCounter:
            kind = "ptscan"
        else:
            return None
        return {
            "maintainer": "borders",
            "minsup": self.minsup,
            "counter": kind,
            "pair_budget_bytes": self.pair_budget_bytes,
        }

    def worker_block_refs(self, block_ids: Sequence[int]) -> list[Any] | None:
        """Zero-copy refs for the given history blocks, if available.

        ``None`` when any block's source handle is gone (checkpoint
        restore rebuilds TID-lists but not handles), which sends the
        caller down the serial path.
        """
        from repro.parallel.shards import block_ref

        refs: list[Any] = []
        for block_id in block_ids:
            block = self.context.tidlists.source_block(block_id)
            if block is None:
                return None
            refs.append(block_ref(block))
        return refs

    # ------------------------------------------------------------------
    # IncrementalModelMaintainer interface
    # ------------------------------------------------------------------

    def empty_model(self) -> FrequentItemsetModel:
        return FrequentItemsetModel(minsup=self.minsup)

    def build(self, blocks) -> FrequentItemsetModel:
        """``A_M(D, φ)``: Apriori over the given blocks' TID-lists.

        Every observed item gets a tracked singleton, so the model's
        item universe is exactly the union of the blocks' catalogs.
        """
        block_list = list(blocks)
        if not block_list:
            return self.empty_model()
        for block in block_list:
            self.register_block(block)
        block_ids = [b.block_id for b in block_list]
        tidlists = self.context.tidlists
        result = apriori(tidlists, block_ids, self.minsup)
        model = FrequentItemsetModel(
            minsup=self.minsup,
            n_transactions=result.n_transactions,
            frequent=result.frequent,
            border=result.border,
            items={
                item
                for block_id in block_ids
                for item in tidlists.catalog(block_id)[0].tolist()
            },
            selected_block_ids=sorted(block_ids),
        )
        if isinstance(self.counter, ECUTPlusCounter):
            for block in block_list:
                if not self.context.pairs.has_block(block.block_id):
                    self.materialize_pairs_for_block(block, model)
        return model

    @pure_unless_cloned
    def add_block(
        self, model: FrequentItemsetModel, block: Block[Transaction]
    ) -> FrequentItemsetModel:
        """``A_M(m, D_j)``: detection + update phases for an added block."""
        self.register_block(block, model=model)
        stats = MaintenanceStats()
        span = self.telemetry.phase("borders.detection").start()

        # --- Detection phase: the new block's TID-lists ----------------
        self._apply_block_counts(model, block.block_id, sign=1)
        model.n_transactions += len(block)
        model.selected_block_ids.append(block.block_id)
        model.selected_block_ids.sort()

        # Items never seen in a selected block before: their count over
        # prior selected blocks is zero, so the block-local count (the
        # block catalog's list length) is the global count.  Newly
        # *frequent* items seed the update phase's candidate generation
        # (they never sat in the border).
        threshold = model.min_count
        seeds: dict[Itemset, int] = {}
        items, counts = self.context.tidlists.catalog(block.block_id)
        for item, count in zip(items.tolist(), counts.tolist()):
            if item in model.items:
                continue
            model.items.add(item)
            singleton: Itemset = (item,)
            if count >= threshold:
                model.frequent[singleton] = count
                seeds[singleton] = count
            else:
                model.border[singleton] = count

        stats.detection_seconds = span.stop()
        self._rebalance(model, stats, seeds=seeds)
        self.diagnostics.record("borders.maintenance", stats)
        return model

    @pure_unless_cloned
    def delete_block(
        self, model: FrequentItemsetModel, block: Block[Transaction]
    ) -> FrequentItemsetModel:
        """Reverse a previously added block (§3.2.4).

        Tracked counts are decremented by their counts on the block's
        TID-lists; the same detection/update machinery then restores
        the L/NB⁻ invariants (deletions can both demote and promote
        itemsets, because the denominator shrinks too).
        """
        if block.block_id not in model.selected_block_ids:
            raise ValueError(
                f"block {block.block_id} is not part of this model's selection"
            )
        stats = MaintenanceStats()
        span = self.telemetry.phase("borders.detection").start()
        self._apply_block_counts(model, block.block_id, sign=-1)
        model.n_transactions -= len(block)
        model.selected_block_ids.remove(block.block_id)
        stats.detection_seconds = span.stop()
        self._rebalance(model, stats)

        # Drop items that vanished entirely from the selection.  Only
        # the block's own items lost counts, and once rebalanced a
        # vanished item is a count-0 border singleton (a frequent one
        # was demoted there, along with its supersets).
        items, _ = self.context.tidlists.catalog(block.block_id)
        for item in items.tolist():
            if model.border.get((item,)) == 0:
                del model.border[(item,)]
                model.items.discard(item)
        self.diagnostics.record("borders.maintenance", stats)
        return model

    def clone(self, model: FrequentItemsetModel) -> FrequentItemsetModel:
        return model.copy()

    def _apply_block_counts(
        self, model: FrequentItemsetModel, block_id: int, sign: int
    ) -> None:
        """Add (``sign=1``) or subtract (``-1``) one block's counts of
        every tracked itemset, counted on that block's TID-lists."""
        frequent, border = model.frequent, model.border
        counts = ECUTCounter(self.context.tidlists).count_batch(
            [*frequent, *border], [block_id]
        )
        for itemset, count in counts.items():
            if count:
                if itemset in frequent:
                    frequent[itemset] += sign * count
                else:
                    border[itemset] += sign * count

    # ------------------------------------------------------------------
    # Threshold changes (§3.1.1)
    # ------------------------------------------------------------------

    def lower_threshold(
        self, model: FrequentItemsetModel, new_minsup: float
    ) -> FrequentItemsetModel:
        """Re-derive the model at ``κ' < κ`` using the update machinery.

        Border counts are exact, so lowering the threshold promotes the
        border itemsets that now qualify and expands outward with the
        configured counter — "BORDERS augmented with ECUT/ECUT+".
        """
        if new_minsup >= model.minsup:
            raise ValueError(
                "lower_threshold requires the new threshold to be smaller; "
                "use FrequentItemsetModel.raise_threshold instead"
            )
        if not 0 < new_minsup < 1:
            raise ValueError(f"minimum support must be in (0, 1), got {new_minsup}")
        model.minsup = new_minsup
        stats = MaintenanceStats()
        self._rebalance(model, stats)
        self.diagnostics.record("borders.maintenance", stats)
        return model

    # ------------------------------------------------------------------
    # Shared demote/promote/expand machinery
    # ------------------------------------------------------------------

    def _rebalance(
        self,
        model: FrequentItemsetModel,
        stats: MaintenanceStats,
        seeds: dict[Itemset, int] | None = None,
    ) -> None:
        """Restore the L/NB⁻ invariants after counts or κ changed.

        ``seeds`` are itemsets the caller already placed in ``L`` that
        were not border members (newly observed frequent items); they
        participate in candidate generation like border promotions do.
        """
        span = self.telemetry.phase("borders.update").start()
        threshold = model.min_count

        # Demote frequent itemsets that fell below the threshold.  A
        # demoted itemset joins the border only while all its proper
        # subsets stay frequent; border members whose subsets got
        # demoted are deleted (paper footnote 6).
        demoted = {
            itemset: count
            for itemset, count in model.frequent.items()
            if count < threshold
        }
        stats.demotions += len(demoted)
        if demoted:
            frequent_items = [x for x in model.items if (x,) in model.frequent]
            for itemset in demoted:
                del model.frequent[itemset]
            for itemset, count in demoted.items():
                if is_on_border(itemset, model.frequent.keys()):
                    model.border[itemset] = count
            self._drop_orphaned_border(model, demoted, frequent_items)

        # Promote border itemsets that crossed the threshold, then
        # expand: generate fresh candidates around everything that newly
        # became frequent, count them over the whole selected history
        # with the pluggable counter, and repeat to closure.
        promoted = {
            itemset: count
            for itemset, count in model.border.items()
            if count >= threshold
        }
        newly_frequent: set[Itemset] = set(seeds or ())
        while promoted or newly_frequent:
            stats.promotions += len(promoted)
            for itemset, count in promoted.items():
                # First round promotes border members; later rounds
                # promote freshly counted candidates that never sat in
                # the border, hence pop with default.
                model.border.pop(itemset, None)
                model.frequent[itemset] = count
            newly_frequent |= set(promoted)

            stats.update_rounds += 1
            candidates = self._new_candidates(newly_frequent, model)
            if not candidates:
                break
            with self.telemetry.phase(self._counting_phase()):
                counts = self.counter.count_batch(
                    candidates, model.selected_block_ids
                )
            stats.candidates_counted += len(candidates)
            promoted = {}
            newly_frequent = set()
            for candidate, count in counts.items():
                if count >= threshold:
                    promoted[candidate] = count
                else:
                    model.border[candidate] = count
        stats.update_seconds = span.stop()
        self.telemetry.increment("borders.promotions", stats.promotions)
        self.telemetry.increment("borders.demotions", stats.demotions)
        self.telemetry.increment(
            "borders.candidates_counted", stats.candidates_counted
        )

    @staticmethod
    def _drop_orphaned_border(
        model: FrequentItemsetModel,
        demoted: dict[Itemset, int],
        frequent_items: list[int],
    ) -> None:
        """Delete the border members that lost a subset to a demotion.

        A member that was on the border had every immediate subset
        frequent, so it fails the border condition now exactly when one
        of those subsets was demoted: it is ``d ∪ {x}`` for a demoted
        ``d`` and an item ``x`` whose singleton was frequent before the
        demotions.  Counts are monotone, so every frequent superset of
        ``d`` was demoted too, and nothing else can have left the
        border.  Probing those ``|demoted| · |frequent items|``
        extensions replaces rechecking every member of ``NB⁻``.
        """
        border = model.border
        for base in demoted:
            for item in frequent_items:
                if item not in base:
                    border.pop(tuple(sorted(base + (item,))), None)

    def _counting_phase(self) -> str:
        """Telemetry phase name of the configured support counter."""
        return "counting." + self.counter.name.lower().replace("-", "")

    def _new_candidates(
        self, newly_frequent: set[Itemset], model: FrequentItemsetModel
    ) -> set[Itemset]:
        """Fresh, untracked candidates with all subsets frequent.

        A candidate not already tracked must have at least one immediate
        subset that *just* became frequent (otherwise it would have been
        generated before), so it suffices to extend each newly frequent
        itemset by one frequent item and prune.  When the promotion set
        is huge this targeted pass costs more than regenerating from the
        whole of ``L``, so fall back to the global prefix join then.
        """
        frequent, border = model.frequent, model.border
        frequent_items = [x for x in model.items if (x,) in frequent]
        if len(newly_frequent) * len(frequent_items) > 4 * len(frequent) + 10_000:
            levels: dict[int, list[Itemset]] = {}
            for itemset in frequent:
                levels.setdefault(len(itemset), []).append(itemset)
            return {
                candidate
                for level in levels.values()
                for candidate in map(tuple, join_level(np.array(level)).tolist())
                if candidate not in frequent and candidate not in border
            }
        result: set[Itemset] = set()
        for base in newly_frequent:
            for item in frequent_items:
                if item in base:
                    continue
                candidate = tuple(sorted(base + (item,)))
                if candidate in frequent or candidate in border or candidate in result:
                    continue
                # A pair's subsets are ``base`` and ``(item,)``, both
                # frequent; larger candidates need the full check.
                if len(base) == 1 or all(
                    s in frequent for s in proper_subsets(candidate)
                ):
                    result.add(candidate)
        return result

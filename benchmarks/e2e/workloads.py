"""The three end-to-end workloads: data, session, and oracle.

Each workload fixes every setting a :class:`MiningSession` would
otherwise take from the environment (backend, scheduler, ``workers``,
chunk size), generates its record streams from the run seed before any
clock starts, and knows how to check a maintained model against
``A_M`` run from scratch by a fresh maintainer (the paper's own
definition of a correct model).

A run measures several *repetitions*.  Repetition ``i`` replays stream
``i % STREAMS`` from a fresh session.  Every stream of every run shares
one fixed pattern pool (the ROADMAP reference Quest pool) or one fixed
sequence of cluster layouts; the run seed draws the records from them.
How much work a block costs follows the pool far more than the draw
(the BORDERS lattice size varies by about a quarter between Quest
pools at ``MINSUP``), so with pools drawn from the seed the run
medians measured the pools rather than the program.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.clustering.birch_plus import BirchPlusMaintainer
from repro.core.blocks import FALLBACK_CHUNK_SIZE, make_block
from repro.core.session import MiningSession
from repro.core.windows import MostRecentWindow, UnrestrictedWindow
from repro.datagen.clusters import ClusterDataGenerator, ClusterDataParams
from repro.datagen.quest import QuestGenerator, QuestParams
from repro.deviation.estimate import SampledDeviationEstimator
from repro.itemsets.borders import BordersMaintainer
from repro.scheduling.policy import (
    DEFAULT_MAX_PENDING,
    DEFAULT_THRESHOLD,
    DeviationScheduler,
    EagerScheduler,
)
from repro.storage.engine import InMemoryBackend, TieredBackend
from repro.storage.persist import ModelVault

#: Independent streams drawn per run (each from its own derived seed).
STREAMS = 8

#: Itemset stream: the ROADMAP reference Quest configuration.
QUEST_NAME = "2M.20L.1I.4pats.4plen"
#: Seed of the pattern pool every itemset stream draws from (the ROADMAP
#: reference run's ``QuestGenerator(QUEST_NAME, seed=2)``).
QUEST_POOL_SEED = 2
ITEMSET_BLOCK = 1000
ITEMSET_BLOCKS = 12
MINSUP = 0.03
WINDOW = 4

#: Cluster stream: every ``CLUSTER_SEGMENT`` blocks the centres are
#: redrawn and the whole layout moves by ``CLUSTER_SHIFT`` per axis, so
#: each shift is plain to the drift estimator, while its samples within
#: one segment come from one distribution.
CLUSTER_NAME = "1M.50c.5d"
CLUSTER_BLOCK = 1000
CLUSTER_BLOCKS = 12
CLUSTER_SEGMENT = 4
CLUSTER_SHIFT = 25.0
CLUSTER_NOISE = 0.02
CLUSTER_K = 50
#: Seed of the first cluster layout; layout ``k`` uses
#: ``CLUSTER_LAYOUT_SEED + k * SHIFT_SEED_OFFSET``.
CLUSTER_LAYOUT_SEED = 0
#: Offset between the seeds of consecutive cluster layouts.
SHIFT_SEED_OFFSET = 7919
#: Records the drift estimator samples per block.
SKETCH_SAMPLE = 128
#: Clusters in the drift estimator's miniature model.  With 4, sketches
#: of one layout differed significantly on about one arrival in six
#: (2.5 steady catch-ups per stream where the layout moves twice); with
#: 2 the estimator fires on the two moves in 15 streams of 16, so the
#: catch-up count no longer varies from stream to stream.
SKETCH_K = 2

Stream = list[list[Any]]


def stream_seed(seed: int, index: int) -> int:
    """The derived seed of stream ``index`` within a run."""
    return seed * 1000 + index


def reseeded(generator: Any, seed: int) -> Any:
    """``generator`` with its structure kept and its records drawn from ``seed``.

    Both generators build their structure (Quest pattern pool, cluster
    centres) and then draw records from one private RNG, so replacing
    that RNG after construction fixes the structure and varies only the
    records.
    """
    generator._rng = random.Random(seed)
    return generator


def quest_stream(
    seed: int, blocks: int = ITEMSET_BLOCKS, size: int = ITEMSET_BLOCK
) -> Stream:
    """``blocks`` blocks of stationary Quest transactions from the reference pool."""
    generator = reseeded(
        QuestGenerator(QuestParams.from_name(QUEST_NAME), seed=QUEST_POOL_SEED), seed
    )
    return [generator.transactions(size) for _ in range(blocks)]


def shifting_cluster_stream(
    seed: int, blocks: int = CLUSTER_BLOCKS, size: int = CLUSTER_BLOCK
) -> Stream:
    """Cluster points whose layout moves every ``CLUSTER_SEGMENT`` blocks."""
    params = ClusterDataParams.from_name(CLUSTER_NAME, noise_fraction=CLUSTER_NOISE)
    stream: Stream = []
    for index in range(blocks):
        segment = index // CLUSTER_SEGMENT
        if index % CLUSTER_SEGMENT == 0:
            layout = reseeded(
                ClusterDataGenerator(
                    params, seed=CLUSTER_LAYOUT_SEED + segment * SHIFT_SEED_OFFSET
                ),
                seed + segment * SHIFT_SEED_OFFSET,
            )
        offset = segment * CLUSTER_SHIFT
        stream.append(
            [tuple(x + offset for x in point) for point in layout.points(size)]
        )
    return stream


def itemset_canonical(model: Any) -> tuple[Any, ...]:
    """Everything a frequent-itemset model asserts, as a comparable value."""
    return (
        model.minsup,
        model.n_transactions,
        dict(model.frequent),
        dict(model.border),
        frozenset(model.items),
        tuple(model.selected_block_ids),
    )


def _cf(cf: Any) -> tuple[Any, ...]:
    return (cf.n, None if cf.ls is None else cf.ls.tobytes(), cf.ss)


def birch_canonical(model: Any) -> tuple[Any, ...]:
    """A BIRCH+ state: the CF-tree's sub-clusters in order, and clusters.

    Compared by content rather than by pickled bytes: a model that
    round-tripped through the vault unpickles its arrays with their own
    ``dtype`` objects, which changes pickle memoization but no value.
    """
    tree = model.tree
    return (
        tree.threshold,
        tree.n_points,
        tree.rebuilds,
        tree.height(),
        tuple(_cf(entry) for entry in tree.leaf_entries()),
        tuple(
            (cluster.cluster_id, _cf(cluster.cf))
            for cluster in model.clusters.clusters
        ),
        model.clusters.n_points,
        tuple(model.clusters.selected_block_ids),
        tuple(model.selected_block_ids),
    )


def corrupt_itemset_count(model: Any) -> None:
    """Add one to the smallest frequent itemset's support count."""
    itemset = min(model.frequent)
    model.frequent[itemset] += 1


def corrupt_cluster_count(model: Any) -> None:
    """Add one to the first cluster's point count."""
    model.clusters.clusters[0].cf.n += 1


@dataclass(frozen=True)
class Workload:
    """One named workload of the end-to-end benchmark.

    Attributes:
        name: Workload name used on the command line and in results.
        why: One-line reason the workload exists.
        warmup: Leading blocks of each stream that belong to set-up.
        make_stream: Builds one stream of record lists from a seed.
        make_maintainer: A fresh ``A_M`` (also used by the oracle).
        windowed: Whether the session runs under MRW(``WINDOW``), with
            blocks in a :class:`TieredBackend` and GEMM's models spilled
            to a :class:`ModelVault`; otherwise UW on the in-memory
            backend.
        deferred: Whether the :class:`DeviationScheduler` decides.
        canonical: Model -> value that equal models share.
        corrupt: Damages one count of a model in place (smoke test).
    """

    name: str
    why: str
    warmup: int
    make_stream: Callable[[int], Stream]
    make_maintainer: Callable[[], Any]
    windowed: bool
    deferred: bool
    canonical: Callable[[Any], Any]
    corrupt: Callable[[Any], None]

    def streams(self, seed: int, count: int = STREAMS) -> list[Stream]:
        """All streams of one run, generated before any timing."""
        return [self.make_stream(stream_seed(seed, i)) for i in range(count)]

    def make_session(self, workdir: str) -> MiningSession[Any, Any]:
        """A session with every knob pinned (nothing read from the env)."""
        vault = ModelVault() if self.windowed else None
        backend = (
            TieredBackend(
                root=os.path.join(workdir, "blocks"),
                chunk_size=FALLBACK_CHUNK_SIZE,
                int_codec="delta-varint",
            )
            if self.windowed
            else InMemoryBackend(chunk_size=FALLBACK_CHUNK_SIZE)
        )
        scheduler = (
            DeviationScheduler(
                threshold=DEFAULT_THRESHOLD,
                max_pending=DEFAULT_MAX_PENDING,
                estimator=SampledDeviationEstimator(
                    sample_size=SKETCH_SAMPLE, minsup=0.05, max_size=2, k=SKETCH_K
                ),
            )
            if self.deferred
            else EagerScheduler()
        )
        span = MostRecentWindow(WINDOW) if self.windowed else UnrestrictedWindow()
        return MiningSession(
            self.make_maintainer(),
            span=span,
            vault=vault,
            backend=backend,
            workers=1,
            scheduler=scheduler,
            name=self.name,
        )

    def reference(self, stream: Stream, selection: list[int]) -> Any:
        """``A_M`` from scratch over the selected blocks of ``stream``."""
        blocks = [make_block(block_id, stream[block_id - 1]) for block_id in selection]
        return self.make_maintainer().build(blocks)


def _borders() -> BordersMaintainer:
    return BordersMaintainer(MINSUP, counter="ecut", pair_budget_bytes=None)


def _birch() -> BirchPlusMaintainer:
    return BirchPlusMaintainer(
        k=CLUSTER_K,
        threshold=0.5,
        branching_factor=8,
        leaf_capacity=8,
        max_leaf_entries=512,
        method="agglomerative",
        seed=0,
    )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="uw-itemsets",
            why=(
                "UW BORDERS-ECUT on stationary Quest: lattice and counting "
                "do the work; GEMM, vault, tiering and scheduler do none"
            ),
            warmup=1,
            make_stream=quest_stream,
            make_maintainer=_borders,
            windowed=False,
            deferred=False,
            canonical=itemset_canonical,
            corrupt=corrupt_itemset_count,
        ),
        Workload(
            name="mrw-itemsets",
            why=(
                "the same stream under MRW(4) with tiering and a vault: GEMM "
                "makes about w A_M calls per block; MRW/UW cost reads off"
            ),
            warmup=WINDOW,
            make_stream=quest_stream,
            make_maintainer=_borders,
            windowed=True,
            deferred=False,
            canonical=itemset_canonical,
            corrupt=corrupt_itemset_count,
        ),
        Workload(
            name="mrw-clusters-deferred",
            why=(
                "BIRCH+ under MRW(4), deviation scheduler, clusters moving every "
                "4 blocks: drift estimates and batched GEMM catch-up do the work"
            ),
            warmup=WINDOW,
            make_stream=shifting_cluster_stream,
            make_maintainer=_birch,
            windowed=True,
            deferred=True,
            canonical=birch_canonical,
            corrupt=corrupt_cluster_count,
        ),
    )
}

"""Outside-in layer trace: spans around each layer's public entry points.

The program itself is not instrumented here.  :class:`Tracer` swaps the
public entry points of every layer (session, GEMM, the maintainers,
Apriori, support counting, TID-lists, block storage, the vault, the
scheduler, the deviation estimator, the CF-tree and BIRCH phase 2) for
thin wrappers that record one span per call — name, start, end and the
span that was open when it started — and restores them on
:meth:`Tracer.uninstall`.  Per-transaction hot paths
(``PrefixTree.count_transaction``, ``is_on_border``) are left alone so
the trace does not swamp what it measures.

A span's self time is its duration minus the durations of its direct
children; calls run on one thread and nest strictly, so the children
never overlap.  Summed over all spans, self time equals the time the
root spans cover, and the rest of the traced wall is *unattributed*
(the benchmark loop itself).
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from typing import Any, Callable

#: Span names of the incremental algorithm ``A_M`` (build and update).
AM_SPANS = frozenset(
    {"borders.build", "borders.add_block", "birch.build", "birch.add_block"}
)

#: Which layer each per-layer metric belongs to, which end-to-end
#: metrics it should move, on which workloads it should move them, and
#: where it is predicted to stay unchanged.  Layer names are modules of
#: the ``repro`` package.
LAYER_MAP: list[dict[str, Any]] = [
    {
        "layer": "itemsets lattice (borders, apriori, border, prefix_tree)",
        "metrics": [
            "borders.add_block_self_s",
            "borders.add_block_calls",
            "borders.build_s",
            "apriori.self_s",
            "apriori.calls",
        ],
        "moves": ["block_latency_p50_ms", "records_per_s", "setup_s (apriori.*)"],
        "on": ["uw-itemsets", "mrw-itemsets"],
        "unchanged_on": ["mrw-clusters-deferred"],
    },
    {
        "layer": "itemsets.counting / itemsets.kernels",
        "metrics": [
            "counting.count_batch_s",
            "counting.count_batch_calls",
            "counting.itemsets_counted",
        ],
        "moves": ["block_latency_p50_ms", "records_per_s"],
        "on": ["uw-itemsets"],
        "unchanged_on": ["mrw-clusters-deferred"],
    },
    {
        "layer": "itemsets.tidlist",
        "metrics": ["tidlist.materialize_s", "tidlist.compress_s", "tidlist.bytes"],
        "moves": ["records_per_s", "state_mb", "peak_rss_mb"],
        "on": ["uw-itemsets", "mrw-itemsets"],
        "unchanged_on": ["mrw-clusters-deferred"],
    },
    {
        "layer": "core.gemm",
        "metrics": [
            "gemm.observe_self_s",
            "gemm.observe_run_self_s",
            "gemm.am_calls",
            "gemm.am_calls_per_block",
            "gemm.distinct_models",
        ],
        "moves": ["block_latency_p50_ms", "records_per_s"],
        "on": ["mrw-itemsets (observe)", "mrw-clusters-deferred (observe_run)"],
        "unchanged_on": ["uw-itemsets"],
    },
    {
        "layer": "scheduling, deviation.estimate",
        "metrics": [
            "scheduling.decide_s",
            "scheduling.deferred_fraction",
            "scheduling.staleness_flushes",
            "deviation.sketch_s",
            "deviation.estimate_s",
            "deviation.estimate_share",
        ],
        "moves": ["block_latency_p50_ms", "records_per_s", "blocks_per_catchup"],
        "on": ["mrw-clusters-deferred"],
        "unchanged_on": ["uw-itemsets", "mrw-itemsets"],
    },
    {
        "layer": "clustering",
        "metrics": [
            "birch.add_block_s",
            "birch.clone_s",
            "birch.phase2_s",
            "cftree.insert_s",
            "cftree.rebuilds",
        ],
        "moves": ["records_per_s"],
        "on": ["mrw-clusters-deferred"],
        "unchanged_on": ["uw-itemsets", "mrw-itemsets"],
    },
    {
        "layer": "storage.engine",
        "metrics": [
            "storage.backend_ingest_s",
            "storage.expire_s",
            "storage.demotions",
            "storage.bytes_read",
            "storage.disk_bytes",
        ],
        "moves": ["records_per_s", "peak_rss_mb", "state_mb"],
        "on": ["mrw-itemsets", "mrw-clusters-deferred"],
        "unchanged_on": ["uw-itemsets"],
    },
    {
        "layer": "storage.persist",
        "metrics": [
            "storage.vault_put_s",
            "storage.vault_get_s",
            "storage.vault_puts",
            "storage.vault_gets",
            "storage.vault_stored_bytes",
        ],
        "moves": ["block_latency_p50_ms", "state_mb"],
        "on": ["mrw-itemsets", "mrw-clusters-deferred"],
        "unchanged_on": ["uw-itemsets"],
    },
    {
        "layer": "core.session",
        "metrics": ["session.self_s"],
        "moves": ["block_latency_p50_ms (should stay small)"],
        "on": ["all"],
        "unchanged_on": [],
    },
    {
        "layer": "the trace itself",
        "metrics": ["trace.unattributed_share", "trace.overhead"],
        "moves": ["health check, not a gain"],
        "on": ["all"],
        "unchanged_on": [],
    },
]


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes", "bytes_read")):
        return "bytes"
    if name.endswith(("_share", "_fraction", ".overhead")):
        return "ratio"
    if name.endswith("_per_block"):
        return "calls/block"
    return "count"


#: Unit of every per-layer metric, in :data:`LAYER_MAP` order.
UNITS: dict[str, str] = {
    name: _unit(name) for group in LAYER_MAP for name in group["metrics"]
}


def _targets() -> list[tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    from repro.clustering.birch_plus import BirchPlusMaintainer
    from repro.clustering.cftree import CFTree
    from repro.core.gemm import GEMM
    from repro.core.session import MiningSession
    from repro.deviation.estimate import SampledDeviationEstimator
    from repro.itemsets.borders import BordersMaintainer
    from repro.itemsets.counting import SupportCounter
    from repro.itemsets.tidlist import TidListStore
    from repro.scheduling.policy import MaintenanceScheduler
    from repro.storage.engine import BlockBackend
    from repro.storage.persist import ModelVault

    # The package namespaces re-export functions under their module
    # names, so the defining modules are looked up directly.
    apriori = importlib.import_module("repro.itemsets.apriori")
    borders = importlib.import_module("repro.itemsets.borders")
    birch_plus = importlib.import_module("repro.clustering.birch_plus")
    targets: list[tuple[Any, str, str]] = [
        (MiningSession, "ingest", "session.ingest"),
        (MiningSession, "observe", "session.observe"),
        (MiningSession, "maintain", "session.maintain"),
        (GEMM, "observe", "gemm.observe"),
        (GEMM, "observe_run", "gemm.observe_run"),
        (BordersMaintainer, "build", "borders.build"),
        (BordersMaintainer, "add_block", "borders.add_block"),
        (BordersMaintainer, "clone", "borders.clone"),
        (BirchPlusMaintainer, "build", "birch.build"),
        (BirchPlusMaintainer, "add_block", "birch.add_block"),
        (BirchPlusMaintainer, "clone", "birch.clone"),
        (apriori, "apriori", "apriori"),
        (borders, "apriori", "apriori"),
        (TidListStore, "materialize_block", "tidlist.materialize"),
        (TidListStore, "compress_block", "tidlist.compress"),
        (ModelVault, "put", "storage.vault_put"),
        (ModelVault, "get", "storage.vault_get"),
        (SampledDeviationEstimator, "sketch", "deviation.sketch"),
        (SampledDeviationEstimator, "estimate", "deviation.estimate"),
        (CFTree, "insert_points", "cftree.insert"),
        (birch_plus, "build_model", "birch.phase2"),
    ]
    # Overrides are wrapped on the class that defines them, so every
    # concrete counter, backend and scheduler is covered.
    for owner, attr, name in (
        (SupportCounter, "count_batch", "counting.count_batch"),
        (BlockBackend, "ingest", "storage.backend_ingest"),
        (BlockBackend, "notify_expired", "storage.expire"),
        (MaintenanceScheduler, "decide", "scheduling.decide"),
    ):
        for cls in _with_subclasses(owner):
            if attr in vars(cls):
                targets.append((cls, attr, name))
    return targets


def _with_subclasses(cls: type) -> list[type]:
    """``cls`` and every subclass imported so far, each once."""
    found = {cls: None}
    for sub in cls.__subclasses__():
        found.update(dict.fromkeys(_with_subclasses(sub)))
    return list(found)


class Tracer:
    """Records one span per wrapped call while installed.

    Spans are kept in memory as ``[name, start, end, parent, result]``
    lists (``parent`` is an index into :attr:`spans`, ``-1`` at the
    root; ``result`` is the wrapped call's return value for the few
    entry points whose result is tallied).
    """

    #: Span names whose return value the metrics need.
    KEEP_RESULT = frozenset({"storage.expire", "scheduling.decide"})

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        """Wrap every target (call :meth:`uninstall` before installing again)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Forget recorded spans (wrappers stay installed)."""
        self.spans.clear()
        self._stack.clear()

    def _wrap(self, original: Callable[..., Any], name: str) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack
        keep = name in self.KEEP_RESULT
        clock = time.perf_counter
        counted = name == "counting.count_batch"

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            if counted:
                span[4] = len(args[1])
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep:
                span[4] = result
            return result

        return traced


class SpanTable:
    """Derived views over one traced repetition's spans."""

    def __init__(self, spans: list[list[Any]]) -> None:
        self.spans = spans
        self.children_time = [0.0] * len(spans)
        #: Names of each span's ancestors (a parent precedes its children).
        self.ancestors: list[frozenset[str]] = []
        for span in spans:
            parent = span[3]
            if parent >= 0:
                self.children_time[parent] += span[2] - span[1]
                self.ancestors.append(
                    self.ancestors[parent] | {spans[parent][0]}
                )
            else:
                self.ancestors.append(frozenset())

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span[2] - span[1]

    def self_time(self, index: int) -> float:
        return self.duration(index) - self.children_time[index]

    def outermost(self, name: str) -> list[int]:
        """Spans of ``name`` not nested in another span of ``name``."""
        return [
            i
            for i, span in enumerate(self.spans)
            if span[0] == name and name not in self.ancestors[i]
        ]

    def inclusive_s(self, name: str) -> float:
        return sum(self.duration(i) for i in self.outermost(name))

    def self_s(self, name: str) -> float:
        return sum(
            self.self_time(i) for i, span in enumerate(self.spans) if span[0] == name
        )

    def calls(self, name: str) -> int:
        return len(self.outermost(name))

    def root_s(self) -> float:
        """Time covered by root spans; equals the sum of all self times."""
        return sum(self.duration(i) for i, span in enumerate(self.spans) if span[3] < 0)

    def self_by_layer(self) -> dict[str, float]:
        """Self time summed per layer (the span name's first component)."""
        layers: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            layer = span[0].split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + self.self_time(i)
        return layers


def disk_bytes(root: str | None) -> int:
    """Bytes of every regular file under ``root`` (0 when absent)."""
    if root is None or not os.path.isdir(root):
        return 0
    total = 0
    for directory, _, files in os.walk(root):
        for file_name in files:
            total += os.path.getsize(os.path.join(directory, file_name))
    return total


def layer_metrics(
    table: SpanTable,
    session: Any,
    wall_s: float,
    steady_start: float,
    steady_blocks: int,
) -> dict[str, float]:
    """Every per-layer metric of one traced repetition.

    ``wall_s`` is the repetition's traced wall time (set-up, stream and
    final flush); ``steady_start`` is the clock reading at the first
    steady-state arrival, which splits warm-up work from steady work.
    Counts that describe end-of-stream state come from public accessors.
    """
    spans = table.spans
    am_steady = sum(
        1
        for i, span in enumerate(spans)
        if span[0] in AM_SPANS
        and span[1] >= steady_start
        and not AM_SPANS & table.ancestors[i]
        and any(name.startswith("gemm.") for name in table.ancestors[i])
    )
    decisions = [spans[i] for i in table.outermost("scheduling.decide")]
    steady_decisions = [span[4] for span in decisions if span[1] >= steady_start]
    deferred = sum(1 for decision in steady_decisions if not decision.maintain)
    staleness = sum(1 for span in decisions if span[4].reason == "staleness")

    maintainer = session.maintainer
    context = getattr(maintainer, "context", None)
    tidlists = getattr(context, "tidlists", None)
    engine = session.engine
    distinct = engine.distinct_model_count() if hasattr(engine, "distinct_model_count") else 0
    model = session.current_model()
    tree = getattr(model, "tree", None)
    backend = session.backend
    vault = session.vault

    sketch_s = table.inclusive_s("deviation.sketch")
    estimate_s = table.inclusive_s("deviation.estimate")
    return {
        "borders.add_block_self_s": table.self_s("borders.add_block"),
        "borders.add_block_calls": table.calls("borders.add_block"),
        "borders.build_s": table.inclusive_s("borders.build"),
        "apriori.self_s": table.self_s("apriori"),
        "apriori.calls": table.calls("apriori"),
        "counting.count_batch_s": table.inclusive_s("counting.count_batch"),
        "counting.count_batch_calls": table.calls("counting.count_batch"),
        "counting.itemsets_counted": sum(
            spans[i][4] for i in table.outermost("counting.count_batch")
        ),
        "tidlist.materialize_s": table.inclusive_s("tidlist.materialize"),
        "tidlist.compress_s": table.inclusive_s("tidlist.compress"),
        "tidlist.bytes": tidlists.total_nbytes() if tidlists is not None else 0,
        "gemm.observe_self_s": table.self_s("gemm.observe"),
        "gemm.observe_run_self_s": table.self_s("gemm.observe_run"),
        "gemm.am_calls": am_steady,
        "gemm.am_calls_per_block": am_steady / steady_blocks,
        "gemm.distinct_models": distinct,
        "scheduling.decide_s": table.inclusive_s("scheduling.decide"),
        "scheduling.deferred_fraction": deferred / max(len(steady_decisions), 1),
        "scheduling.staleness_flushes": staleness,
        "deviation.sketch_s": sketch_s,
        "deviation.estimate_s": estimate_s,
        "deviation.estimate_share": (sketch_s + estimate_s) / wall_s,
        "birch.add_block_s": table.inclusive_s("birch.add_block"),
        "birch.clone_s": table.inclusive_s("birch.clone"),
        "birch.phase2_s": table.inclusive_s("birch.phase2"),
        "cftree.insert_s": table.inclusive_s("cftree.insert"),
        "cftree.rebuilds": tree.rebuilds if tree is not None else 0,
        "storage.backend_ingest_s": table.inclusive_s("storage.backend_ingest"),
        "storage.expire_s": table.inclusive_s("storage.expire"),
        "storage.demotions": sum(
            spans[i][4] for i in table.outermost("storage.expire")
        ),
        "storage.bytes_read": backend.stats.bytes_read if backend is not None else 0,
        "storage.disk_bytes": disk_bytes(getattr(backend, "root", None)),
        "storage.vault_put_s": table.inclusive_s("storage.vault_put"),
        "storage.vault_get_s": table.inclusive_s("storage.vault_get"),
        "storage.vault_puts": table.calls("storage.vault_put"),
        "storage.vault_gets": table.calls("storage.vault_get"),
        "storage.vault_stored_bytes": vault.stored_nbytes() if vault is not None else 0,
        "session.self_s": sum(
            table.self_s(name)
            for name in ("session.ingest", "session.observe", "session.maintain")
        ),
        "trace.unattributed_share": (wall_s - table.root_s()) / wall_s,
    }

"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of DEMON's §5 at laptop
scale.  Dataset *structure* (items, patterns, transaction length,
block-size *ratios*, support thresholds) follows the paper; absolute
sizes are scaled down by :data:`SCALE` (see DESIGN.md, substitutions).
Datasets are generated once per pytest session and cached here.

Set the environment variable ``DEMON_BENCH_SCALE`` to change the scale
(e.g. ``DEMON_BENCH_SCALE=0.01`` doubles the default dataset sizes).
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache

from repro.core.blocks import Block, make_block
from repro.datagen.clusters import ClusterDataGenerator, ClusterDataParams
from repro.datagen.quest import QuestGenerator, QuestParams

#: Fraction of the paper's dataset sizes used by default (2M -> 10K).
SCALE = float(os.environ.get("DEMON_BENCH_SCALE", "0.005"))


def scaled(n_paper: int) -> int:
    """Scale one of the paper's absolute sizes."""
    return max(int(n_paper * SCALE), 10)


@lru_cache(maxsize=None)
def quest_blocks(
    name: str,
    n_blocks: int,
    seed: int = 0,
    first_block_id: int = 1,
) -> tuple[Block, ...]:
    """Blocks drawn from one Quest configuration, sizes already scaled.

    ``name`` is a paper-style dataset name; the named transaction count
    is split evenly across ``n_blocks`` blocks.
    """
    params = QuestParams.from_name(name, scale=SCALE)
    generator = QuestGenerator(params, seed=seed)
    per_block = max(params.n_transactions // n_blocks, 10)
    return tuple(
        generator.block(first_block_id + i, count=per_block)
        for i in range(n_blocks)
    )


@lru_cache(maxsize=None)
def quest_increment(
    name: str, count: int, block_id: int, seed: int = 1
) -> Block:
    """One additional block with its own distribution parameters."""
    params = QuestParams.from_name(name, scale=SCALE)
    generator = QuestGenerator(params, seed=seed)
    return generator.block(block_id, count=count)


@lru_cache(maxsize=None)
def cluster_points(name: str, count: int, seed: int = 0, noise: float = 0.02):
    """Points from one cluster-data configuration (tuple, cached)."""
    params = ClusterDataParams.from_name(name, scale=SCALE, noise_fraction=noise)
    generator = ClusterDataGenerator(params, seed=seed)
    return tuple(generator.points(count))


def points_block(name: str, count: int, block_id: int, seed: int = 0) -> Block:
    """A block of cluster points."""
    return make_block(block_id, cluster_points(name, count, seed=seed))


#: File every paper-style table is appended to (the benchmark run's
#: primary artifact — pytest captures stdout, so stdout alone would
#: lose the tables).  Override with DEMON_BENCH_TABLES; truncated at
#: the start of each pytest session by benchmarks/conftest.py.
TABLES_PATH = os.environ.get(
    "DEMON_BENCH_TABLES",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "bench_tables.txt"),
)


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Emit one paper-style results table.

    The table goes to stdout (visible with ``pytest -s``) *and* is
    appended to :data:`TABLES_PATH` — these rows are the benchmark's
    deliverable, and pytest's default capture must not swallow them.
    """
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    rendered = [
        f"\n{title}",
        "=" * len(line),
        line,
        "-" * len(line),
    ]
    rendered.extend(
        "  ".join(str(v).ljust(w) for v, w in zip(row, widths)) for row in rows
    )
    text = "\n".join(rendered)
    print(text)
    with open(TABLES_PATH, "a") as sink:
        sink.write(text + "\n")


#: Source of ``own_peak_rss_kb()``, prepended to the scripts that the
#: peak-RSS guards run in child processes.  On Linux ``ru_maxrss``
#: survives ``exec`` and so includes the RSS the parent had when it
#: forked the child: a parent holding 400 MB makes an ~13 MB child
#: report ~420 MB.  ``VmHWM`` is the high-water mark of the child's own
#: address space; ``ru_maxrss`` is the fallback where ``/proc`` is
#: absent.
CHILD_PEAK_RSS_SOURCE = """
def own_peak_rss_kb():
    import resource
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
"""


def fmt_ms(seconds: float) -> str:
    """Milliseconds with one decimal, as a string."""
    return f"{seconds * 1e3:.1f}"


#: Machine-readable rows collected by :func:`emit_json` during one
#: benchmark session.  benchmarks/conftest.py writes them out as a
#: single JSON document when ``--json PATH`` (or ``DEMON_BENCH_JSON``)
#: is given; otherwise collection is free and nothing is written.
JSON_ROWS: list[dict] = []


def emit_json(bench: str, **fields) -> None:
    """Collect one machine-readable benchmark row.

    ``bench`` names the benchmark (e.g. ``fig2_counting``); ``fields``
    are flat JSON-serializable measurements (times in seconds, byte
    counts as ints).  Rows complement :func:`print_table` — the table is
    for humans, the JSON for CI perf gates and regression tracking.
    """
    row: dict = {"bench": bench}
    row.update(fields)
    JSON_ROWS.append(row)


def write_json(path: str) -> None:
    """Write all collected rows as one JSON document.

    The document records :data:`SCALE` so a baseline regenerated at a
    different ``DEMON_BENCH_SCALE`` is never compared apples-to-oranges.
    Row order is collection order (deterministic under pytest's stable
    test ordering).
    """
    import json

    document = {
        "schema": 1,
        "scale": SCALE,
        "rows": JSON_ROWS,
    }
    with open(path, "w") as sink:
        json.dump(document, sink, indent=2, sort_keys=True)
        sink.write("\n")

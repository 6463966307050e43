"""Smoke test of the end-to-end benchmark on tiny streams.

Run from the repository root (it takes about a minute and a half)::

    python3 benchmarks/e2e/smoke.py

It checks, for every workload, that an untraced and a traced run emit
every metric ``BENCHMARK.json`` names with the unit it names; that the
oracle passes the maintained model and catches the same model with one
count corrupted; and that layer self times plus unattributed time add
up to the traced wall.  It also runs ``python -m tools.demonlint`` over
the benchmark's files, which must come back clean.  Exits non-zero on
the first failed check.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import shutil
import subprocess
import sys

import run

sys.path.insert(0, run.SRC)

import workloads  # noqa: E402  (needs the source tree on the path)
from layertrace import SpanTable, Tracer  # noqa: E402

TINY_BLOCKS = 6
TINY_SIZE = 200


def expect(condition: bool, message: str = "check failed") -> None:
    """An assertion that survives ``python -O``."""
    if not condition:
        raise AssertionError(message)


def tiny(workload: workloads.Workload) -> workloads.Workload:
    """The same workload over six blocks of 200 records."""
    make = functools.partial(workload.make_stream, blocks=TINY_BLOCKS, size=TINY_SIZE)
    return dataclasses.replace(workload, make_stream=make)


def declared() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units as BENCHMARK.json names them."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def check_metrics(workload: workloads.Workload, trace: bool, wanted: dict[str, str]) -> None:
    streams = workload.streams(seed=3, count=2)
    result = run.execute(workload, streams, seconds=0.0, trace=trace)
    expect(result["correct"], f"{workload.name}: oracle or operation failed")
    expect(result["failed"] == 0 and result["attempted"] > 0)
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    expect(
        emitted == wanted,
        f"{workload.name} trace={int(trace)}: emitted {emitted}, declared {wanted}",
    )
    for name, entry in result["metrics"].items():
        expect(math.isfinite(entry["value"]), f"{name} is not a finite number")


def check_oracle_catches_corruption(workload: workloads.Workload) -> None:
    streams = workload.streams(seed=5, count=1)
    workdir = run.make_workdir(workload.name)
    rep, session = run.run_repetition(
        workload, streams[0], 0, workdir, traced=False, capture=False
    )
    try:
        expect(not rep.failed)
        expect(run.oracle(workload, streams, [rep], session) == (1, 0))
        workload.corrupt(session.current_model())
        expect(
            run.oracle(workload, streams, [rep], session) == (1, 1),
            f"{workload.name}: oracle missed a corrupted count",
        )
    finally:
        run.dispose(session)
        shutil.rmtree(workdir)


def check_self_times_cover_wall(workload: workloads.Workload) -> None:
    streams = workload.streams(seed=7, count=1)
    workdir = run.make_workdir(workload.name)
    tracer = Tracer()
    tracer.install()
    try:
        rep, session = run.run_repetition(
            workload, streams[0], 0, workdir, traced=True, capture=False
        )
    finally:
        tracer.uninstall()
    try:
        expect(not rep.failed)
        table = SpanTable(tracer.spans)
        self_total = sum(table.self_by_layer().values())
        unattributed = rep.wall_s - table.root_s()
        expect(unattributed >= 0.0)
        expect(
            math.isclose(self_total + unattributed, rep.wall_s, rel_tol=1e-9),
            f"{workload.name}: self {self_total} + unattributed {unattributed} "
            f"!= wall {rep.wall_s}",
        )
        names = {span[0] for span in tracer.spans}
        expect("session.ingest" in names and "storage.backend_ingest" in names)
    finally:
        run.dispose(session)
        shutil.rmtree(workdir)


def check_lint_clean() -> None:
    lint = subprocess.run(
        [sys.executable, "-m", "tools.demonlint", os.path.relpath(run.HERE, run.ROOT)],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    expect(lint.returncode == 0, f"demonlint is not clean:\n{lint.stdout}{lint.stderr}")


def main() -> int:
    end_to_end, per_layer = declared()
    expect(end_to_end == run.END_TO_END)
    for workload in workloads.WORKLOADS.values():
        small = tiny(workload)
        check_metrics(small, trace=False, wanted=end_to_end)
        check_metrics(small, trace=True, wanted=per_layer)
        check_oracle_catches_corruption(small)
        check_self_times_cover_wall(small)
        print(f"ok {workload.name}")
    check_lint_clean()
    print("ok demonlint")
    run.remove_work_root()
    return 0


if __name__ == "__main__":
    sys.exit(main())

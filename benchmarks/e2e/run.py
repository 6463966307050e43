"""End-to-end maintenance benchmark: MiningSession over three workloads.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload uw-itemsets --seed 1 --seconds 36 --trace 0
    python3 benchmarks/e2e/run.py --workload all --seed 1 --seconds 36

One run generates its record streams from ``--seed`` before any clock
starts, then measures *repetitions* for about ``--seconds`` seconds.  A
repetition builds a fresh :class:`~repro.core.session.MiningSession`,
feeds it the warm-up blocks and flushes (``setup_s``), then feeds the
remaining blocks one ``session.ingest(records)`` at a time in a closed
loop — the next block goes in only after the previous call returned —
and ends with ``session.flush()``.  After the timed region the oracle
rebuilds ``A_M`` from scratch over ``session.current_selection()`` and
compares it with the maintained model, at the end of the last
repetition's stream and at one mid-stream point of the first.

Times are reported at a reference speed.  The host shares its cores,
and how fast one core runs swings by half and more over seconds to
minutes, so a raw wall time says as much about the neighbours as about
the program.  Each repetition therefore also times a fixed pure-Python
calibration loop, outside every timed region: once before set-up and
once after each timed piece (set-up, every steady arrival, the flush).
Each piece's time is multiplied by ``CALIBRATION_NOMINAL_S`` over the
mean of the two calibration times on either side of it, which cancels
the host's speed while it ran and leaves a change in the program's own
cost in full (the loop runs no program code).  The raw values and the
run's median calibration time are printed above the result line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions of the same stream and reports the
per-layer metrics of the traced ones (see ``layertrace.py``), plus the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it print every metric by name with its unit.  The exit
code is non-zero when any operation failed or the oracle found a
mismatch.  ``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Scratch space for tiered block files, inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".e2e-bench")

#: End-to-end metrics and their units, reported with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "block_latency_p50_ms": "ms",
    "records_per_s": "records/s",
    "peak_rss_mb": "MiB",
    "state_mb": "MiB",
    "blocks_per_catchup": "blocks",
}

MIB = float(1 << 20)

#: The calibration loop's time the reported times are scaled to: about
#: its quickest run median on the 2-vCPU host the bounds were set on
#: (7 to 15 ms were seen), so there reported times read close to raw
#: ones in the host's quiet phases.
CALIBRATION_NOMINAL_S = 0.008


def calibration_loop() -> int:
    """Fill a dict of 30 000 tuple keys, as the program fills its lattice.

    Of the loops tried, this one (a few MiB of fresh tuples and dict
    slots) slowed most like the program when the host was contended; a
    loop over a few hundred keys slowed less than the program did.
    """
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(30000):
        key = (i % 211, i % 173, i % 7)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def calibrate(samples: list[float]) -> float:
    """Time one calibration loop into ``samples``; returns its time.

    The cyclic collector is paused around the loop: a collection that
    the loop's allocations triggered would walk the program's heap, and
    the host's speed would then read slower the more the program holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        calibration_loop()
        samples.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return samples[-1]


@dataclass
class Repetition:
    """What one fresh session did over one stream."""

    stream_index: int
    traced: bool
    setup_s: float = 0.0
    stream_s: float = 0.0
    wall_s: float = 0.0
    steady_start: float = 0.0
    latencies: list[float] = field(default_factory=list)
    flush_s: float = 0.0
    #: Mean calibration time around set-up, each arrival and the flush.
    setup_cal: float = 0.0
    latency_cal: list[float] = field(default_factory=list)
    flush_cal: float = 0.0
    steady_records: int = 0
    arrivals: int = 0
    catchups: int = 0
    pending_sum: int = 0
    state_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    #: ``(selection, canonical model)`` captured mid-stream for the oracle.
    sample: tuple[list[int], Any] | None = None
    layers: dict[str, float] | None = None
    layer_self: dict[str, float] | None = None
    #: Every calibration loop time taken during the repetition.
    calibration: list[float] = field(default_factory=list)


def state_bytes(session: Any) -> int:
    """Bytes the session holds for its window: disk, vault, TID-lists."""
    from layertrace import disk_bytes

    total = disk_bytes(getattr(session.backend, "root", None))
    if session.vault is not None:
        total += session.vault.stored_nbytes()
    tidlists = getattr(getattr(session.maintainer, "context", None), "tidlists", None)
    if tidlists is not None:
        total += tidlists.total_nbytes()
    return total


def dispose(session: Any) -> None:
    """Release a session's block storage (and its files, if any)."""
    destroy = getattr(session.backend, "destroy", None)
    if callable(destroy):
        destroy()
    else:
        session.backend.close()


def run_repetition(
    workload: Any, stream: list[Any], index: int, workdir: str, traced: bool, capture: bool
) -> tuple[Repetition, Any]:
    """Set up one session, stream every block through it, and flush."""
    clock = time.perf_counter
    rep = Repetition(stream_index=index, traced=traced)
    steady = stream[workload.warmup:]
    rep.steady_records = sum(len(records) for records in steady)
    samples = rep.calibration
    session = None
    calibrate(samples)
    try:
        begin = clock()
        session = workload.make_session(workdir)
        for records in stream[: workload.warmup]:
            rep.attempted += 1
            session.ingest(records)
        rep.attempted += 1
        session.flush()
        rep.setup_s = clock() - begin
        paused = calibrate(samples)
        rep.setup_cal = statistics.fmean(samples[-2:])
        rep.steady_start = clock()
        for position, records in enumerate(steady):
            rep.attempted += 1
            started = clock()
            report = session.ingest(records)
            rep.latencies.append(clock() - started)
            rep.arrivals += 1
            rep.catchups += report.maintained > 0
            rep.pending_sum += session.pending_maintenance
            paused += calibrate(samples)
            rep.latency_cal.append(statistics.fmean(samples[-2:]))
            if (
                capture
                and rep.sample is None
                and 2 * position >= len(steady)
                and session.pending_maintenance == 0
            ):
                # The first caught-up state in the second half of the
                # stream.  Nothing is pending, so these reads do not
                # catch up; their time is left out of the stream's.
                held = clock()
                rep.sample = (
                    session.current_selection(),
                    workload.canonical(session.current_model()),
                )
                paused += clock() - held
        rep.attempted += 1
        started = clock()
        rep.catchups += session.flush() > 0
        end = clock()
        rep.flush_s = end - started
        rep.stream_s = end - rep.steady_start - paused
        rep.wall_s = end - begin - paused
        calibrate(samples)
        rep.flush_cal = statistics.fmean(samples[-2:])
        rep.state_bytes = state_bytes(session)
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc()
        rep.failed += 1
    return rep, session


def check_model(workload: Any, stream: list[Any], selection: list[int], value: Any) -> bool:
    """Whether ``value`` equals ``A_M`` from scratch over ``selection``."""
    reference = workload.reference(stream, selection)
    return workload.canonical(reference) == value


def oracle(
    workload: Any, streams: list[Any], reps: list[Repetition], last: Any
) -> tuple[int, int]:
    """Run every oracle check; returns ``(attempted, failed)``."""
    checks: list[tuple[str, int, list[int], Any]] = []
    first = reps[0]
    if first.sample is not None:
        checks.append(("mid-stream", first.stream_index, *first.sample))
    if last is not None and not reps[-1].failed:
        checks.append(
            (
                "end-of-stream",
                reps[-1].stream_index,
                last.current_selection(),
                workload.canonical(last.current_model()),
            )
        )
    failed = 0
    for label, index, selection, value in checks:
        try:
            ok = check_model(workload, streams[index], selection, value)
        except Exception:  # an oracle that raises is a failed check
            traceback.print_exc()
            ok = False
        print(f"# oracle {label} stream={index} blocks={selection}: {'ok' if ok else 'MISMATCH'}")
        failed += not ok
    return len(checks), failed


def measure(
    workload: Any, streams: list[Any], seconds: float, trace: bool, work_root: str
) -> tuple[list[Repetition], Any, dict[str, Any]]:
    """Repeat fresh sessions until the time budget is spent.

    Untraced runs cycle through the streams.  Traced runs alternate an
    untraced and a traced repetition of the same stream, so the tracing
    overhead compares equal work.  Returns the repetitions, the last
    repetition's live session (for the oracle) and its resolved config.
    """
    from layertrace import SpanTable, Tracer, layer_metrics

    tracer = Tracer() if trace else None
    reps: list[Repetition] = []
    last: Any = None
    config: dict[str, Any] = {}
    started = time.perf_counter()
    step = 2 if trace else 1
    while True:
        position = len(reps)
        index = (position // step) % len(streams)
        traced = tracer is not None and position % 2 == 1
        workdir = tempfile.mkdtemp(prefix="rep-", dir=work_root)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            rep, session = run_repetition(
                workload, streams[index], index, workdir, traced, capture=position == 0
            )
        finally:
            if traced:
                tracer.uninstall()
        if session is not None and not config:
            config = {
                "backend": session.backend.spec(),
                "scheduler": session.scheduler.spec(),
                "workers": session.workers,
            }
        if traced and not rep.failed:
            table = SpanTable(tracer.spans)
            rep.layers = layer_metrics(
                table,
                session,
                rep.wall_s,
                rep.steady_start,
                len(rep.latencies),
            )
            rep.layer_self = table.self_by_layer()
            tracer.reset()
        if last is not None:
            dispose(last)
        last = session
        reps.append(rep)
        if rep.failed:
            break
        if len(reps) % step:
            continue
        # Stop where the run ends closest to the budget.
        elapsed = time.perf_counter() - started
        typical = statistics.median(r.wall_s for r in reps) * step
        if elapsed + typical / 2 > seconds:
            break
    return reps, last, config


def end_to_end(reps: list[Repetition], calibrated: bool = True) -> dict[str, float]:
    """The end-to-end metrics over all (untraced) repetitions.

    Latency is the median of every steady arrival and set-up the
    median over repetitions.  The rates are ratios of sums over the
    whole run: whether a stream's drift estimates trigger one catch-up
    more or less shifts a sum a little, where it would flip a median of
    per-repetition values between two modes.  Each timed piece is
    brought to the reference speed (see the module docstring) unless
    ``calibrated`` is false.
    """

    def scaled(seconds: float, calibration: float) -> float:
        return seconds * CALIBRATION_NOMINAL_S / calibration if calibrated else seconds

    arrivals = [
        [scaled(x, cal) for x, cal in zip(rep.latencies, rep.latency_cal)] for rep in reps
    ]
    streams = [
        sum(times) + scaled(rep.flush_s, rep.flush_cal) for rep, times in zip(reps, arrivals)
    ]
    return {
        "setup_s": statistics.median(scaled(rep.setup_s, rep.setup_cal) for rep in reps),
        "block_latency_p50_ms": statistics.median(x for times in arrivals for x in times)
        * 1e3,
        "records_per_s": sum(rep.steady_records for rep in reps) / sum(streams),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB,
        "state_mb": statistics.median(rep.state_bytes for rep in reps) / MIB,
        "blocks_per_catchup": sum(rep.arrivals for rep in reps)
        / sum(rep.catchups for rep in reps),
    }


def per_layer(reps: list[Repetition]) -> dict[str, float]:
    """Median of every per-layer metric over the traced repetitions."""
    from layertrace import UNITS

    traced = [rep for rep in reps if rep.layers is not None]
    metrics = {
        name: statistics.median(rep.layers[name] for rep in traced)
        for name in UNITS
        if name != "trace.overhead"
    }
    untraced = {rep.stream_index: rep for rep in reps if not rep.traced}
    metrics["trace.overhead"] = statistics.median(
        rep.stream_s / untraced[rep.stream_index].stream_s for rep in traced
    )
    return metrics


def make_workdir(name: str) -> str:
    """A fresh scratch directory for one run, inside the checkout."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)


def remove_work_root() -> None:
    """Drop the scratch root once no run uses it any more."""
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass  # absent, or another run still uses it


def layer_shares(reps: list[Repetition]) -> str:
    """Median self-time share of each layer over the traced repetitions."""
    shares: dict[str, list[float]] = {}
    for rep in reps:
        for layer, seconds in (rep.layer_self or {}).items():
            shares.setdefault(layer, []).append(seconds / rep.wall_s)
    medians = {layer: statistics.median(values) for layer, values in shares.items()}
    return ", ".join(
        f"{layer} {share:.3f}"
        for layer, share in sorted(medians.items(), key=lambda item: -item[1])
    )


def execute(
    workload: Any, streams: list[Any], seconds: float, trace: bool
) -> dict[str, Any]:
    """Measure, check and print one workload; returns the result object."""
    from layertrace import UNITS

    work_root = make_workdir(workload.name)
    last = None
    try:
        reps, last, config = measure(workload, streams, seconds, trace, work_root)
        checked, mismatched = oracle(workload, streams, reps, last)
    finally:
        if last is not None:
            dispose(last)
        shutil.rmtree(work_root, ignore_errors=True)
        remove_work_root()
    attempted = sum(rep.attempted for rep in reps) + checked
    failed = sum(rep.failed for rep in reps) + mismatched

    print(f"# why: {workload.why}")
    print(f"# config: {json.dumps(config, sort_keys=True)}")
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    if failed == 0 and trace:
        metrics, units = per_layer(reps), UNITS
        print(f"# self-time share by layer: {layer_shares(reps)}")
    elif failed == 0:
        untraced = [rep for rep in reps if not rep.traced]
        calibration = statistics.median(x for rep in untraced for x in rep.calibration)
        metrics, units = end_to_end(untraced), END_TO_END
        raw = end_to_end(untraced, calibrated=False)
        print(
            f"# calibration loop median = {calibration * 1e3:.4f} ms over "
            f"{sum(len(rep.calibration) for rep in untraced)} calls "
            f"(nominal {CALIBRATION_NOMINAL_S * 1e3:g} ms); raw: "
            + ", ".join(
                f"{name} = {raw[name]:.6g}"
                for name in ("setup_s", "block_latency_p50_ms", "records_per_s")
            )
        )
        samples = sum(len(rep.latencies) for rep in untraced)
        pending = sum(rep.pending_sum for rep in untraced) / max(
            sum(rep.arrivals for rep in untraced), 1
        )
        print(
            f"# {len(untraced)} repetitions over streams "
            f"{sorted({rep.stream_index for rep in untraced})}; "
            f"block latency samples = {samples}; "
            f"model_staleness_blocks (mean pending after arrival) = {pending:.3f}"
        )
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_fraction = {failed / max(attempted, 1):.6g} ratio")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def run_one(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    print(
        f"# workload={workload.name} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} nproc={os.cpu_count()} "
        f"python={platform.python_version()}"
    )
    streams = workload.streams(args.seed)
    result = execute(workload, streams, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; non-zero if any failed."""
    from workloads import WORKLOADS

    summary: dict[str, dict[str, Any]] = {}
    correct = True
    attempted = failed = 0
    for name in WORKLOADS:
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        print(f"## {name}", flush=True)
        child = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        correct = correct and child.returncode == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            summary[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": summary}))
    return 0 if correct else 1


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # Configuration is passed explicitly; ambient toggles must not leak in.
    for key in [k for k in os.environ if k.startswith(("DEMON_", "REPRO_"))]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r} (choose from "
            f"{', '.join(WORKLOADS)} or all)",
            file=sys.stderr,
        )
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""StreamWorks benchmark: replay one generated workload through the engine.

Usage (from the repository root)::

    python3 swbench/run.py --workload news-burst --seed 1 --seconds 48 --trace 0

Workloads: ``cyber-eventtime`` and ``news-burst`` (see
``swbench/workloads.py`` and ``swbench/README.md``).  One process, one
thread, the public ``StreamWorksEngine`` API only.  A run:

1. generates the workload from ``--seed`` and computes the reference event
   list with the exact per-record path (``process_record`` over the
   time-sorted stream), untimed;
2. replays the stream once, untimed, reading ``metrics()`` at every batch
   boundary for the exact state peaks and work counters;
3. measures in rounds, as many as fill ``--seconds`` on the reference host
   (at least ``MIN_ROUNDS``; see :meth:`Bench.rounds`).
   ``--trace 0``: each round times engine set-up (construction plus every
   ``register_query``), one closed-loop pass (fixed batches back to back),
   the workload's ``checkpoints_per_round`` ``checkpoint``s of that pass's
   live end-of-run state, each with its ``restore`` into a fresh engine,
   and one open-loop pass (record ``i`` due
   ``i / rate`` seconds after the pass starts).  ``--trace 1``: each round
   runs one untraced closed-loop pass and one traced round (set-up,
   closed-loop pass, checkpoint, restore) and reports per-layer self time,
   counts and the tracing slowdown.

Rounds interleave the phases so every metric samples the whole run: the
host's speed swings by up to 1.8x in phases lasting seconds to minutes,
and a slow phase only ever adds time, so timings are reported as minima
over the rounds (for throughput per call, see :meth:`Bench.throughput`;
for detection latency, each percentile's lowest value over the open-loop
passes).  Set-up time is the median of every
set-up.

Every ``process_batch``, ``flush``, ``checkpoint`` and ``restore`` call is an
operation.  It fails if it raises, if the events it returns differ from the
matching slice of the reference (a restore: if the restored engine differs),
or, in the open loop, if it delivers an event after the driver fell more
than ``LATENCY_LIMIT_S`` behind schedule.  The exact work counters must also
repeat in every pass.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when the run completed, even with failed operations, and 2 when the
engine's sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE_DIR = ROOT / "src"
WORK_DIR = ROOT / ".swbench-work"

#: A call that delivers an event after the driver fell further than this
#: behind the open-loop schedule counts as failed.
LATENCY_LIMIT_S = 1.0
MIN_ROUNDS = 3
#: Nominal wall seconds of one measurement round on the reference host; a
#: run makes ``--seconds / ROUND_SECONDS`` rounds (see :meth:`Bench.rounds`).
ROUND_SECONDS = 6.0
SETUPS_PER_ROUND = 20

END_TO_END = (
    ("throughput_eps", "1/s"),
    ("detect_p50_ms", "ms"),
    ("detect_p99_ms", "ms"),
    ("setup_s", "s"),
    ("checkpoint_s", "s"),
    ("restore_s", "s"),
    ("snapshot_mb", "MB"),
    ("state_peak", "count"),
    ("rss_peak_mb", "MB"),
    ("ok_ratio", "ratio"),
)

PER_LAYER = (
    ("streaming.self_s", "s"),
    ("streaming.held_peak", "count"),
    ("streaming.late", "count"),
    ("graph.ingest.self_s", "s"),
    ("graph.evict.self_s", "s"),
    ("graph.scan.self_s", "s"),
    ("graph.edges_peak", "count"),
    ("stats.self_s", "s"),
    ("dispatch.calls", "count"),
    ("dispatch.self_s", "s"),
    ("dispatch.prefiltered_ratio", "ratio"),
    ("dispatch.memo_hit_ratio", "ratio"),
    ("compile.leaves_pruned", "count"),
    ("compile.prune_ratio", "ratio"),
    ("engine.self_s", "s"),
    ("local_search.calls", "count"),
    ("local_search.self_s", "s"),
    ("local_search.hit_ratio", "ratio"),
    ("join.attempts", "count"),
    ("join.self_s", "s"),
    ("join.success_ratio", "ratio"),
    ("sjtree.self_s", "s"),
    ("sjtree.partials_peak", "count"),
    ("matcher.self_s", "s"),
    ("dedup.probes", "count"),
    ("dedup.self_s", "s"),
    ("dedup.dup_ratio", "ratio"),
    ("dedup.entries_peak", "count"),
    ("emit.events", "count"),
    ("emit.self_s", "s"),
    ("persistence.write.self_s", "s"),
    ("persistence.read.self_s", "s"),
    ("planner.self_s", "s"),
    ("trace.slowdown", "ratio"),
)


def canonical(events: Sequence[Any]) -> List[Tuple[Any, ...]]:
    """The comparable form of an event list (query, identity, time, sequence)."""
    return [
        (event.query_name, event.match.portable_identity(), event.detected_at, event.sequence)
        for event in events
    ]


def collect_garbage() -> None:
    """Start a timed region with no garbage left over from the previous one.

    The collector stays enabled inside the region, so the collections the
    engine's own allocations trigger count as the engine's cost.
    """
    gc.collect()


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = -(-share * len(ordered) // 1)
    return ordered[max(1, min(int(rank), len(ordered))) - 1]


def work_counters(engine: Any, persisted_only: bool = False) -> Dict[str, int]:
    """Deterministic work counters of one engine (exact for a fixed batching)."""
    metrics = engine.metrics()
    counters = {
        "events": metrics["events_emitted"],
        "leaves_pruned": metrics["columnar"]["leaves_pruned"],
        "joins_attempted": sum(query["joins_attempted"] for query in metrics["queries"].values()),
        "dedup_probes": metrics["sketch"]["dedup_memory"]["probes"],
    }
    if not persisted_only:
        # LocalSearcher counters live in the matcher and restart on restore
        counters["local_search_seeds"] = sum(
            registration.matcher.local_searcher.searches_started
            for registration in engine.queries.values()
        )
    return counters


class Operations:
    """Counts operations and checks each call's events against the reference."""

    def __init__(self, reference: List[Tuple[Any, ...]]):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(reason)

    def call(self, operation: Callable[..., Any], *args: Any) -> Any:
        """Run one engine operation; a raise is noted and becomes ``None``."""
        try:
            return operation(*args)
        except Exception as error:  # noqa: BLE001 - any raise is a failed operation
            self.fail(f"{operation.__name__} raised {type(error).__name__}: {error}")
            return None

    def check_pass(self, label: str, outputs: Sequence[Optional[list]]) -> None:
        """Check one replay: each call's events are the next reference slice.

        ``outputs`` holds one entry per call in call order (``None`` for a
        call that raised, already counted as failed by :meth:`call`).  A
        pass that ends short of the reference fails once more.
        """
        cursor = 0
        for position, events in enumerate(outputs):
            self.attempted += 1
            if events is None:
                continue
            got = canonical(events)
            if got != self.reference[cursor : cursor + len(got)]:
                self.fail(f"{label}: call {position} returned events unlike the reference")
            cursor += len(got)
        if cursor != len(self.reference):
            self.fail(f"{label}: {cursor} events delivered, reference has {len(self.reference)}")


class Bench:
    """One benchmark run over one workload."""

    def __init__(self, workload: Any, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.records = workload.records
        self.batches = [
            self.records[start : start + workload.batch_size]
            for start in range(0, len(self.records), workload.batch_size)
        ]
        self.arrival = {
            (record.source, record.target, record.label, record.timestamp): index
            for index, record in enumerate(self.records)
        }
        self.autosave_path = str(WORK_DIR / "autosave.snapshot")
        self.checkpoint_path = str(WORK_DIR / "checkpoint.snapshot")
        self.reference = self._reference()
        self.ops = Operations(self.reference)
        self.counters: Dict[str, Any] = {}

    def _reference(self) -> List[Tuple[Any, ...]]:
        """Exact per-record path over the time-sorted stream (untimed)."""
        engine = self.workload.build(self.workload.reference_config())
        for record in sorted(self.records, key=lambda record: record.timestamp):
            engine.process_record(record)
        return canonical(engine.events())

    def new_engine(self) -> Any:
        return self.workload.build(self.workload.engine_config(self.autosave_path))

    def rounds(self) -> range:
        """The measurement rounds that fill about ``--seconds`` on the reference host.

        The count depends on ``--seconds`` only, never on the speed of the
        run: a minimum over more rounds reads lower, so a count that grew
        on a fast host would bias the timings.
        """
        return range(max(MIN_ROUNDS, round(self.seconds / ROUND_SECONDS)))

    # ------------------------------------------------------------------
    # untimed passes
    # ------------------------------------------------------------------
    def counter_pass(self) -> None:
        """Replay once reading ``metrics()`` at every batch boundary.

        Records the state peaks and the exact work counters that every
        later pass must reproduce.
        """
        engine = self.new_engine()
        peaks = {"state": 0, "graph_edges": 0, "partials": 0, "dedup_entries": 0, "held": 0}

        def observe() -> None:
            metrics = engine.metrics()
            values = {
                "graph_edges": metrics["graph_edges"],
                "partials": sum(metrics["stored_partial_matches"].values()),
                "dedup_entries": metrics["sketch"]["dedup_memory"]["entries"],
                "held": int(metrics["reorder"]["buffered"]) if metrics["reorder"] else 0,
            }
            values["state"] = values["graph_edges"] + values["partials"] + values["dedup_entries"]
            for key, value in values.items():
                peaks[key] = max(peaks[key], value)

        outputs: List[Optional[list]] = []
        for batch in self.batches:
            outputs.append(self.ops.call(engine.process_batch, batch))
            observe()
        outputs.append(self.ops.call(engine.flush))
        observe()
        self.ops.check_pass("counter pass", outputs)
        metrics = engine.metrics()
        self.counters = {
            "work": work_counters(engine),
            "peaks": peaks,
            "late": int(metrics["reorder"]["records_late"]) if metrics["reorder"] else 0,
            "records_prefiltered": metrics["columnar"]["records_prefiltered"],
            "records_batched": metrics["ingest_paths"]["batched_fast_path"],
            "dispatch_memo_hits": metrics["columnar"]["dispatch_memo_hits"],
        }

    # ------------------------------------------------------------------
    # timed phases
    # ------------------------------------------------------------------
    def setup(self) -> List[float]:
        """Time engine construction plus registration of every query."""
        config = self.workload.engine_config(self.autosave_path)
        times: List[float] = []
        collect_garbage()
        for _ in range(SETUPS_PER_ROUND):
            start = perf_counter()
            self.workload.build(config)
            times.append(perf_counter() - start)
        return times

    def closed_pass(self, label: str) -> Tuple[List[float], Any]:
        """Replay the stream in fixed batches back to back.

        Returns the wall time of every call (each ``process_batch``, then
        ``flush``) and the engine at end of stream.
        """
        engine = self.new_engine()
        call = self.ops.call
        outputs: List[Optional[list]] = []
        times: List[float] = []
        collect_garbage()
        for batch in self.batches:
            start = perf_counter()
            outputs.append(call(engine.process_batch, batch))
            times.append(perf_counter() - start)
        start = perf_counter()
        outputs.append(call(engine.flush))
        times.append(perf_counter() - start)
        self.ops.check_pass(label, outputs)
        if work_counters(engine) != self.counters["work"]:
            self.ops.fail(f"{label}: work counters differ from the counter pass")
        return times, engine

    def throughput(self, passes: Sequence[Sequence[float]]) -> float:
        """Records per second of a pass made of each call's fastest time.

        Every pass makes the same calls on the same input, and the host's
        slow phases only ever add time, so each call's minimum over the
        passes is the steadiest estimate of its cost.
        """
        return len(self.records) / sum(min(times) for times in zip(*passes))

    def timed(self, operation: Callable[..., Any], *args: Any) -> Tuple[Any, float]:
        """Run one counted operation; return (result, seconds)."""
        self.ops.attempted += 1
        collect_garbage()
        start = perf_counter()
        result = self.ops.call(operation, *args)
        return result, perf_counter() - start

    def checkpoint_restore(self, engine: Any) -> Tuple[Optional[float], Optional[float], float]:
        """Checkpoint the live end-of-run state, restore it into a fresh engine.

        Returns (checkpoint seconds, restore seconds, snapshot MB); a failed
        operation's time is ``None``.
        """
        manifest, checkpoint_s = self.timed(engine.checkpoint, self.checkpoint_path)
        if manifest is None:
            return None, None, 0.0
        size_mb = os.path.getsize(self.checkpoint_path) / 1e6
        restored, restore_s = self.timed(engine.restore, self.checkpoint_path)
        if restored is None:
            return checkpoint_s, None, size_mb
        if canonical(restored.events()) != canonical(engine.events()) or work_counters(
            restored, persisted_only=True
        ) != work_counters(engine, persisted_only=True):
            self.ops.fail("restore: restored engine differs from the checkpointed one")
        return checkpoint_s, restore_s, size_mb

    def open_pass(self) -> Tuple[Optional[List[float]], float]:
        """Submit every due record as one batch; time events from their due time.

        Record ``i`` is due ``i / rate`` seconds after the pass starts; when
        nothing is due the driver sleeps until the next due time.  An
        event's latency runs from the due time of the last-arriving record
        of its match to the return of the call that delivered it.  Returns
        the latencies in delivery order (``None`` when the pass failed) and
        the driver's largest lag behind schedule.

        The engine does not autosave here.  Autosave counts
        ``process_batch`` calls, and an open-loop call carries one or two
        records, so a cadence meant for closed-loop batches would write the
        whole snapshot every few records and the latency would measure
        that cadence instead of the engine.
        """
        rate = self.workload.rate
        records, total = self.records, len(self.records)
        call = self.ops.call
        engine = self.workload.build(self.workload.engine_config())
        calls: List[Tuple[float, float, Optional[list]]] = []
        position = 0
        collect_garbage()
        origin = perf_counter() + 0.01
        while position < total:
            now = perf_counter()
            due = min(total, int((now - origin) * rate) + 1)
            if due <= position:
                time.sleep(origin + position / rate - now)
                continue
            lag = now - (origin + position / rate)
            events = call(engine.process_batch, records[position:due])
            calls.append((lag, perf_counter(), events))
            position = due
        lag = perf_counter() - (origin + (total - 1) / rate)
        calls.append((lag, perf_counter(), call(engine.flush)))
        failed = self.ops.failed
        self.ops.check_pass("open loop", [events for _, _, events in calls])
        latencies: List[float] = []
        for lag, done, events in calls:
            if events and lag > LATENCY_LIMIT_S:
                self.ops.fail(f"open loop: events delivered {lag:.3f} s behind schedule")
            for event in events or ():
                last = max(
                    self.arrival[(edge.source, edge.target, edge.label, edge.timestamp)]
                    for edge in event.match.edge_map.values()
                )
                latencies.append(done - (origin + last / rate))
        max_lag = max(lag for lag, _, _ in calls)
        return (latencies if self.ops.failed == failed else None), max_lag


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def whole_pass_rates(bench: Bench, passes: Sequence[Sequence[float]]) -> str:
    return ", ".join(f"{len(bench.records) / sum(times):.0f}" for times in passes)


def run_untraced(bench: Bench) -> Dict[str, float]:
    setups: List[float] = []
    closed: List[List[float]] = []
    checkpoints: List[float] = []
    restores: List[float] = []
    open_passes: List[List[float]] = []
    size_mb = 0.0
    max_lag = 0.0
    nan = float("nan")
    for _ in bench.rounds():
        setups.extend(bench.setup())
        times, engine = bench.closed_pass("closed loop")
        closed.append(times)
        for _ in range(bench.workload.checkpoints_per_round):
            checkpoint_s, restore_s, size = bench.checkpoint_restore(engine)
            size_mb = size_mb or size
            if checkpoint_s is not None:
                checkpoints.append(checkpoint_s)
            if restore_s is not None:
                restores.append(restore_s)
        del engine
        latencies, lag = bench.open_pass()
        max_lag = max(max_lag, lag)
        if latencies is not None:
            open_passes.append(latencies)
    # each percentile of one real pass, so a full collection counts where it lands
    p50s = [percentile(latencies, 0.50) * 1000.0 for latencies in open_passes]
    p99s = [percentile(latencies, 0.99) * 1000.0 for latencies in open_passes]
    report(
        f"closed loop: {len(closed)} passes in batches of {bench.workload.batch_size}, "
        f"whole-pass records/s {whole_pass_rates(bench, closed)}"
    )
    report(
        f"open loop at {bench.workload.rate:.0f} records/s: {len(open_passes)} correct passes, "
        f"{len(bench.reference)} events timed per pass, driver max lag {max_lag * 1000:.1f} ms, "
        "per-pass p50/p99 ms " + ", ".join(f"{a:.2f}/{b:.2f}" for a, b in zip(p50s, p99s))
    )
    report(f"checkpoint/restore: snapshot {size_mb!r} MB; set-ups: {len(setups)}")
    attempted = max(1, bench.ops.attempted)
    return {
        "throughput_eps": bench.throughput(closed),
        "detect_p50_ms": min(p50s, default=nan),
        "detect_p99_ms": min(p99s, default=nan),
        "setup_s": statistics.median(setups),
        "checkpoint_s": min(checkpoints, default=nan),
        "restore_s": min(restores, default=nan),
        "snapshot_mb": size_mb,
        "state_peak": float(bench.counters["peaks"]["state"]),
        "rss_peak_mb": rss_peak_mb(),
        "ok_ratio": (attempted - bench.ops.failed) / attempted,
    }


def run_traced(bench: Bench) -> Dict[str, float]:
    from spans import Tracer

    tracer = Tracer()
    untraced: List[List[float]] = []
    traced: List[List[float]] = []
    self_times: List[Dict[str, float]] = []
    pass_counts: List[Tuple[Dict[str, int], Dict[str, int]]] = []
    for _ in bench.rounds():
        times, engine = bench.closed_pass("untraced pass")
        untraced.append(times)
        del engine
        calls_before, hits_before = dict(tracer.calls), dict(tracer.hits)
        first = tracer.mark()
        tracer.install()
        try:
            times, engine = bench.closed_pass("traced pass")
            bench.checkpoint_restore(engine)
        finally:
            tracer.uninstall()
        traced.append(times)
        del engine
        self_times.append(tracer.self_times(first))
        pass_counts.append(
            (
                {key: tracer.calls[key] - calls_before.get(key, 0) for key in tracer.calls},
                {key: tracer.hits[key] - hits_before.get(key, 0) for key in tracer.hits},
            )
        )
    if any(counts != pass_counts[0] for counts in pass_counts):
        bench.ops.fail("traced rounds: call counts differ between rounds")
    calls, hits = pass_counts[0]
    layer_self = {
        name: statistics.median([times[name] for times in self_times]) for name in tracer.names
    }
    total = sum(layer_self.values())
    report(
        f"rounds: {len(traced)}; whole-pass records/s untraced "
        f"{whole_pass_rates(bench, untraced)}; traced {whole_pass_rates(bench, traced)}; "
        f"spans kept: {tracer.mark()}"
    )
    report("self time per traced round (median) and share of all traced self time:")
    for name in tracer.names:
        share = 100.0 * ratio(layer_self[name], total)
        report(f"  {name:<20} {layer_self[name]:10.4f} s  {share:5.1f} %")
    counters = bench.counters
    work, peaks = counters["work"], counters["peaks"]
    find_calls = calls["local_search:find"]
    joins = calls["join:try_join"]
    probes = calls["dedup:seen"]
    routed = calls["dispatch:candidates"]
    # every columnar memo miss is one front_rejects or candidates probe
    memo_lookups = counters["dispatch_memo_hits"] + routed + calls["dispatch:front_rejects"]
    return {
        "streaming.self_s": layer_self["streaming"],
        "streaming.held_peak": float(peaks["held"]),
        "streaming.late": float(counters["late"]),
        "graph.ingest.self_s": layer_self["graph.ingest"],
        "graph.evict.self_s": layer_self["graph.evict"],
        "graph.scan.self_s": layer_self["graph.scan"],
        "graph.edges_peak": float(peaks["graph_edges"]),
        "stats.self_s": layer_self["stats"],
        "dispatch.calls": float(routed),
        "dispatch.self_s": layer_self["dispatch"],
        "dispatch.prefiltered_ratio": ratio(
            counters["records_prefiltered"], counters["records_batched"]
        ),
        "dispatch.memo_hit_ratio": ratio(counters["dispatch_memo_hits"], memo_lookups),
        "compile.leaves_pruned": float(work["leaves_pruned"]),
        "compile.prune_ratio": ratio(work["leaves_pruned"], work["leaves_pruned"] + find_calls),
        "engine.self_s": layer_self["engine"],
        "local_search.calls": float(find_calls),
        "local_search.self_s": layer_self["local_search"],
        "local_search.hit_ratio": ratio(hits["local_search.hit"], find_calls),
        "join.attempts": float(joins),
        "join.self_s": layer_self["join"],
        "join.success_ratio": ratio(hits["join.success"], joins),
        "sjtree.self_s": layer_self["sjtree"],
        "sjtree.partials_peak": float(peaks["partials"]),
        "matcher.self_s": layer_self["matcher"],
        "dedup.probes": float(probes),
        "dedup.self_s": layer_self["dedup"],
        "dedup.dup_ratio": ratio(hits["dedup.dup"], probes),
        "dedup.entries_peak": float(peaks["dedup_entries"]),
        "emit.events": float(calls["emit:deliver"]),
        "emit.self_s": layer_self["emit"],
        "persistence.write.self_s": layer_self["persistence.write"],
        "persistence.read.self_s": layer_self["persistence.read"],
        "planner.self_s": layer_self["planner"],
        "trace.slowdown": bench.throughput(untraced) / bench.throughput(traced),
    }


def report(line: str) -> None:
    print(line, flush=True)


def parse_args(argv: Optional[Sequence[str]], workloads: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=(__doc__ or "").split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
        print(f"swbench: engine sources not found under {SOURCE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE_DIR))
    from workloads import WORKLOADS

    args = parse_args(argv, list(WORKLOADS))
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed)
        bench = Bench(workload, args.seconds)
        report(
            f"workload {workload.name} seed {args.seed}: {len(workload.records)} records, "
            f"{len(workload.queries)} queries, {len(bench.reference)} reference events, "
            f"{workload.facts}"
        )
        # the harness's own inputs and reference are never garbage
        gc.collect()
        gc.freeze()
        bench.counter_pass()
        report(f"exact counters: {json.dumps(bench.counters, sort_keys=True)}")
        if args.trace:
            values, names = run_traced(bench), PER_LAYER
        else:
            values, names = run_untraced(bench), END_TO_END
        for error in bench.ops.errors:
            report(f"FAILED {error}")
        for name, unit in names:
            report(f"  {name:<28} {values[name]:>16.6g} {unit}")
        result = {
            "correct": bench.ops.failed == 0,
            "attempted": bench.ops.attempted,
            "failed": bench.ops.failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
        }
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

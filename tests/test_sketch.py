"""Bounded dedup memory: exact suppression, bounded memory, exact resume.

Every matcher keeps its reported-match identities in a
:class:`~repro.sketch.dedup.DedupMemory`: an exact ``key -> (anchor, seq)``
store with deterministic horizon and budget eviction.  This suite pins:

* **Structure properties** (hypothesis) -- :class:`DedupMemory` agrees with a
  plain-set oracle, round-trips ``state_dict``/``load_state`` mid-sequence,
  and evicts in a fixed (anchor, seq) order.
* **Bounded memory under attack** -- 1M+ distinct keys: the store's measured
  entry count never exceeds the budget while in-horizon suppression recall
  stays 100%; an engine flood stays within ``dedup_memory_budget`` and emits
  the unbounded engine's events exactly.
* **Engine differential** (hypothesis) -- a budgeted engine emits the
  unbounded engine's events and dispatch counters; ``metrics()["sketch"]``
  holds only the dedup section; a wildcard query switches the exact label
  reject off.
* **Checkpoint property** (hypothesis) -- checkpoint mid-stream with a
  budget, resume, finish => byte-identical to the uninterrupted run, dedup
  counters included.
* **Snapshot compatibility** -- pre-dedup-memory snapshots (bare identity
  lists) and snapshots written while probabilistic fronts guarded the
  dispatch index and the dedup store both resume exactly; a snapshot that
  enables the removed count-min statistics option is refused.
* **Mutation meta-tests** -- a snapshot missing its dedup sections or
  counters must not load; a store that never confirms a key re-emits
  duplicates; a label reject that skips its ``lookups`` tick breaks counter
  parity.
"""

from __future__ import annotations

import ast
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DispatchIndex, EngineConfig, StreamWorksEngine
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.window import TimeWindow
from repro.persistence.state import engine_sections, load_engine_sections
from repro.persistence.snapshot import SnapshotCorruptError, SnapshotError
from repro.query.query_graph import QueryGraph
from repro.sketch import DedupMemory
from repro.stats import StreamSummarizer
from repro.streaming import StreamEdge
from repro.workloads import high_cardinality_flood

import random


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def chain_query(name, labels, vertex_labels=None):
    query = QueryGraph(name)
    vertex_labels = vertex_labels or {}
    for position in range(len(labels) + 1):
        query.add_vertex(f"v{position}", vertex_labels.get(position))
    for position, label in enumerate(labels):
        query.add_edge(f"v{position}", f"v{position + 1}", label)
    return query


def query_specs():
    return [
        ("xy", chain_query("xy", ["x", "y"]), 8.0),
        ("yy", chain_query("yy", ["y", "y"]), 8.0),
        ("never", chain_query("never", ["no_such_label"]), 8.0),
    ]


def mixed_stream(count, seed, noise_ratio=0.4):
    """Deterministic stream: matchable x/y traffic plus unique-label noise."""
    rng = random.Random(seed)
    records = []
    clock = 0.0
    for index in range(count):
        clock += rng.choice((0.05, 0.1, 0.3))
        if rng.random() < noise_ratio:
            records.append(
                StreamEdge(f"n{index}", f"m{index}", f"noise{index}", clock)
            )
        else:
            label = rng.choice(("x", "y"))
            source = f"h{rng.randrange(6)}"
            target = f"h{rng.randrange(6)}"
            records.append(StreamEdge(source, target, label, clock))
    return records


def canonical(events):
    return [
        (event.query_name, event.match.portable_identity(), event.detected_at, event.sequence)
        for event in events
    ]


def register_all(engine, query_specs):
    for name, query, window in query_specs:
        engine.register_query(query, name=name, window=window)


def budget_config(budget=4096):
    return EngineConfig(dedup_memory_budget=budget)


def run_stream(engine, records):
    events = []
    for record in records:
        events.extend(engine.process_record(record))
    return events


# ----------------------------------------------------------------------
# structure properties: bounded dedup memory vs. a plain-set oracle
# ----------------------------------------------------------------------
class TestDedupMemory:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(st.integers(min_value=0, max_value=15), max_size=80))
    def test_matches_set_oracle(self, ops):
        memory = DedupMemory()
        oracle = set()
        duplicates = 0
        for index, op in enumerate(ops):
            key = f"key{op}"
            duplicates += key in oracle
            assert memory.seen(key) == (key in oracle)
            memory.add(key, float(index))
            oracle.add(key)
        assert memory.entry_count() == len(oracle)
        stats = memory.stats()
        assert stats["probes"] == len(ops)
        assert stats["confirms"] == duplicates

    @settings(max_examples=30, deadline=None)
    @given(
        count=st.integers(min_value=0, max_value=60),
        cut=st.integers(min_value=0, max_value=60),
    )
    def test_state_roundtrip_mid_sequence(self, count, cut):
        memory = DedupMemory(budget=16)
        keys = [f"k{index}" for index in range(count)]
        for index, key in enumerate(keys[: min(cut, count)]):
            memory.seen(key)
            memory.add(key, float(index))
        state = memory.state_dict()
        clone = DedupMemory(budget=16)
        clone.load_state(state)
        assert clone.state_dict() == state
        # both continue identically: same answers, same evictions
        for index, key in enumerate(keys[min(cut, count) :]):
            assert memory.seen(key) == clone.seen(key)
            memory.add(key, float(1000 + index))
            clone.add(key, float(1000 + index))
        assert memory.state_dict() == clone.state_dict()

    def test_budget_eviction_is_oldest_anchor_first(self):
        memory = DedupMemory(budget=3)
        for index, key in enumerate(("a", "b", "c")):
            memory.add(key, float(index))
        memory.add("d", 99.0)  # evicts "a" (smallest anchor, earliest seq)
        assert not memory.seen("a")
        assert all(memory.seen(key) for key in ("b", "c", "d"))
        assert memory.stats()["evictions_budget"] == 1
        assert memory.peak_entries == 3  # measured AFTER budget enforcement

    def test_expire_drops_only_out_of_horizon_anchors(self):
        window = TimeWindow(10.0)
        memory = DedupMemory()
        memory.add("old", 0.0)
        memory.add("fresh", 8.0)
        dropped = memory.expire(window, now=12.0)  # 12 - 0 >= 10; 12 - 8 < 10
        assert dropped == 1
        assert not memory.seen("old")
        assert memory.seen("fresh")
        assert memory.stats()["evictions_horizon"] == 1

    def test_legacy_keys_never_expire_and_evict_last(self):
        memory = DedupMemory(budget=2)
        memory.load_legacy_keys(["legacy"])
        memory.add("young", 1.0)
        memory.expire(TimeWindow(5.0), now=1000.0)  # drops "young", not "legacy"
        assert memory.seen("legacy")
        assert not memory.seen("young")


# ----------------------------------------------------------------------
# bounded memory under adversarial cardinality (measured, not inferred)
# ----------------------------------------------------------------------
def test_adversarial_million_distinct_keys_bounded_with_full_recall():
    """1M+ distinct keys: entries stay <= budget, in-horizon recall stays 100%.

    The horizon covers 10k live keys and the budget doubles that, so horizon
    expiry (not budget pressure) is the active mechanism -- exactly the
    regime where suppression must stay exact.  The bound is *measured* via
    ``entry_count()``/``peak_entries`` on the live structure.
    """
    budget = 20_000
    window = TimeWindow(1_000.0)
    memory = DedupMemory(budget=budget)
    total = 1_050_000
    step = 0.1  # 10_000 keys alive inside the horizon at any moment
    recall_probes = 0
    for index in range(total):
        now = index * step
        key = f"key{index}"
        assert not memory.seen(key)  # every key is brand new
        memory.add(key, now)
        if index % 4096 == 0:
            memory.expire(window, now)
        if index % 50_000 == 0 and index >= 5_000:
            # a key added 5k steps ago is 500 time units old: well in-horizon
            assert memory.seen(f"key{index - 5_000}")
            recall_probes += 1
    assert recall_probes >= 20
    memory.expire(window, total * step)
    stats = memory.stats()
    assert stats["peak_entries"] <= budget  # the measured high-water mark
    assert memory.entry_count() <= budget
    # horizon expiry did the bounding; the budget never had to fire
    assert stats["evictions_horizon"] > 1_000_000
    assert stats["evictions_budget"] == 0


def test_engine_flood_bounded_memory_and_exact_events():
    """Engine under a high-cardinality flood: bounded dedup, oracle-equal events."""
    records = high_cardinality_flood(6_000, signal_every=12)
    # single-edge query: the flood's signal pools are disjoint (S* -> T*),
    # so longer chains would never close and the test would be vacuous
    signal_query = [("sig", chain_query("sig", ["signal"]), 50.0)]

    oracle = StreamWorksEngine(config=EngineConfig())  # unbounded
    register_all(oracle, signal_query)
    reference = canonical(run_stream(oracle, records))
    assert reference, "flood produced no signal matches -- vacuous"

    engine = StreamWorksEngine(config=budget_config(budget=1024))
    register_all(engine, signal_query)
    assert canonical(run_stream(engine, records)) == reference
    dedup = engine.metrics()["sketch"]["dedup_memory"]
    assert dedup["probes"] > 0
    assert dedup["peak_entries"] <= 1024


# ----------------------------------------------------------------------
# engine differential: a budgeted dedup store emits the unbounded events
# ----------------------------------------------------------------------
@pytest.mark.parametrize("noise_ratio", [0.0, 0.3, 0.7])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_dedup_budget_emits_exact_event_stream(noise_ratio, seed):
    records = mixed_stream(150, seed, noise_ratio)
    oracle = StreamWorksEngine(config=EngineConfig())
    register_all(oracle, query_specs())
    reference = canonical(run_stream(oracle, records))

    engine = StreamWorksEngine(config=budget_config())
    register_all(engine, query_specs())
    assert canonical(run_stream(engine, records)) == reference
    assert engine.metrics()["dispatch"] == oracle.metrics()["dispatch"]


def test_metrics_sketch_section_holds_only_dedup_memory():
    records = mixed_stream(300, seed=5, noise_ratio=0.5)
    engine = StreamWorksEngine(config=budget_config())
    register_all(engine, query_specs())
    events = run_stream(engine, records)
    assert events
    sketch = engine.metrics()["sketch"]
    assert list(sketch) == ["dedup_memory"]
    dedup = sketch["dedup_memory"]
    assert dedup["probes"] > 0
    assert 0 < dedup["entries"] <= dedup["peak_entries"]
    # every record ticks one dispatch lookup: a label reject counts the
    # same tick the candidates() call it replaces would have
    assert engine.dispatch.lookups == len(records)


def test_wildcard_query_disables_front_but_stays_exact():
    records = mixed_stream(200, seed=12, noise_ratio=0.5)
    wildcard_specs = [("wild", chain_query("wild", [None, "x"]), 8.0)]
    oracle = StreamWorksEngine(config=EngineConfig(use_dispatch_index=False))
    register_all(oracle, wildcard_specs)
    reference = canonical(run_stream(oracle, records))
    assert reference, "wildcard query never matched -- vacuous"

    engine = StreamWorksEngine(config=EngineConfig())
    register_all(engine, wildcard_specs)
    assert canonical(run_stream(engine, records)) == reference
    # every label can bind a wildcard leaf: the label check must stand down
    assert not any(engine.dispatch.front_rejects(record.label) for record in records)


# ----------------------------------------------------------------------
# checkpoint property: resume mid-stream with a dedup budget is exact
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    cut=st.integers(min_value=0, max_value=200),
)
def test_checkpoint_mid_stream_resume_equals_uninterrupted(seed, cut):
    records = mixed_stream(200, seed, noise_ratio=0.4)
    cut = min(cut, len(records))

    uninterrupted = StreamWorksEngine(config=budget_config())
    register_all(uninterrupted, query_specs())
    reference = canonical(run_stream(uninterrupted, records))

    interrupted = StreamWorksEngine(config=budget_config())
    register_all(interrupted, query_specs())
    prefix = canonical(run_stream(interrupted, records[:cut]))
    handle, path = tempfile.mkstemp(suffix=".snap")
    os.close(handle)
    try:
        interrupted.checkpoint(path)
        resumed = StreamWorksEngine.restore(path)
    finally:
        os.unlink(path)
    suffix = canonical(run_stream(resumed, records[cut:]))
    assert prefix + suffix == reference
    assert resumed.metrics()["sketch"] == uninterrupted.metrics()["sketch"]


# ----------------------------------------------------------------------
# snapshot compatibility
# ----------------------------------------------------------------------
def _legacy_sections(engine):
    """Render an engine's sections the way a pre-sketch snapshot stored them."""
    sections = engine_sections(engine)
    for payload in sections["queries"]:
        matcher_state = payload["matcher"]
        # legacy matchers stored bare entry lists; the repr of each parsed
        # entry is exactly the canonical string key today's store uses
        matcher_state["reported_identities"] = [
            ast.literal_eval(key)
            for key, _, _ in matcher_state.pop("dedup_identities")["entries"]
        ]
        matcher_state["reported_edge_sets"] = [
            ast.literal_eval(key)
            for key, _, _ in matcher_state.pop("dedup_edge_sets")["entries"]
        ]
    return sections


def test_legacy_snapshot_without_sketch_sections_still_loads():
    """Pre-sketch snapshots (bare reported-identity lists) migrate losslessly."""
    records = mixed_stream(200, seed=3, noise_ratio=0.2)
    cut = 120

    uninterrupted = StreamWorksEngine(config=EngineConfig())
    register_all(uninterrupted, query_specs())
    reference = canonical(run_stream(uninterrupted, records))

    interrupted = StreamWorksEngine(config=EngineConfig())
    register_all(interrupted, query_specs())
    prefix = canonical(run_stream(interrupted, records[:cut]))
    migrated_keys = {
        name: list(registration.matcher.dedup_memories()[0]._entries)
        for name, registration in interrupted.queries.items()
    }
    assert any(migrated_keys.values()), "no identities recorded before cut -- vacuous"

    resumed = load_engine_sections(_legacy_sections(interrupted))
    # every legacy key landed in the bounded store with a never-expiring anchor
    for name, keys in migrated_keys.items():
        memory = resumed.queries[name].matcher.dedup_memories()[0]
        for key in keys:
            assert memory.seen(key)
            assert memory._entries[key][0] == float("inf")
    suffix = canonical(run_stream(resumed, records[cut:]))
    assert prefix + suffix == reference


def _sketch_era_sections(engine):
    """Render an engine's sections the way the sketch-fronted engine stored them.

    That format carried a cuckoo filter's state and counters in every dedup
    store, Bloom-front counters beside the dispatch counters, and the two
    sketch options in the config.
    """
    sections = engine_sections(engine)
    sections["config"]["sketch_dispatch"] = True
    sections["config"]["sketch_stats"] = False
    for counter in ("front_probes", "front_rejections", "front_false_positives"):
        sections["counters"]["dispatch"][counter] = 7
    for payload in sections["queries"]:
        for store in ("dedup_identities", "dedup_edge_sets"):
            state = payload["matcher"][store]
            state["front"] = {
                "buckets": 512,
                "bucket_size": 4,
                "fingerprint_bits": 16,
                "max_kicks": 128,
                "seed": 31,
                "table": [[0] * 4 for _ in range(512)],
                "stash": [],
                "count": len(state["entries"]),
            }
            state["front_negatives"] = 5
            state["front_false_positives"] = 1
    return sections


def test_sketch_era_snapshot_resumes_exactly():
    """Front state, front counters and sketch options are ignored on load."""
    records = mixed_stream(200, seed=8, noise_ratio=0.4)
    cut = 110

    uninterrupted = StreamWorksEngine(config=budget_config())
    register_all(uninterrupted, query_specs())
    reference = canonical(run_stream(uninterrupted, records))

    interrupted = StreamWorksEngine(config=budget_config())
    register_all(interrupted, query_specs())
    prefix = canonical(run_stream(interrupted, records[:cut]))
    assert interrupted.metrics()["sketch"]["dedup_memory"]["entries"] > 0

    resumed = load_engine_sections(_sketch_era_sections(interrupted))
    suffix = canonical(run_stream(resumed, records[cut:]))
    assert prefix + suffix == reference
    assert resumed.metrics()["sketch"] == uninterrupted.metrics()["sketch"]
    assert resumed.metrics()["dispatch"] == uninterrupted.metrics()["dispatch"]
    assert engine_sections(resumed)["config"] == engine_sections(uninterrupted)["config"]


@pytest.mark.parametrize("where", ["config", "summarizer"])
def test_snapshot_enabling_count_min_statistics_is_refused(where):
    engine = StreamWorksEngine(config=EngineConfig())
    register_all(engine, query_specs())
    run_stream(engine, mixed_stream(60, seed=2))
    sections = _sketch_era_sections(engine)
    sections[where]["sketch_stats"] = True
    with pytest.raises(SnapshotError, match="sketch_stats"):
        load_engine_sections(sections)


def test_summarizer_state_with_unset_count_min_flag_loads():
    summarizer = StreamSummarizer(triad_sample_cap=None)
    graph = DynamicGraph(TimeWindow(None))
    for record in mixed_stream(80, seed=6):
        edge = graph.ingest(record.source, record.target, record.label, record.timestamp)
        summarizer.observe(graph, edge)
    assert summarizer.summary().edge_labels.count("x") > 0
    state = summarizer.state_dict()
    restored = StreamSummarizer.from_state({**state, "sketch_stats": False}).state_dict()
    # known vertices are a set, serialised in iteration order
    assert sorted(restored.pop("known_vertices")) == sorted(state.pop("known_vertices"))
    assert restored == state


# ----------------------------------------------------------------------
# mutation meta-test: the snapshot loader has teeth
# ----------------------------------------------------------------------
class TestMutations:
    def test_dropped_dedup_snapshot_section_is_caught(self):
        """A snapshot missing the dedup sections (and legacy lists) must not load."""
        engine = StreamWorksEngine(config=budget_config())
        register_all(engine, query_specs())
        run_stream(engine, mixed_stream(100, seed=1))
        sections = engine_sections(engine)
        # sanity: untampered sections load fine
        load_engine_sections(sections)
        for payload in sections["queries"]:
            payload["matcher"].pop("dedup_identities")
            payload["matcher"].pop("dedup_edge_sets")
        with pytest.raises(SnapshotCorruptError):
            load_engine_sections(sections)

    def test_dropped_dedup_counters_are_caught(self):
        """A dedup section missing its counters must not load as zeros."""
        engine = StreamWorksEngine(config=budget_config())
        register_all(engine, query_specs())
        run_stream(engine, mixed_stream(100, seed=1))
        sections = engine_sections(engine)
        for payload in sections["queries"]:
            payload["matcher"]["dedup_identities"].pop("probes")
        with pytest.raises(SnapshotCorruptError):
            load_engine_sections(sections)

    def test_skipping_dedup_suppression_is_caught(self, monkeypatch):
        """A store that never reports a key as seen re-emits duplicates.

        A directed 2-cycle query binds every reciprocal pair twice (once per
        rotation); structural dedup must report each edge set once.
        """
        records = mixed_stream(300, seed=99, noise_ratio=0.3)
        cycle = QueryGraph("cycle")
        cycle.add_vertex("a")
        cycle.add_vertex("b")
        cycle.add_edge("a", "b", "y")
        cycle.add_edge("b", "a", "y")
        config = EngineConfig(dedup_memory_budget=4096, dedupe_structural=True)

        def run():
            engine = StreamWorksEngine(config=config)
            register_all(engine, [("cycle", cycle, 8.0)])
            return canonical(run_stream(engine, records)), engine

        reference, oracle = run()
        confirms = oracle.metrics()["sketch"]["dedup_memory"]["confirms"]
        assert confirms > 0, "no duplicate was ever suppressed -- vacuous"

        def forgetful_seen(self, key):
            self.probes += 1
            return False

        monkeypatch.setattr(DedupMemory, "seen", forgetful_seen)
        mutant, _ = run()
        assert len(mutant) == len(reference) + confirms

    def test_reject_without_lookup_tick_breaks_counter_parity(self, monkeypatch):
        """The label check must count a reject as the lookup it replaces."""
        records = mixed_stream(200, seed=4, noise_ratio=0.5)

        def lookups():
            engine = StreamWorksEngine(config=EngineConfig())
            register_all(engine, query_specs())
            run_stream(engine, records)
            return engine.dispatch.lookups

        assert lookups() == len(records)

        def silent_reject(self, edge_label):
            return not self._wildcard and edge_label not in self._by_label

        monkeypatch.setattr(DispatchIndex, "front_rejects", silent_reject)
        assert lookups() < len(records)


class TestEngineConfigValidation:
    def test_dedup_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            EngineConfig(dedup_memory_budget=0)
        with pytest.raises(ValueError, match="positive"):
            EngineConfig(dedup_memory_budget=-5)

"""Tests for the cross-query dispatch index and the batched ingest fast path."""

import pytest

from repro.core import DispatchIndex, EngineConfig, StreamWorksEngine
from repro.harness.experiments import experiment_multiquery_dispatch
from repro.query.query_graph import QueryGraph
from repro.workloads import RmatConfig, RmatGenerator


def chain_query(name, labels, vertex_labels=None):
    """Build a path query binding the given edge labels in sequence."""
    query = QueryGraph(name)
    vertex_labels = vertex_labels or {}
    for position in range(len(labels) + 1):
        query.add_vertex(f"v{position}", vertex_labels.get(position))
    for position, label in enumerate(labels):
        query.add_edge(f"v{position}", f"v{position + 1}", label)
    return query


class FakeLeaf:
    def __init__(self, leaf_id, subgraph):
        self.id = leaf_id
        self.subgraph = subgraph


def single_edge_leaf(leaf_id, label, source_label=None, target_label=None, directed=True):
    query = QueryGraph(f"leaf{leaf_id}")
    query.add_vertex("a", source_label)
    query.add_vertex("b", target_label)
    query.add_edge("a", "b", label, directed=directed)
    return FakeLeaf(leaf_id, query)


class TestDispatchIndex:
    def test_label_routing(self):
        index = DispatchIndex()
        index.register("q1", [single_edge_leaf(0, "mentions")])
        index.register("q2", [single_edge_leaf(0, "locatedIn")])
        assert index.candidates("mentions") == [("q1", [0])]
        assert index.candidates("locatedIn") == [("q2", [0])]
        assert index.candidates("connectsTo") == []

    def test_wildcard_label_always_considered(self):
        index = DispatchIndex()
        index.register("any", [single_edge_leaf(0, None)])
        index.register("typed", [single_edge_leaf(0, "mentions")])
        assert index.candidates("mentions") == [("any", [0]), ("typed", [0])]
        assert index.candidates("whatever") == [("any", [0])]

    def test_vertex_label_guard_directed(self):
        index = DispatchIndex()
        index.register("q", [single_edge_leaf(0, "link", "Host", "Server")])
        assert index.candidates("link", "Host", "Server") == [("q", [0])]
        assert index.candidates("link", "Server", "Host") == []
        # unknown endpoint labels skip the guard rather than reject
        assert index.candidates("link", None, None) == [("q", [0])]

    def test_vertex_label_guard_undirected_admits_both_orientations(self):
        index = DispatchIndex()
        index.register("q", [single_edge_leaf(0, "link", "Host", "Server", directed=False)])
        assert index.candidates("link", "Host", "Server") == [("q", [0])]
        assert index.candidates("link", "Server", "Host") == [("q", [0])]
        assert index.candidates("link", "Server", "Server") == []

    def test_candidates_preserve_registration_and_leaf_order(self):
        index = DispatchIndex()
        index.register("b_first", [single_edge_leaf(3, "x"), single_edge_leaf(7, "x")])
        index.register("a_second", [single_edge_leaf(1, "x")])
        assert index.candidates("x") == [("b_first", [3, 7]), ("a_second", [1])]

    def test_unregister_removes_entries(self):
        index = DispatchIndex()
        index.register("q1", [single_edge_leaf(0, "x"), single_edge_leaf(1, None)])
        index.register("q2", [single_edge_leaf(0, "x")])
        index.unregister("q1")
        assert index.candidates("x") == [("q2", [0])]
        assert index.candidates("other") == []
        assert index.registered_owners() == ["q2"]
        index.unregister("ghost")  # no-op

    def test_reregister_replaces_entries(self):
        index = DispatchIndex()
        index.register("q", [single_edge_leaf(0, "old")])
        index.register("q", [single_edge_leaf(5, "new")])
        assert index.candidates("old") == []
        assert index.candidates("new") == [("q", [5])]
        assert index.entry_count() == 1

    def test_multi_edge_leaf_indexed_under_every_label(self):
        index = DispatchIndex()
        index.register("q", [FakeLeaf(0, chain_query("c", ["a_lbl", "b_lbl"]))])
        assert index.candidates("a_lbl") == [("q", [0])]
        assert index.candidates("b_lbl") == [("q", [0])]

    def test_front_rejects_is_the_exact_label_check(self):
        index = DispatchIndex()
        index.register("q", [single_edge_leaf(0, "x")])
        index.register("tmp", [single_edge_leaf(0, "zzz")])
        assert not index.front_rejects("x")
        assert not index.front_rejects("zzz")
        assert index.lookups == 0  # a pass leaves the tick to candidates()
        assert index.front_rejects("unbound")
        # a reject ticks exactly what the candidates() call it replaces would
        reference = DispatchIndex()
        reference.register("q", [single_edge_leaf(0, "x")])
        assert reference.candidates("unbound") == []
        assert index.lookups == reference.lookups == 1
        index.unregister("tmp")
        assert index.front_rejects("zzz")
        # a wildcard leaf binds every label, so nothing is rejected
        index.register("any", [single_edge_leaf(0, None)])
        assert not index.front_rejects("unbound")

    def test_front_rejects_follows_owner_churn(self):
        index = DispatchIndex()
        index.register("q1", [single_edge_leaf(0, "shared")])
        index.register("q2", [single_edge_leaf(0, "shared")])
        index.unregister("q1")
        assert not index.front_rejects("shared")  # q2 still binds it
        index.unregister("q2")
        assert index.front_rejects("shared")
        index.register("any", [single_edge_leaf(0, None)])
        assert not index.front_rejects("shared")
        index.unregister("any")
        assert index.front_rejects("shared")
        assert index.lookups == 2


def rmat_records(count, seed=29):
    generator = RmatGenerator(RmatConfig(seed=seed, scale=6))
    return list(generator.stream(count))


def engine_with_queries(use_index):
    engine = StreamWorksEngine(
        config=EngineConfig(collect_statistics=False, use_dispatch_index=use_index)
    )
    engine.register_query(
        chain_query("ab_chain", ["rel_a", "rel_b", "rel_a", "rel_b"]), name="ab", window=0.5
    )
    engine.register_query(
        chain_query("cc", ["rel_c", "rel_c"], vertex_labels={0: "TypeA"}), name="cc", window=0.5
    )
    engine.register_query(
        chain_query("wild", [None, "rel_a"]), name="wild", window=0.3
    )
    engine.register_query(
        chain_query("never", ["no_such_label", "no_such_label"]), name="never", window=0.5
    )
    return engine


class TestDispatchEquivalence:
    def test_index_on_off_identical_events_on_rmat_stream(self):
        records = rmat_records(400)
        with_index = engine_with_queries(use_index=True)
        without_index = engine_with_queries(use_index=False)
        for record in records:
            with_index.process_record(record)
            without_index.process_record(record)
        keyed_on = [(e.query_name, e.match.identity()) for e in with_index.collector.events]
        keyed_off = [(e.query_name, e.match.identity()) for e in without_index.collector.events]
        assert keyed_on == keyed_off
        assert len(keyed_on) > 0  # the stream must actually exercise the queries
        assert with_index.match_counts() == without_index.match_counts()

    def test_batched_ingest_matches_single_edge_ingest(self):
        records = rmat_records(400, seed=31)
        single = engine_with_queries(use_index=True)
        batched = engine_with_queries(use_index=True)
        for record in records:
            single.process_record(record)
        for start in range(0, len(records), 64):
            batched.process_batch(records[start : start + 64])
        keyed_single = {(e.query_name, e.match.identity()) for e in single.collector.events}
        keyed_batched = {(e.query_name, e.match.identity()) for e in batched.collector.events}
        assert keyed_single == keyed_batched
        assert len(keyed_single) > 0
        assert batched.edges_processed == len(records)
        # the deferred eviction sweep must still have closed the batch
        assert batched.graph.window.bounded
        assert batched.graph.edge_count() <= single.graph.edge_count() + 1

    def test_unmatchable_label_skips_label_bound_matchers(self):
        engine = engine_with_queries(use_index=True)
        engine.process_edge("a", "b", "unknown_label", 1.0)
        # only the query with a wildcard edge label can bind the edge; every
        # label-bound matcher is skipped entirely
        for name, registration in engine.queries.items():
            expected = 1 if name == "wild" else 0
            assert registration.matcher.stats.edges_processed == expected
        assert engine.edges_processed == 1

    def test_dispatch_stats_exposed_in_metrics(self):
        engine = engine_with_queries(use_index=True)
        engine.process_edge("a", "b", "rel_a", 1.0, source_label="TypeA", target_label="TypeB")
        stats = engine.metrics()["dispatch"]
        assert stats["indexed_queries"] == 4
        assert stats["lookups"] == 1
        assert stats["entries_matched"] >= 1

    def test_out_of_order_batch_falls_back_to_per_record_semantics(self):
        # regression: an internally out-of-order batch used to let a late
        # edge match history the per-edge path had already evicted
        from repro.streaming import StreamEdge

        records = [
            StreamEdge("a", "b", "p", 0.0),
            StreamEdge("m", "n", "zz", 100.0),
            StreamEdge("b", "c", "q", 5.0),
        ]
        single = StreamWorksEngine(config=EngineConfig(collect_statistics=False))
        single.register_query(chain_query("pq", ["p", "q"]), name="pq", window=10.0)
        batched = StreamWorksEngine(config=EngineConfig(collect_statistics=False))
        batched.register_query(chain_query("pq", ["p", "q"]), name="pq", window=10.0)
        single_events = []
        for record in records:
            single_events.extend(single.process_record(record))
        batched_events = batched.process_batch(records)
        assert single_events == []
        assert batched_events == []

    def test_replan_preserves_event_order_between_paths(self):
        # regression: re-planning used to move the query to the end of the
        # dispatch order, diverging from the unindexed loop's dict order
        def build(use_index):
            engine = StreamWorksEngine(
                config=EngineConfig(collect_statistics=False, use_dispatch_index=use_index)
            )
            engine.register_query(chain_query("first", ["rel"]), name="A", window=10.0)
            engine.register_query(chain_query("second", ["rel"]), name="B", window=10.0)
            engine.replan_query("A")
            return engine

        indexed, unindexed = build(True), build(False)
        indexed.process_edge("x", "y", "rel", 1.0)
        unindexed.process_edge("x", "y", "rel", 1.0)
        order_indexed = [(e.sequence, e.query_name) for e in indexed.collector.events]
        order_unindexed = [(e.sequence, e.query_name) for e in unindexed.collector.events]
        assert order_indexed == order_unindexed == [(0, "A"), (1, "B")]

    def test_replan_keeps_index_current(self):
        engine = StreamWorksEngine(config=EngineConfig(collect_statistics=True))
        engine.register_query(
            chain_query("ab_chain", ["rel_a", "rel_b", "rel_a", "rel_b"]), name="ab", window=5.0
        )
        for record in rmat_records(120, seed=37):
            engine.process_record(record)
        engine.replan_query("ab")
        new_leaf_ids = {leaf.id for leaf in engine.queries["ab"].matcher.tree.leaves()}
        for owner, leaf_ids in engine.dispatch.candidates("rel_a"):
            assert owner == "ab"
            assert set(leaf_ids) <= new_leaf_ids

    def test_unregister_removes_dispatch_entries(self):
        engine = engine_with_queries(use_index=True)
        engine.unregister_query("ab")
        assert all(owner != "ab" for owner, _ in engine.dispatch.candidates("rel_b"))


class TestMultiqueryDispatchSmoke:
    """Tier-1 smoke of the E11 benchmark so perf regressions are visible."""

    def test_small_scale_equivalence_and_work_reduction(self):
        result = experiment_multiquery_dispatch(scale=0.15)
        assert result["match_sets_identical"]
        assert result["event_order_identical"]
        # assert on deterministic work counters rather than wall-clock so the
        # tier-1 run cannot flake on loaded machines; the full-scale bench
        # (benchmarks/bench_multiquery_dispatch.py) asserts the >= 3x
        # wall-clock speedup
        assert result["work_reduction"] >= 5.0

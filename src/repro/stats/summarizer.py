"""Stream summarization: the statistics bundle the query planner consumes.

Paper section 4.3 lists three families of summary statistics collected from
the data stream: (1) degree distribution, (2) vertex and edge type
distribution, (3) frequency distribution of multi-relational triads.  The
:class:`GraphSummary` bundles all three plus the typed relationship-signature
counts that drive selectivity estimation; :class:`StreamSummarizer` keeps a
summary up to date as edges stream in (and optionally retracts evicted
edges).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..graph.types import Edge
from .degree import DegreeDistribution, StreamingDegreeTracker
from .labels import LabelDistribution, SignatureDistribution
from .triads import TriadCensus

__all__ = ["GraphSummary", "StreamSummarizer"]


class GraphSummary:
    """A point-in-time bundle of stream statistics."""

    def __init__(
        self,
        vertex_labels: Optional[LabelDistribution] = None,
        edge_labels: Optional[LabelDistribution] = None,
        signatures: Optional[SignatureDistribution] = None,
        degrees: Optional[DegreeDistribution] = None,
        triads: Optional[TriadCensus] = None,
        vertex_count: int = 0,
        edge_count: int = 0,
    ):
        # `x if x is not None else ...`, not `x or ...`: these classes define
        # __len__, so an *empty* distribution passed by the caller is falsy
        # yet must be kept -- `or` would discard its configuration (e.g. a
        # TriadCensus built with sample_cap=None).
        self.vertex_labels = vertex_labels if vertex_labels is not None else LabelDistribution()
        self.edge_labels = edge_labels if edge_labels is not None else LabelDistribution()
        self.signatures = signatures if signatures is not None else SignatureDistribution()
        self.degrees = degrees if degrees is not None else DegreeDistribution()
        self.triads = triads if triads is not None else TriadCensus()
        self.vertex_count = vertex_count
        self.edge_count = edge_count

    @classmethod
    def from_graph(cls, graph, with_triads: bool = True) -> "GraphSummary":
        """Compute an exact summary of a stored graph."""
        store = graph.graph if hasattr(graph, "graph") else graph
        vertex_labels = LabelDistribution()
        for vertex in store.vertices():
            vertex_labels.observe(vertex.label)
        edge_labels = LabelDistribution()
        signatures = SignatureDistribution()
        for edge in store.edges():
            edge_labels.observe(edge.label)
            signatures.observe(
                store.vertex(edge.source).label,
                edge.label,
                store.vertex(edge.target).label,
            )
        degrees = DegreeDistribution.from_graph(store)
        triads = TriadCensus(sample_cap=None)
        if with_triads:
            triads.observe_graph(store)
        return cls(
            vertex_labels=vertex_labels,
            edge_labels=edge_labels,
            signatures=signatures,
            degrees=degrees,
            triads=triads,
            vertex_count=store.vertex_count(),
            edge_count=store.edge_count(),
        )

    def vertex_label_count(self, label: Optional[str]) -> int:
        """Return the number of vertices with ``label`` (all vertices when ``None``)."""
        if label is None:
            return self.vertex_count
        return self.vertex_labels.count(label)

    def edge_label_count(self, label: Optional[str]) -> int:
        """Return the number of edges with ``label`` (all edges when ``None``)."""
        if label is None:
            return self.edge_count
        return self.edge_labels.count(label)

    def describe(self) -> str:
        """Return a multi-line human-readable summary report."""
        lines = [
            f"Graph summary: {self.vertex_count} vertices, {self.edge_count} edges",
            f"  vertex types: {dict(self.vertex_labels.most_common())}",
            f"  edge types:   {dict(self.edge_labels.most_common())}",
            f"  degree: mean={self.degrees.mean():.2f} max={self.degrees.max()} "
            f"p99={self.degrees.percentile(0.99)}",
            f"  triad patterns: {self.triads.distinct_patterns()} "
            f"({self.triads.total_wedges():.0f} wedges)",
        ]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """Serialise the headline statistics into a JSON-friendly dict."""
        return {
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "vertex_labels": self.vertex_labels.to_dict(),
            "edge_labels": self.edge_labels.to_dict(),
            "degrees": self.degrees.to_dict(),
            "triad_patterns": self.triads.distinct_patterns(),
        }


class StreamSummarizer:
    """Maintain a :class:`GraphSummary` incrementally over the edge stream.

    The summarizer is driven by the engine: ``observe(graph, edge)`` is called
    after each edge is ingested (so endpoint labels can be resolved), and
    ``retract(graph, edge)`` when the window evicts an edge.  Triad counting
    can be disabled or sampled to bound the per-edge cost.
    """

    def __init__(
        self,
        track_triads: bool = True,
        triad_sample_cap: Optional[int] = 32,
        seed: int = 7,
    ):
        self.vertex_labels = LabelDistribution()
        self.edge_labels = LabelDistribution()
        self.signatures = SignatureDistribution()
        self.degree_tracker = StreamingDegreeTracker()
        self.track_triads = track_triads
        self.triads = TriadCensus(sample_cap=triad_sample_cap, seed=seed)
        self._known_vertices: set = set()
        self._edge_count = 0

    def observe(self, graph, edge: Edge) -> None:
        """Fold one freshly-ingested edge into the summary."""
        store = graph.graph if hasattr(graph, "graph") else graph
        source_label = store.vertex(edge.source).label
        target_label = store.vertex(edge.target).label
        for vertex_id, label in ((edge.source, source_label), (edge.target, target_label)):
            if vertex_id not in self._known_vertices:
                self._known_vertices.add(vertex_id)
                self.vertex_labels.observe(label)
        self.edge_labels.observe(edge.label)
        self.signatures.observe(source_label, edge.label, target_label)
        self.degree_tracker.observe_edge(edge)
        self._edge_count += 1
        if self.track_triads:
            self.triads.observe_new_edge(graph, edge)

    def observe_batch(self, graph, edges) -> None:
        """Fold a batch of freshly-ingested edges into the summary.

        Used by the engine's batched ingest fast path.  Edges must already be
        stored in ``graph`` (so endpoint labels resolve); with deferred
        eviction the graph may transiently retain slightly more history than
        the per-edge path, which only perturbs the sampled triad census, not
        the type/signature counts the planner relies on.
        """
        for edge in edges:
            self.observe(graph, edge)

    def retract(self, graph, edge: Edge) -> None:
        """Remove an evicted edge's contribution to the type/signature counts.

        Degree and triad counts are *not* retracted: they describe the stream
        the planner is optimising for, and keeping the long-run counts is the
        behaviour described in the paper ("continuously collecting the
        statistics information from the data stream").
        """
        store = graph.graph if hasattr(graph, "graph") else graph
        source_label = (
            store.vertex(edge.source).label if store.has_vertex(edge.source) else None
        )
        target_label = (
            store.vertex(edge.target).label if store.has_vertex(edge.target) else None
        )
        self.edge_labels.retract(edge.label)
        if source_label is not None and target_label is not None:
            self.signatures.retract(source_label, edge.label, target_label)

    @property
    def edges_observed(self) -> int:
        """Total number of edges folded into the summary."""
        return self._edge_count

    def state_dict(self) -> Dict[str, object]:
        """Serialise the full summarizer (distributions, trackers, census)."""
        return {
            "track_triads": self.track_triads,
            "vertex_labels": self.vertex_labels.state_dict(),
            "edge_labels": self.edge_labels.state_dict(),
            "signatures": self.signatures.state_dict(),
            "degree_tracker": self.degree_tracker.state_dict(),
            "triads": self.triads.state_dict(),
            "known_vertices": list(self._known_vertices),
            "edge_count": self._edge_count,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "StreamSummarizer":
        """Rebuild a summarizer from :meth:`state_dict` output.

        Older snapshots also carry the flag of the removed count-min
        backend; the snapshot loader rejects it when set, and an unset flag
        is ignored here.
        """
        summarizer = cls(track_triads=state["track_triads"])
        summarizer.vertex_labels = LabelDistribution.from_state(state["vertex_labels"])
        summarizer.edge_labels = LabelDistribution.from_state(state["edge_labels"])
        summarizer.signatures = SignatureDistribution.from_state(state["signatures"])
        summarizer.degree_tracker = StreamingDegreeTracker.from_state(state["degree_tracker"])
        summarizer.triads = TriadCensus.from_state(state["triads"])
        summarizer._known_vertices = set(state["known_vertices"])
        summarizer._edge_count = state["edge_count"]
        return summarizer

    def summary(self) -> GraphSummary:
        """Return a snapshot :class:`GraphSummary` of the current statistics."""
        return GraphSummary(
            vertex_labels=self.vertex_labels,
            edge_labels=self.edge_labels,
            signatures=self.signatures,
            degrees=self.degree_tracker.distribution(),
            triads=self.triads,
            vertex_count=len(self._known_vertices),
            edge_count=self._edge_count,
        )

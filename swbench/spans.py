"""Span tracing around the calls into each engine layer, from outside ``src/``.

:class:`Tracer` replaces a fixed list of public functions and methods with
wrappers that record one span per call: its name, start, end and the span
that was open when it started (its parent).  Spans are kept in flat arrays
until the run ends; a layer's self time is the duration of its spans minus
the time their child spans cover.  :meth:`Tracer.uninstall` restores every
original attribute.

The wrapped calls, by layer (the span name):

* ``engine`` -- ``StreamWorksEngine.process_batch`` and ``flush``; its self
  time is the batched fast path's own work, where the compiled leaf checks
  run inline;
* ``streaming`` -- ``ReorderBuffer.offer_all``, ``drain_ready``, ``flush``,
  and ``ordered_run_slices``, which splits every directly ingested batch
  into ordered runs;
* ``graph.ingest`` / ``graph.evict`` / ``graph.scan`` --
  ``DynamicGraph.ingest``, ``evict_expired`` and the range-scan
  enumerators ``edges_in_range`` / ``incident_edges_in_range``;
* ``stats`` -- ``StreamSummarizer.observe_batch`` and ``summary``, and the
  statistics module's snapshot codecs (``StreamSummarizer`` and
  ``PlanMonitor`` ``state_dict`` / ``from_state``);
* ``dispatch`` -- ``DispatchIndex.candidates`` and ``front_rejects``;
* ``local_search`` -- ``LocalSearcher.find``;
* ``join`` -- ``try_join`` as the matcher module calls it;
* ``sjtree`` -- ``SJTree.expire_matches`` and ``SJTreeNode.store_match``;
* ``matcher`` -- ``ContinuousQueryMatcher.process_edge_leaves`` and
  ``expire_partials``;
* ``dedup`` -- ``DedupMemory.seen``, ``add`` and ``expire``;
* ``emit`` -- ``MultiSink.deliver``, the engine's event fan-out;
* ``persistence.write`` / ``persistence.read`` -- ``engine_sections`` plus
  ``write_snapshot``, and ``read_snapshot`` plus ``load_engine_sections``;
* ``planner`` -- ``QueryPlanner.plan`` and matcher construction inside
  ``register_query`` (spanned as ``engine.register``).
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.core.engine as engine_module
import repro.core.matcher as matcher_module
import repro.persistence.snapshot as snapshot_module
import repro.persistence.state as state_module
from repro.core.dispatch import DispatchIndex
from repro.core.engine import StreamWorksEngine
from repro.core.local_search import LocalSearcher
from repro.core.matcher import ContinuousQueryMatcher
from repro.core.planner import QueryPlanner
from repro.core.sjtree import SJTree, SJTreeNode
from repro.graph.dynamic_graph import DynamicGraph
from repro.sketch.dedup import DedupMemory
from repro.stats.plan_monitor import PlanMonitor
from repro.stats.summarizer import StreamSummarizer
from repro.streaming.events import MultiSink
from repro.streaming.reorder import ReorderBuffer

#: Span names whose self time is reported, in report order.
LAYERS = (
    "streaming",
    "graph.ingest",
    "graph.evict",
    "graph.scan",
    "stats",
    "dispatch",
    "local_search",
    "join",
    "sjtree",
    "matcher",
    "dedup",
    "emit",
    "persistence.write",
    "persistence.read",
    "planner",
    "engine",
    "engine.register",
)


def _nonempty(result: Any) -> bool:
    return bool(result)


def _not_none(result: Any) -> bool:
    return result is not None


# (owner, attribute, span name, (counter, test of the call's result) or None)
_Outcome = Optional[Tuple[str, Callable[[Any], bool]]]
_TARGETS: Tuple[Tuple[Any, str, str, _Outcome], ...] = (
    (StreamWorksEngine, "process_batch", "engine", None),
    (StreamWorksEngine, "flush", "engine", None),
    (StreamWorksEngine, "register_query", "engine.register", None),
    (ReorderBuffer, "offer_all", "streaming", None),
    (ReorderBuffer, "drain_ready", "streaming", None),
    (ReorderBuffer, "flush", "streaming", None),
    (engine_module, "ordered_run_slices", "streaming", None),
    (DynamicGraph, "ingest", "graph.ingest", None),
    (DynamicGraph, "evict_expired", "graph.evict", None),
    (DynamicGraph, "edges_in_range", "graph.scan", None),
    (DynamicGraph, "incident_edges_in_range", "graph.scan", None),
    (StreamSummarizer, "observe_batch", "stats", None),
    (StreamSummarizer, "summary", "stats", None),
    (StreamSummarizer, "state_dict", "stats", None),
    (StreamSummarizer, "from_state", "stats", None),
    (PlanMonitor, "state_dict", "stats", None),
    (PlanMonitor, "from_state", "stats", None),
    (DispatchIndex, "candidates", "dispatch", None),
    (DispatchIndex, "front_rejects", "dispatch", None),
    (LocalSearcher, "find", "local_search", ("local_search.hit", _nonempty)),
    (matcher_module, "try_join", "join", ("join.success", _not_none)),
    (SJTree, "expire_matches", "sjtree", None),
    (SJTreeNode, "store_match", "sjtree", None),
    (ContinuousQueryMatcher, "process_edge_leaves", "matcher", None),
    (ContinuousQueryMatcher, "expire_partials", "matcher", None),
    (DedupMemory, "seen", "dedup", ("dedup.dup", _nonempty)),
    (DedupMemory, "add", "dedup", None),
    (DedupMemory, "expire", "dedup", None),
    (MultiSink, "deliver", "emit", None),
    (state_module, "engine_sections", "persistence.write", None),
    (snapshot_module, "write_snapshot", "persistence.write", None),
    (snapshot_module, "read_snapshot", "persistence.read", None),
    (state_module, "load_engine_sections", "persistence.read", None),
    (QueryPlanner, "plan", "planner", None),
)


class Tracer:
    """Record a span for every call into the wrapped layer functions."""

    def __init__(self) -> None:
        self.names: List[str] = list(LAYERS)
        self._name_ids = {name: index for index, name in enumerate(self.names)}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = []
        #: Calls per wrapped function, keyed ``"<span>:<attribute>"``.
        self.calls: Dict[str, int] = {}
        #: Positive outcomes for the wrappers that feed a ratio.
        self.hits: Dict[str, int] = {}
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target (raises when already installed)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attribute, span, outcome in _TARGETS:
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            key = f"{span}:{attribute}"
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(self._wrap(original.__func__, span, key, outcome))
            else:
                wrapped = self._wrap(original, span, key, outcome)
            setattr(owner, attribute, wrapped)
        original_init = ContinuousQueryMatcher.__dict__["__init__"]
        self._saved.append((ContinuousQueryMatcher, "__init__", original_init))
        ContinuousQueryMatcher.__init__ = self._wrap_matcher_init(original_init)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    def _wrap(self, function: Callable, span: str, call_key: str, outcome: _Outcome) -> Callable:
        name_id = self._name_ids[span]
        stack = self._stack
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        calls, hits = self.calls, self.hits
        calls.setdefault(call_key, 0)
        counter, test = outcome if outcome is not None else (None, None)
        if counter is not None:
            hits.setdefault(counter, 0)

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            calls[call_key] += 1
            if test is not None and test(result):
                hits[counter] += 1
            return result

        return wrapper

    def _wrap_matcher_init(self, function: Callable) -> Callable:
        """Span matcher construction as ``planner`` only inside ``register_query``."""
        traced = self._wrap(function, "planner", "planner:__init__", None)
        register_id = self._name_ids["engine.register"]
        stack, name_ids = self._stack, self.name_ids

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> None:
            if stack and name_ids[stack[-1]] == register_id:
                traced(*args, **kwargs)
            else:
                function(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    def mark(self) -> int:
        """Return the number of spans so far: the index of the next span."""
        return len(self.starts)

    def self_times(self, first: int = 0) -> Dict[str, float]:
        """Return ``{span name: self seconds}`` over the spans from ``first`` on.

        A span's self time is its duration minus the durations of its
        direct children; spans are strictly nested (one thread), so the
        children never overlap.
        """
        last = len(self.starts)
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        child_time = [0.0] * (last - first)
        for index in range(first, last):
            parent = parents[index]
            if parent >= first:
                child_time[parent - first] += ends[index] - starts[index]
        totals = [0.0] * len(self.names)
        for index in range(first, last):
            totals[name_ids[index]] += ends[index] - starts[index] - child_time[index - first]
        return {name: totals[position] for position, name in enumerate(self.names)}

"""Bounded duplicate-suppression memory: exact store plus eviction heap.

:class:`~repro.core.matcher.ContinuousQueryMatcher` must suppress a match it
has already reported, but remembering every identity forever is an
unbounded-memory liability under adversarial high-cardinality streams.
:class:`DedupMemory` replaces the matcher's grow-only sets with

1. an exact store (``key -> (expiry anchor, insertion seq)``) that answers
   every membership probe with one dict lookup, so suppression is
   byte-identical to the unbounded exact sets, and
2. deterministic eviction: horizon expiry drops entries whose earliest edge
   has left the graph retention window (the only mechanisms that can
   re-surface an old identity -- same-trigger re-discovery and replan
   migration replay -- both operate on retained edges only, so an entry
   whose anchor edge is evicted can never be probed again), and budget
   eviction pops the minimal ``(expiry anchor, seq)`` when the store
   exceeds ``budget``.  Both orders are total and replay identically after
   checkpoint/restore.

Keys are canonical strings (the matcher renders identities through the same
sorted-``repr`` canonicalisation its snapshots use), so the store is
directly JSON-serialisable and hash-seed independent.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

from ..graph.window import TimeWindow

__all__ = ["DedupMemory"]

#: Expiry anchor for entries restored from legacy snapshots that predate
#: anchor tracking: ``+inf`` never expires and is evicted last under budget
#: pressure, which is the conservative (never-emit-a-duplicate) choice.
_LEGACY_ANCHOR = float("inf")


class DedupMemory:
    """Bounded exact membership memory with deterministic eviction.

    Parameters
    ----------
    budget:
        Maximum number of entries in the store; ``None`` means unbounded
        (time-horizon expiry still applies).  When the budget is at least
        the number of identities alive inside the retention horizon,
        suppression is exact; the adversarial-memory tests measure the bound.
    """

    __slots__ = (
        "_budget",
        "_entries",
        "_heap",
        "_seq",
        "probes",
        "confirms",
        "evictions_budget",
        "evictions_horizon",
        "peak_entries",
    )

    def __init__(self, budget: Optional[int] = None):
        if budget is not None and budget < 1:
            raise ValueError("DedupMemory budget must be a positive integer or None")
        self._budget = budget
        # Insertion-ordered: key -> (expiry anchor, insertion seq).
        self._entries: Dict[str, Tuple[float, int]] = {}
        # Min-heap of (anchor, seq, key); seq is unique so keys never compare.
        self._heap: List[Tuple[float, int, str]] = []  # repro-lint: ignore[snapshot-coverage]
        self._seq = 0
        self.probes = 0
        self.confirms = 0
        self.evictions_budget = 0
        self.evictions_horizon = 0
        self.peak_entries = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def seen(self, key: str) -> bool:
        """Return ``True`` when ``key`` is in the store."""
        self.probes += 1
        if key in self._entries:
            self.confirms += 1
            return True
        return False

    def add(self, key: str, anchor: float) -> None:
        """Record ``key`` with expiry ``anchor`` (its earliest edge time).

        Re-adding a live key is a no-op: the original anchor and insertion
        sequence keep governing its eviction order.
        """
        if key in self._entries:
            return
        seq = self._seq
        self._seq += 1
        self._entries[key] = (anchor, seq)
        heapq.heappush(self._heap, (anchor, seq, key))
        if self._budget is not None:
            while len(self._entries) > self._budget:
                self._evict_oldest()
        size = len(self._entries)
        if size > self.peak_entries:
            self.peak_entries = size

    def _evict_oldest(self) -> None:
        while self._heap:
            anchor, seq, key = heapq.heappop(self._heap)
            live = self._entries.get(key)
            if live is not None and live[1] == seq:
                del self._entries[key]
                self.evictions_budget += 1
                return

    def expire(self, window: TimeWindow, now: float) -> int:
        """Drop entries whose anchor has left ``window`` at time ``now``.

        The caller passes the graph *retention* window and a conservative
        (batch-start) ``now``: an entry survives exactly as long as its
        earliest edge could still be in the retained graph, which is the
        longest horizon over which its identity could ever be re-derived.
        """
        dropped = 0
        while self._heap:
            anchor, seq, key = self._heap[0]
            if not window.is_expired(anchor, now):
                break
            heapq.heappop(self._heap)
            live = self._entries.get(key)
            if live is not None and live[1] == seq:
                del self._entries[key]
                self.evictions_horizon += 1
                dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        """Number of keys currently in the store (measured)."""
        return len(self._entries)

    @property
    def budget(self) -> Optional[int]:
        """Configured entry budget (``None`` = unbounded)."""
        return self._budget

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def stats(self) -> Dict[str, Any]:
        """Return the counter snapshot surfaced under ``metrics()["sketch"]``."""
        return {
            "budget": self._budget,
            "entries": len(self._entries),
            "peak_entries": self.peak_entries,
            "probes": self.probes,
            "confirms": self.confirms,
            "evictions_budget": self.evictions_budget,
            "evictions_horizon": self.evictions_horizon,
        }

    def clear(self) -> None:
        """Forget everything (counters included)."""
        self._entries = {}
        self._heap = []
        self._seq = 0
        self.probes = 0
        self.confirms = 0
        self.evictions_budget = 0
        self.evictions_horizon = 0
        self.peak_entries = 0

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Serialise entries (insertion order) and counters."""
        return {
            "budget": self._budget,
            "entries": [
                [key, anchor, seq] for key, (anchor, seq) in self._entries.items()
            ],
            "seq": self._seq,
            "probes": self.probes,
            "confirms": self.confirms,
            "evictions_budget": self.evictions_budget,
            "evictions_horizon": self.evictions_horizon,
            "peak_entries": self.peak_entries,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore from :meth:`state_dict`; eviction order replays exactly.

        Snapshots written while a cuckoo filter fronted the store also carry
        the filter's cells and counters.  The filter only ever screened this
        exact store, so those keys are ignored.
        """
        budget = state["budget"]
        self._budget = None if budget is None else int(budget)
        self._entries = {
            str(key): (float(anchor), int(seq)) for key, anchor, seq in state["entries"]
        }
        self._heap = [(anchor, seq, key) for key, (anchor, seq) in self._entries.items()]
        heapq.heapify(self._heap)
        self._seq = int(state["seq"])
        self.probes = int(state["probes"])
        self.confirms = int(state["confirms"])
        self.evictions_budget = int(state["evictions_budget"])
        self.evictions_horizon = int(state["evictions_horizon"])
        self.peak_entries = int(state["peak_entries"])

    def load_legacy_keys(self, keys: List[str]) -> None:
        """Seed the store from a pre-sketch snapshot's bare key list.

        Legacy snapshots carry no expiry anchors; restored entries get
        ``+inf`` anchors so they never time-expire and are budget-evicted
        last -- a superset of the old unbounded-set behaviour, which keeps
        the no-duplicate-emission contract intact across the upgrade.
        """
        for key in keys:
            self.add(key, _LEGACY_ANCHOR)

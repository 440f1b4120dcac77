"""Bounded duplicate-suppression memory for the continuous matchers.

:class:`DedupMemory` is an exact ``key -> (expiry anchor, seq)`` store with
deterministic horizon and budget eviction; it round-trips byte-exactly
through ``state_dict()`` / ``load_state()`` so checkpoint/restore replays
future suppression decisions identically.
"""

from .dedup import DedupMemory

__all__ = ["DedupMemory"]

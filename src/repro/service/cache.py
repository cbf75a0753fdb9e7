"""LRU result cache keyed by the canonical request digest.

Placement queries repeat heavily in a broker setting — every member of
a campaign asks for the same (platform, ensemble, objective,
fault-model) plan — so finished result payloads are cached under their
request's :func:`~repro.service.schemas.canonical_digest`. A repeated
query is then an O(1) dictionary lookup that never reaches a worker;
``scripts/bench_service.py`` records the measured speedup (>= 10x
floor) in ``BENCH_service.json``.

The cache stores each result payload as compact JSON text and decodes
it on a hit. Payloads are JSON-ready (plain dicts/lists/floats) and
JSON keeps floats exact, so a hit returns a payload equal to the one a
worker produced — bit-identical floats, as the determinism tests
assert — while an entry costs its text (about 1.4 KB for a search)
instead of a tree of Python objects (about 10 KB). Eviction is
least-recently-*used* (hits refresh recency), and the
hit/miss/eviction counters feed ``GET /stats``.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Dict, Optional

from repro.util.errors import ValidationError


class ResultCache:
    """Thread-safe LRU of result payloads, keyed by request digest.

    Parameters
    ----------
    max_entries:
        Capacity; the least recently used entry is evicted on
        overflow. Must be positive.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries <= 0:
            raise ValidationError(
                f"max_entries must be > 0, got {max_entries!r}"
            )
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, str]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, digest: str) -> Optional[dict]:
        """A fresh copy of the cached payload for ``digest``, or None."""
        with self._lock:
            text = self._entries.get(digest)
            if text is None:
                self.misses += 1
                return None
            self._entries.move_to_end(digest)
            self.hits += 1
        return json.loads(text)

    def put(self, digest: str, payload: dict) -> None:
        """Insert (or refresh) one payload, evicting LRU on overflow."""
        text = json.dumps(payload, separators=(",", ":"))
        with self._lock:
            if digest in self._entries:
                self._entries.move_to_end(digest)
            self._entries[digest] = text
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus occupancy."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "max_entries": self.max_entries,
            }

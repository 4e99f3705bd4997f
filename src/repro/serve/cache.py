"""The LRU graph/session cache behind the serving layer's hot path.

Building a session (parse + annotate + allocate, ~100 ms) dwarfs what
any warm request costs afterwards (~0.1–1 ms against memoized
estimators), so the server keys sessions by their
:func:`~repro.api.session.session_key` content hash and keeps the most
recently used ``capacity`` of them.

Properties:

* **Thread-safe.**  One lock guards the LRU order; session builds run
  outside it so a slow parse never blocks hits on other keys.
* **Build coalescing.**  Concurrent misses on the same key build once:
  the first thread in becomes the builder, later threads wait on its
  event and then re-read the cache — a thundering herd of identical
  cold requests costs one parse, not N.
* **Counted.**  Hits/misses/evictions are tracked locally (surfaced in
  ``GET /v1/stats``) and mirrored to :mod:`repro.obs` counters
  (``serve.cache.hits`` / ``.misses`` / ``.evictions``) when
  instrumentation is enabled.
* **Disableable.**  ``capacity=0`` turns the cache off entirely: every
  request parses from scratch.  That is the "cold" baseline the
  throughput benchmark compares against.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Tuple

from repro.api.frontends import FRONTENDS
from repro.api.session import Session, load, session_key
from repro.obs import OBS


class GraphCache:
    """Thread-safe LRU of parsed+annotated :class:`Session` objects."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        self._building: Dict[str, threading.Event] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def keys(self) -> List[str]:
        """Cached keys, least recently used first."""
        with self._lock:
            return list(self._sessions)

    def clear(self) -> None:
        with self._lock:
            self._sessions.clear()

    def get(self, spec: str) -> Tuple[Session, bool]:
        """Return ``(session, hit)`` for a spec, building on miss.

        The spec is resolved through the front-end registry once: the
        key and, on a miss, the build both come from that one
        resolution.  With ``capacity=0`` every call builds a fresh
        session (counted as a miss) — the parse-per-request baseline.
        """
        resolved = FRONTENDS.resolve(spec)
        if self.capacity == 0:
            self._count_miss()
            return load(resolved), False
        key = session_key(resolved)
        while True:
            with self._lock:
                session = self._sessions.get(key)
                if session is not None:
                    self._sessions.move_to_end(key)
                    self.hits += 1
                    if OBS.enabled:
                        OBS.inc("serve.cache.hits")
                    return session, True
                pending = self._building.get(key)
                if pending is None:
                    pending = threading.Event()
                    self._building[key] = pending
                    break  # this thread builds
            # Another thread is building this key: wait, then re-read.
            pending.wait()
        try:
            session = load(resolved)
        except BaseException:
            with self._lock:
                self._building.pop(key, None)
            pending.set()
            raise
        with self._lock:
            self._sessions[key] = session
            self._sessions.move_to_end(key)
            while len(self._sessions) > self.capacity:
                self._sessions.popitem(last=False)
                self.evictions += 1
                if OBS.enabled:
                    OBS.inc("serve.cache.evictions")
            self._building.pop(key, None)
        pending.set()
        self._count_miss()
        return session, False

    def _count_miss(self) -> None:
        with self._lock:
            self.misses += 1
        if OBS.enabled:
            OBS.inc("serve.cache.misses")

    def stats(self) -> Dict[str, object]:
        """Plain-data snapshot for ``GET /v1/stats``."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._sessions),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

"""The chunk lifecycle every sweep scheduler drives.

A :class:`ChunkLedger` moves one sweep's chunks through ``pending ->
leased -> done | error | exhausted | pruned``.  The local process pool
(:mod:`repro.explore.engine`) and the fleet coordinator
(:mod:`repro.fleet.coordinator`) both drive one and add only their own
transport.  The rules: a failed, timed-out (:meth:`~ChunkLedger.expire`)
or orphaned (:meth:`~ChunkLedger.release_owner`) lease is requeued after
the seeded ``RetryPolicy.delay`` backoff until the retry budget is spent;
the first result for a chunk wins; a :class:`~repro.errors.WorkerError`
is never retried and prunes every chunk past it; and
:meth:`~ChunkLedger.outcome` names what the in-process fallback must
still run.  The clock is injectable, so every rule is testable with a
fake one.

>>> from repro.explore.engine import RetryPolicy
>>> from repro.explore.plan import Chunk
>>> now = [0.0]
>>> ledger = ChunkLedger(
...     [Chunk(0, ()), Chunk(1, ())],
...     RetryPolicy(retries=1, backoff=1.0, jitter=0.0),
...     clock=lambda: now[0],
... )
>>> [s.chunk.index for s in ledger.ready()]
[0, 1]
>>> ledger.lease(0, "w1")
>>> ledger.fail(0, "OSError: link down")
True
>>> ledger.chunks[0].status, ledger.chunks[0].ready_at
('pending', 1.0)
>>> ledger.complete(1, "result")
True
>>> ledger.complete(1, "late duplicate")
False
>>> now[0] = 1.0
>>> ledger.lease(0, "w2")
>>> ledger.fail(0, "OSError: link down")
True
>>> ledger.chunks[0].status, ledger.settled()
('exhausted', True)
>>> outcome = ledger.outcome()
>>> outcome["leftovers"], outcome["exhausted_error"]
([0], 'chunk 0 failed after 2 attempts: OSError: link down')
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.explore.plan import Chunk


@dataclass
class ChunkState:
    """One chunk's place in the lifecycle."""

    chunk: Chunk
    status: str = "pending"
    attempt: int = 0                  # 0-based; bumped on every requeue
    ready_at: float = 0.0             # backoff: not leased before this
    owner: Optional[str] = None       # who holds the lease
    leased_at: float = 0.0
    result: Any = None                # first completion, verbatim
    error: Optional[str] = None       # the WorkerError message
    cause: str = ""                   # the last transient failure


class ChunkLedger:
    """One sweep's chunks, moved through the lifecycle by its scheduler.

    ``on_event(kind, delay)`` is called with ``("requeued", delay)``
    and ``("exhausted", 0.0)`` as they happen, for schedulers that keep
    per-event metrics; :attr:`requeues`, :attr:`timeouts` and
    :attr:`lost` count the same recoveries for the sweep as a whole.
    """

    def __init__(
        self,
        chunks: Iterable[Chunk],
        policy,                         # a repro.explore.engine.RetryPolicy
        clock: Callable[[], float] = time.monotonic,
        on_event: Optional[Callable[[str, float], None]] = None,
    ) -> None:
        self.policy = policy
        self.clock = clock
        self.on_event = on_event
        self.chunks: Dict[int, ChunkState] = {
            chunk.index: ChunkState(chunk)
            for chunk in sorted(chunks, key=lambda chunk: chunk.index)
        }
        self.requeues = 0
        self.timeouts = 0
        self.lost = 0

    # -- queries -------------------------------------------------------

    def ready(self) -> List[ChunkState]:
        """Pending chunks whose backoff has elapsed, lowest index first."""
        now = self.clock()
        return [
            state
            for state in self.chunks.values()
            if state.status == "pending" and state.ready_at <= now
        ]

    def settled(self) -> bool:
        """True once no chunk is pending or leased."""
        return not any(
            s.status in ("pending", "leased") for s in self.chunks.values()
        )

    def _min_error(self) -> float:
        return next(
            (i for i, s in self.chunks.items() if s.status == "error"),
            math.inf,
        )

    def outcome(self) -> Dict[str, Any]:
        """How the sweep stands, in the plain-JSON form the fleet ships.

        ``leftovers`` are the unfinished chunks below the lowest error:
        after a normal settle the exhausted ones, after a scheduler
        gave up (an abandoned pool, a fleet with no workers) also
        whatever was still pending or leased.  ``exhausted_error`` is
        the :class:`~repro.errors.PartitionError` message for the
        lowest exhausted leftover, ``error`` the lowest
        :class:`~repro.errors.WorkerError`.
        """
        min_err = self._min_error()
        leftovers = [
            state
            for index, state in self.chunks.items()
            if index < min_err
            and state.status in ("pending", "leased", "exhausted")
        ]
        exhausted = next(
            (s for s in leftovers if s.status == "exhausted"), None
        )
        return {
            "leftovers": [state.chunk.index for state in leftovers],
            "exhausted_error": None if exhausted is None else (
                f"chunk {exhausted.chunk.index} failed after "
                f"{exhausted.attempt + 1} attempts: {exhausted.cause}"
            ),
            "error": None if min_err == math.inf else {
                "chunk_index": min_err,
                "message": self.chunks[min_err].error,
            },
            "stats": {
                "requeues": self.requeues,
                "timeouts": self.timeouts,
                "workers_lost": self.lost,
            },
        }

    # -- transitions ---------------------------------------------------

    def lease(self, index: int, owner: str) -> None:
        state = self.chunks[index]
        state.status = "leased"
        state.owner = owner
        state.leased_at = self.clock()

    def complete(self, index: int, result: Any) -> bool:
        """Record a chunk's result; False for a duplicate (first wins).

        A late result for a chunk already requeued or exhausted still
        counts: it is the same pure function of the same inputs.
        """
        state = self.chunks[index]
        if state.status in ("done", "error", "pruned"):
            return False
        state.status = "done"
        state.owner = None
        state.result = result
        return True

    def error(self, index: int, message: str) -> bool:
        """Record a deterministic candidate failure; never retried.

        Prunes every pending chunk past ``index``.  False when the
        chunk had already finished.
        """
        state = self.chunks[index]
        if state.status in ("done", "error", "pruned"):
            return False
        state.status = "error"
        state.owner = None
        state.error = message
        for later, other in self.chunks.items():
            if later > index and other.status == "pending":
                other.status = "pruned"
        return True

    def fail(
        self, index: int, cause: str, attempt: Optional[int] = None
    ) -> bool:
        """A leased chunk failed transiently: requeue it or exhaust it.

        ``attempt`` names the lease that failed; a report for an older
        lease (one already expired or requeued) is ignored, and so
        returns False.
        """
        state = self.chunks[index]
        if state.status != "leased" or attempt not in (None, state.attempt):
            return False
        self._requeue(state, cause)
        return True

    def expire(self) -> List[int]:
        """Requeue every lease older than ``policy.timeout``.

        Returns the expired chunk indexes, so the scheduler can forget
        the abandoned work.
        """
        timeout = self.policy.timeout
        if timeout is None:
            return []
        now = self.clock()
        expired = [
            index
            for index, state in self.chunks.items()
            if state.status == "leased" and now - state.leased_at >= timeout
        ]
        for index in expired:
            state = self.chunks[index]
            self.timeouts += 1
            self._requeue(
                state,
                f"ChunkTimeoutError: chunk {index} exceeded its {timeout}s "
                f"timeout (attempt {state.attempt})",
            )
        return expired

    def release_owner(self, owner: str, cause: str) -> int:
        """Requeue every lease ``owner`` holds; returns how many."""
        held = [
            state
            for state in self.chunks.values()
            if state.status == "leased" and state.owner == owner
        ]
        for state in held:
            self.lost += 1
            self._requeue(state, cause)
        return len(held)

    def _requeue(self, state: ChunkState, cause: str) -> None:
        state.owner = None
        state.cause = cause
        if state.chunk.index > self._min_error():
            state.status = "pruned"
            return
        if state.attempt + 1 > self.policy.retries:
            state.status = "exhausted"
            if self.on_event is not None:
                self.on_event("exhausted", 0.0)
            return
        state.attempt += 1
        delay = self.policy.delay(state.chunk.index, state.attempt)
        state.status = "pending"
        state.ready_at = self.clock() + delay
        self.requeues += 1
        if self.on_event is not None:
            self.on_event("requeued", delay)

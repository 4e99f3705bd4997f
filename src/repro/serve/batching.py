"""Opportunistic micro-batching of estimate requests that share a graph.

Estimation is deterministic per (session key, mode, concurrent), so the
:class:`MicroBatcher` shares work between requests without ever waiting
on a timer.  A request for a graph with no batch in flight computes at
once, on its own thread.  Requests for that graph that arrive while a
batch computes join one *pending* batch; when the running batch
finishes, the pending batch's first arrival leads it and scores every
distinct key in one ``batch_compute`` call.  This is the adaptive
batching of Clipper and TF-Serving: batches grow with load, and a lone
request pays nothing for them.  One batch per graph in flight loses no
parallelism, since estimates on one session serialise on its lock.

A batch holds the GIL for its whole evaluation, so its leader first
yields the GIL once: handler threads that already hold a request for
the graph then queue behind the batch instead of each leading one.

Counters (local, mirrored to :mod:`repro.obs` when enabled):
``serve.batch.leaders`` (evaluations performed), ``serve.batch.coalesced``
(requests served by someone else's evaluation) and the
``serve.batch.size`` histogram (requests per evaluated batch).
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, Hashable, TypeVar

from repro.obs import OBS

T = TypeVar("T")

#: Upper bound on how long a request waits for someone else's batch
#: before computing on its own (a batch stuck this long means something
#: is deeply wrong; its waiters must not hang with it).
FOLLOWER_TIMEOUT = 60.0

#: Give up the GIL once, without sleeping (a no-op where the platform
#: has no ``sched_yield``).  With no other thread runnable it returns
#: at once.
_yield_gil = getattr(os, "sched_yield", lambda: None)


class _Batch:
    """One batch of one group: distinct keys, one evaluation.

    Only a batch queued behind a running one can be joined or has to
    wait, so only it carries events: ``ready`` is set when it may
    compute, ``done`` when its results are in.
    """

    __slots__ = ("keys", "waiters", "ready", "done", "results", "error")

    def __init__(self, key: Hashable, queued: bool) -> None:
        self.keys = [key]       # distinct keys, arrival order
        self.waiters = 0        # requests served by this batch's leader
        self.ready = threading.Event() if queued else None
        self.done = threading.Event() if queued else None
        self.results = None
        self.error: BaseException = None


def _unwrap(value: T) -> T:
    if isinstance(value, BaseException):
        raise value
    return value


class MicroBatcher:
    """Batch what queues behind a running evaluation; never wait on a timer."""

    def __init__(self) -> None:
        self._running: Dict[Hashable, _Batch] = {}
        self._pending: Dict[Hashable, _Batch] = {}
        self._lock = threading.Lock()
        self.leaders = 0
        self.coalesced = 0

    def run_grouped(
        self,
        group: Hashable,
        key: Hashable,
        batch_compute: Callable[[list], Dict[Hashable, T]],
    ) -> T:
        """Return ``key``'s result, computed in one batch with its ``group``.

        ``group`` names what requests share (e.g. the cached graph);
        ``key`` what distinguishes them (e.g. frequency mode).  The
        batch's leader calls ``batch_compute(keys)`` once with every
        distinct key of its batch — the hook the estimation kernel's
        batched sweep plugs into.  ``batch_compute`` returns a dict with
        one result per key; a value that is an exception instance is
        raised to that key's waiters only, and an exception raised by
        ``batch_compute`` itself only to its own batch's waiters.
        Identical keys coalesce, so results must be deterministic.
        """
        with self._lock:
            batch = self._pending.get(group)
            lead = batch is None
            if group not in self._running:
                batch = self._running[group] = _Batch(key, queued=False)
                lead = True
            elif lead:
                batch = self._pending[group] = _Batch(key, queued=True)
            else:
                batch.waiters += 1
                if key not in batch.keys:
                    batch.keys.append(key)
        if not lead:
            if not batch.done.wait(FOLLOWER_TIMEOUT):
                return _unwrap(batch_compute([key])[key])  # batch wedged
            with self._lock:
                self.coalesced += 1
            if OBS.enabled:
                OBS.inc("serve.batch.coalesced")
            if batch.error is not None:
                raise batch.error
            return _unwrap(batch.results[key])
        if batch.ready is not None and not batch.ready.wait(FOLLOWER_TIMEOUT):
            # The running batch is wedged: close this one to new arrivals
            # and compute it beside the stuck one (unless it was promoted
            # just as the wait timed out).
            with self._lock:
                if self._pending.get(group) is batch:
                    del self._pending[group]
        _yield_gil()
        # A queued batch was promoted (or detached) under the lock, so
        # its key list is closed: everyone who joined is in the snapshot.
        with self._lock:
            self.leaders += 1
            keys = list(batch.keys)
        try:
            batch.results = batch_compute(keys)
        except BaseException as exc:
            batch.error = exc
            raise
        finally:
            if OBS.enabled:
                OBS.inc("serve.batch.leaders")
                OBS.observe("serve.batch.size", 1 + batch.waiters)
            self._finish(group, batch)
        return _unwrap(batch.results[key])

    def _finish(self, group: Hashable, batch: _Batch) -> None:
        """Release ``batch``'s waiters and start the group's next batch."""
        successor = None
        with self._lock:
            if self._running.get(group) is batch:
                successor = self._pending.pop(group, None)
                if successor is None:
                    del self._running[group]
                else:
                    self._running[group] = successor
        if batch.done is not None:
            batch.done.set()
        if successor is not None:
            successor.ready.set()

    def stats(self) -> Dict[str, object]:
        """Plain-data snapshot for ``GET /v1/stats``.

        ``window_seconds`` is how long a leader waits before computing
        (always 0); ``pending`` counts requests queued behind a running
        batch.
        """
        with self._lock:
            return {
                "window_seconds": 0.0,
                "leaders": self.leaders,
                "coalesced": self.coalesced,
                "pending": sum(1 + b.waiters for b in self._pending.values()),
            }

"""The fleet coordinator: registration, leasing, liveness, collection.

One :class:`FleetCoordinator` lives inside a ``slif serve`` daemon (or
directly in-process for tests) and owns the scheduling state of every
submitted sweep.  All operations go through :meth:`~FleetCoordinator.
handle` — a named-operation dispatcher shared by the HTTP surface
(``POST /v1/fleet/<op>``) and the in-process
:class:`~repro.fleet.client.LocalTransport` — so the protocol is
testable without sockets.

Scheduling model (pull-based):

* Each sweep's chunks live in a :class:`~repro.explore.ledger.
  ChunkLedger`, the same lifecycle the local pool drives: seeded
  backoff requeues, lease timeouts, first-wins results, and pruning
  past the lowest :class:`~repro.errors.WorkerError`.  This module
  adds what only a fleet has: workers, their liveness, and routing.
* Workers :func:`register <FleetCoordinator>`, then heartbeat on the
  interval the coordinator dictates; a worker silent for
  ``heartbeat_timeout`` seconds is declared dead, removed from the
  consistent-hash ring, and its leases are requeued in every sweep.
* ``pull`` leases at most one ready chunk per call.  Routing prefers a
  chunk whose sweep's ``session_key`` hashes to the pulling worker
  (``fleet.route.affinity``) — keeping a spec's chunks on one warm
  runner cache — but hands out any ready chunk otherwise
  (``fleet.route.spill``): an idle worker is never left idle for the
  sake of affinity.
* ``collect`` hands the sweep's client new results, the lowest
  failure, and the ledger's leftovers — what the client runs
  in-process once the sweep settles or the fleet disappears.

Telemetry: an always-on private registry (independent of the global
obs switch, like the serve layer's RED metrics) records the
``fleet.*`` counter/gauge families that ``/v1/stats`` and ``/metrics``
expose as ``slif_fleet_*``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import FleetError
from repro.explore.ledger import ChunkLedger, ChunkState
from repro.fleet.hashring import HashRing
from repro.fleet.protocol import (
    chunk_from_wire,
    chunk_to_wire,
    payload_fingerprint,
    policy_from_wire,
)
from repro.obs import Registry


@dataclass
class FleetConfig:
    """Coordinator tuning (the ``slif serve --fleet-heartbeat`` knob)."""

    heartbeat_interval: float = 1.0   # workers beat this often
    heartbeat_timeout: float = 4.0    # silent longer than this = dead
    vnodes: int = 64                  # virtual points per worker on the ring
    pull_retry_hint: float = 0.05     # suggested wait when no chunk is ready


@dataclass
class WorkerInfo:
    """One registered worker's liveness bookkeeping."""

    worker_id: str
    pid: int = 0
    host: str = ""
    last_seen: float = 0.0
    chunks_done: int = 0


@dataclass
class _Sweep:
    sweep_id: str
    payload: Dict[str, Any]                       # wire form, verbatim
    fingerprint: str
    session_key: str
    collect: bool
    trace_id: Optional[str]
    ledger: ChunkLedger                           # results in wire form
    delivered: set = field(default_factory=set)   # chunk indexes collected
    reported_exhausted: set = field(default_factory=set)

    @property
    def chunks(self) -> Dict[int, ChunkState]:
        return self.ledger.chunks


class FleetCoordinator:
    """Scheduling state and protocol handler for one fleet."""

    #: Operations :meth:`handle` dispatches (the ``/v1/fleet/*`` names).
    OPS = (
        "register",
        "heartbeat",
        "pull",
        "payload",
        "result",
        "sweep",
        "collect",
        "cancel",
        "status",
    )

    def __init__(
        self,
        config: Optional[FleetConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or FleetConfig()
        self.clock = clock
        self.registry = Registry(enabled=True)   # fleet.* -> slif_fleet_*
        self.ring = HashRing(vnodes=self.config.vnodes)
        self.workers: Dict[str, WorkerInfo] = {}
        self.sweeps: Dict[str, _Sweep] = {}
        self._lock = threading.RLock()
        self._worker_seq = 0
        self._sweep_seq = 0

    # -- dispatch ------------------------------------------------------

    def handle(self, op: str, data: Dict[str, Any]) -> Dict[str, Any]:
        """Run one named operation; the single protocol entry point."""
        if op not in self.OPS:
            raise FleetError(
                f"unknown fleet operation {op!r}; available: {self.OPS}"
            )
        if not isinstance(data, dict):
            raise FleetError(f"fleet {op} body must be a JSON object")
        with self._lock:
            self._reap(self.clock())
            try:
                return getattr(self, f"_op_{op}")(data)
            except KeyError as exc:
                raise FleetError(
                    f"fleet {op} request is missing field {exc}"
                ) from None

    # -- liveness ------------------------------------------------------

    def _reap(self, now: float) -> None:
        """Declare silent workers dead; requeue their and expired leases.

        Lease expiry is the policy's compute budget, enforced here
        because a hung worker still heartbeats.
        """
        dead = [
            info.worker_id
            for info in self.workers.values()
            if now - info.last_seen > self.config.heartbeat_timeout
        ]
        for worker_id in dead:
            del self.workers[worker_id]
            self.ring.remove(worker_id)
            self.registry.inc("fleet.workers.lost")
            for sweep in self.sweeps.values():
                sweep.ledger.release_owner(
                    worker_id, f"FleetError: worker {worker_id} was lost"
                )
        for sweep in self.sweeps.values():
            sweep.ledger.expire()
        self._set_gauges()

    def _set_gauges(self) -> None:
        self.registry.set_gauge("fleet.workers.alive", len(self.workers))
        self.registry.set_gauge(
            "fleet.sweeps.active",
            sum(1 for s in self.sweeps.values() if not s.ledger.settled()),
        )

    def _count_event(self, kind: str, delay: float) -> None:
        self.registry.inc(f"fleet.chunks.{kind}")

    # -- worker-facing operations --------------------------------------

    def _op_register(self, data: Dict[str, Any]) -> Dict[str, Any]:
        worker_id = data.get("worker_id")
        if not worker_id:
            self._worker_seq += 1
            worker_id = f"w{self._worker_seq:04d}-{data.get('pid', 0)}"
        info = WorkerInfo(
            worker_id=worker_id,
            pid=int(data.get("pid", 0)),
            host=str(data.get("host", "")),
            last_seen=self.clock(),
        )
        self.workers[worker_id] = info
        self.ring.add(worker_id)
        self.registry.inc("fleet.workers.registered")
        self._set_gauges()
        return {
            "worker_id": worker_id,
            "heartbeat_interval": self.config.heartbeat_interval,
            "heartbeat_timeout": self.config.heartbeat_timeout,
        }

    def _require_worker(self, data: Dict[str, Any]) -> WorkerInfo:
        worker_id = data["worker_id"]
        info = self.workers.get(worker_id)
        if info is None:
            raise FleetError(
                f"unknown worker {worker_id!r} (dead or never registered); "
                f"re-register and pull again"
            )
        info.last_seen = self.clock()
        return info

    def _op_heartbeat(self, data: Dict[str, Any]) -> Dict[str, Any]:
        self._require_worker(data)
        return {"ok": True}

    def _op_pull(self, data: Dict[str, Any]) -> Dict[str, Any]:
        info = self._require_worker(data)
        pick = None
        route = "spill"
        for sweep_id in sorted(self.sweeps):      # submission order (s0001..)
            sweep = self.sweeps[sweep_id]
            ready = sweep.ledger.ready()
            if not ready:
                continue
            if self.ring.lookup(sweep.session_key) == info.worker_id:
                pick, route = (sweep, ready[0]), "affinity"
                break
            if pick is None:
                pick = (sweep, ready[0])
        if pick is None:
            return {"lease": None, "retry_in": self.config.pull_retry_hint}
        sweep, state = pick
        self.registry.inc(f"fleet.route.{route}")
        sweep.ledger.lease(state.chunk.index, info.worker_id)
        self.registry.inc("fleet.chunks.dispatched")
        return {
            "lease": {
                "sweep_id": sweep.sweep_id,
                "chunk": chunk_to_wire(state.chunk),
                "attempt": state.attempt,
                "fingerprint": sweep.fingerprint,
                "collect": sweep.collect,
                "trace_id": sweep.trace_id,
            }
        }

    def _op_payload(self, data: Dict[str, Any]) -> Dict[str, Any]:
        sweep = self.sweeps.get(data["sweep_id"])
        if sweep is None:
            raise FleetError(f"unknown sweep {data['sweep_id']!r}")
        return {"payload": sweep.payload, "fingerprint": sweep.fingerprint}

    def _op_result(self, data: Dict[str, Any]) -> Dict[str, Any]:
        worker_id = data["worker_id"]
        info = self.workers.get(worker_id)
        if info is not None:
            info.last_seen = self.clock()
        sweep = self.sweeps.get(data["sweep_id"])
        if sweep is None:
            # cancelled/collected sweep: nothing to do with the result
            return {"ok": False, "reason": "unknown-sweep"}
        index = int(data["chunk_index"])
        state = sweep.chunks.get(index)
        if state is None:
            raise FleetError(
                f"sweep {sweep.sweep_id} has no chunk {data['chunk_index']}"
            )
        if info is not None and state.owner == worker_id:
            info.chunks_done += 1
        error = data.get("error")
        if error is None:
            accepted = sweep.ledger.complete(index, data["result"])
            counter = "fleet.chunks.completed"
        elif error.get("worker_error"):
            # deterministic candidate failure: retrying cannot help
            accepted = sweep.ledger.error(
                index, str(error.get("message", "worker error"))
            )
            counter = "fleet.chunks.errors"
        else:
            accepted = sweep.ledger.fail(
                index,
                str(error.get("message", "worker failure")),
                attempt=data.get("attempt"),
            )
            counter = None
        if not accepted:
            # a late submission for a chunk the sweep already finished
            # or wrote off; accepting it could un-prune past an error
            self.registry.inc("fleet.chunks.duplicates")
            return {"ok": True, "duplicate": True}
        if counter is not None:
            self.registry.inc(counter)
        self._set_gauges()
        return {"ok": True}

    # -- sweep-client operations ---------------------------------------

    def _op_sweep(self, data: Dict[str, Any]) -> Dict[str, Any]:
        chunks = [chunk_from_wire(wire) for wire in data["chunks"]]
        if not chunks:
            raise FleetError("a sweep needs at least one chunk")
        self._sweep_seq += 1
        sweep_id = f"s{self._sweep_seq:04d}"
        payload = data["payload"]
        sweep = _Sweep(
            sweep_id=sweep_id,
            payload=payload,
            fingerprint=payload_fingerprint(payload),
            session_key=str(data.get("session_key", "")),
            collect=bool(data.get("collect", False)),
            trace_id=data.get("trace_id"),
            ledger=ChunkLedger(
                chunks,
                policy_from_wire(data.get("policy")),
                clock=self.clock,
                on_event=self._count_event,
            ),
        )
        self.sweeps[sweep_id] = sweep
        self.registry.inc("fleet.sweeps.submitted")
        self.registry.inc("fleet.chunks.submitted", len(chunks))
        self._set_gauges()
        return {"sweep_id": sweep_id, "fingerprint": sweep.fingerprint}

    def _op_collect(self, data: Dict[str, Any]) -> Dict[str, Any]:
        sweep = self.sweeps.get(data["sweep_id"])
        if sweep is None:
            raise FleetError(f"unknown sweep {data['sweep_id']!r}")
        results: List[Dict[str, Any]] = []
        for index in sorted(sweep.chunks):
            state = sweep.chunks[index]
            if state.status == "done" and index not in sweep.delivered:
                sweep.delivered.add(index)
                results.append(state.result)
        exhausted = sorted(
            index
            for index, state in sweep.chunks.items()
            if state.status == "exhausted"
            and index not in sweep.reported_exhausted
        )
        sweep.reported_exhausted.update(exhausted)
        return {
            "results": results,
            "exhausted": exhausted,
            "complete": sweep.ledger.settled(),
            "workers_alive": len(self.workers),
            **sweep.ledger.outcome(),
        }

    def _op_cancel(self, data: Dict[str, Any]) -> Dict[str, Any]:
        sweep = self.sweeps.pop(data["sweep_id"], None)
        if sweep is None:
            return {"ok": False, "reason": "unknown-sweep"}
        if sweep.ledger.settled():
            self.registry.inc("fleet.sweeps.completed")
        else:
            self.registry.inc("fleet.sweeps.cancelled")
        self._set_gauges()
        return {"ok": True}

    # -- observability -------------------------------------------------

    def _op_status(self, data: Dict[str, Any]) -> Dict[str, Any]:
        now = self.clock()
        return {
            "workers_alive": len(self.workers),
            "workers": [
                {
                    "worker_id": info.worker_id,
                    "pid": info.pid,
                    "host": info.host,
                    "last_seen_age": round(now - info.last_seen, 3),
                    "leases": self._leases(info.worker_id),
                    "chunks_done": info.chunks_done,
                }
                for _, info in sorted(self.workers.items())
            ],
            "sweeps": [
                {
                    "sweep_id": sweep.sweep_id,
                    "session_key": sweep.session_key,
                    "chunks": len(sweep.chunks),
                    "by_status": self._by_status(sweep),
                    "complete": sweep.ledger.settled(),
                }
                for _, sweep in sorted(self.sweeps.items())
            ],
            "heartbeat_interval": self.config.heartbeat_interval,
            "heartbeat_timeout": self.config.heartbeat_timeout,
        }

    def _leases(self, worker_id: str) -> int:
        return sum(
            1
            for sweep in self.sweeps.values()
            for state in sweep.chunks.values()
            if state.status == "leased" and state.owner == worker_id
        )

    @staticmethod
    def _by_status(sweep: _Sweep) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for state in sweep.chunks.values():
            counts[state.status] = counts.get(state.status, 0) + 1
        return counts

    def stats(self) -> Dict[str, Any]:
        """The ``fleet`` section of ``/v1/stats``."""
        with self._lock:
            self._reap(self.clock())
            snapshot = self.registry.snapshot()
            return {
                "workers_alive": len(self.workers),
                "sweeps_active": sum(
                    1 for s in self.sweeps.values() if not s.ledger.settled()
                ),
                "counters": snapshot["counters"],
            }

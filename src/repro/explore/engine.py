"""The exploration coordinator: fan chunks out, merge results back.

:func:`run_plan` executes a :class:`~repro.explore.plan.WorkPlan` either
in-process (``jobs=1``, the batched sequential fallback — one
:class:`~repro.explore.worker.ChunkRunner` shared by every chunk) or
across a ``multiprocessing`` pool where each worker process holds its
own runner, graph copy and memoized estimators.  Results come back as
:class:`~repro.explore.worker.ChunkResult`\\ s and are merged in
candidate-index order, which replays the sequential insertion order
exactly — the reason ``--jobs N`` output is byte-identical to
``--jobs 1`` for the same seed.

The pool path is fault-tolerant.  Chunks are dispatched asynchronously
(``apply_async`` plus a bounded polling loop) and tracked in a
:class:`~repro.explore.ledger.ChunkLedger` — the chunk lifecycle the
fleet coordinator drives too — under a :class:`RetryPolicy`: a
per-chunk timeout, retries with seeded exponential backoff and jitter,
and, once a chunk exhausts its retry budget, graceful degradation to
the in-process runner (:func:`run_in_process`).  The pool itself adds
only pool-death detection with a bounded respawn budget.  Because
every candidate is a pure function of ``(graph, spec)`` and completed
chunks are de-duplicated by index, none of this machinery can change
the merged answer: a sweep either completes with ``jobs=1``-identical
results or surfaces the candidate's own
:class:`~repro.errors.WorkerError`.  Chunk-level checkpointing (see
:mod:`repro.explore.checkpoint`) journals completed chunks so an
interrupted sweep resumes where it stopped.

Observability: the coordinator records per-worker chunk telemetry into
the existing :mod:`repro.obs` registry — ``explore.chunks`` /
``explore.candidates`` counters, an ``explore.chunk_seconds`` histogram
of per-chunk wall time, ``explore.merge.discards`` for candidates that
fell off the merged front, an ``explore.jobs`` gauge — plus the
recovery counters ``explore.retries``, ``explore.timeouts``,
``explore.fallbacks``, ``explore.pool_respawns`` and
``explore.checkpoint.chunks_skipped``, and an
``explore.retry_delay_seconds`` histogram of backoff delays.

When collection is on, the coordinator also ships an
:class:`~repro.explore.worker.ObsContext` (its trace id plus the
collect flag) with every dispatched chunk; workers record their own
counters, histograms and an ``explore.chunk`` span under that trace id
and return a telemetry snapshot on the result, which :func:`run_plan`
merges back (counters sum, histogram buckets add, spans graft under the
coordinator's current span with a ``worker_pid`` attribute) — so
``--stats`` after ``--jobs 8`` reflects work done in all nine
processes.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import PartitionError, PoolCrashError, WorkerError
from repro import obs
from repro.obs import OBS, add_event
from repro.explore.ledger import ChunkLedger
from repro.explore.plan import CandidateSpec, Chunk, WorkPlan
from repro.explore.worker import (
    ChunkResult,
    ChunkRunner,
    ObsContext,
    PlanPayload,
    RestartOutcome,
    init_worker,
    run_worker_chunk,
)

#: Idle wait of the pool loop between polls that found nothing to do.
POLL_INTERVAL = 0.02
#: Times a dying pool is rebuilt before the engine abandons it.
MAX_POOL_RESPAWNS = 3
#: The ledger owner name of every lease the local pool holds.
_POOL = "pool"


def resolve_jobs(jobs: Optional[int], chunks: int) -> int:
    """Normalize a ``--jobs`` value: 0/None means all cores; cap by chunks.

    >>> resolve_jobs(4, 2)
    2
    >>> resolve_jobs(1, 100)
    1
    """
    if jobs is None or jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs < 0:
        raise PartitionError(f"jobs must be >= 0, got {jobs}")
    return max(1, min(jobs, chunks))


# ----------------------------------------------------------------------
# fault-tolerant dispatch


@dataclass(frozen=True)
class RetryPolicy:
    """How the pool path survives slow, failing and dying workers.

    ``timeout`` is the per-chunk wall-clock budget in seconds (``None``
    disables timeouts).  A failed or timed-out chunk is retried up to
    ``retries`` more times, waiting ``backoff * backoff_factor**(n-1)``
    seconds (capped at ``max_delay``) before retry ``n``, with a
    deterministic ±``jitter`` fraction derived from ``seed`` and the
    chunk coordinates — two runs with the same seed back off
    identically.  A chunk that exhausts its budget degrades to the
    in-process runner when ``fallback`` is true (the default), so the
    sweep still completes with identical results; with ``fallback``
    false the sweep raises a :class:`PartitionError` naming the chunk,
    or :class:`PoolCrashError` once the pool died more than
    :data:`MAX_POOL_RESPAWNS` times.  The local pool and the fleet
    apply the policy identically (see :mod:`repro.explore.ledger`).

    >>> policy = RetryPolicy(backoff=1.0, jitter=0.0)
    >>> [policy.delay(0, n) for n in (1, 2, 3)]
    [1.0, 2.0, 4.0]
    >>> RetryPolicy(seed=7).delay(3, 1) == RetryPolicy(seed=7).delay(3, 1)
    True
    """

    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.05
    backoff_factor: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.25
    seed: int = 0
    fallback: bool = True

    def delay(self, chunk_index: int, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of ``chunk_index``."""
        base = min(
            self.backoff * self.backoff_factor ** max(0, attempt - 1),
            self.max_delay,
        )
        if not self.jitter:
            return base
        rng = random.Random(f"{self.seed}:{chunk_index}:{attempt}")
        return base * (1.0 + self.jitter * rng.uniform(-1.0, 1.0))


@dataclass
class RecoveryStats:
    """What the fault-tolerant loop had to do to finish a sweep."""

    retries: int = 0
    timeouts: int = 0
    fallbacks: int = 0
    pool_respawns: int = 0
    chunks_skipped: int = 0
    corrupt_journal_lines: int = 0
    journal_errors: int = 0

    def any(self) -> bool:
        return any(
            (
                self.retries,
                self.timeouts,
                self.fallbacks,
                self.pool_respawns,
                self.chunks_skipped,
                self.corrupt_journal_lines,
                self.journal_errors,
            )
        )

    def render(self) -> str:
        parts = [
            f"retries={self.retries}",
            f"timeouts={self.timeouts}",
            f"fallbacks={self.fallbacks}",
            f"pool_respawns={self.pool_respawns}",
        ]
        if self.chunks_skipped or self.corrupt_journal_lines:
            parts.append(f"chunks_skipped={self.chunks_skipped}")
        if self.corrupt_journal_lines:
            parts.append(f"corrupt_journal_lines={self.corrupt_journal_lines}")
        if self.journal_errors:
            parts.append(f"journal_errors={self.journal_errors}")
        return " ".join(parts)


def _pool_died(pool, pids: set) -> bool:
    """Did a worker process die since the pool was spawned?

    ``multiprocessing.Pool`` quietly replaces dead workers but the task
    they were running is lost forever — its ``AsyncResult`` never
    completes.  Watching the worker pid set (plus liveness, to catch a
    death the maintenance thread has not reaped yet) turns that silent
    loss into a detectable event.
    """
    procs = list(pool._pool)
    return {proc.pid for proc in procs} != pids or any(
        not proc.is_alive() for proc in procs
    )


def _collect(ledger: ChunkLedger, index: int, task, on_complete) -> None:
    """Move one finished pool task's outcome into the ledger."""
    try:
        value = task.get()
    except WorkerError as exc:
        ledger.error(index, str(exc))
    except Exception as exc:
        # transient: injected fault, transport/pickle error,
        # interpreter-level failure inside the worker
        ledger.fail(index, f"{type(exc).__name__}: {exc}")
    else:
        if ledger.complete(index, value):
            on_complete(value)


def _run_pool(payload, todo, workers, policy, stats, on_complete, obs_ctx):
    """Dispatch ``todo`` across a local process pool, then finish the sweep.

    The :class:`ChunkLedger` owns the chunk lifecycle; this loop owns
    only the pool: submit ready chunks, collect finished tasks, and
    replace the pool when a worker process dies — at most
    :data:`MAX_POOL_RESPAWNS` times, after which every unfinished chunk
    falls back to the in-process runner.
    """

    def observe_delay(kind: str, delay: float) -> None:
        if kind == "requeued" and OBS.enabled:
            OBS.observe("explore.retry_delay_seconds", delay)

    ledger = ChunkLedger(todo, policy, on_event=observe_delay)
    ctx = multiprocessing.get_context()
    tasks: Dict[int, object] = {}          # chunk index -> AsyncResult
    respawns = 0
    pool = None
    try:
        while not ledger.settled() and (
            policy.fallback or ledger.outcome()["exhausted_error"] is None
        ):
            if pool is None:
                pool = ctx.Pool(
                    workers, initializer=init_worker, initargs=(payload,)
                )
                pids = {proc.pid for proc in list(pool._pool)}
            progressed = False
            for state in ledger.ready():
                ledger.lease(state.chunk.index, _POOL)
                tasks[state.chunk.index] = pool.apply_async(
                    run_worker_chunk, (state.chunk, state.attempt, obs_ctx)
                )
                progressed = True
            for index, task in list(tasks.items()):
                if task.ready():
                    del tasks[index]
                    _collect(ledger, index, task, on_complete)
                    progressed = True
            for index in ledger.expire():
                del tasks[index]        # the hung task still holds a worker
                progressed = True
            if _pool_died(pool, pids):
                respawns += 1
                stats.pool_respawns += 1
                if OBS.enabled:
                    OBS.inc("explore.pool_respawns")
                pool.terminate()
                pool.join()
                pool, tasks = None, {}
                if respawns > MAX_POOL_RESPAWNS:
                    if not policy.fallback:
                        raise PoolCrashError(
                            f"worker pool died {respawns} times (budget "
                            f"{MAX_POOL_RESPAWNS}); abandoning the pool"
                        )
                    break
                ledger.release_owner(
                    _POOL,
                    "PoolCrashError: a worker process died with the chunk "
                    "in flight",
                )
            elif not progressed:
                time.sleep(POLL_INTERVAL)
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
    finish_sweep(payload, todo, ledger.outcome(), policy, stats, on_complete)


def run_in_process(
    payload: PlanPayload,
    chunks: List[Chunk],
    on_complete,
    stats: Optional[RecoveryStats] = None,
) -> None:
    """Evaluate ``chunks`` on one in-process runner, in index order.

    The ``jobs=1`` path, and the fallback for chunks a pool or fleet
    could not finish: with ``stats`` the chunks count as fallbacks
    (``explore.fallbacks``).  Each chunk runs under the same
    ``explore.chunk`` span the pool workers emit.  Fault injection
    never fires here, so this completes unless a candidate itself is
    invalid — then the lowest failing chunk's :class:`WorkerError`
    propagates, exactly as a sequential run raises it.
    """
    if not chunks:
        return
    runner = ChunkRunner(payload)
    for chunk in sorted(chunks, key=lambda chunk: chunk.index):
        if stats is None:
            attributes = {"attempt": 0}
        else:
            attributes = {"fallback": True}
            stats.fallbacks += 1
            if OBS.enabled:
                OBS.inc("explore.fallbacks")
        with obs.span(
            "explore.chunk",
            chunk=chunk.index,
            candidates=len(chunk),
            worker_pid=os.getpid(),
            **attributes,
        ):
            result = runner.run_chunk(chunk)
        on_complete(result)


def finish_sweep(
    payload: PlanPayload,
    todo: List[Chunk],
    outcome: Dict,
    policy: RetryPolicy,
    stats: RecoveryStats,
    on_complete,
) -> None:
    """End a dispatched sweep from its :meth:`ChunkLedger.outcome`.

    The local pool reads the outcome from its ledger, the fleet client
    from the coordinator's.  Requeues and timeouts fold into ``stats``
    and the ``explore.*`` counters.  With ``policy.fallback`` off, an
    exhausted chunk raises its :class:`PartitionError`; otherwise the
    leftovers run in-process.  The lowest :class:`WorkerError` is
    raised last, since a leftover below it fails first in a
    sequential run.
    """
    retries = outcome["stats"]["requeues"]
    timeouts = outcome["stats"]["timeouts"]
    stats.retries += retries
    stats.timeouts += timeouts
    if OBS.enabled:
        if retries:
            OBS.inc("explore.retries", retries)
        if timeouts:
            OBS.inc("explore.timeouts", timeouts)
    if outcome["exhausted_error"] is not None and not policy.fallback:
        raise PartitionError(outcome["exhausted_error"])
    leftovers = set(outcome["leftovers"])
    run_in_process(
        payload,
        [chunk for chunk in todo if chunk.index in leftovers],
        on_complete,
        stats=stats,
    )
    if outcome["error"] is not None:
        raise WorkerError(outcome["error"]["message"])


# ----------------------------------------------------------------------
# the public entry point


def run_plan(
    payload: PlanPayload,
    plan: WorkPlan,
    jobs: int = 1,
    policy: Optional[RetryPolicy] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    fleet=None,
    on_result=None,
) -> List[ChunkResult]:
    """Evaluate every chunk of ``plan`` and return results in chunk order.

    ``jobs=1`` shares one in-process :class:`ChunkRunner` across all
    chunks; ``jobs>1`` spawns a worker pool whose processes each build a
    private runner from the payload, dispatched through the
    fault-tolerant loop governed by ``policy`` (default
    :class:`RetryPolicy`).  Either way the same chunks are evaluated
    with the same per-candidate code, so the merged result is
    independent of ``jobs`` — and of any retries, respawns or fallbacks
    the loop performed along the way.

    ``checkpoint`` names a JSONL journal written as chunks complete;
    with ``resume`` true an existing journal (for the *same* payload and
    plan — fingerprints are checked) is loaded first and only the
    missing chunks are evaluated.  On :class:`KeyboardInterrupt` the
    pool is terminated and the journal flushed before re-raising, so an
    interrupted sweep loses at most its in-flight chunks.

    ``fleet`` (a :class:`~repro.fleet.protocol.FleetSpec`) dispatches
    the todo chunks to a coordinator/worker fleet instead of a local
    pool; ``jobs`` is ignored in that case.  The merged result stays
    byte-identical — fleet results come back keyed by the same chunk
    indexes, requeues deduplicate first-wins, and anything the fleet
    cannot finish falls back to an in-process runner.

    ``on_result`` is an observer called with each completed
    :class:`ChunkResult` — journal-replayed chunks first (in index
    order), then fresh ones as they land.  The serving layer's durable
    jobs stream progressive front updates from it; it must not raise.
    """
    chunks = plan.chunks()
    workers = resolve_jobs(jobs, len(chunks))
    policy = policy if policy is not None else RetryPolicy()
    stats = RecoveryStats()
    if OBS.enabled:
        OBS.set_gauge("explore.jobs", workers)

    journal = None
    done: Dict[int, ChunkResult] = {}
    if checkpoint:
        from repro.explore.checkpoint import JournalWriter, plan_fingerprint

        fingerprint = plan_fingerprint(payload, plan)
        if resume:
            journal = JournalWriter.for_resume(
                checkpoint, fingerprint, payload.task
            )
            done = dict(journal.completed)
            stats.chunks_skipped = len(done)
            stats.corrupt_journal_lines = journal.corrupt_lines
            if OBS.enabled and done:
                OBS.inc("explore.checkpoint.chunks_skipped", len(done))
        else:
            journal = JournalWriter.fresh(checkpoint, fingerprint, payload.task)

    fresh: List[ChunkResult] = []

    def on_complete(result: ChunkResult) -> None:
        done[result.chunk_index] = result
        fresh.append(result)
        if journal is not None:
            journal.record(result)
        if on_result is not None:
            on_result(result)

    if on_result is not None:
        for index in sorted(done):
            on_result(done[index])

    todo = [chunk for chunk in chunks if chunk.index not in done]
    obs_ctx = (
        ObsContext(trace_id=obs.trace_id(), collect=True)
        if OBS.enabled
        else None
    )
    try:
        if fleet is not None and todo:
            from repro.fleet.client import run_fleet_chunks

            run_fleet_chunks(
                payload,
                todo,
                fleet=fleet,
                policy=policy,
                stats=stats,
                on_complete=on_complete,
                obs_ctx=obs_ctx,
            )
        elif workers <= 1 or not todo:
            run_in_process(payload, todo, on_complete)
        else:
            _run_pool(
                payload, todo, workers, policy, stats, on_complete, obs_ctx
            )
    finally:
        # KeyboardInterrupt included: the dispatcher's own ``finally``
        # has already terminated the pool; flushing the journal here is
        # what lets ``--resume`` pick up every chunk that finished
        if journal is not None:
            stats.journal_errors = journal.append_errors
            if OBS.enabled and journal.append_errors:
                OBS.inc(
                    "explore.checkpoint.append_errors",
                    journal.append_errors,
                )
            journal.close()

    results = [done[chunk.index] for chunk in chunks]
    if OBS.enabled:
        anchor = obs.TRACER.current()
        # chunk-index order: gauge merges are last-write-wins, so a
        # deterministic order keeps --jobs N snapshots reproducible
        for result in sorted(fresh, key=lambda r: r.chunk_index):
            if result.obs is not None:
                obs.absorb(
                    result.obs,
                    parent_span_id=anchor.span_id if anchor else None,
                    attributes={"worker_pid": result.worker_pid},
                )
        for result in fresh:
            OBS.inc("explore.chunks")
            OBS.inc("explore.candidates", result.candidates)
            OBS.observe("explore.chunk_seconds", result.seconds)
        add_event(
            "explore.chunks_done",
            chunks=len(results),
            jobs=workers,
            candidates=sum(r.candidates for r in results),
        )
    if stats.any():
        print(f"-- explore recovery: {stats.render()}", file=sys.stderr)
    return results


# ----------------------------------------------------------------------
# merging


def merge_fronts(results: List[ChunkResult], evaluated: int):
    """Union chunk-local fronts into the global non-dominated set.

    Points are inserted in ascending candidate-index order — the exact
    order a sequential sweep would have used — so ties and pruning
    resolve identically no matter how the plan was sharded.  Returns the
    merged :class:`~repro.partition.pareto.ParetoFront` with
    ``evaluated`` set to the full candidate count (local pruning already
    discarded dominated points, but they were still evaluated).
    """
    from repro.partition.pareto import ParetoFront

    pairs: List[Tuple[int, object]] = []
    for result in results:
        pairs.extend(result.front_points)
    pairs.sort(key=lambda pair: pair[0])
    front = ParetoFront()
    for _, point in pairs:
        front.add(point)
    discards = len(pairs) - len(front.points)
    if OBS.enabled:
        OBS.inc("explore.merge.discards", discards)
        OBS.inc(
            "explore.local.discards",
            sum(r.local_discards for r in results),
        )
    front.evaluated = evaluated
    return front


def merge_restarts(results: List[ChunkResult]) -> Tuple[
    RestartOutcome, Dict[str, str], List[float], List[RestartOutcome]
]:
    """Pick the best multi-start outcome across chunks.

    Ties break toward the lowest candidate index, matching the strict
    ``<`` comparison of the sequential loops (first seen wins).  Returns
    ``(best outcome, its mapping, its history, all outcomes by index)``.
    """
    outcomes: List[RestartOutcome] = []
    best: Optional[RestartOutcome] = None
    best_mapping: Optional[Dict[str, str]] = None
    best_history: Optional[List[float]] = None
    for result in results:
        outcomes.extend(result.outcomes)
        if result.best_index is None:
            continue
        chunk_best = next(
            o for o in result.outcomes if o.index == result.best_index
        )
        if best is None or (chunk_best.cost, chunk_best.index) < (
            best.cost,
            best.index,
        ):
            best = chunk_best
            best_mapping = result.best_mapping
            best_history = result.best_history
    if best is None:
        raise PartitionError(
            "cannot merge an empty set of restart results: no chunk "
            "produced an outcome"
        )
    outcomes.sort(key=lambda o: o.index)
    if OBS.enabled:
        OBS.inc("explore.merge.discards", len(outcomes) - 1)
    return best, best_mapping or {}, best_history or [], outcomes


def improvement_history(outcomes: List[RestartOutcome]) -> List[float]:
    """The best-so-far cost trace over candidates in index order.

    Reconstructs exactly the ``history`` the sequential multi-start
    loops accumulate: the first candidate's cost, then every strictly
    better cost as it is encountered.
    """
    history: List[float] = []
    best = float("inf")
    for outcome in outcomes:
        if not history:
            best = outcome.cost
            history.append(best)
        elif outcome.cost < best:
            best = outcome.cost
            history.append(best)
    return history


# ----------------------------------------------------------------------
# the shared multi-start driver


def run_multistart(
    slif,
    partition,
    specs: List[CandidateSpec],
    *,
    algorithm: str,
    result_name: str,
    weights=None,
    time_constraint: Optional[float] = None,
    jobs: int = 1,
    chunk_size: int = 4,
    history_mode: str = "improvements",
    policy: Optional[RetryPolicy] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
):
    """Run a multi-start candidate list and fold it into one result.

    The engine behind ``random_restart(jobs=...)``,
    ``greedy_multistart`` and restart-based annealing: serialize the
    graph and base partition once, evaluate all candidate specs (in
    parallel when ``jobs > 1``), and return a
    :class:`~repro.partition.result.PartitionResult` whose partition is
    rebuilt against the *caller's* graph.  ``history_mode`` selects the
    ``history`` semantics: ``"improvements"`` replays the sequential
    best-so-far trace over candidate costs; ``"best_chain"`` keeps the
    winning candidate's own internal history (annealing chains).
    ``policy``/``checkpoint``/``resume`` pass straight to
    :func:`run_plan`.
    """
    from repro.core.serialize import partition_to_dict, slif_to_dict
    from repro.explore.plan import restart_plan
    from repro.partition.result import PartitionResult

    payload = PlanPayload(
        task="restart",
        slif_data=slif_to_dict(slif),
        partition_data=partition_to_dict(partition),
        weights=weights,
        time_constraint=time_constraint,
    )
    plan = restart_plan(specs, chunk_size=chunk_size)
    results = run_plan(
        payload,
        plan,
        jobs=jobs,
        policy=policy,
        checkpoint=checkpoint,
        resume=resume,
    )
    best, mapping, best_history, outcomes = merge_restarts(results)

    merged = partition.copy(name=result_name)
    for obj, comp in mapping.items():
        merged.assign(obj, comp)
    if history_mode == "best_chain":
        history = list(best_history)
    else:
        history = improvement_history(outcomes)
    return PartitionResult(
        partition=merged,
        cost=best.cost,
        algorithm=algorithm,
        iterations=sum(o.iterations for o in outcomes),
        evaluations=sum(o.evaluations for o in outcomes),
        history=history,
    )

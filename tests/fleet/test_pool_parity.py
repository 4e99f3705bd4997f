"""The local pool and the fleet end a faulty sweep the same way.

Both schedulers drive one chunk lifecycle
(:class:`repro.explore.ledger.ChunkLedger`), so one fault script must
give the same outcome through ``run_plan(jobs=2)`` and through a
``LocalTransport`` fleet with two :class:`FleetWorker` threads: the
same merged result, the same recovery line and the same ``explore.*``
counters — or, with ``fallback=False``, the same
:class:`PartitionError`.
"""

import re
import threading

import pytest

from repro import obs
from repro.core.serialize import partition_to_dict, slif_to_dict
from repro.errors import PartitionError
from repro.explore import (
    CandidateSpec,
    PlanPayload,
    RecoveryStats,
    RetryPolicy,
    WorkPlan,
    merge_restarts,
    run_plan,
)
from repro.fleet import (
    FleetCoordinator,
    FleetSpec,
    FleetWorker,
    LocalTransport,
    run_fleet_chunks,
)

from _helpers import build_demo_graph, build_demo_partition

FAST = dict(backoff=0.01, max_delay=0.05, seed=0)
RECOVERY = re.compile(r"-- explore recovery: .*")


def restart_payload() -> PlanPayload:
    graph = build_demo_graph()
    return PlanPayload(
        task="restart",
        slif_data=slif_to_dict(graph),
        partition_data=partition_to_dict(build_demo_partition(graph)),
    )


def restart_plan_of(chunks: int) -> WorkPlan:
    specs = [
        CandidateSpec(
            index=i, kind="random", label=f"restart.{i}", algorithm="none",
            seed=i,
        )
        for i in range(chunks)
    ]
    return WorkPlan(specs, chunk_size=1)


def merged(results):
    best, mapping, history, outcomes = merge_restarts(results)
    return (best, mapping, history, [o.cost for o in outcomes])


class Fleet:
    """A coordinator plus two worker threads; a ``FleetSpec`` to it."""

    def __init__(self):
        self.coordinator = FleetCoordinator()
        self.stop = threading.Event()
        self.threads = []
        for _ in range(2):
            worker = FleetWorker(
                LocalTransport(self.coordinator), isolate_obs=False
            )
            worker.register()
            self.threads.append(
                threading.Thread(
                    target=worker.run,
                    args=(self.stop,),
                    kwargs={"poll_seconds": 0.005},
                    daemon=True,
                )
            )
        self.spec = FleetSpec(
            session_key="parity",
            transport=LocalTransport(self.coordinator),
            poll_seconds=0.005,
        )

    def __enter__(self):
        for thread in self.threads:
            thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        for thread in self.threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in self.threads)


@pytest.fixture
def collecting(monkeypatch):
    monkeypatch.delenv("SLIF_FAULTS", raising=False)
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


def run_collected(capsys, **kwargs):
    """One traced ``run_plan``: (merged result, recovery line, counters)."""
    obs.reset()
    obs.enable()
    results = run_plan(restart_payload(), restart_plan_of(4), **kwargs)
    counters = obs.snapshot()["counters"]
    line = RECOVERY.search(capsys.readouterr().err)
    return merged(results), line and line.group(0), counters


def test_exhausted_chunk_recovers_identically(
    collecting, monkeypatch, capsys
):
    baseline = merged(run_plan(restart_payload(), restart_plan_of(4), jobs=1))
    monkeypatch.setenv("SLIF_FAULTS", "transient:2:99")
    policy = RetryPolicy(retries=1, **FAST)
    pool = run_collected(capsys, jobs=2, policy=policy)
    with Fleet() as fleet:
        distributed = run_collected(capsys, fleet=fleet.spec, policy=policy)
    assert pool[0] == distributed[0] == baseline
    assert pool[1] == distributed[1]
    assert "retries=1" in pool[1] and "fallbacks=1" in pool[1]
    for name in ("explore.retries", "explore.fallbacks"):
        assert pool[2][name] == distributed[2][name] == 1, name


def test_fleet_honours_fallback_false_like_the_pool(monkeypatch):
    monkeypatch.setenv("SLIF_FAULTS", "transient:2:99")
    policy = RetryPolicy(retries=1, fallback=False, **FAST)
    with pytest.raises(PartitionError) as pool_error:
        run_plan(restart_payload(), restart_plan_of(4), jobs=2, policy=policy)
    stats = RecoveryStats()
    with Fleet() as fleet:
        with pytest.raises(PartitionError) as fleet_error:
            run_fleet_chunks(
                restart_payload(),
                restart_plan_of(4).chunks(),
                fleet=fleet.spec,
                policy=policy,
                stats=stats,
                on_complete=lambda result: None,
            )
    assert "chunk 2" in str(pool_error.value)
    assert str(fleet_error.value) == str(pool_error.value)
    assert stats.fallbacks == 0


def test_fleet_records_timeouts_in_obs(collecting, monkeypatch):
    """A hung fleet worker's lease expires: ``explore.timeouts`` counts it."""
    monkeypatch.setenv("SLIF_FAULTS", "hang:1")
    monkeypatch.setenv("SLIF_FAULT_HANG_SECONDS", "1.0")
    with Fleet() as fleet:
        run_plan(
            restart_payload(),
            restart_plan_of(4),
            fleet=fleet.spec,
            policy=RetryPolicy(timeout=0.3, retries=2, **FAST),
        )
    counters = obs.snapshot()["counters"]
    assert counters["explore.timeouts"] == 1
    assert counters["explore.retries"] == 1

"""The chunk lifecycle rules, under a fake clock."""

import pytest

from repro.explore.engine import RetryPolicy
from repro.explore.ledger import ChunkLedger
from repro.explore.plan import Chunk


class FakeClock:
    def __init__(self):
        self.now = 10.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


def make_ledger(clock, count=4, events=None, **policy):
    policy.setdefault("backoff", 1.0)
    policy.setdefault("jitter", 0.0)
    return ChunkLedger(
        [Chunk(i, ()) for i in reversed(range(count))],
        RetryPolicy(**policy),
        clock=clock,
        on_event=None if events is None else
        (lambda kind, delay: events.append((kind, delay))),
    )


def statuses(ledger):
    return [state.status for state in ledger.chunks.values()]


def test_ready_is_in_index_order_and_waits_out_the_backoff(clock):
    events = []
    ledger = make_ledger(clock, count=3, events=events, retries=3)
    assert [s.chunk.index for s in ledger.ready()] == [0, 1, 2]
    for attempt, delay in ((0, 1.0), (1, 2.0), (2, 4.0)):
        ledger.lease(1, "w")
        assert ledger.fail(1, "OSError: boom")
        state = ledger.chunks[1]
        assert (state.status, state.attempt) == ("pending", attempt + 1)
        assert state.ready_at == clock.now + delay
        clock.now += delay - 0.5
        assert 1 not in [s.chunk.index for s in ledger.ready()]
        clock.now += 0.5
        assert 1 in [s.chunk.index for s in ledger.ready()]
    assert events == [("requeued", 1.0), ("requeued", 2.0), ("requeued", 4.0)]
    assert ledger.requeues == 3


def test_backoff_follows_the_seeded_policy(clock):
    ledger = make_ledger(clock, jitter=0.25, seed=7)
    ledger.lease(2, "w")
    ledger.fail(2, "OSError: boom")
    assert ledger.chunks[2].ready_at == clock.now + ledger.policy.delay(2, 1)


def test_exhaustion_after_the_retry_budget(clock):
    events = []
    ledger = make_ledger(clock, count=2, events=events, retries=1)
    for _ in range(2):
        clock.now += 5
        ledger.lease(0, "w")
        ledger.fail(0, "FaultInjectedError: injected")
    assert ledger.chunks[0].status == "exhausted"
    assert events[-1] == ("exhausted", 0.0)
    assert not ledger.settled()          # chunk 1 still pending
    ledger.complete(1, "r1")
    assert ledger.settled()
    outcome = ledger.outcome()
    assert outcome["leftovers"] == [0]
    assert outcome["exhausted_error"] == (
        "chunk 0 failed after 2 attempts: FaultInjectedError: injected"
    )


def test_retries_zero_exhausts_on_first_failure(clock):
    ledger = make_ledger(clock, count=1, retries=0)
    ledger.lease(0, "w")
    ledger.fail(0, "OSError: boom")
    assert statuses(ledger) == ["exhausted"]
    assert ledger.requeues == 0


def test_stale_failure_report_is_ignored(clock):
    ledger = make_ledger(clock, count=1, retries=3)
    ledger.lease(0, "a")
    ledger.fail(0, "OSError: boom", attempt=0)
    clock.now += 5
    ledger.lease(0, "b")                 # attempt 1
    assert not ledger.fail(0, "OSError: late", attempt=0)
    assert ledger.chunks[0].status == "leased"
    assert ledger.requeues == 1


def test_lease_timeout_requeues(clock):
    ledger = make_ledger(clock, count=2, timeout=2.0, retries=2)
    ledger.lease(0, "w")
    clock.now += 1.0
    ledger.lease(1, "w")
    assert ledger.expire() == []
    clock.now += 1.0
    assert ledger.expire() == [0]
    assert ledger.timeouts == 1
    assert ledger.chunks[0].status == "pending"
    assert ledger.chunks[0].cause.startswith("ChunkTimeoutError: chunk 0")
    assert ledger.chunks[1].status == "leased"


def test_no_timeout_never_expires(clock):
    ledger = make_ledger(clock, count=1)
    ledger.lease(0, "w")
    clock.now += 1e6
    assert ledger.expire() == []


def test_owner_loss_requeues_only_that_owners_leases(clock):
    ledger = make_ledger(clock, count=3)
    ledger.lease(0, "a")
    ledger.lease(1, "b")
    ledger.lease(2, "a")
    assert ledger.release_owner("a", "FleetError: worker a was lost") == 2
    assert statuses(ledger) == ["pending", "leased", "pending"]
    assert ledger.outcome()["stats"] == {
        "requeues": 2, "timeouts": 0, "workers_lost": 2,
    }
    assert ledger.chunks[1].owner == "b"


def test_worker_error_prunes_later_chunks_and_is_not_retried(clock):
    ledger = make_ledger(clock, count=4)
    ledger.lease(1, "w")
    ledger.lease(3, "w")
    assert ledger.error(1, "candidate broken")
    assert statuses(ledger) == ["pending", "error", "pruned", "leased"]
    # a lease past the error that fails is pruned, not requeued
    ledger.fail(3, "OSError: boom")
    assert ledger.chunks[3].status == "pruned"
    assert ledger.requeues == 0
    outcome = ledger.outcome()
    assert outcome["error"] == {
        "chunk_index": 1, "message": "candidate broken",
    }
    assert outcome["leftovers"] == [0]


def test_lower_error_wins(clock):
    ledger = make_ledger(clock, count=4)
    ledger.error(2, "second")
    ledger.error(0, "first")
    outcome = ledger.outcome()
    assert outcome["error"] == {"chunk_index": 0, "message": "first"}
    assert outcome["leftovers"] == []


def test_first_result_wins(clock):
    ledger = make_ledger(clock, count=2, timeout=1.0)
    ledger.lease(0, "a")
    clock.now += 2.0
    ledger.expire()                      # a's lease lapses; requeued
    assert ledger.complete(0, "from a")  # ...but a finishes after all
    assert not ledger.complete(0, "from b")
    assert ledger.chunks[0].result == "from a"
    assert not ledger.error(0, "too late")
    assert not ledger.fail(0, "OSError: too late")


def test_late_result_revives_an_exhausted_chunk(clock):
    ledger = make_ledger(clock, count=1, retries=0)
    ledger.lease(0, "w")
    ledger.fail(0, "OSError: boom")
    assert ledger.complete(0, "late")
    assert ledger.outcome()["leftovers"] == []
    assert ledger.outcome()["exhausted_error"] is None


def test_leftovers_after_giving_up_include_unfinished_leases(clock):
    ledger = make_ledger(clock, count=4)
    ledger.lease(0, "pool")
    ledger.complete(1, "r1")
    ledger.lease(2, "pool")
    outcome = ledger.outcome()
    assert outcome["leftovers"] == [0, 2, 3]
    assert outcome["error"] is None
    assert outcome["exhausted_error"] is None

"""Unit tests for the opportunistic estimate micro-batcher.

Every test is deterministic: a batch is held inside ``batch_compute``
on an :class:`threading.Event` until the requests meant to queue behind
it are registered, which ``stats()["pending"]`` reports.
"""

import threading
import time

import pytest

import repro.serve.batching as batching
from repro.serve.batching import MicroBatcher


class Compute:
    """A recording ``batch_compute``; optionally holds its first call."""

    def __init__(self, hold_first=False, fail_first=False):
        self.calls = []      # (thread ident, keys) per call
        self.hold_first = hold_first
        self.fail_first = fail_first
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, keys):
        self.calls.append((threading.get_ident(), list(keys)))
        if len(self.calls) == 1:
            if self.hold_first:
                self.started.set()
                assert self.release.wait(10), "test never released the batch"
            if self.fail_first:
                raise RuntimeError("estimation blew up")
        return {key: {"key": key, "call": len(self.calls)} for key in keys}

    @property
    def batches(self):
        return [keys for _, keys in self.calls]


def start(batcher, group, key, compute):
    """``run_grouped`` on its own thread; returns ``(thread, outcome)``."""
    outcome = {}

    def work():
        outcome["ident"] = threading.get_ident()
        try:
            outcome["value"] = batcher.run_grouped(group, key, compute)
        except BaseException as exc:  # noqa: BLE001 - recorded for asserts
            outcome["error"] = exc

    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    return thread, outcome


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        threading.Event().wait(0.001)


def queue_behind(batcher, group, keys, compute):
    """Start one request per key, each registered before the next starts."""
    pending = batcher.stats()["pending"]
    started = []
    for i, key in enumerate(keys):
        started.append(start(batcher, group, key, compute))
        wait_until(lambda: batcher.stats()["pending"] == pending + i + 1)
    return started


def join(started):
    for thread, _ in started:
        thread.join(10)
        assert not thread.is_alive()
    return [outcome for _, outcome in started]


class TestCoalescing:
    def test_identical_requests_evaluate_once(self):
        batcher = MicroBatcher()
        compute = Compute(hold_first=True)
        first = start(batcher, "g", "k", compute)
        assert compute.started.wait(10)
        queued = queue_behind(batcher, "g", ["k"] * 8, compute)
        compute.release.set()
        outcomes = join([first] + queued)
        assert all("error" not in o for o in outcomes)
        # one evaluation for the running request, one for all 8 queued
        assert compute.batches == [["k"], ["k"]]
        values = [o["value"] for o in outcomes[1:]]
        assert all(v is values[0] for v in values)  # same object shared
        assert batcher.leaders == 2
        assert batcher.coalesced == 7
        assert batcher.stats()["pending"] == 0

    def test_different_keys_do_not_coalesce(self):
        # Distinct groups never wait on each other: each batch runs on
        # its own thread while the other is still computing.
        batcher = MicroBatcher()
        a_running = threading.Event()
        b_running = threading.Event()

        def compute_a(keys):
            a_running.set()
            assert b_running.wait(10)
            return {key: "a" for key in keys}

        def compute_b(keys):
            b_running.set()
            assert a_running.wait(10)
            return {key: "b" for key in keys}

        outcomes = join(
            [
                start(batcher, "a", "k", compute_a),
                start(batcher, "b", "k", compute_b),
            ]
        )
        assert [o["value"] for o in outcomes] == ["a", "b"]
        assert batcher.leaders == 2
        assert batcher.coalesced == 0

    def test_sequential_requests_each_lead(self):
        batcher = MicroBatcher()
        compute = Compute()
        assert batcher.run_grouped("g", "k", compute)["call"] == 1
        assert batcher.run_grouped("g", "k", compute)["call"] == 2
        assert batcher.leaders == 2
        assert batcher.coalesced == 0


class TestNextBatch:
    def test_requests_during_a_batch_form_exactly_one_next_batch(self):
        batcher = MicroBatcher()
        compute = Compute(hold_first=True)
        first = start(batcher, "g", "avg", compute)
        assert compute.started.wait(10)
        keys = ["max", "min", "avg", "max-concurrent"]
        queued = queue_behind(batcher, "g", keys, compute)
        assert batcher.stats()["pending"] == len(keys)
        compute.release.set()
        outcomes = join([first] + queued)
        assert compute.batches == [["avg"], keys]
        # the first queued arrival led the next batch
        assert compute.calls[1][0] == outcomes[1]["ident"]
        for key, outcome in zip(["avg"] + keys, outcomes):
            assert outcome["value"]["key"] == key
        assert batcher.leaders == 2
        assert batcher.coalesced == len(keys) - 1
        assert batcher.stats()["pending"] == 0

    def test_identical_keys_in_a_batch_are_computed_once(self):
        batcher = MicroBatcher()
        compute = Compute(hold_first=True)
        first = start(batcher, "g", "avg", compute)
        assert compute.started.wait(10)
        keys = ["max", "min", "max", "min", "max"]
        queued = queue_behind(batcher, "g", keys, compute)
        compute.release.set()
        outcomes = join([first] + queued)
        assert compute.batches == [["avg"], ["max", "min"]]
        maxes = [o["value"] for k, o in zip(keys, outcomes[1:]) if k == "max"]
        assert all(v is maxes[0] for v in maxes)
        assert batcher.coalesced == len(keys) - 1

    def test_the_batch_after_the_next_runs_too(self):
        batcher = MicroBatcher()
        gate = threading.Event()
        second_running = threading.Event()
        calls = []

        def compute(keys):
            calls.append(list(keys))
            if len(calls) == 1:
                assert gate.wait(10)
            if len(calls) == 2:
                second_running.set()
            return {key: len(calls) for key in keys}

        first = start(batcher, "g", "a", compute)
        wait_until(lambda: calls)
        second = queue_behind(batcher, "g", ["b"], compute)
        gate.set()
        assert second_running.wait(10)
        third = start(batcher, "g", "c", compute)
        outcomes = join([first] + second + [third])
        assert [o["value"] for o in outcomes] == [1, 2, 3]
        assert batcher.stats()["pending"] == 0


class TestNoTimer:
    def test_lone_request_computes_without_sleep(self, monkeypatch):
        def no_sleep(seconds):
            raise AssertionError(f"batcher slept {seconds}s")

        monkeypatch.setattr(time, "sleep", no_sleep)
        batcher = MicroBatcher()
        compute = Compute()
        assert batcher.run_grouped("g", "k", compute)["call"] == 1
        assert compute.batches == [["k"]]
        assert batcher.leaders == 1 and batcher.coalesced == 0

    def test_stats_report_no_window(self):
        stats = MicroBatcher().stats()
        assert stats == {
            "window_seconds": 0.0, "leaders": 0, "coalesced": 0, "pending": 0,
        }


class TestErrors:
    def test_leader_error_propagates_to_followers(self):
        batcher = MicroBatcher()
        gate = threading.Event()
        calls = []

        def compute(keys):
            calls.append(list(keys))
            if len(calls) == 1:
                assert gate.wait(10)
                return {key: "ok" for key in keys}
            raise RuntimeError("estimation blew up")

        first = start(batcher, "g", "k", compute)
        wait_until(lambda: calls)
        queued = queue_behind(batcher, "g", ["k", "j", "k", "j"], compute)
        gate.set()
        outcomes = join([first] + queued)
        assert outcomes[0]["value"] == "ok"
        # every waiter of the failing batch got its exception, not a hang
        errors = [o.get("error") for o in outcomes[1:]]
        assert all(isinstance(e, RuntimeError) for e in errors)
        assert all("estimation blew up" in str(e) for e in errors)
        assert batcher.stats()["pending"] == 0

    def test_error_reaches_only_its_own_batch(self):
        batcher = MicroBatcher()
        compute = Compute(hold_first=True, fail_first=True)
        first = start(batcher, "g", "a", compute)
        assert compute.started.wait(10)
        queued = queue_behind(batcher, "g", ["b", "c"], compute)
        compute.release.set()
        outcomes = join([first] + queued)
        assert isinstance(outcomes[0]["error"], RuntimeError)
        # the next batch still ran, untouched by the failure before it
        assert [o["value"]["key"] for o in outcomes[1:]] == ["b", "c"]
        assert compute.batches == [["a"], ["b", "c"]]
        assert batcher.stats()["pending"] == 0

    def test_per_key_exception_reaches_only_that_key(self):
        batcher = MicroBatcher()
        gate = threading.Event()
        calls = []

        def compute(keys):
            calls.append(list(keys))
            if len(calls) == 1:
                assert gate.wait(10)
            return {
                key: ValueError(f"bad {key}") if key == "bad" else key
                for key in keys
            }

        first = start(batcher, "g", "good", compute)
        wait_until(lambda: calls)
        queued = queue_behind(batcher, "g", ["bad", "good", "bad"], compute)
        gate.set()
        outcomes = join([first] + queued)
        assert outcomes[0]["value"] == "good"
        assert outcomes[2]["value"] == "good"
        for outcome in (outcomes[1], outcomes[3]):
            assert isinstance(outcome["error"], ValueError)

    def test_group_cleared_after_error(self):
        batcher = MicroBatcher()

        def fail(keys):
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            batcher.run_grouped("g", "k", fail)
        assert batcher.run_grouped("g", "k", lambda keys: {"k": "recovered"}) \
            == "recovered"
        assert batcher.stats()["pending"] == 0


class TestWedgedBatch:
    def test_queued_requests_fall_back_after_timeout(self, monkeypatch):
        monkeypatch.setattr(batching, "FOLLOWER_TIMEOUT", 0.5)
        batcher = MicroBatcher()
        compute = Compute(hold_first=True)
        first = start(batcher, "g", "a", compute)
        assert compute.started.wait(10)
        # the running batch never finishes in time: the queued request
        # computes on its own instead of hanging with it
        queued = join(queue_behind(batcher, "g", ["b"], compute))
        assert queued[0]["value"]["key"] == "b"
        compute.release.set()
        assert join([first])[0]["value"]["key"] == "a"
        assert batcher.stats()["pending"] == 0
        assert batcher.run_grouped("g", "c", compute)["key"] == "c"


class TestStress:
    def test_threads_keep_every_invariant(self):
        # More threads than cores and a tiny switch interval: a lost
        # update in the batcher's bookkeeping would break a count below.
        import sys

        groups, keys, threads_n, rounds = ("g0", "g1"), ("a", "b", "c"), 12, 40
        batcher = MicroBatcher()
        guard = threading.Lock()
        inflight = {g: 0 for g in groups}
        overlaps = []
        computed = []

        def make_compute(group):
            def compute(batch_keys):
                with guard:
                    inflight[group] += 1
                    if inflight[group] > 1:
                        overlaps.append(group)
                    computed.append(len(batch_keys))
                try:
                    return {key: (group, key) for key in batch_keys}
                finally:
                    with guard:
                        inflight[group] -= 1
            return compute

        wrong = []

        def worker(seed):
            for i in range(rounds):
                group = groups[(seed + i) % len(groups)]
                key = keys[(seed * 7 + i) % len(keys)]
                value = batcher.run_grouped(group, key, make_compute(group))
                if value != (group, key):
                    wrong.append((group, key, value))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(n,), daemon=True)
                for n in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert wrong == []
        assert overlaps == []  # one batch per group in flight
        assert batcher.leaders == len(computed)
        assert batcher.leaders + batcher.coalesced == threads_n * rounds
        assert batcher.stats()["pending"] == 0
        assert batcher._running == {} and batcher._pending == {}

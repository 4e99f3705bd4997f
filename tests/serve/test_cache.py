"""Unit tests for the serving layer's LRU graph/session cache."""

import threading

import pytest

from repro.api import session_key
from repro.serve.cache import GraphCache


def tiny_spec(tag: str) -> str:
    """A distinct, fast-to-parse VHDL spec per tag."""
    return (
        f"entity E{tag} is port ( a : in integer range 0 to 255 ); end;\n"
        "Main: process\n"
        "    variable v : integer range 0 to 255;\n"
        "begin\n"
        f"    v := a + {ord(tag) % 7};\n"
        "    wait;\n"
        "end process;\n"
    )


SPEC_A = tiny_spec("a")
SPEC_B = tiny_spec("b")
SPEC_C = tiny_spec("c")


class TestLookup:
    def test_miss_then_hit(self):
        cache = GraphCache(capacity=4)
        session, hit = cache.get(SPEC_A)
        assert not hit
        again, hit = cache.get(SPEC_A)
        assert hit
        assert again is session
        assert cache.stats() == {
            "capacity": 4, "size": 1, "hits": 1, "misses": 1, "evictions": 0,
        }

    def test_cached_session_is_keyed_by_session_key(self):
        cache = GraphCache(capacity=4)
        session, _ = cache.get(SPEC_A)
        assert session.key == session_key(SPEC_A)
        assert cache.keys() == [session_key(SPEC_A)]

    @pytest.mark.parametrize("capacity", [0, 4])
    def test_each_get_resolves_the_spec_once(self, monkeypatch, capacity):
        from repro.api.frontends import FRONTENDS

        calls = []
        resolve = FRONTENDS.resolve

        def counted(spec):
            calls.append(spec)
            return resolve(spec)

        monkeypatch.setattr(FRONTENDS, "resolve", counted)
        cache = GraphCache(capacity=capacity)
        cache.get(SPEC_A)  # miss: key and build share one resolution
        assert len(calls) == 1
        cache.get(SPEC_A)
        assert len(calls) == 2

    def test_distinct_specs_do_not_collide(self):
        cache = GraphCache(capacity=4)
        a, _ = cache.get(SPEC_A)
        b, _ = cache.get(SPEC_B)
        assert a is not b
        assert len(cache) == 2

    def test_bad_spec_propagates_and_leaves_cache_clean(self):
        from repro.errors import SlifError

        cache = GraphCache(capacity=4)
        with pytest.raises(SlifError):
            cache.get("no-such-benchmark")
        assert len(cache) == 0
        # the key is not wedged: a later good build works
        cache.get(SPEC_A)
        assert len(cache) == 1


class TestLRUEviction:
    def test_capacity_is_enforced_oldest_first(self):
        cache = GraphCache(capacity=2)
        cache.get(SPEC_A)
        cache.get(SPEC_B)
        cache.get(SPEC_C)  # evicts A, the least recently used
        assert cache.stats()["evictions"] == 1
        assert cache.keys() == [session_key(SPEC_B), session_key(SPEC_C)]
        _, hit = cache.get(SPEC_A)  # A is gone: rebuilt
        assert not hit

    def test_hit_refreshes_recency(self):
        cache = GraphCache(capacity=2)
        cache.get(SPEC_A)
        cache.get(SPEC_B)
        cache.get(SPEC_A)  # A becomes most recent
        cache.get(SPEC_C)  # so B is evicted, not A
        _, hit_a = cache.get(SPEC_A)
        assert hit_a
        assert session_key(SPEC_B) not in cache.keys()

    def test_rebuild_after_eviction_gets_same_key(self):
        cache = GraphCache(capacity=1)
        first, _ = cache.get(SPEC_A)
        cache.get(SPEC_B)
        rebuilt, hit = cache.get(SPEC_A)
        assert not hit
        assert rebuilt is not first
        assert rebuilt.key == first.key


class TestDisabled:
    def test_capacity_zero_disables_caching(self):
        cache = GraphCache(capacity=0)
        a1, hit1 = cache.get(SPEC_A)
        a2, hit2 = cache.get(SPEC_A)
        assert not hit1 and not hit2
        assert a1 is not a2
        assert cache.stats()["misses"] == 2
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            GraphCache(capacity=-1)


class TestConcurrency:
    def test_cold_herd_builds_once(self):
        cache = GraphCache(capacity=4)
        sessions = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            session, _ = cache.get(SPEC_A)
            sessions.append(session)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(sessions) == 8
        assert len({id(s) for s in sessions}) == 1  # one build, shared
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 7

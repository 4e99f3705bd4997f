"""End-to-end tests for the ``slif serve`` HTTP layer.

A real :class:`~repro.serve.app.SlifServer` is bound to an ephemeral
port and driven over sockets; responses must be byte-identical to
calling the :mod:`repro.api` facade directly in-process.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro import api
from repro.api.types import canonical_json
from repro.serve.app import MAX_BODY_BYTES, ServerConfig, SlifServer


def http_request(server, method, path, body=None, attempts=3):
    """One HTTP round-trip; returns ``(status, headers, raw_body)``.

    Retries transient connection resets (burst connects can outrun the
    accept loop) — never retries a request the server answered.
    """
    payload = None
    headers = {}
    if body is not None:
        payload = (
            body if isinstance(body, bytes)
            else canonical_json(body).encode("utf-8")
        )
        headers["Content-Type"] = "application/json"
    for attempt in range(attempts):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return (
                response.status, dict(response.getheaders()), response.read()
            )
        except (ConnectionResetError, ConnectionRefusedError):
            if attempt == attempts - 1:
                raise
            time.sleep(0.05 * (attempt + 1))
        finally:
            conn.close()


def start_server(config):
    server = SlifServer(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


@pytest.fixture(scope="module")
def server():
    srv, thread = start_server(
        ServerConfig(port=0, cache_size=8, max_inflight=4)
    )
    yield srv
    srv.shutdown()
    thread.join(timeout=10)


class TestBasics:
    def test_healthz(self, server):
        status, headers, body = http_request(server, "GET", "/v1/healthz")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0

    def test_stats_shape(self, server):
        status, _, body = http_request(server, "GET", "/v1/stats")
        assert status == 200
        stats = json.loads(body)
        for key in ("cache", "batch", "inflight", "max_inflight", "requests"):
            assert key in stats
        assert stats["max_inflight"] == 4

    def test_unknown_path_404(self, server):
        status, _, body = http_request(server, "GET", "/nope")
        assert status == 404
        assert "unknown path" in json.loads(body)["error"]

    def test_wrong_method_405(self, server):
        status, headers, _ = http_request(server, "GET", "/v1/estimate")
        assert status == 405
        assert "POST" in headers["Allow"]

    def test_invalid_json_400(self, server):
        status, _, body = http_request(
            server, "POST", "/v1/estimate", body=b"{not json"
        )
        assert status == 400
        assert "not valid JSON" in json.loads(body)["error"]

    def test_unknown_field_400(self, server):
        status, _, body = http_request(
            server, "POST", "/v1/estimate", body={"spec": "vol", "bogus": 1}
        )
        assert status == 400
        assert "does not accept" in json.loads(body)["error"]

    def test_unknown_spec_400(self, server):
        status, _, body = http_request(
            server, "POST", "/v1/estimate", body={"spec": "not-a-benchmark"}
        )
        assert status == 400
        assert "neither a bundled benchmark" in json.loads(body)["error"]


def raw_exchange(server, request):
    """Send raw bytes on a fresh socket; read until the server closes."""
    address = (server.host, server.port)
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                return b"".join(chunks)
            chunks.append(data)


class TestHostileContentLength:
    @pytest.mark.parametrize(
        "value, status",
        [
            ("abc", 400),
            ("-5", 400),
            (str(MAX_BODY_BYTES + 1), 413),
            ("9" * 5000, 413),
        ],
        ids=["letters", "negative", "over-limit", "huge-digits"],
    )
    def test_rejected_with_a_response(self, server, value, status):
        # no body follows: a 413 must not wait to read one
        response = raw_exchange(
            server,
            b"POST /v1/estimate HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + value.encode() + b"\r\n\r\n",
        )
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split(b" ")[1] == str(status).encode()
        assert b"Connection: close" in head
        assert json.loads(body)["error"]
        # the server is unharmed: the next request on a new connection works
        status, _, body = http_request(
            server, "POST", "/v1/estimate", body={"spec": "vol"}
        )
        assert status == 200
        assert json.loads(body)["system_time"] > 0

    def test_valid_length_is_read(self, server):
        assert MAX_BODY_BYTES == 64 * 1024 * 1024
        response = raw_exchange(
            server,
            b"POST /v1/estimate HTTP/1.1\r\nHost: x\r\n"
            b"Connection: close\r\nContent-Length: 2\r\n\r\n{}",
        )
        assert response.startswith(b"HTTP/1.1 400")  # missing "spec"


class TestEstimate:
    def test_response_is_byte_identical_to_facade(self, server):
        expected = canonical_json(api.estimate("vol").to_dict()).encode("utf-8")
        status, _, body = http_request(
            server, "POST", "/v1/estimate", body={"spec": "vol"}
        )
        assert status == 200
        assert body == expected

    def test_cache_hit_counters_grow(self, server):
        before = json.loads(
            http_request(server, "GET", "/v1/stats")[2]
        )["cache"]
        for _ in range(3):
            status, _, _ = http_request(
                server, "POST", "/v1/estimate", body={"spec": "fuzzy"}
            )
            assert status == 200
        after = json.loads(
            http_request(server, "GET", "/v1/stats")[2]
        )["cache"]
        # first fuzzy request was at most a miss; the rest must hit
        assert after["hits"] >= before["hits"] + 2
        assert after["misses"] <= before["misses"] + 1

    def test_mode_flag_respected(self, server):
        _, _, avg_body = http_request(
            server, "POST", "/v1/estimate", body={"spec": "vol", "mode": "avg"}
        )
        _, _, max_body = http_request(
            server, "POST", "/v1/estimate", body={"spec": "vol", "mode": "max"}
        )
        avg = json.loads(avg_body)
        max_ = json.loads(max_body)
        assert max_["system_time"] >= avg["system_time"]
        expected = canonical_json(
            api.estimate({"spec": "vol", "mode": "max"}).to_dict()
        ).encode("utf-8")
        assert max_body == expected


class TestOneResolvePerEstimate:
    """Each estimate resolves its spec once and hashes its key once."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        import repro.serve.cache as cache
        from repro.api.frontends import FRONTENDS

        calls = {"resolve": 0, "key": 0}
        resolve, key = FRONTENDS.resolve, cache.session_key

        def counted_resolve(spec):
            calls["resolve"] += 1
            return resolve(spec)

        def counted_key(spec, **kwargs):
            calls["key"] += 1
            return key(spec, **kwargs)

        monkeypatch.setattr(FRONTENDS, "resolve", counted_resolve)
        monkeypatch.setattr(cache, "session_key", counted_key)
        srv = SlifServer(ServerConfig(port=0, cache_size=4))
        yield srv, calls
        srv.close()

    @staticmethod
    def estimate(srv, calls, spec):
        calls.update(resolve=0, key=0)
        body = canonical_json({"spec": spec}).encode("utf-8")
        status, payload, _, _ = srv.handle_timed("POST", "/v1/estimate", body)
        assert status == 200, payload
        return dict(calls)

    def test_warm_bundled_spec(self, counted):
        srv, calls = counted
        self.estimate(srv, calls, "fuzzy")  # warm the cache
        assert self.estimate(srv, calls, "fuzzy") == {"resolve": 1, "key": 1}
        assert srv.cache.stats()["hits"] == 1

    def test_cold_inline_generated_spec(self, counted):
        from repro.synth.gen import GenConfig, generate_text

        srv, calls = counted
        text = generate_text(GenConfig(behaviors=30, seed=11))
        assert self.estimate(srv, calls, text) == {"resolve": 1, "key": 1}
        assert srv.cache.stats()["misses"] == 1

    def test_bundled_source_is_generated_once(self):
        from repro.specs import spec_source

        assert spec_source("ether") is spec_source("ether")


class TestHeavyEndpoints:
    def test_partition_matches_facade(self, server):
        request = api.PartitionRequest(spec="vol", algorithm="greedy", seed=0)
        expected = canonical_json(api.partition(request).to_dict()).encode()
        status, _, body = http_request(
            server, "POST", "/v1/partition",
            body={"spec": "vol", "algorithm": "greedy", "seed": 0, "jobs": 1},
        )
        assert status == 200
        assert body == expected

    def test_simulate_matches_facade(self, server):
        request = api.SimulateRequest(spec="vol", seed=0, iterations=2)
        expected = canonical_json(api.simulate(request).to_dict()).encode()
        status, _, body = http_request(
            server, "POST", "/v1/simulate",
            body={"spec": "vol", "seed": 0, "iterations": 2},
        )
        assert status == 200
        assert body == expected

    def test_explore_matches_facade(self, server):
        request = api.ExploreRequest(
            spec="vol", constraint_steps=2, random_starts=1, seed=0, jobs=1
        )
        expected = canonical_json(api.explore(request).to_dict()).encode()
        status, _, body = http_request(
            server, "POST", "/v1/explore",
            body={
                "spec": "vol", "constraint_steps": 2, "random_starts": 1,
                "seed": 0, "jobs": 1,
            },
        )
        assert status == 200
        assert body == expected


class TestBackpressure:
    def test_max_inflight_returns_429(self, monkeypatch):
        srv, thread = start_server(
            ServerConfig(port=0, cache_size=4, max_inflight=1)
        )
        started = threading.Event()
        release = threading.Event()

        class _StubResult:
            def to_dict(self):
                return {"stub": True}

        def blocking_explore(request, session=None, **kwargs):
            started.set()
            assert release.wait(30), "test never released the stub"
            return _StubResult()

        monkeypatch.setattr(api, "explore", blocking_explore)
        try:
            outcome = {}

            def first():
                outcome["first"] = http_request(
                    srv, "POST", "/v1/explore", body={"spec": "vol"}
                )

            blocker = threading.Thread(target=first)
            blocker.start()
            assert started.wait(30), "first heavy request never started"
            # the only slot is taken: next heavy request is rejected
            status, headers, body = http_request(
                srv, "POST", "/v1/explore", body={"spec": "vol"}
            )
            assert status == 429
            assert headers["Retry-After"] == "1"
            assert "in flight" in json.loads(body)["error"]
            # but the hot path is unaffected by heavy backpressure
            est_status, _, _ = http_request(
                srv, "POST", "/v1/estimate", body={"spec": "vol"}
            )
            assert est_status == 200
            release.set()
            blocker.join(timeout=30)
            assert outcome["first"][0] == 200
            assert json.loads(outcome["first"][2]) == {"stub": True}
        finally:
            release.set()
            srv.shutdown()
            thread.join(timeout=10)


class TestDrain:
    def test_draining_rejects_new_work_but_keeps_stats(self):
        srv = SlifServer(ServerConfig(port=0))
        try:
            srv.draining = True
            status, payload, headers = srv.handle_request(
                "GET", "/v1/healthz", b""
            )
            assert status == 503
            assert headers["Retry-After"] == "1"
            assert "draining" in payload["error"]
            status, _, _ = srv.handle_request(
                "POST", "/v1/estimate", b'{"spec": "vol"}'
            )
            assert status == 503
            status, stats, _ = srv.handle_request("GET", "/v1/stats", b"")
            assert status == 200
            assert stats["draining"] is True
        finally:
            srv.close()

    def test_shutdown_drains_inflight(self):
        srv, thread = start_server(ServerConfig(port=0))
        assert http_request(srv, "GET", "/v1/healthz")[0] == 200
        srv.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert srv.wait_drained(timeout=1)


class TestConcurrentStress:
    """Acceptance criterion: N threads x M requests, byte-identical."""

    THREADS = 16
    REQUESTS_PER_THREAD = 4

    def test_16_threads_byte_identical_responses(self, server):
        cases = [
            {"spec": "vol"},
            {"spec": "fuzzy"},
            {"spec": "vol", "mode": "max"},
            {"spec": "ans", "concurrent": True},
        ]
        expected = {
            canonical_json(case): canonical_json(
                api.estimate(api.EstimateRequest.from_dict(dict(case))).to_dict()
            ).encode("utf-8")
            for case in cases
        }
        failures = []
        barrier = threading.Barrier(self.THREADS)

        def worker(worker_id):
            barrier.wait()
            for i in range(self.REQUESTS_PER_THREAD):
                case = cases[(worker_id + i) % len(cases)]
                try:
                    status, _, body = http_request(
                        server, "POST", "/v1/estimate", body=case
                    )
                except Exception as exc:  # noqa: BLE001 - recorded for asserts
                    failures.append((worker_id, i, "exception", repr(exc)))
                    continue
                if status != 200 or body != expected[canonical_json(case)]:
                    failures.append((worker_id, i, status, body[:200]))

        threads = [
            threading.Thread(target=worker, args=(w,))
            for w in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        stats = json.loads(http_request(server, "GET", "/v1/stats")[2])
        # the stress shared sessions: far fewer builds than requests
        assert stats["cache"]["misses"] <= len(cases) + 4
        assert stats["cache"]["hits"] + stats["batch"]["coalesced"] > 0

"""The two serving workloads: ``serve-warm`` and ``serve-cold``.

Both start ``slif serve --port 0`` as a subprocess with its default
flags (so the 2 ms batch window and the CLI's always-on telemetry stay
on), warm it with one request per bundled spec and estimate mode, and
then drive ``/v1/estimate`` from this process with at most two
threads and two keep-alive connections.

* ``serve-warm`` is an open loop over the four bundled specs: requests
  are due at a constant rate with a seeded mix of spec, mode and
  ``concurrent``, are timed from when they were due, and queue here
  when both connections are busy (none is dropped).  A fixed reference
  rate gives the latency figures; one connection sending back to back
  gives the throughput; a rate ladder, with no fixed top, gives the
  highest rate whose tail latency stays within
  :data:`LATENCY_LIMIT_MS` with no growing backlog.
* ``serve-cold`` is a closed loop with one client, like a designer
  iterating: every request carries an inline ``slif gen`` spec of
  :data:`COLD_BEHAVIORS` behaviors with its own seed, so each one
  misses the session cache and the cache evicts.  The server's cache
  counters must show one miss per timed request; a shortfall counts as
  failed requests.

Latency and throughput are reported at the reference host's speed
(:class:`common.HostProbe`, sampled while the server is idle, every
second or so).  Both are measured one request at a time, so each batch
leader's sleep (a count in the server's ``/v1/stats``) lies on the
measured path; those sleeps take as long on any host and are not
scaled.  The raw figures
are printed beside them.  serve-warm's peak RSS is read before its
ladder, after a fixed number of requests: the server's trace buffer
grows with every request, and how many the ladder sends depends on
the host.

Every response is compared byte for byte with the canonical JSON of
``EstimateResult.from_report(Estimator(...).report())`` computed
outside the timed region.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import List, Optional, Sequence, Tuple

from common import (
    HostProbe, Trace, latency_summary, percentile, program_env, scaled_figures,
    tail_quantile, vm_hwm_mb,
)

#: The estimate traffic of ``slif replay`` (``src/repro/synth/replay.py``,
#: ``_body`` and ``_next_request``): a uniform choice of the bundled
#: specs, mode avg/avg/avg/min/max, ``concurrent`` one time in four.
SERVE_SPECS = ("ans", "ether", "fuzzy", "vol")
MODES = ("avg", "avg", "avg", "min", "max")
CONCURRENT_SHARE = 0.25
MODE_NAMES = tuple(sorted(set(MODES)))
CONNECTIONS = 2

#: Reference rate (requests/s) for the latency figures, and the share
#: of the measured time spent at it.
REFERENCE_RATE = 100.0
REFERENCE_SHARE = 0.4
#: The reference phase runs in this many windows, with host probes
#: between them.  Its printed tail is the median over the windows of
#: each window's tail (with 80 requests a window, its p87.5), next to
#: the whole-phase p99.  The server stalls for 40-70 ms about once in
#: ten seconds, so one stall must not decide a run's tail.
REFERENCE_WINDOWS = 10
#: ``throughput_rps`` comes from SATURATION_CONNECTIONS sending a fixed
#: number of requests back to back, SATURATION_PER_S for each second of
#: ``--seconds`` (about a third of it on the reference host), in
#: SATURATION_CHUNKS chunks with host probes between them.  With one
#: connection every request waits out the batch window on its own, so
#: the time that does not scale with the host is known exactly; the
#: ladder measures two connections.  The count is fixed because the
#: server's RSS grows with every request it traces.
SATURATION_CONNECTIONS = 1
SATURATION_PER_S = 120
SATURATION_CHUNKS = 8
#: Host probe samples at each pause between windows or chunks.
PROBES_PER_CHUNK = 2
#: Rate ladder (requests/s) above the reference rate: it starts at
#: LADDER_START and climbs in 7.5% steps until a rate fails.  Each rung
#: lasts RUNG_SHARE of ``--seconds``; a failing rung is run again, up to
#: RUNG_ATTEMPTS times, because one stall of the host is not the
#: server's limit.  MAX_RUNGS only bounds a run whose load generator
#: never falls behind; a run that reaches it is reported as topped.
LADDER_START = 250.0
LADDER_STEP = 1.075
RUNG_SHARE = 1 / 32
RUNG_ATTEMPTS = 2
MAX_RUNGS = 64
#: Tail-latency limit a rung must meet.  The server stalls for 40-70 ms
#: now and then under load; a limit above that keeps the ladder
#: measuring queueing collapse rather than single stalls.
LATENCY_LIMIT_MS = 50.0

COLD_BEHAVIORS = 2000
#: The closed loop ends when its requests have taken ``--seconds`` or,
#: counting the untimed work between them, this many times as long.
COLD_WALL_FACTOR = 3

SETUPS = 5
STARTUP_TIMEOUT = 60.0


# ----------------------------------------------------------------------
# the server process


class Server:
    """One ``slif serve --port 0`` subprocess (optionally the launcher)."""

    def __init__(self, root: str, spans_out: Optional[str] = None) -> None:
        env = program_env(root, PYTHONUNBUFFERED="1")
        if spans_out:
            cmd = [sys.executable, os.path.join(root, "perfbench", "serve_launcher.py"),
                   spans_out, "serve", "--port", "0"]
        else:
            cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, text=True,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "listening on http://" in line:
                    return int(line.strip().rsplit(":", 1)[1])
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("slif serve did not report its port")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def get_json(self, path: str) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path} answered {response.status}")
            return json.loads(body)
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def batch_sleep_s(before: dict, after: dict) -> float:
    """Seconds the server's batch leaders slept between two ``/v1/stats``."""
    batch = after["batch"]
    return (batch["leaders"] - before["batch"]["leaders"]) * batch["window_seconds"]


def post(conn, body: bytes, trace_id: str) -> Tuple[int, bytes]:
    conn.request(
        "POST", "/v1/estimate", body=body,
        headers={"Content-Type": "application/json", "X-Slif-Trace-Id": trace_id},
    )
    response = conn.getresponse()
    return response.status, response.read()


# ----------------------------------------------------------------------
# inputs and their reference answers


def reference_body(spec: str, mode: str, concurrent: bool) -> bytes:
    """The canonical JSON the server must answer, from the reference path."""
    from repro import api
    from repro.api.types import EstimateResult, canonical_json
    from repro.core.channels import FreqMode
    from repro.estimate.engine import Estimator

    session = api.load(spec)
    report = Estimator(
        session.slif, session.partition, FreqMode(mode), concurrent
    ).report()
    result = EstimateResult.from_report(report, graph_key=session.key)
    return canonical_json(result.to_dict()).encode("utf-8")


def request_body(spec: str, mode: str = "avg", concurrent: bool = False) -> bytes:
    return json.dumps({"spec": spec, "mode": mode, "concurrent": concurrent}).encode()


def warm_inputs() -> List[Tuple[bytes, bytes]]:
    """(request body, expected response) for every bundled-spec variant."""
    inputs = []
    for spec in SERVE_SPECS:
        for mode in MODE_NAMES:
            for concurrent in (False, True):
                inputs.append((
                    request_body(spec, mode, concurrent),
                    reference_body(spec, mode, concurrent),
                ))
    return inputs


def draw_variant(rng: random.Random) -> int:
    """Index into :func:`warm_inputs` for one seeded request."""
    spec = SERVE_SPECS.index(rng.choice(SERVE_SPECS))
    mode = MODE_NAMES.index(rng.choice(MODES))
    concurrent = rng.random() < CONCURRENT_SHARE
    return (spec * len(MODE_NAMES) + mode) * 2 + int(concurrent)


def cold_spec(seed: int, index: int) -> str:
    """The ``index``-th inline spec of a serve-cold run; no two repeat."""
    from repro.synth.gen import GenConfig, generate_text

    return generate_text(
        GenConfig(behaviors=COLD_BEHAVIORS, seed=seed * 1_000_000 + index)
    )


# ----------------------------------------------------------------------
# set-up


def start_and_warm(root: str, warm: Sequence[Tuple[bytes, bytes]], spans_out=None):
    """Start a server, answer its health check and warm every variant.

    Returns ``(server, set-up seconds, failed warm-up responses)``.
    """
    server = Server(root, spans_out)
    try:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while True:
            try:
                if server.get_json("/v1/healthz").get("status") == "ok":
                    break
            except (OSError, RuntimeError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        conn = server.connect()
        failed = 0
        for i, (body, expected) in enumerate(warm):
            status, data = post(conn, body, f"bench-w-{i:06d}")
            failed += status != 200 or data != expected
        conn.close()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.launched, failed


def median_setup(root: str, warm, spans_out=None, setups: int = SETUPS):
    """Set up ``setups`` times; keep the last server, report the median."""
    times = []
    failed = 0
    for i in range(setups):
        server, seconds, bad = start_and_warm(root, warm, spans_out if i == setups - 1 else None)
        times.append(seconds)
        failed += bad
        if i < setups - 1:
            server.stop()
    return server, statistics.median(times), failed


# ----------------------------------------------------------------------
# load generators


def open_loop(server: Server, schedule, bodies, expected, tag: str, connections=CONNECTIONS):
    """Send each request when due; late ones queue, none are dropped.

    ``schedule`` is a list of ``(due offset s, variant index)``.
    Returns one ``(due, sent, done, ok)`` record per request.
    """
    records: List[Optional[tuple]] = [None] * len(schedule)
    cursor = {"next": 0}
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def sender() -> None:
        conn = server.connect()
        try:
            while True:
                with lock:
                    i = cursor["next"]
                    if i >= len(schedule):
                        return
                    cursor["next"] = i + 1
                offset, variant = schedule[i]
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    status, data = post(conn, bodies[variant], f"{tag}{i:06d}")
                    ok = status == 200 and data == expected[variant]
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = server.connect()
                    ok = False
                records[i] = (due, sent, time.perf_counter(), ok)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def schedule(rng: random.Random, rate: float, seconds: float):
    """Requests due every ``1/rate`` seconds, each a seeded variant."""
    return [(i / rate, draw_variant(rng)) for i in range(int(rate * seconds))]


def reference_phase(server: Server, rng, seconds: float, bodies, expected, probe: HostProbe):
    """The reference rate for ``seconds``, in :data:`REFERENCE_WINDOWS` windows.

    The host's speed swings within seconds, so between windows the
    schedule pauses and, while the server is idle, the host is probed;
    each window's latencies are scaled by the probes on either side of
    it.  Returns each window's records and scale.
    """
    windows, scales = [], []
    probe.sample(PROBES_PER_CHUNK)
    stats = server.get_json("/v1/stats")
    for w in range(REFERENCE_WINDOWS):
        around = len(probe.samples) - PROBES_PER_CHUNK
        window = open_loop(
            server, schedule(rng, REFERENCE_RATE, seconds / REFERENCE_WINDOWS),
            bodies, expected, f"bench-r-{w:02d}-",
        )
        after = server.get_json("/v1/stats")
        probe.sample(PROBES_PER_CHUNK)
        scales.append(probe.scale(
            sum(done - due for due, _, done, _ in window), batch_sleep_s(stats, after),
            probe.samples[around:],
        ))
        stats = after
        windows.append(window)
    return windows, scales


def saturation(server: Server, rng, count: int, bodies, expected, probe: HostProbe):
    """``count`` requests sent back to back on one connection.

    They go in :data:`SATURATION_CHUNKS` chunks.  The host's speed
    swings within seconds, so between chunks, while the server is
    idle, the host is probed, and each chunk's requests per second are
    scaled by the probes on either side of it.  Returns the median
    chunk's raw and scaled requests per second, and the records.
    """
    records: list = []
    raw, scaled = [], []
    probe.sample(PROBES_PER_CHUNK)
    stats = server.get_json("/v1/stats")
    for _ in range(SATURATION_CHUNKS):
        around = len(probe.samples) - PROBES_PER_CHUNK
        backlog = [(0.0, draw_variant(rng)) for _ in range(count // SATURATION_CHUNKS)]
        chunk = open_loop(
            server, backlog, bodies, expected, "bench-s-", connections=SATURATION_CONNECTIONS
        )
        busy = max(done for _, _, done, _ in chunk) - chunk[0][0]
        after = server.get_json("/v1/stats")
        probe.sample(PROBES_PER_CHUNK)
        raw.append(len(chunk) / busy)
        scaled.append(raw[-1] / probe.scale(
            busy, batch_sleep_s(stats, after), probe.samples[around:]
        ))
        stats = after
        records += chunk
    return statistics.median(raw), statistics.median(scaled), records


def rung_result(rate: float, records) -> dict:
    latencies = [done - due for due, _, done, _ in records]
    lags = [sent - due for due, sent, _, _ in records]
    failed = sum(not ok for *_, ok in records)
    summary = latency_summary(latencies)
    # a backlog that keeps growing leaves the last requests the latest
    tail = lags[-max(1, len(lags) // 10):]
    backlog = max(tail) * 1e3 > LATENCY_LIMIT_MS
    return {
        "rate": rate,
        "count": len(records),
        "failed": failed,
        "p50_ms": summary["p50_ms"],
        "tail_ms": summary["tail_ms"],
        "tail_q": summary["tail_q"],
        "lag_tail_ms": percentile(lags, summary["tail_q"]) * 1e3,
        "backlog": backlog,
        "passed": failed == 0 and not backlog
        and summary["tail_ms"] <= LATENCY_LIMIT_MS,
    }


def max_rate(best: Optional[float], first: dict) -> float:
    """The highest ladder rate that passed, below the first that did not.

    When even the first rate fails, its rate is scaled down by how far
    its tail overshot the limit.
    """
    if best is None:
        return first["rate"] * min(1.0, LATENCY_LIMIT_MS / first["tail_ms"])
    return best


# ----------------------------------------------------------------------
# workloads


def run_warm(root: str, seed: int, seconds: float, spans_out=None) -> dict:
    rng = random.Random(seed)
    warm = warm_inputs()
    bodies = [body for body, _ in warm]
    expected = [exp for _, exp in warm]
    setups = 1 if spans_out else SETUPS
    server, setup_s, failed = median_setup(root, warm, spans_out, setups)
    probe = HostProbe()
    try:
        stats_before = server.get_json("/v1/stats")
        rung_seconds = seconds * RUNG_SHARE
        window_records, scales = reference_phase(
            server, rng, seconds * REFERENCE_SHARE, bodies, expected, probe
        )
        stats_after = server.get_json("/v1/stats")
        records = [record for window in window_records for record in window]
        reference = rung_result(REFERENCE_RATE, records)
        windows = [
            latency_summary([done - due for due, _, done, _ in window])
            for window in window_records
        ]
        rungs = [reference]
        attempted = len(records) + len(warm) * setups
        failed += reference["failed"]
        throughput, scaled_throughput, saturated_records = saturation(
            server, rng, int(seconds * SATURATION_PER_S), bodies, expected, probe
        )
        # after a fixed number of requests; the ladder's count depends
        # on the host, and the server's trace buffer grows per request
        peak = server.peak_rss_mb()
        attempted += len(saturated_records)
        failed += sum(not ok for *_, ok in saturated_records)
        best, topped = None, True
        for i in range(MAX_RUNGS):
            rate = float(round(LADDER_START * LADDER_STEP ** i))
            for attempt in range(RUNG_ATTEMPTS):
                rung = rung_result(rate, open_loop(
                    server, schedule(rng, rate, rung_seconds),
                    bodies, expected, f"bench-l{i}.{attempt}-",
                ))
                rungs.append(rung)
                attempted += rung["count"]
                failed += rung["failed"]
                if rung["passed"]:
                    break
            if not rung["passed"]:
                topped = False
                break
            best = rate
    finally:
        server.stop()
    lags = [sent - due for due, sent, _, _ in records]
    raw = {
        "latency_p50_ms": reference["p50_ms"],
        "latency_p99_ms": statistics.median(w["tail_ms"] for w in windows),
        "throughput_rps": throughput,
    }
    scaled_latencies = latency_summary([
        (done - due) * scale
        for window, scale in zip(window_records, scales) for due, _, done, _ in window
    ])
    return {
        **probe.report(raw, {
            "latency_p50_ms": scaled_latencies["p50_ms"],
            "latency_p99_ms": statistics.median(
                w["tail_ms"] * scale for w, scale in zip(windows, scales)
            ),
            "throughput_rps": scaled_throughput,
        }),
        "setup_s": setup_s,
        "tail_q": windows[0]["tail_q"],
        "samples": reference["count"],
        "windows": REFERENCE_WINDOWS,
        "whole_tail_ms": scaled_latencies["tail_ms"],
        "whole_tail_q": scaled_latencies["tail_q"],
        "max_rate_rps": max_rate(best, rungs[1]),
        "ladder_topped": topped,
        "peak_rss_mb": peak,
        "attempted": attempted,
        "failed": failed,
        "rungs": rungs,
        "generator_lag_p99_ms": percentile(lags, tail_quantile(len(lags))) * 1e3,
        "service_s": [done - sent for _, sent, done, _ in records],
        "stats": (stats_before, stats_after),
    }


def run_cold(root: str, seed: int, seconds: float, spans_out=None) -> dict:
    """Closed loop, one client, a new spec every request.

    Between requests, untimed, like a designer editing, the client
    generates the next spec, computes its reference answer and samples
    the host's speed; the server is idle then.  Throughput is requests
    over the time they were in flight.
    """
    warm = warm_inputs()
    setups = 1 if spans_out else SETUPS
    server, setup_s, failed = median_setup(root, warm, spans_out, setups)
    latencies = []
    probe = HostProbe()
    try:
        stats_before = server.get_json("/v1/stats")
        conn = server.connect()
        probe.sample()
        wall_deadline = time.perf_counter() + seconds * COLD_WALL_FACTOR
        while sum(latencies) < seconds and time.perf_counter() < wall_deadline:
            spec = cold_spec(seed, len(latencies))
            expected = reference_body(spec, "avg", False)
            sent = time.perf_counter()
            status, data = post(conn, request_body(spec), f"bench-c-{len(latencies):06d}")
            latencies.append(time.perf_counter() - sent)
            failed += status != 200 or data != expected
            probe.sample()
        conn.close()
        stats_after = server.get_json("/v1/stats")
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    # no spec is sent twice, so every timed request must miss the cache
    misses = stats_after["cache"]["misses"] - stats_before["cache"]["misses"]
    failed += max(0, len(latencies) - misses)
    summary = latency_summary(latencies)
    raw = {
        "latency_p50_ms": summary["p50_ms"],
        "latency_p99_ms": summary["tail_ms"],
        "throughput_rps": len(latencies) / sum(latencies),
    }
    scale = probe.scale(sum(latencies), batch_sleep_s(stats_before, stats_after))
    return {
        **probe.report(raw, scaled_figures(raw, scale)),
        "setup_s": setup_s,
        "tail_q": summary["tail_q"],
        "samples": summary["count"],
        "peak_rss_mb": peak,
        "attempted": len(latencies) + len(warm) * setups,
        "failed": failed,
        "service_s": latencies,
        "stats": (stats_before, stats_after),
    }


# ----------------------------------------------------------------------
# per-layer figures from a traced run


def layer_metrics(result: dict, trace: Trace) -> dict:
    """Per-request layer figures of a traced run's kept requests."""
    per = trace.per_op
    before, after = result["stats"]
    cache = {k: after["cache"][k] - before["cache"][k] for k in ("hits", "misses", "evictions")}
    lookups = cache["hits"] + cache["misses"]
    grouped = trace.calls.get("serve.batching.run_grouped", 0)
    batches = trace.counts.get("serve.batching.batches", 0)
    return {
        "serve.app.handle_s": per("serve.app.handle"),
        "serve.http_s": statistics.fmean(result["service_s"]) - per("serve.app.handle"),
        "api.session.key_calls": trace.calls_per_op("api.session.key"),
        "api.session.key_s": per("api.session.key"),
        "api.frontends.resolve_calls": trace.calls_per_op("api.frontends.resolve"),
        "api.frontends.resolve_s": per("api.frontends.resolve"),
        "api.session.load_s": per("api.session.load"),
        "api.frontends.parse_s": per("api.frontends.parse"),
        "serve.cache.get_s": per("serve.cache.get"),
        "serve.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "serve.cache.evictions": cache["evictions"] / max(1, trace.operations),
        "serve.batching.wait_s": per("serve.batching.run_grouped") - per("serve.batching.batch_compute"),
        "serve.batching.keys_per_batch": trace.ratio("serve.batching.keys", "serve.batching.batches"),
        "serve.batching.coalesced_ratio": (grouped - batches) / grouped if grouped else 0.0,
        "estimate.kernel.compile_s": per("estimate.kernel.compile"),
        "estimate.kernel.reports_s": per("estimate.kernel.reports"),
        "api.facade.estimate_many_s": per("api.facade.estimate_many"),
        "estimate.kernel.abstain_ratio": trace.ratio("estimate.kernel.abstains", "estimate.kernel.items"),
        "api.types.encode_s": per("api.types.encode"),
        # the server tracer's spans under the kept requests' trace ids
        "obs.tracing.spans_per_request": sum(
            trace.extra["tracer_spans_by_request"].get(label, 0)
            for label in trace.labels
        ) / max(1, trace.operations),
        "obs.tracing.dropped": trace.extra["tracer_dropped"],
    }

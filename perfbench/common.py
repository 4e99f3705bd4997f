"""Shared pieces of the benchmark: statistics, the host probe, the span
recorder, RSS.

Nothing here imports the program under test; the span recorder wraps
callables it is handed, so the same code traces the serving launcher
and the sweep runner.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random
import resource
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1], of a non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def tail_quantile(count: int) -> float:
    """Highest quantile with at least ten samples beyond it, capped at 0.99.

    Below 20 samples no quantile above the median has ten samples
    beyond it; the sample maximum is reported then (quantile 1.0) and
    labelled as such.
    """
    if count >= 20:
        return min(0.99, 1.0 - 10.0 / count)
    return 1.0


def latency_summary(latencies_s: Sequence[float]) -> Dict[str, float]:
    """Median and supported tail of a latency sample, in milliseconds."""
    q = tail_quantile(len(latencies_s))
    return {
        "p50_ms": statistics.median(latencies_s) * 1e3,
        "tail_ms": percentile(latencies_s, q) * 1e3,
        "tail_q": q,
        "count": len(latencies_s),
    }


def tail_label(q: float) -> str:
    return "max" if q >= 1.0 else f"p{q * 100:.4g}"


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_maxrss_mb() -> float:
    """This process's peak resident set, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# host speed

#: Seconds one :class:`HostProbe` sample takes on the reference host, a
#: 2-vCPU Intel Xeon VM (CPython 3.11) whose host was otherwise quiet.
PROBE_REFERENCE_S = 0.0178


class HostProbe:
    """How fast the host runs Python now, from work no change can speed up.

    On a shared host this process's speed changes by two times and
    more over minutes, as other tenants come and go, so raw times say
    as much about the host as about the program.  Between
    measurements, while the program is idle, :meth:`sample` times
    about 18 ms of this file's own Python: an arithmetic loop, then a
    walk over 30,000 small dicts in a seeded order.  Python programs
    spend their time both ways, and a busy host slows the memory walk
    about twice as much as the arithmetic, so a probe of either alone
    would misjudge it.  :meth:`factor` is the median sample over
    :data:`PROBE_REFERENCE_S`.
    """

    LOOPS = 300_000
    ITEMS = 30_000

    def __init__(self) -> None:
        rng = random.Random(0)
        self._items = [
            {"a": rng.randrange(1000), "b": rng.randrange(1000)} for _ in range(self.ITEMS)
        ]
        rng.shuffle(self._items)
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            total = 0
            for i in range(self.LOOPS):
                total += i * i % 7
            for item in self._items:
                total += item["a"] * item["b"] % 7
            self.samples.append(time.perf_counter() - start)

    def factor(self, samples: Optional[Sequence[float]] = None) -> float:
        """Median of ``samples`` (default: all) over the reference."""
        return statistics.median(samples or self.samples) / PROBE_REFERENCE_S

    def scale(self, wall_s: float, waiting_s: float = 0.0, samples=None) -> float:
        """Reference-host time over measured time for ``wall_s`` of work.

        The program spent ``waiting_s`` of it waiting, which takes as
        long on any host; the rest ran :meth:`factor` of ``samples``
        times slower than on the reference host.  A time times this
        scale, or a rate divided by it, is the figure on the reference
        host.
        """
        waiting = min(wall_s, max(0.0, waiting_s))
        return (waiting + (wall_s - waiting) / self.factor(samples)) / wall_s

    def report(self, raw: dict, scaled: dict) -> dict:
        """``scaled`` figures as the result, with ``raw`` and the factor beside."""
        return {**scaled, "raw": raw, "host_factor": self.factor(), "probes": len(self.samples)}


def scaled_figures(raw: dict, scale: float) -> dict:
    """``raw`` latency and throughput with one :meth:`HostProbe.scale`."""
    return {
        "latency_p50_ms": raw["latency_p50_ms"] * scale,
        "latency_p99_ms": raw["latency_p99_ms"] * scale,
        "throughput_rps": raw["throughput_rps"] / scale,
    }


# ----------------------------------------------------------------------
# span recording


class SpanRecorder:
    """In-memory spans around calls into the program's public functions.

    A span is ``(id, name, start, end, parent, request)``; ``parent`` is
    the enclosing span on the same thread and ``request`` the id of the
    root span that caused it, so the spans of one request or sweep
    share it.  Counts recorded with :meth:`count` sit beside the spans.
    Nothing is written until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Dict[Optional[int], Dict[str, float]] = {}
        self.labels: Dict[int, str] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to ``name`` under the current request."""
        stack = self._stack()
        request = stack[-1][1] if stack else None
        with self._lock:
            bucket = self.counts.setdefault(request, {})
            bucket[name] = bucket.get(name, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
        label: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``.

        ``after(args, kwargs, result, seconds)`` runs once the span has
        closed, still under the caller's request, so it may
        :meth:`count`; ``label(args)`` names the request a root span
        starts (for example the client's trace id).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            request = parent[1] if parent else span_id
            if parent is None and label is not None:
                with self._lock:
                    self.labels[span_id] = label(args)
            stack.append((span_id, request))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                record = (
                    span_id, name, start, end,
                    parent[0] if parent else None, request,
                )
                with self._lock:
                    self.spans.append(record)
            if after is not None:
                stack.append((span_id, request))
                try:
                    after(args, kwargs, result, end - start)
                finally:
                    stack.pop()
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None, label=None) -> None:
        """Replace ``owner.attr`` by its traced version."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            traced = self.wrap(name, raw.__func__, after, label)
            setattr(owner, attr, classmethod(traced))
        else:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), after, label))

    def count_abstains(self, args, kwargs, result, seconds) -> None:
        """``after`` hook for kernel batch calls: items, and ``None`` results."""
        self.count("estimate.kernel.items", len(result))
        self.count("estimate.kernel.abstains", sum(r is None for r in result))

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        with self._lock:
            doc = {
                "spans": [list(s) for s in self.spans],
                "counts": [[r, c] for r, c in self.counts.items()],
                "labels": [[r, l] for r, l in self.labels.items()],
                "extra": extra or {},
            }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)


def program_env(root: str, **extra: str) -> Dict[str, str]:
    """Environment for a process that imports the program from ``root/src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


@dataclass
class Trace:
    """Totals of one spans file over the requests (or sweeps) kept.

    ``labels`` names the kept requests (the clients' trace ids).

    ``inclusive`` and ``self_time`` are seconds per span name; a span's
    self time is its duration minus the part its children cover
    (children on one thread nest, so their durations add).
    """

    inclusive: Dict[str, float]
    self_time: Dict[str, float]
    calls: Dict[str, int]
    counts: Dict[str, float]
    operations: int
    labels: List[str]
    extra: dict

    def per_op(self, name: str) -> float:
        """Inclusive seconds in span ``name`` per kept operation."""
        return self.inclusive.get(name, 0.0) / max(1, self.operations)

    def calls_per_op(self, name: str) -> float:
        return self.calls.get(name, 0) / max(1, self.operations)

    def count_per_op(self, name: str) -> float:
        return self.counts.get(name, 0) / max(1, self.operations)

    def ratio(self, part: str, whole: str) -> float:
        whole_count = self.counts.get(whole, 0)
        return self.counts.get(part, 0) / whole_count if whole_count else 0.0


def load_trace(path: str, keep: Callable[[str], bool]) -> Trace:
    """Read a :meth:`SpanRecorder.dump` file; keep requests whose label passes."""
    with open(path) as fh:
        doc = json.load(fh)
    labels = {rid: label for rid, label in doc["labels"] if keep(label)}
    roots = set(labels)
    child_time: Dict[int, float] = {}
    for span_id, _, start, end, parent, request in doc["spans"]:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    inclusive: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for span_id, name, start, end, parent, request in doc["spans"]:
        if request not in roots:
            continue
        duration = end - start
        inclusive[name] = inclusive.get(name, 0.0) + duration
        self_time[name] = self_time.get(name, 0.0) + max(
            0.0, duration - child_time.get(span_id, 0.0)
        )
        calls[name] = calls.get(name, 0) + 1
    counts: Dict[str, float] = {}
    for rid, bucket in doc["counts"]:
        if rid in roots:
            for name, value in bucket.items():
                counts[name] = counts.get(name, 0) + value
    return Trace(
        inclusive, self_time, calls, counts, len(roots),
        sorted(labels.values()), doc["extra"],
    )


def format_self_table(trace: Trace, unit: str) -> List[str]:
    """Lines of the self-time table, largest first, per operation."""
    lines = [f"self time per {unit} (traced run, n={trace.operations}):"]
    for name, seconds in sorted(trace.self_time.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<34} {seconds / max(1, trace.operations) * 1e3:10.4f} ms")
    return lines

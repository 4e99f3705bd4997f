"""Run ``slif explore`` sweeps through ``repro.cli.main`` in one process.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/sweep_runner.py CONFIG.json

``CONFIG.json`` lists rounds of sweeps (``argv`` lists for
``repro.cli.main``, each with the front it must print), how many
seconds to keep iterating, and an optional spans file; iteration *i*
runs round *i* modulo the number of rounds.  The runner
imports the program and loads one spec, prints ``ready`` on stdout,
then runs whole iterations until the time is up.  Every sweep goes
through ``repro.cli.main`` exactly as ``slif explore`` would, so the
CLI's always-on telemetry is paid the way users pay it.  Before the
first iteration and after each one the runner prints ``probe`` and
waits for a line on stdin, so the benchmark can time the host's speed
while the program is idle.  The last stdout line is a JSON summary:
per-sweep wall time, candidates, whether the printed front matched,
and the runner's peak RSS.

With a spans file, the public functions of each exploration layer are
replaced by recording versions first (pool workers inherit them but
their spans stay in the workers); the spans are written at exit.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import time

from common import SpanRecorder, self_maxrss_mb

FRONT_RE = re.compile(r"Pareto front \(\d+ points from (\d+) evaluated designs\)")


def install(rec: SpanRecorder) -> list:
    """Trace each exploration layer; return the ``Counter.inc`` call tally."""
    import repro.api
    import repro.api.session as session
    import repro.core.serialize as serialize
    import repro.explore.engine as engine
    import repro.obs.metrics as metrics
    import repro.partition.greedy as greedy
    from repro.estimate.kernel import BatchKernel
    from repro.explore.worker import ChunkRunner

    for module in (session, repro.api):
        rec.patch(module, "load", "api.session.load")
    for attr in ("slif_to_dict", "partition_to_dict"):
        rec.patch(serialize, attr, "core.serialize.payload")

    def chunk_seconds(args, kwargs, result, seconds):
        busy = sum(r.seconds for r in result)
        rec.count("explore.worker.chunk_seconds", busy)
        jobs = kwargs.get("jobs", 1)
        if jobs > 1:
            workers = min(jobs, len(result))
            rec.count("explore.engine.pool_sweeps")
            rec.count("explore.engine.dispatch_overhead", seconds - busy / workers)

    rec.patch(engine, "run_plan", "explore.engine.run_plan", after=chunk_seconds)
    rec.patch(engine, "merge_fronts", "explore.engine.merge")
    rec.patch(ChunkRunner, "__init__", "explore.worker.runner_init")
    rec.patch(ChunkRunner, "run_chunk", "explore.worker.run_chunk")

    def descent(args, kwargs, result, seconds):
        rec.count("partition.greedy.descents")
        rec.count("partition.cost.evaluations", result.evaluations)

    rec.patch(greedy, "greedy_improve", "partition.greedy.descent", after=descent)

    rec.patch(BatchKernel, "for_graph", "estimate.kernel.compile")
    rec.patch(BatchKernel, "evaluate", "estimate.kernel.evaluate", after=rec.count_abstains)

    # a plain tally, not a span: the CLI increments counters tens of
    # thousands of times per sweep
    incs = [0]
    inc = metrics.Counter.inc

    def counted_inc(self, amount=1):
        incs[0] += 1
        inc(self, amount)

    metrics.Counter.inc = counted_inc
    return incs


def run_sweep(cli_main, argv):
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    seconds = time.perf_counter() - started
    return code, out.getvalue(), err.getvalue(), seconds


def main(config_path: str) -> int:
    with open(config_path) as fh:
        config = json.load(fh)
    rec = SpanRecorder() if config.get("spans_out") else None
    if rec is not None:
        incs = install(rec)
    from repro import api, obs
    from repro.cli import main as cli_main

    api.load(config["first_load"])
    print("ready", flush=True)

    sweeps = []
    tracer = []
    counted = 0
    deadline = time.perf_counter() + config["seconds"]
    rounds = config["rounds"]

    def probe() -> None:
        print("probe", flush=True)
        sys.stdin.readline()

    if config["seconds"] > 0:
        probe()
    while time.perf_counter() < deadline:
        for sweep in rounds[len(sweeps) // len(rounds[0]) % len(rounds)]:
            argv = sweep["argv"]
            if rec is not None:
                traced = rec.wrap("cli.main", cli_main, label=lambda a: sweep["name"])
                before = incs[0]
                code, out, err, seconds = run_sweep(traced, argv)
                counted += incs[0] - before
                tracer.append((len(obs.TRACER.spans()), obs.TRACER.dropped))
            else:
                code, out, err, seconds = run_sweep(cli_main, argv)
            match = FRONT_RE.search(out)
            sweeps.append({
                "name": sweep["name"],
                "seconds": seconds,
                "candidates": int(match.group(1)) if match else 0,
                "ok": code == 0 and out == sweep["expected"],
                "error": "" if code == 0 else err.strip()[-500:],
            })
        probe()
    summary = {"sweeps": sweeps, "peak_rss_mb": self_maxrss_mb()}
    if rec is not None:
        rec.dump(config["spans_out"], extra={"tracer": tracer, "counter_incs": counted})
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

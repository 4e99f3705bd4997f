"""The ``explore-sweep`` workload: ``slif explore`` through ``repro.cli.main``.

One iteration runs three sweeps in a fresh runner process
(:mod:`sweep_runner`), each exactly as ``slif explore`` runs it, with
the CLI's telemetry on:

* ``ether`` at ``--steps 12 --random-starts 8 --jobs 1``;
* a seeded 1,000-behavior ``slif gen`` spec at ``--steps 4
  --random-starts 2 --jobs 1``;
* ``ether`` 12x8 again at ``--jobs 2``, so the pool dispatcher runs.

Every printed front is compared with the expected one: for the default
seed the fronts committed under ``perfbench/expected``, for any other
seed the front the reference path (``SLIF_KERNEL=off``, ``--jobs 1``)
prints, computed before timing starts.

Latency and throughput are reported at the reference host's speed
(:class:`common.HostProbe`, sampled in this process while the runner
waits between iterations); a sweep never sleeps, so all of its time
scales.  The raw figures are printed beside them.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import List, Optional, Tuple

from common import HostProbe, Trace, latency_summary, program_env, scaled_figures

DEFAULT_SEED = 0
GEN_BEHAVIORS = 1000
ROUNDS = 12
SETUPS = 3
RUNNER_TIMEOUT = 170.0


def sweeps(seed: int, gen_path: str) -> List[Tuple[str, List[str]]]:
    """The three sweeps of one iteration as ``(name, repro.cli argv)``."""
    ether = ["explore", "ether", "--steps", "12", "--random-starts", "8",
             "--seed", str(seed)]
    return [
        ("ether-jobs1", ether + ["--jobs", "1"]),
        ("gen1000-jobs1", ["explore", gen_path, "--steps", "4",
                           "--random-starts", "2", "--seed", str(seed),
                           "--jobs", "1"]),
        ("ether-jobs2", ether + ["--jobs", "2"]),
    ]


def reference_fronts(root: str, argvs: List[List[str]]) -> List[str]:
    """The fronts the reference path prints, two sweeps at a time (untimed)."""
    fronts: List[str] = []
    for i in range(0, len(argvs), 2):
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.cli"] + argv,
                cwd=root, env=program_env(root, SLIF_KERNEL="off"),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for argv in argvs[i:i + 2]
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=RUNNER_TIMEOUT)
            if proc.returncode != 0:
                raise RuntimeError(f"reference sweep failed: {err.strip()}")
            fronts.append(out)
    return fronts


def prepare(root: str, seed: int, work: str) -> List[list]:
    """Write the generated specs; return each round's sweeps and fronts.

    A run cycles through :data:`ROUNDS` sweep seeds derived from
    ``seed``, so one run's work does not hinge on how long the descents
    of a single seed's random starts happen to be.
    """
    from repro.synth.gen import GenConfig, generate_text

    rounds = []
    for k in range(ROUNDS):
        sub = seed * ROUNDS + k
        gen_path = os.path.join(work, f"gen{GEN_BEHAVIORS}-{sub}.json")
        with open(gen_path, "w") as fh:
            fh.write(generate_text(GenConfig(behaviors=GEN_BEHAVIORS, seed=sub)))
        rounds.append([
            {"name": name, "argv": argv, "seed": sub}
            for name, argv in sweeps(sub, gen_path)
        ])
    # --jobs 2 must print the --jobs 1 front byte for byte, so one
    # expected front per spec and sweep seed
    expected_dir = os.path.join(root, "perfbench", "expected")
    keyed = {}
    for sweep in (s for r in rounds for s in r):
        keyed.setdefault((sweep["name"].rsplit("-", 1)[0], sweep["seed"]), sweep["argv"])
    if seed == DEFAULT_SEED:
        fronts = {}
        for base, sub in keyed:
            with open(os.path.join(expected_dir, f"{base}-seed{sub}.txt")) as fh:
                fronts[base, sub] = fh.read()
    else:
        fronts = dict(zip(keyed, reference_fronts(root, list(keyed.values()))))
    for sweep in (s for r in rounds for s in r):
        sweep["expected"] = fronts[sweep["name"].rsplit("-", 1)[0], sweep["seed"]]
    return rounds


def launch(root: str, work: str, planned, seconds: float, spans_out: Optional[str], probe=None):
    """Run the sweep runner once; return (set-up seconds, its summary).

    Each time the runner stops between iterations, ``probe`` samples
    the host's speed.
    """
    config = os.path.join(work, "runner.json")
    with open(config, "w") as fh:
        json.dump({
            "rounds": planned,
            "seconds": seconds,
            "first_load": "ether",
            "spans_out": spans_out,
        }, fh)
    launched = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(root, "perfbench", "sweep_runner.py"), config],
        cwd=root, env=program_env(root), stdout=subprocess.PIPE, stdin=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(RUNNER_TIMEOUT, proc.kill)
    watchdog.start()
    out = ""
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - launched
        for line in proc.stdout:
            if line.strip() == "probe":
                probe.sample()
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                out += line
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stdin.close()
    if first.strip() != "ready":
        raise RuntimeError("sweep runner did not become ready")
    if proc.returncode != 0:
        raise RuntimeError(f"sweep runner exited with {proc.returncode}")
    return setup, json.loads(out.strip().splitlines()[-1])


def run(root: str, planned: List[list], seconds: float, work: str, spans_out=None) -> dict:
    """Measure the sweeps :func:`prepare` planned for ``seconds``."""
    setups = []
    for _ in range((1 if spans_out else SETUPS) - 1):
        setups.append(launch(root, work, planned, 0, None)[0])
    probe = HostProbe()
    setup, summary = launch(root, work, planned, seconds, spans_out, probe)
    setups.append(setup)
    done = summary["sweeps"]
    per = len(planned[0])
    iterations = [
        sum(s["seconds"] for s in done[i:i + per])
        for i in range(0, len(done) - per + 1, per)
    ]
    failed = sum(not s["ok"] for s in done)
    latency = latency_summary(iterations)
    sweep_seconds = sum(s["seconds"] for s in done)
    raw = {
        "latency_p50_ms": latency["p50_ms"],
        "latency_p99_ms": latency["tail_ms"],
        "throughput_rps": sum(s["candidates"] for s in done) / sweep_seconds,
    }
    return {
        **probe.report(raw, scaled_figures(raw, probe.scale(sweep_seconds))),
        "setup_s": statistics.median(setups),
        "tail_q": latency["tail_q"],
        "samples": latency["count"],
        "peak_rss_mb": summary["peak_rss_mb"],
        "attempted": len(done),
        "failed": failed,
        "errors": [s["error"] for s in done if s["error"]][:3],
        "sweeps": len(done),
    }


def layer_metrics(trace: Trace) -> dict:
    """Per-sweep layer figures of a traced runner run."""
    per = trace.per_op
    tracer = trace.extra["tracer"]
    pool_sweeps = trace.counts.get("explore.engine.pool_sweeps", 0)
    return {
        "api.session.load_s": per("api.session.load"),
        "partition.greedy.descent_s": per("partition.greedy.descent"),
        "partition.greedy.descents": trace.count_per_op("partition.greedy.descents"),
        "partition.cost.evaluations": trace.count_per_op("partition.cost.evaluations"),
        "estimate.kernel.evaluate_s": per("estimate.kernel.evaluate"),
        "estimate.kernel.candidates": trace.count_per_op("estimate.kernel.items"),
        "estimate.kernel.abstain_ratio": trace.ratio("estimate.kernel.abstains", "estimate.kernel.items"),
        "estimate.kernel.compile_s": per("estimate.kernel.compile"),
        "core.serialize.payload_s": per("core.serialize.payload"),
        "explore.worker.runner_init_s": per("explore.worker.runner_init"),
        "explore.worker.chunk_s": trace.count_per_op("explore.worker.chunk_seconds"),
        "explore.engine.run_plan_s": per("explore.engine.run_plan"),
        "explore.engine.dispatch_overhead_s": (
            trace.counts.get("explore.engine.dispatch_overhead", 0.0) / pool_sweeps
            if pool_sweeps else 0.0
        ),
        "explore.engine.merge_s": per("explore.engine.merge"),
        "obs.metrics.counter_incs": trace.extra["counter_incs"] / max(1, trace.operations),
        "obs.tracing.spans_per_request": sum(s for s, _ in tracer) / max(1, len(tracer)),
        "obs.tracing.dropped": sum(d for _, d in tracer),
    }

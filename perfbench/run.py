"""The repository benchmark: one command, three seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``serve-warm``
    open loop of ``/v1/estimate`` requests for the bundled specs
    against ``slif serve --port 0``; latency at a reference rate, the
    throughput of one connection sending back to back, and the
    highest rate of a ladder that meets the latency limit.
``serve-cold``
    closed loop, one client, every request an inline 2,000-behavior
    ``slif gen`` spec the server has not seen.
``explore-sweep``
    three ``slif explore`` sweeps per iteration through
    ``repro.cli.main`` in a fresh runner process.

Every workload reports the same end-to-end metrics.  ``throughput_rps``
is, per workload: completed requests per second with one connection
sending back to back, completed requests per second in flight, and
candidates evaluated per second of sweep time (``candidates_per_s``).
``failed_share`` is printed and carried by ``failed``/``attempted``.
``latency_p99_ms`` and serve-warm's ``max_rate_rps`` are printed but
not declared in ``BENCHMARK.json``: on a shared host their run-to-run
spread exceeds any usable bound.

The shared host's speed changes by two times and more over minutes,
so latency and throughput are reported at the speed of a reference
host.  A fixed probe of the benchmark's own Python, timed while the
program is idle, gives ``host_factor``, how much slower than on the
reference host Python runs now (``common.HostProbe``).  A measured
phase's time is divided by that factor, except the server's
batch-window sleeps, which take as long on any host.  The raw figures
are printed beside them.  ``setup_s``, ``peak_rss_mb`` and serve-warm's
``max_rate_rps`` are raw.

With ``--trace 0`` the run measures the end-to-end metrics with no
tracing.  With ``--trace 1`` it measures the workload untraced, then
again with spans recorded around each layer's public functions, and
reports the per-layer figures plus the tracing overhead (traced minus
untraced end-to-end numbers).  Human-readable lines come first; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every output of the program is checked;
a wrong answer counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import explore_load
import serve_load
from common import format_self_table, load_trace, tail_label

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve-warm", "serve-cold", "explore-sweep")


def declared(kind: str) -> dict:
    """Metric name -> unit, in the order ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def measure(workload: str, seed: int, seconds: float, work: str, planned, spans_out=None) -> dict:
    if workload == "explore-sweep":
        return explore_load.run(ROOT, planned, seconds, work, spans_out)
    run = serve_load.run_warm if workload == "serve-warm" else serve_load.run_cold
    return run(ROOT, seed, seconds, spans_out)


def report_lines(workload: str, result: dict, label: str) -> list:
    """Every end-to-end figure by name with its unit, plus context."""
    attempted, failed = result["attempted"], result["failed"]
    tail = tail_label(result["tail_q"])
    unit = "iteration of three sweeps" if workload == "explore-sweep" else "request"
    lines = [
        f"{label} {workload}:",
        f"  setup_s              {result['setup_s']:.4f} s (median of set-ups)",
        f"  latency_p50_ms       {result['latency_p50_ms']:.4f} ms "
        f"(per {unit}, n={result['samples']})",
        f"  latency_p99_ms       {result['latency_p99_ms']:.4f} ms "
        f"({tail} of n={result['samples']})",
    ]
    if workload == "serve-warm":
        rate = serve_load.REFERENCE_RATE
        lines[2] += f" at {rate:g} req/s"
        lines[3] = (
            f"  latency_p99_ms       {result['latency_p99_ms']:.4f} ms "
            f"(median over {result['windows']} windows of the {tail} of each, "
            f"n={result['samples']}) at {rate:g} req/s; "
            f"{tail_label(result['whole_tail_q'])} of all: {result['whole_tail_ms']:.4f} ms"
        )
        lines.append(
            f"  throughput_rps       {result['throughput_rps']:.4f} 1/s "
            f"({serve_load.SATURATION_CONNECTIONS} connection back to back)"
        )
        lines.append(
            f"  max_rate_rps         {result['max_rate_rps']:.4f} 1/s "
            f"(limit {serve_load.LATENCY_LIMIT_MS:g} ms on the tail, no growing backlog)"
            + (" TOPPED: no rate failed" if result["ladder_topped"] else "")
        )
        for rung in result["rungs"]:
            lines.append(
                f"    rung {rung['rate']:6.1f} req/s: n={rung['count']} "
                f"p50 {rung['p50_ms']:.2f} ms {tail_label(rung['tail_q'])} "
                f"{rung['tail_ms']:.2f} ms lag {rung['lag_tail_ms']:.2f} ms "
                f"failed {rung['failed']}{' backlog' if rung['backlog'] else ''} "
                f"{'pass' if rung['passed'] else 'FAIL'}"
            )
        lines.append(
            f"  bench.generator_lag_p99_ms {result['generator_lag_p99_ms']:.4f} ms"
        )
    elif workload == "serve-cold":
        lines.append(
            f"  throughput_rps       {result['throughput_rps']:.4f} 1/s (over time in flight)"
        )
    else:
        lines.append(f"  candidates_per_s     {result['throughput_rps']:.4f} 1/s")
    raw = result["raw"]
    lines.append(
        f"  host_factor          {result['host_factor']:.4f} (median of "
        f"{result['probes']} probes over the reference); latency and throughput "
        f"above are at the reference host's speed; raw: p50 "
        f"{raw['latency_p50_ms']:.4f} ms, tail {raw['latency_p99_ms']:.4f} ms, "
        f"throughput {raw['throughput_rps']:.4f} 1/s"
    )
    lines += [
        f"  peak_rss_mb          {result['peak_rss_mb']:.4f} MiB",
        f"  failed_share         {failed / attempted if attempted else 1.0:.4f} "
        f"ratio ({failed} of {attempted})",
    ]
    for error in result.get("errors", []):
        lines.append(f"  error: {error}")
    return lines


def end_to_end(result: dict) -> dict:
    return {
        name: {"value": result[name], "unit": unit}
        for name, unit in declared("end_to_end").items()
    }


def per_layer(workload: str, plain: dict, traced: dict, trace):
    if workload == "explore-sweep":
        layers = explore_load.layer_metrics(trace)
    else:
        layers = serve_load.layer_metrics(traced, trace)
    layers["bench.generator_lag_p99_ms"] = plain.get("generator_lag_p99_ms", 0.0)
    for name in ("latency_p50_ms", "latency_p99_ms", "throughput_rps"):
        layers[f"trace.overhead.{name}"] = traced[name] - plain[name]
    return {
        name: {"value": layers.get(name, 0.0), "unit": unit}
        for name, unit in declared("per_layer").items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("error: no program to measure: src/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    work = os.path.join(ROOT, ".perfbench_work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        # the sweeps and their expected fronts, computed once, untimed
        planned = (
            explore_load.prepare(ROOT, args.seed, work)
            if args.workload == "explore-sweep" else None
        )
        plain = measure(args.workload, args.seed, args.seconds, work, planned)
        lines = report_lines(args.workload, plain, "untraced")
        attempted, failed = plain["attempted"], plain["failed"]
        if args.trace:
            spans_out = os.path.join(work, "spans.json")
            traced = measure(args.workload, args.seed, args.seconds, work, planned, spans_out)
            lines += report_lines(args.workload, traced, "traced")
            # spans of the timed requests only: the reference rate on
            # serve-warm, the closed loop on serve-cold, every sweep
            prefix = {"serve-warm": "bench-r-", "serve-cold": "bench-c-"}.get(args.workload, "")
            trace = load_trace(spans_out, lambda label: label.startswith(prefix))
            metrics = per_layer(args.workload, plain, traced, trace)
            attempted += traced["attempted"]
            failed += traced["failed"]
            lines += format_self_table(
                trace, "sweep" if args.workload == "explore-sweep" else "request"
            )
            for name, metric in metrics.items():
                lines.append(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
        else:
            metrics = end_to_end(plain)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Start ``slif serve`` with spans around each serving layer.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_launcher.py SPANS.json serve --port 0

The remaining arguments go to ``repro.cli.main`` unchanged, so the
server runs with the same flags and the same always-on telemetry as
``slif serve``.  Before it starts, the launcher replaces the public
functions of each serving layer by versions that record a span (and,
where a layer does countable work, a count) in memory.  When the
server drains after SIGTERM, the spans, the counts and the number of
spans the server's own tracer kept under each trace id are written to
``SPANS.json``.
"""

from __future__ import annotations

import collections
import sys

from common import SpanRecorder


def install(rec: SpanRecorder) -> None:
    import repro.api
    import repro.api.facade as facade
    import repro.api.session as session
    import repro.api.types as types
    import repro.serve.app as app
    import repro.serve.cache as cache
    from repro.api.frontends import FRONTENDS
    from repro.estimate.kernel import BatchKernel
    from repro.serve.batching import MicroBatcher

    rec.patch(
        app._Handler, "do_POST", "serve.http.request",
        label=lambda args: args[0].headers.get("X-Slif-Trace-Id", ""),
    )
    rec.patch(app.SlifServer, "handle_timed", "serve.app.handle")
    for module in (session, cache):
        rec.patch(module, "session_key", "api.session.key")
    for module in (session, cache, facade):
        rec.patch(module, "load", "api.session.load")
    rec.patch(FRONTENDS, "resolve", "api.frontends.resolve")
    rec.patch(FRONTENDS, "parse", "api.frontends.parse")

    rec.patch(cache.GraphCache, "get", "serve.cache.get")

    run_grouped = MicroBatcher.run_grouped

    def keys_counted(args, kwargs, result, seconds):
        rec.count("serve.batching.batches")
        rec.count("serve.batching.keys", len(args[0]))

    def grouped(self, group, key, batch_compute):
        compute = rec.wrap(
            "serve.batching.batch_compute", batch_compute, after=keys_counted
        )
        return run_grouped(self, group, key, compute)

    MicroBatcher.run_grouped = rec.wrap("serve.batching.run_grouped", grouped)

    rec.patch(BatchKernel, "for_graph", "estimate.kernel.compile")
    rec.patch(BatchKernel, "reports", "estimate.kernel.reports", after=rec.count_abstains)
    rec.patch(repro.api, "estimate_many", "api.facade.estimate_many")
    rec.patch(facade, "estimate", "api.facade.estimate")
    for module in (app, types):
        rec.patch(module, "canonical_json", "api.types.encode")


def main(argv) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    rec = SpanRecorder()
    install(rec)
    from repro import obs
    from repro.cli import main as cli_main

    code = cli_main(cli_args)
    by_request = collections.Counter(span.trace_id for span in obs.TRACER.spans())
    rec.dump(
        spans_out,
        extra={
            "tracer_spans_by_request": dict(by_request),
            "tracer_dropped": obs.TRACER.dropped,
        },
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

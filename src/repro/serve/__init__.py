"""repro.serve — the HTTP serving layer over the :mod:`repro.api` facade.

A stdlib-only threaded JSON daemon (``slif serve``) that turns the
estimation toolkit into a long-running service: an LRU graph/session
cache makes warm estimates two orders of magnitude cheaper than cold
parses, a micro-batcher scores the estimate requests that queue
behind a running one in a single evaluation, and heavy
partition/simulate/explore requests run on the fault-tolerant
exploration engine behind a bounded in-flight limit with 429
backpressure.  With ``--state-dir``, heavy
requests can also be submitted as *durable jobs*: persisted before
evaluation, chunk-journaled while running, and recovered + resumed
after a daemon crash, with per-tenant token-bucket admission and
weighted-fair scheduling (the ``X-Slif-Tenant`` header).  See
``docs/serving.md`` for endpoints, schemas and tuning.

In-process use (tests, embedding)::

    from repro.serve import ServerConfig, SlifServer

    server = SlifServer(ServerConfig(port=0))     # ephemeral port
    threading.Thread(target=server.serve_forever, daemon=True).start()
    ... requests against http://127.0.0.1:{server.port} ...
    server.shutdown()
"""

from repro.serve.app import ServerConfig, SlifServer, run_server
from repro.serve.batching import MicroBatcher
from repro.serve.cache import GraphCache
from repro.serve.jobs import (
    EventStream,
    JobManager,
    TenantShaper,
    TokenBucket,
    WeightedFairQueue,
)
from repro.serve.store import JobRecord, JobStore, job_id_for

__all__ = [
    "EventStream",
    "GraphCache",
    "JobManager",
    "JobRecord",
    "JobStore",
    "MicroBatcher",
    "ServerConfig",
    "SlifServer",
    "TenantShaper",
    "TokenBucket",
    "WeightedFairQueue",
    "job_id_for",
    "run_server",
]

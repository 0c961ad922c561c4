"""``repro.serve`` -- consensus-as-a-service: the multi-instance run-server.

A long-lived asyncio service that executes many protocol instances
*concurrently* over one shared transport.  Every layer below it is
session-multiplexed (see :mod:`repro.net`): frames carry an instance
tag, hubs route by ``(instance, address)``, one TCP connection hosts
any number of per-instance endpoints, and frame batching coalesces the
round traffic of all concurrently advancing sessions into shared wire
writes.  The server adds the service surface:

* :class:`~repro.serve.server.RunServer` -- owns the hub, accepts
  recipe submissions (``submit(recipe) -> run_id``), advances one
  :class:`~repro.net.runtime.Session` per run, and optionally shards
  node hosting across spawned worker processes.
* :class:`~repro.serve.client.ServeClient` -- the TCP submit/stream
  client: submit recipes, stream per-round progress, fetch results.
* :func:`~repro.serve.server.run_many` -- synchronous batch facade.
* ``python -m repro.serve`` -- a standalone server process.

Throughput and completion latency under closed-loop load are measured
by the perf ladder's ``serve-mixed`` workload
(``benchmarks/perf/run.py``: ``lat_p50_ms`` / ``lat_p95_ms``,
``serve.peak_concurrent``, ``serve.inst_per_s.*``).

Every per-run result is ``check_parity``-identical to
``run_recipe(recipe, backend="sim")`` with the same execution
arguments: sessions reuse the parity-certified net runtime and the
``run_*`` entry points' own fault-schedule derivation
(:func:`repro.api.prepare_recipe`), so the service inherits the
repository's differential-testing wall instead of needing its own
notion of correctness.
"""

from repro.serve.client import ServeClient
from repro.serve.server import RunServer, run_many

__all__ = ["RunServer", "ServeClient", "run_many"]

"""The live control plane: middleboxes-as-a-service over the engine.

The paper's democratization claim is a *service* claim — a neutral-host
operator runs fronthaul middleboxes as a service, admitting tenants,
rechaining their processing, and injecting or clearing impairments
without touching RU/DU software and without restarting anything.  This
package is that service around the scale engine:

- :mod:`repro.serve.delta` — typed, validated, JSON-safe live
  mutations of a running :class:`~repro.scale.spec.ScenarioSpec`
  (rebase semantics: a mutated run is byte-identical to a from-scratch
  run of the mutated spec);
- :mod:`repro.serve.routing` — the versioned ``(cell, stream)`` ->
  middlebox-chain routing table;
- :mod:`repro.serve.engine` — :class:`LiveRun`, the synchronous core
  driving a worker pool epoch by epoch with mutation between barriers;
- :mod:`repro.serve.protocol` / :mod:`repro.serve.service` — the
  length-prefixed-JSON control protocol and the asyncio session server;
- :mod:`repro.serve.client` — :class:`ServeClient`, the async
  convenience API (request/ack plus subscribed telemetry events).
"""

from repro.serve.client import RequestRejected, ServeClient
from repro.serve.delta import (
    DELTA_OPS,
    DeltaError,
    DeltaOp,
    SpecDelta,
)
from repro.serve.engine import TOPICS, LiveRun
from repro.serve.protocol import FrameError
from repro.serve.routing import Route, RoutingTable
from repro.serve.service import (
    ControlSession,
    ServeService,
    serve_until_complete,
)

__all__ = [
    "DELTA_OPS",
    "TOPICS",
    "ControlSession",
    "DeltaError",
    "DeltaOp",
    "FrameError",
    "LiveRun",
    "RequestRejected",
    "Route",
    "RoutingTable",
    "ServeClient",
    "ServeService",
    "SpecDelta",
    "serve_until_complete",
]

"""The stable public facade of the RANBooster reproduction.

One import surface for the pieces a deployment script needs.  Everything
here is re-exported from its home module — import from :mod:`repro.api`
and stay insulated from internal layout changes.  The surface is
*locked*: ``tests/api/api_surface.txt`` snapshots every name and
signature exported here, and a tier-1 test diffs it, so facade breakage
is always an explicit, reviewed change.

**Scenario API** — declare a deployment as plain data, run it at any
worker count, get byte-identical digests::

    from repro.api import Scenario, run

    result = run({"name": "two-cell", "slots": 40, "cells": [...]},
                 workers=4)
    print(result.digest, result.cell_slots_per_second)

The four reference applications of the paper (Section 5) are
constructible by registered stage name — ``"das"``, ``"dmimo"``,
``"ru_sharing"``, ``"prb_monitor"`` — or directly via the classes
re-exported here.

**Live control plane** — serve a scenario as a long-running routing
service: admit/evict cells, rechain middleboxes, and inject faults on
the *running* deployment via typed ``SpecDelta`` mutations applied at
epoch barriers (no worker restart, digests stay those of a from-scratch
run of the mutated spec)::

    from repro.api import ServeClient, SpecDelta, DeltaOp

    client = await ServeClient.connect(port=port)
    await client.subscribe(["epochs", "alerts"])
    await client.apply(SpecDelta(ops=(
        DeltaOp(op="add_cell", cell=tenant_cell_dict),)))
    route = (await client.routes(cell="tenant"))["routes"][0]

**Streaming telemetry** — the per-epoch telemetry fold and declarative
SLO alerting every sharded run (and the serve plane) publishes::

    from repro.api import SloSpec, TelemetryStream

    spec = {"obs": {"enabled": True, "stream": True,
                    "slo": [{"name": "latency", "objective":
                             "p99_slot_latency_ns", "threshold": 30_000}]},
            ...}

**Conformance** — the wire-level O-RAN validator (enable with
``obs.conformance: true`` in a spec, or pass ``validator=`` to a
``FronthaulNetwork``)::

    from repro.api import WireValidator

**Fault injection** — seeded, deterministic impairment of any link, by
registered fault kind::

    from repro.api import fault_kinds, injector_from_spec

    injector = injector_from_spec({"kind": "gilbert_elliott",
                                   "p_loss_bad": 0.3, "seed": 7})
"""

from __future__ import annotations

from repro.apps.das import DasMiddlebox
from repro.apps.dmimo import DmimoMiddlebox
from repro.apps.prb_monitor import PrbMonitorMiddlebox
from repro.apps.ru_sharing import RuSharingMiddlebox
from repro.conformance import ConformanceReport, WireValidator
from repro.faults import FaultInjector
from repro.faults.registry import fault_kinds, injector_from_spec
from repro.obs.slo import SloSpec
from repro.obs.stream import TelemetryStream
from repro.scale import (
    CellSpec,
    FlowSpec,
    ObsSpec,
    RuSpec,
    Scenario,
    ScenarioResult,
    ScenarioSpec,
    StageSpec,
    UeSpec,
    register_stage,
    run,
    stage_names,
)
from repro.serve import (
    DeltaOp,
    LiveRun,
    RoutingTable,
    ServeClient,
    ServeService,
    SpecDelta,
)

__all__ = [
    # Scenario API
    "Scenario",
    "ScenarioResult",
    "ScenarioSpec",
    "CellSpec",
    "RuSpec",
    "UeSpec",
    "FlowSpec",
    "StageSpec",
    "ObsSpec",
    "run",
    "register_stage",
    "stage_names",
    # Live control plane
    "ServeService",
    "ServeClient",
    "LiveRun",
    "RoutingTable",
    "SpecDelta",
    "DeltaOp",
    # Streaming telemetry
    "TelemetryStream",
    "SloSpec",
    # Conformance
    "WireValidator",
    "ConformanceReport",
    # The paper's four reference applications
    "DasMiddlebox",
    "DmimoMiddlebox",
    "RuSharingMiddlebox",
    "PrbMonitorMiddlebox",
    # Fault injection
    "FaultInjector",
    "fault_kinds",
    "injector_from_spec",
]

"""Serve evaluation: the live control plane, driven by a scripted client.

The acceptance story of the control plane is operational: a neutral-host
operator admits a tenant onto a *running* fronthaul service, rechains
its middleboxes, watches an impairment trip the tenant's SLO, and
evicts it — all through the control session, with no worker restart and
no loss of the engine's byte-level determinism.  This eval runs that
script end to end over a real asyncio service and TCP sockets:

1. **No-delta identity** — a served run that receives no deltas
   collects a digest byte-identical to the batch ``run_scenario`` of
   the same spec (the service is a *driver* of the engine, not a second
   engine).
2. **Scripted tenancy** — admit tenant (``add_cell``) -> rechain
   (``rechain`` to ``prb_monitor``) -> inject a named wire fault
   (``duplicate``, which deterministically produces SEQ_DUP conformance
   violations) -> the subscribed session receives the
   ``tenant-conformance`` SLO alert edge -> evict.  Asserts every
   request was acked, a rejected delta rolls back cleanly, the worker
   pids never change, restarts stay zero, and — because the script nets
   out to the base spec — the final digest again equals the batch
   reference.
3. **Mutation oracle** — immediately after the fault delta, a mid-run
   ``collect`` digest equals a from-scratch run of the mutated spec
   truncated to the confirmed slots (rebase semantics, checked live).

Run via ``PYTHONPATH=src python -m repro.eval serve``; shrink with
``--slots`` / ``--workers`` for CI smoke runs.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.eval import kit
from repro.eval.report import format_table
from repro.scale import ScenarioSpec, run_scenario
from repro.serve import DeltaOp, RequestRejected, ServeClient, ServeService, SpecDelta

DEFAULT_SLOTS = 27
DEFAULT_WORKERS = 2
EPOCH_SLOTS = 3

#: The tenant's access-wire impairment: deterministic duplicates at a
#: rate that guarantees SEQ_DUP conformance violations within one epoch.
TENANT_FAULT = {"kind": "duplicate", "rate": 0.5}

#: The conformance SLO the fault must trip (edge-triggered, windowed).
TENANT_SLO = {
    "name": "tenant-conformance",
    "objective": "conformance_violation_rate",
    "threshold": 0.01,
    "window_epochs": 2,
    "min_samples": 1,
}


def serve_spec(slots: int = DEFAULT_SLOTS) -> ScenarioSpec:
    """The base scenario: two anchor cells, full obs plane, one SLO."""
    if slots % EPOCH_SLOTS:
        raise ValueError(f"slots must be a multiple of {EPOCH_SLOTS}")
    passthrough = [{"stage": "passthrough"}]
    return kit.scenario(
        "serve-eval", slots, 11,
        [
            kit.cell(
                "anchor-a", 1, [kit.flow("dl", 30)],
                rus=[{"name": "a-ru1"}], ue={"ue_id": "u1"},
                chain=passthrough,
            ),
            kit.cell(
                "anchor-b", 2, [kit.flow("ul", 20)],
                rus=[{"name": "b-ru1"}], ue={"ue_id": "u2"},
                chain=passthrough,
            ),
        ],
        stream={"conformance": True, "slo": [dict(TENANT_SLO)]},
        epoch_slots=EPOCH_SLOTS,
    )


def tenant_cell() -> Dict[str, Any]:
    return kit.cell(
        "tenant", 7, [kit.flow("ul", 15)],
        rus=[{"name": "t-ru1"}], ue={"ue_id": "t1"},
        chain=[{"stage": "passthrough"}],
    )


@dataclass
class ServeEvalResult(kit.Gate):
    """Everything the scripted run observed, plus the hard gates."""

    slots: int
    workers: int
    rows: List[List[Any]] = field(default_factory=list)
    alert: Dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def format(self) -> str:
        table = format_table(
            f"Live control plane script ({self.workers} workers, "
            f"{self.slots} slots)",
            ["step", "op", "at_slot", "outcome"],
            self.rows,
        )
        alert = (
            f"alert: {self.alert.get('slo')} {self.alert.get('state')} "
            f"at epoch {self.alert.get('epoch')}"
            if self.alert
            else "alert: none"
        )
        return (
            f"{table}\n{alert}\n"
            f"gates: {self.check_line()}\n"
            f"wall: {self.wall_seconds:.1f}s"
        )


async def _script(
    spec: ScenarioSpec, workers: int, result: ServeEvalResult
) -> None:
    reference = run_scenario(spec, workers=1)

    # --- phase 1: an unmutated served run is the batch run -----------------
    service = await ServeService(spec, workers=workers).start()
    try:
        client = await ServeClient.connect(port=service.port)
        await client.subscribe(["epochs"])
        await client.step(epochs=spec.slots)  # clamps at the horizon
        collected = await client.collect()
        result.expect(
            "no_delta_digest_identity", collected["digest"], reference.digest
        )
        epoch_event = await client.wait_for_event("epochs", timeout=10.0)
        result.check(
            "epoch_telemetry_streamed",
            epoch_event["data"]["frames_checked"] > 0,
        )
        await client.close()
    finally:
        await service.stop()
    result.rows.append(
        ["baseline", "serve-without-deltas", spec.slots,
         collected["digest"][:12]]
    )

    # --- phase 2: the tenancy script ---------------------------------------
    service = await ServeService(spec, workers=workers).start()
    try:
        client = await ServeClient.connect(port=service.port)
        await client.subscribe(["alerts", "deltas", "conformance"])
        pids_before = (await client.status())["worker_pids"]

        await client.step(epochs=2)
        admitted = await client.apply(
            SpecDelta(
                name="admit-tenant",
                ops=(DeltaOp(op="add_cell", cell=tenant_cell()),),
            )
        )
        result.expect(
            "admit_rebuilt_only_tenant", admitted["rebuilt"], ["tenant"]
        )
        result.rows.append(
            ["admit", "add_cell", admitted["at_slot"],
             f"rebuilt={admitted['rebuilt']}"]
        )
        tenant_routes = await client.routes(cell="tenant")
        result.expect(
            "tenant_routed",
            (len(tenant_routes["routes"]), tenant_routes["version"]),
            (2, 1),
        )

        await client.step(epochs=1)
        rechained = await client.apply(
            SpecDelta(
                name="rechain-tenant",
                ops=(
                    DeltaOp(
                        op="rechain",
                        target="tenant",
                        chain=({"stage": "prb_monitor"},),
                    ),
                ),
            )
        )
        result.rows.append(
            ["rechain", "rechain", rechained["at_slot"],
             f"version={rechained['routing_version']}"]
        )
        rechained_routes = await client.routes(cell="tenant")
        result.expect(
            "rechain_visible_in_routes",
            rechained_routes["routes"][0]["chain"],
            ["prb_monitor"],
        )

        # A delta aimed at a cell that does not exist must be rejected
        # with the run untouched (the ack says no; nothing else moves).
        version_before = (await client.status())["routing_version"]
        try:
            await client.apply(
                SpecDelta(
                    ops=(
                        DeltaOp(
                            op="rechain",
                            target="nobody",
                            chain=({"stage": "passthrough"},),
                        ),
                    ),
                )
            )
            rolled_back = False
        except RequestRejected:
            rolled_back = (
                (await client.status())["routing_version"] == version_before
            )
        result.check("bad_delta_rejected", rolled_back)
        result.rows.append(
            ["reject", "rechain(unknown cell)", version_before,
             "acked ok=false, rolled back"]
        )

        await client.step(epochs=1)
        impaired = await client.apply(
            SpecDelta(
                name="impair-tenant",
                ops=(
                    DeltaOp(
                        op="inject_fault",
                        target="tenant",
                        fault=dict(TENANT_FAULT),
                    ),
                ),
            )
        )
        result.rows.append(
            ["impair", "inject_fault", impaired["at_slot"],
             f"fault={TENANT_FAULT['kind']}"]
        )

        # The duplicate fault produces SEQ_DUP conformance violations
        # deterministically; the windowed SLO must fire within a few
        # epochs and reach this subscribed session as an alert edge.
        for _ in range(4):
            step = await client.step(epochs=1)
            try:
                frame = await client.wait_for_event(
                    "alerts",
                    timeout=1.0,
                    predicate=lambda data: data.get("state") == "firing",
                )
                result.alert = frame["data"]
                break
            except TimeoutError:
                if step["finished"]:
                    break
        result.expect(
            "slo_alert_received",
            (result.alert.get("slo"), result.alert.get("state")),
            (TENANT_SLO["name"], "firing"),
        )
        result.rows.append(
            ["alert", "slo-edge", (await client.status())["done"],
             result.alert.get("slo", "MISSING")]
        )

        # Mutation oracle, live: a mid-run collect equals a from-scratch
        # run of the mutated spec truncated to the confirmed slots.
        status = await client.status()
        mid = await client.collect()
        mutated = spec.to_dict()
        cell = tenant_cell()
        cell["chain"] = [{"stage": "prb_monitor"}]
        cell["wire"] = dict(TENANT_FAULT)
        mutated["cells"].append(cell)
        mutated["slots"] = status["done"]
        truncated_ref = run_scenario(
            ScenarioSpec.from_dict(mutated), workers=1
        )
        result.expect(
            "mid_run_digest_oracle", mid["digest"], truncated_ref.digest
        )
        result.rows.append(
            ["oracle", "collect@mid-run", status["done"],
             mid["digest"][:12]]
        )

        evicted = await client.apply(
            SpecDelta(
                name="evict-tenant",
                ops=(DeltaOp(op="remove_cell", target="tenant"),),
            )
        )
        result.rows.append(
            ["evict", "remove_cell", evicted["at_slot"],
             f"removed={evicted['removed']}"]
        )
        await client.step(epochs=spec.slots)
        final_status = await client.status()
        result.expect(
            "no_worker_restart",
            (final_status["worker_pids"], final_status["worker_restarts"]),
            (pids_before, 0),
        )
        result.expect(
            "routing_versions_sequential", final_status["routing_version"], 4
        )
        final = await client.collect()
        # The script nets out to the base spec, so determinism demands
        # the final digest equal the batch reference again.
        result.expect(
            "evict_nets_out_to_base_digest", final["digest"], reference.digest
        )
        result.rows.append(
            ["final", "collect@horizon", final_status["done"],
             final["digest"][:12]]
        )
        await client.shutdown()
        await client.close()
    finally:
        await service.stop()


def run_serve(
    slots: int = DEFAULT_SLOTS, workers: int = DEFAULT_WORKERS
) -> ServeEvalResult:
    spec = serve_spec(slots)
    result = ServeEvalResult(slots=slots, workers=workers)
    started = time.monotonic()
    asyncio.run(_script(spec, workers, result))
    result.wall_seconds = time.monotonic() - started
    result.assert_healthy()
    return result

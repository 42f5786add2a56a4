"""The asyncio service end to end: real sockets, real worker pool.

A scripted client drives scenarios over TCP — subscribe, step, admit a
tenant, survive a rejected request, read routes, collect a digest that
matches the batch runner, and shut the service down cleanly.

The operator's script at the end is the control plane's acceptance
story: a neutral-host operator admits a tenant onto a *running*
fronthaul service, rechains its middleboxes, watches an impairment trip
the tenant's SLO and evicts it — all through the control session, with
no worker restart and no loss of the engine's byte-level determinism
(27 slots, 2 workers).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.eval import kit
from repro.scale import ScenarioSpec
from repro.scale.runner import run_scenario
from repro.serve import (
    RequestRejected,
    ServeClient,
    ServeService,
    SpecDelta,
)
from repro.serve.delta import DeltaOp
from tests.serve.builders import make_spec, tenant_dict

ADMIT = SpecDelta(ops=(DeltaOp(op="add_cell", cell=tenant_dict()),))


def drive(spec, script, workers=1):
    async def main():
        service = await ServeService(spec, workers=workers).start()
        try:
            client = await ServeClient.connect(port=service.port)
            try:
                return await asyncio.wait_for(
                    script(client, service), timeout=60
                )
            finally:
                await client.close()
        finally:
            await service.stop()

    return asyncio.run(main())


def test_scripted_session_end_to_end():
    spec = make_spec(obs=True)

    async def script(client, service):
        hello = await client.hello()
        assert hello["scenario"] == "serve-test"
        assert hello["slots"] == 12 and hello["epoch_slots"] == 3
        assert "epochs" in hello["topics"]

        await client.subscribe(["epochs", "deltas"])
        step = await client.step(epochs=1)
        assert step == {"done": 3, "finished": False}
        epoch_event = await client.wait_for_event("epochs", timeout=10)
        assert epoch_event["data"]["epoch"] == 0  # first fold, 0-indexed

        applied = await client.apply(ADMIT)
        assert applied["rebuilt"] == ["tenant"]
        delta_event = await client.wait_for_event("deltas", timeout=10)
        assert delta_event["data"]["routing_version"] == 1

        routes = await client.routes(cell="tenant")
        assert routes["version"] == 1
        assert {r["stream"] for r in routes["routes"]} == {
            "eaxc:3", "flow:tenant-ue/cbr-ul",
        }

        status = await client.status()
        while not (await client.step(epochs=1))["finished"]:
            pass
        assert status["deltas_applied"] == 1

        collected = await client.collect()
        await client.shutdown()
        return collected

    collected = drive(spec, script)
    assert collected["slots"] == 12
    assert "tenant" in collected["groups"]
    reference = run_scenario(ADMIT.apply(spec), workers=1)
    assert collected["digest"] == reference.digest


def test_rejected_requests_leave_the_session_alive():
    spec = make_spec()

    async def script(client, service):
        with pytest.raises(RequestRejected, match="unknown topics"):
            await client.subscribe(["gossip"])
        with pytest.raises(RequestRejected, match="unknown cell"):
            await client.apply(
                SpecDelta(
                    ops=(DeltaOp(op="remove_cell", target="ghost"),)
                )
            )
        with pytest.raises(RequestRejected, match="no routes for cell"):
            await client.routes(cell="ghost")
        with pytest.raises(RequestRejected, match="unknown op"):
            await client.request("reboot")
        # The session survived four rejections: a real request still acks
        # and the run is untouched.
        status = await client.status()
        assert status["routing_version"] == 0
        assert status["deltas_applied"] == 0
        return status

    status = drive(spec, script)
    assert status["done"] == 0


def test_auto_drive_runs_to_the_horizon():
    spec = make_spec(obs=True)

    async def main():
        service = await ServeService(
            spec, workers=1, auto_drive=True
        ).start()
        try:
            client = await ServeClient.connect(port=service.port)
            try:
                await client.subscribe(["epochs"])
                deadline = asyncio.get_running_loop().time() + 30
                while True:
                    status = await client.status()
                    if status["finished"]:
                        break
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.02)
                return await client.collect()
            finally:
                await client.close()
        finally:
            await service.stop()

    collected = asyncio.run(main())
    assert collected["digest"] == run_scenario(spec, workers=1).digest


# -- the operator's script -----------------------------------------------------

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


def serve_spec(slots=27):
    """The base scenario: two anchor cells, full obs plane, one SLO."""
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
        obs={
            "enabled": True,
            "stream": True,
            "conformance": True,
            "slo": [dict(TENANT_SLO)],
        },
        epoch_slots=3,
    )


def tenant_cell():
    return kit.cell(
        "tenant", 7, [kit.flow("ul", 15)],
        rus=[{"name": "t-ru1"}], ue={"ue_id": "t1"},
        chain=[{"stage": "passthrough"}],
    )


def test_served_run_without_deltas_is_the_batch_run():
    spec = serve_spec()

    async def script(client, service):
        await client.subscribe(["epochs"])
        await client.step(epochs=spec.slots)  # clamps at the horizon
        collected = await client.collect()
        epoch_event = await client.wait_for_event("epochs", timeout=10.0)
        return collected, epoch_event

    collected, epoch_event = drive(spec, script, workers=2)
    assert collected["digest"] == run_scenario(spec, workers=1).digest
    assert epoch_event["data"]["frames_checked"] > 0


def test_operator_admits_rechains_impairs_and_evicts_a_tenant():
    spec = serve_spec()

    async def script(client, service):
        await client.subscribe(["alerts", "deltas", "conformance"])
        pids_before = (await client.status())["worker_pids"]

        await client.step(epochs=2)
        admitted = await client.apply(
            SpecDelta(
                name="admit-tenant",
                ops=(DeltaOp(op="add_cell", cell=tenant_cell()),),
            )
        )
        assert admitted["rebuilt"] == ["tenant"]
        routes = await client.routes(cell="tenant")
        assert (len(routes["routes"]), routes["version"]) == (2, 1)

        await client.step(epochs=1)
        await client.apply(
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
        routes = await client.routes(cell="tenant")
        assert routes["routes"][0]["chain"] == ["prb_monitor"]

        # A delta aimed at a cell that does not exist is rejected with
        # the run untouched (the ack says no; nothing else moves).
        version_before = (await client.status())["routing_version"]
        with pytest.raises(RequestRejected):
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
        assert (await client.status())["routing_version"] == version_before

        await client.step(epochs=1)
        await client.apply(
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
        # The duplicate fault produces SEQ_DUP conformance violations
        # deterministically; the windowed SLO must fire within a few
        # epochs and reach this subscribed session as an alert edge.
        alert = {}
        for _ in range(4):
            step = await client.step(epochs=1)
            try:
                frame = await client.wait_for_event(
                    "alerts",
                    timeout=1.0,
                    predicate=lambda data: data.get("state") == "firing",
                )
                alert = frame["data"]
                break
            except TimeoutError:
                if step["finished"]:
                    break
        assert (alert.get("slo"), alert.get("state")) == (
            TENANT_SLO["name"], "firing"
        )

        # Mutation oracle, live: a mid-run collect equals a from-scratch
        # run of the mutated spec truncated to the confirmed slots.
        done = (await client.status())["done"]
        mid = await client.collect()
        mutated = spec.to_dict()
        cell = tenant_cell()
        cell["chain"] = [{"stage": "prb_monitor"}]
        cell["wire"] = dict(TENANT_FAULT)
        mutated["cells"].append(cell)
        mutated["slots"] = done
        assert mid["digest"] == run_scenario(
            ScenarioSpec.from_dict(mutated), workers=1
        ).digest

        await client.apply(
            SpecDelta(
                name="evict-tenant",
                ops=(DeltaOp(op="remove_cell", target="tenant"),),
            )
        )
        await client.step(epochs=spec.slots)
        final_status = await client.status()
        assert (
            final_status["worker_pids"], final_status["worker_restarts"]
        ) == (pids_before, 0)
        assert final_status["routing_version"] == 4
        final = await client.collect()
        await client.shutdown()
        return final

    final = drive(spec, script, workers=2)
    # The script nets out to the base spec, so determinism demands the
    # final digest equal the batch run's.
    assert final["digest"] == run_scenario(spec, workers=1).digest

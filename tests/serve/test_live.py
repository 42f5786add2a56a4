"""LiveRun: the synchronous engine under the asyncio shell.

Everything the service can do reduces to these calls, so they are
pinned without sockets: the unmutated drive is digest-identical to the
batch runner, mutations bump the routing table and journal, rejections
leave no trace, and the pool-level guards (unstarted mutate, run-shape
changes) fail loudly instead of corrupting a run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.scale.pool import WorkerPool
from repro.scale.runner import run_scenario
from repro.serve.delta import DeltaError, DeltaOp, SpecDelta
from repro.serve.engine import TOPICS, LiveRun
from tests.serve.builders import make_spec, tenant_dict

ADMIT = SpecDelta(ops=(DeltaOp(op="add_cell", cell=tenant_dict()),))


def finish(live: LiveRun):
    while not live.advance_epoch():
        pass
    return live.collect()


class TestDrive:
    def test_unmutated_live_run_matches_batch_digest(self):
        spec = make_spec(obs=True)
        live = LiveRun(spec, workers=2)
        try:
            result = finish(live)
        finally:
            live.close()
        assert result.digest == run_scenario(spec, workers=1).digest

    def test_begin_twice_rejected(self):
        live = LiveRun(make_spec())
        try:
            live.begin()
            with pytest.raises(RuntimeError, match="already begun"):
                live.begin()
        finally:
            live.close()

    def test_epoch_events_stream_per_fold(self):
        spec = make_spec(obs=True)  # 12 slots / epoch 3 = 4 folds
        live = LiveRun(spec)
        try:
            finish(live)
            events = live.drain_events()
        finally:
            live.close()
        epochs = [e for e in events if e["topic"] == "epochs"]
        assert len(epochs) == 4
        assert live.drain_events() == []  # drain drains
        assert set(e["topic"] for e in events) <= set(TOPICS)
        # The conformance topic carries each fold's per-group deltas.
        shipped = [e["data"] for e in events if e["topic"] == "conformance"]
        totals = live.pool.telemetry.group_conformance
        assert {d["group"] for d in shipped} == set(totals) == set(
            spec.groups()
        )
        for group, total in totals.items():
            assert total["frames_checked"] == sum(
                d["frames_checked"] for d in shipped if d["group"] == group
            )


class TestApply:
    def test_admission_journals_and_bumps_routing(self):
        spec = make_spec()
        live = LiveRun(spec, workers=2)
        try:
            live.begin()
            live.advance_epoch()
            pids = [p.pid for p in live.pool._processes]
            applied = live.apply(ADMIT)
            assert applied["rebuilt"] == ["tenant"]
            assert applied["at_slot"] == 3
            assert applied["routing_version"] == 1
            assert live.routes.version == 1
            assert live.routes.routes_for_cell("tenant")
            assert [p.pid for p in live.pool._processes] == pids
            assert live.deltas_applied == [applied]
            deltas = [
                e for e in live.drain_events() if e["topic"] == "deltas"
            ]
            assert deltas and deltas[0]["data"]["rebuilt"] == ["tenant"]
            result = finish(live)
        finally:
            live.close()
        assert result.digest == run_scenario(
            ADMIT.apply(spec), workers=1
        ).digest

    def test_rejected_delta_leaves_no_trace(self):
        spec = make_spec()
        live = LiveRun(spec)
        try:
            live.begin()
            live.advance_epoch()
            bad = SpecDelta(
                ops=(DeltaOp(op="remove_cell", target="ghost"),)
            )
            with pytest.raises(DeltaError, match="unknown cell"):
                live.apply(bad)
            assert live.routes.version == 0
            assert live.deltas_applied == []
            assert live.spec == spec
            result = finish(live)
        finally:
            live.close()
        assert result.digest == run_scenario(spec, workers=1).digest

    def test_status_reports_the_live_picture(self):
        live = LiveRun(make_spec(obs=True), workers=2)
        try:
            live.begin()
            live.advance_epoch()
            live.apply(ADMIT)
            status = live.status()
        finally:
            live.close()
        assert status["scenario"] == "serve-test"
        assert status["workers"] == 2
        assert status["done"] == 3 and status["slots"] == 12
        assert status["finished"] is False
        assert status["routing_version"] == 1
        assert status["deltas_applied"] == 1
        assert status["worker_restarts"] == 0
        assert len(status["worker_pids"]) == 2


class TestPoolGuards:
    def test_mutate_needs_a_started_pool(self):
        spec = make_spec()
        pool = WorkerPool(spec, workers=1)
        with pytest.raises(RuntimeError, match="started, open pool"):
            pool.mutate(ADMIT.apply(spec))

    def test_run_shape_changes_rejected(self):
        spec = make_spec()
        pool = WorkerPool(spec, workers=1)
        try:
            pool.begin()
            stretched = dataclasses.replace(spec, slots=spec.slots * 2)
            with pytest.raises(ValueError):
                pool.mutate(stretched)
            assert pool.spec == spec
        finally:
            pool.close()

    def test_noop_mutation_rebuilds_nothing(self):
        spec = make_spec()
        pool = WorkerPool(spec, workers=1)
        try:
            pool.begin()
            pool.advance_epoch()
            outcome = pool.mutate(dataclasses.replace(spec))
            assert outcome == {
                "rebuilt": [], "removed": [], "replayed_slots": 0,
            }
            while not pool.advance_epoch():
                pass
            digest = pool.collect().digest
        finally:
            pool.close()
        assert digest == run_scenario(spec, workers=1).digest

"""LiveRun: the synchronous engine under the asyncio shell.

Everything the service can do reduces to these calls, so they are
pinned without sockets: the unmutated drive is digest-identical to the
batch runner, mutations bump the routing table and journal, rejections
leave no trace, and the pool-level guards (unstarted mutate, run-shape
changes) fail loudly instead of corrupting a run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.scale.pool import WorkerPool
from repro.scale.runner import run_scenario
from repro.serve.delta import DeltaError, DeltaOp, SpecDelta
from repro.serve.engine import TOPICS, LiveRun
from tests.serve.builders import make_spec, tenant_dict

ADMIT = SpecDelta(ops=(DeltaOp(op="add_cell", cell=tenant_dict()),))
#: sha256 of the event stream ``test_scripted_event_stream_is_pinned``
#: drains: 8 epochs, 1 alert, 22 conformance totals and 2 deltas.
SCRIPTED_EVENTS_SHA256 = (
    "1692fc7fe4ad7629c10f33b63351ab30ae53459e09736143d2bab75a56631a6c"
)


def rechain_tenant(stage) -> SpecDelta:
    return SpecDelta(
        ops=(DeltaOp(op="rechain", target="tenant", chain=(stage,)),)
    )


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
            result = finish(live)
            events = live.drain_events()
        finally:
            live.close()
        epochs = [e for e in events if e["topic"] == "epochs"]
        assert len(epochs) == 4
        assert live.drain_events() == []  # drain drains
        assert set(e["topic"] for e in events) <= set(TOPICS)
        # The conformance topic carries each group's totals at every
        # fold; the last ones are the collected reports.
        shipped = [e["data"] for e in events if e["topic"] == "conformance"]
        assert len(shipped) == 4 * len(spec.groups())
        for group, outcome in result.groups.items():
            mine = [d for d in shipped if d["group"] == group]
            frames = [d["frames_checked"] for d in mine]
            assert frames == sorted(frames)
            assert mine[-1]["frames_checked"] == (
                outcome.conformance["frames_checked"]
            )
            assert mine[-1]["counts"] == outcome.conformance["counts"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scripted_event_stream_is_pinned(self, workers):
        """Admit a tenant after 2 epochs, rechain it onto a PRB monitor
        after 1 more, run to the horizon: every queued event, in order."""
        base = make_spec(slots=24, obs=True, slo=[{
            "name": "misses", "objective": "deadline_miss_rate",
            "threshold": 0.01, "window_epochs": 1, "min_samples": 1,
        }])
        spec = dataclasses.replace(base, obs=dataclasses.replace(
            base.obs, deadline_accounting=True, deadline_budget_ns=1.0
        ))
        live = LiveRun(spec, workers=workers)
        try:
            live.advance_epoch()
            live.advance_epoch()
            live.apply(ADMIT)
            live.advance_epoch()
            live.apply(rechain_tenant({"stage": "prb_monitor"}))
            finish(live)
            events = live.drain_events()
        finally:
            live.close()
        digest = hashlib.sha256(json.dumps(events, sort_keys=True).encode())
        assert digest.hexdigest() == SCRIPTED_EVENTS_SHA256


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
            assert list(live.deltas_applied) == [applied]
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
            assert list(live.deltas_applied) == []
            assert live.spec == spec
            result = finish(live)
        finally:
            live.close()
        assert result.digest == run_scenario(spec, workers=1).digest

    def test_out_of_range_stage_param_is_rejected_at_the_trial_build(self):
        spec = ADMIT.apply(make_spec())
        live = LiveRun(spec)
        try:
            live.advance_epoch()
            with pytest.raises(ValueError, match="thr_dl"):
                live.apply(rechain_tenant(
                    {"stage": "prb_monitor", "params": {"thr_dl": 99}}
                ))
            assert live.routes.version == 0
            result = finish(live)
        finally:
            live.close()
        assert result.digest == run_scenario(spec, workers=1).digest

    def test_the_journal_keeps_the_newest(self, events_kept):
        live = LiveRun(make_spec())
        try:
            live.advance_epoch()
            outcomes = [live.apply(ADMIT)] + [
                live.apply(rechain_tenant({"stage": stage}))
                for stage in ("prb_monitor", "passthrough", "prb_monitor")
            ]
            assert list(live.deltas_applied) == outcomes[-events_kept:]
            assert live.status()["deltas_applied"] == len(outcomes)
        finally:
            live.close()

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

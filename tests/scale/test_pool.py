"""The persistent worker pool: reuse, accounting, and cleanup guarantees."""

import dataclasses
import json
import multiprocessing
import os
import pickle
import subprocess
import sys

import pytest

from repro.core.middlebox import Middlebox
from repro.scale import (
    Scenario,
    ScenarioSpec,
    WorkerPool,
    register_stage,
)
from repro.scale.registry import STAGE_REGISTRY


def _spec_dict(slots=4, **overrides):
    data = {
        "name": "pool-smoke",
        "slots": slots,
        "seed": 9,
        "cells": [
            {
                "name": "left",
                "pci": 1,
                "bandwidth_hz": 20_000_000,
                "rus": [{"name": "left-ru1"}, {"name": "left-ru2"}],
                "ues": [
                    {
                        "ue_id": "u1",
                        "flows": [
                            {"kind": "cbr", "rate_mbps": 30,
                             "direction": "dl"}
                        ],
                    }
                ],
                "chain": [
                    {"stage": "das", "params": {"partial_merge": True}}
                ],
            },
            {
                "name": "right",
                "pci": 2,
                "bandwidth_hz": 20_000_000,
                "rus": [{"name": "right-ru1"}],
                "ues": [
                    {
                        "ue_id": "u2",
                        "flows": [
                            {"kind": "poisson", "rate_mbps": 10,
                             "direction": "ul", "seed": 4}
                        ],
                    }
                ],
                "chain": [{"stage": "prb_monitor"}],
            },
        ],
    }
    data.update(overrides)
    return data


def _spec(slots=4, **overrides):
    return ScenarioSpec.from_dict(_spec_dict(slots=slots, **overrides))


def _assert_no_live_children():
    assert not multiprocessing.active_children()


class CrashingMiddlebox(Middlebox):
    """Kills its whole worker process after a few packets."""

    app_name = "crashbox"

    def __init__(self, crash_after=3, **kwargs):
        super().__init__(**kwargs)
        self._remaining = crash_after

    def on_uplane(self, ctx, packet):
        self._remaining -= 1
        if self._remaining <= 0:
            os._exit(13)
        ctx.forward(packet)


if "crashbox" not in STAGE_REGISTRY:
    @register_stage("crashbox")
    def _build_crashbox(stage, ctx):
        return CrashingMiddlebox(
            crash_after=stage.params.get("crash_after", 3),
            **ctx.base_kwargs(stage, ctx.cell()),
        )


def test_pool_reuses_live_workers_across_runs():
    spec = _spec()
    single = Scenario(spec).run(workers=1)
    with WorkerPool(spec, workers=2) as pool:
        pids_before = [process.pid for process in pool._processes]
        first = pool.run()
        second = pool.run()
        pids_after = [process.pid for process in pool._processes]
    # Same digest as single-process on both runs, same worker processes.
    assert first.digest == single.digest
    assert second.digest == single.digest
    assert first.timeline() == single.timeline()
    assert pids_before == pids_after


@pytest.mark.parametrize("workers", [0, 2])
def test_driving_before_begin_is_refused_before_any_worker_hears(workers):
    """Regression: advance_epoch()/collect() on a started-but-not-begun
    pool used to step the workers and then die on a KeyError, leaving
    them an epoch ahead of the coordinator."""
    spec = _spec()
    with WorkerPool(spec, workers=workers) as pool:
        with pytest.raises(RuntimeError, match=r"begin\(\) first"):
            pool.advance_epoch()
        with pytest.raises(RuntimeError, match=r"begin\(\) first"):
            pool.collect()
        assert pool.done == 0
        # Nothing was stepped behind the coordinator's back.
        assert pool.run().digest == Scenario(spec).run(workers=1).digest


def test_sharded_group_results_report_executed_slots():
    """Regression: the old collect path reported the report-list length
    instead of the slots the worker actually stepped."""
    spec = _spec(slots=5, epoch_slots=2)
    result = Scenario(spec).run(workers=2)
    for group in result.groups.values():
        assert group.slots == spec.slots
        assert group.events >= spec.slots  # at least one event per slot
    # And the same accounting holds single-process.
    inline = Scenario(spec).run(workers=1)
    for group in inline.groups.values():
        assert group.slots == spec.slots
        assert group.events >= spec.slots


def test_epoch_barriers_preserve_digest_at_every_cadence():
    reference = Scenario(_spec()).run(workers=1)
    for epoch_slots in (1, 2, 3, None):
        sharded = Scenario(
            _spec(epoch_slots=epoch_slots)
        ).run(workers=2)
        assert sharded.digest == reference.digest
        expected = epoch_slots or 4
        assert sharded.transport["epoch_slots"] == expected
        assert sharded.transport["epochs"] == -(-4 // expected)


@pytest.mark.parametrize("workers", [0, 2])
def test_mid_run_collect_reads_the_streamed_uplink_hash(workers):
    """Each DU hashes its uplink as it arrives: a mid-run collect reads
    the digest of the confirmed prefix — that of a from-scratch run
    truncated to ``done`` — and leaves the running hash undisturbed."""
    data = _spec_dict(slots=10, epoch_slots=5)
    data["cells"][0]["ues"][0]["flows"].append(
        {"kind": "cbr", "rate_mbps": 10, "direction": "ul"}
    )
    spec = ScenarioSpec.from_dict(data)
    with WorkerPool(spec, workers) as pool:
        pool.begin().advance_epoch()
        middle = pool.collect()
        assert pool.done == 5
        truncated = Scenario(dataclasses.replace(spec, slots=5)).run(workers=1)
        assert middle.digest == truncated.digest
        left = middle.groups["left"].cell_counters["left"]
        assert left["du"]["ul_packets"] > 0  # not the hash of nothing
        assert pool.advance_epoch()
        assert pool.collect().digest == Scenario(spec).run(workers=1).digest


@pytest.mark.parametrize("workers", [1, 2])
def test_bulk_larger_than_the_pipe_buffer_arrives_intact(workers):
    """A reply that outgrows the 64 KiB pipe buffer blocks the worker's
    send until the coordinator drains it — and must still fold exactly."""
    obs = {"enabled": True, "stream": True, "conformance": True}
    # Epoch = horizon: one fat payload.  320 slots ship ~74 KB from the
    # busier worker at workers=2 (~95 KB at 1); spans ship as rows of
    # scalars sharing their event objects, so a reply is smaller per slot
    # than its span count says.
    spec = _spec(slots=320, obs=obs)
    reference = WorkerPool(spec, workers=0).run()
    with WorkerPool(spec, workers=workers) as pool:
        shipped = []
        check = pool._check_reply

        def measuring(index, reply, expect, slots):
            shipped.append(len(pickle.dumps(reply)))
            return check(index, reply, expect, slots)

        pool._check_reply = measuring
        result = pool.run()
    assert max(shipped) > 64 * 1024, "precondition: a reply > the pipe buffer"
    assert result.digest == reference.digest
    assert result.timeline() == reference.timeline()
    assert result.telemetry.live_snapshot() == result.metrics().snapshot()


def test_forked_run_loads_no_shared_memory_and_no_resource_tracker():
    # A fresh interpreter: what this session imported must not count.
    probe = (
        "import json, sys\n"
        "from multiprocessing import resource_tracker\n"
        "from repro.scale import Scenario, ScenarioSpec\n"
        "spec = ScenarioSpec.from_dict(json.load(sys.stdin))\n"
        "Scenario(spec).run(workers=2)\n"
        "assert 'multiprocessing.shared_memory' not in sys.modules\n"
        "assert resource_tracker._resource_tracker._pid is None\n"
    )
    subprocess.run(
        [sys.executable, "-c", probe],
        input=json.dumps(_spec_dict()),
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )


def test_normal_exit_leaves_no_workers_or_segments():
    pool = WorkerPool(_spec(), workers=2).start()
    processes = list(pool._processes)
    pool.run()
    pool.close()
    assert all(not process.is_alive() for process in processes)
    _assert_no_live_children()


def test_close_is_idempotent_and_start_after_close_refuses():
    pool = WorkerPool(_spec(), workers=2).start()
    pool.close()
    pool.close()
    with pytest.raises(RuntimeError):
        pool.start()


def test_worker_crash_mid_run_cleans_up_processes_and_segment():
    """A fault-injected worker death surfaces as an error AND still tears
    down every process and pipe."""
    data = _spec_dict(slots=6, epoch_slots=1)
    data["cells"][1]["chain"] = [
        {"stage": "crashbox", "params": {"crash_after": 2}}
    ]
    # The crashing cell needs uplink traffic for on_uplane to fire.
    data["cells"][1]["ues"][0]["flows"].append(
        {"kind": "cbr", "rate_mbps": 20, "direction": "ul"}
    )
    pool = WorkerPool(ScenarioSpec.from_dict(data), workers=2).start()
    processes = list(pool._processes)
    with pytest.raises(RuntimeError, match="died mid-command"):
        pool.run()
    # run() closed the pool on the error path: nothing left behind.
    assert all(not process.is_alive() for process in processes)
    _assert_no_live_children()


def test_coordinator_exception_mid_run_still_tears_down(monkeypatch):
    """An error on the coordinator side (not in any worker) must also
    exit the workers."""
    pool = WorkerPool(_spec(slots=4, epoch_slots=1), workers=2).start()
    processes = list(pool._processes)
    calls = {"n": 0}
    original = WorkerPool._check_reply

    def explode(self, index, reply, expect, slots):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise OSError("synthetic coordinator fault")
        return original(self, index, reply, expect, slots)

    monkeypatch.setattr(WorkerPool, "_check_reply", explode)
    with pytest.raises(OSError, match="synthetic coordinator fault"):
        pool.run()
    assert all(not process.is_alive() for process in processes)
    _assert_no_live_children()


def test_build_failure_in_worker_propagates_with_traceback():
    data = _spec_dict()
    data["cells"][1]["chain"] = [
        {"stage": "resilience", "params": {"standby": "missing"}}
    ]
    pool = WorkerPool(ScenarioSpec.from_dict(data), workers=2)
    with pytest.raises(RuntimeError, match="scale worker failed"):
        with pool:
            pool.run()
    _assert_no_live_children()


def test_dropped_pool_is_reaped_by_finalizer():
    pool = WorkerPool(_spec(), workers=2).start()
    processes = list(pool._processes)
    pool._finalizer()  # what gc would invoke for an abandoned pool
    for process in processes:
        process.join(timeout=10)
        assert not process.is_alive()
    _assert_no_live_children()

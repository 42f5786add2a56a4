"""The self-healing pool: exact recovery, bounded failure, no leaks."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.obs.slo import OBJECTIVES
from repro.scale import (
    ScenarioSpec,
    SupervisorSpec,
    WorkerPool,
    run_divergence,
    run_scenario,
)
from repro.scale.supervisor import (
    RESTARTS_METRIC,
    ShardRecoveryExhausted,
)

#: Tight supervision so failure tests conclude in seconds, not minutes.
FAST_SUPERVISOR = {
    "barrier_timeout_s": 2.0,
    "poll_interval_s": 0.01,
    "max_restarts_per_worker": 2,
    "backoff_base_s": 0.01,
}


def _spec_dict(slots=6, chaos=(), supervisor=FAST_SUPERVISOR, obs=True,
               slo=()):
    return {
        "name": "supervised",
        "slots": slots,
        "seed": 9,
        "epoch_slots": 2,
        "process_chaos": [dict(entry) for entry in chaos],
        "supervisor": dict(supervisor) if supervisor else None,
        "obs": (
            {
                "enabled": True,
                "stream": True,
                "deadline_accounting": True,
                "slo": [dict(entry) for entry in slo],
            }
            if obs
            else {"enabled": False}
        ),
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


def _spec(**kwargs):
    return ScenarioSpec.from_dict(_spec_dict(**kwargs))


def _reference(slots=6):
    return run_scenario(
        _spec(slots=slots, chaos=(), supervisor=None), workers=2
    )


@pytest.mark.parametrize(
    "kind,epoch,obs",
    [
        pytest.param("kill", 1, True, id="kill-1"),
        pytest.param("stall", 0, True, id="stall-0"),
        pytest.param("poison", 2, True, id="poison-2"),
        pytest.param("corrupt_frame", 1, True, id="corrupt_frame-1"),
        # Obs off: the epoch ships no bulk, so the mangled one is all
        # there is to catch.
        pytest.param("corrupt_frame", 1, False, id="corrupt_frame-1-no-obs"),
    ],
)
def test_recovery_is_exact_for_every_failure_class(kind, epoch, obs):
    """Digest oracle: the recovered run equals the unfaulted one — and at
    every barrier, the respawn's included, digest, timeline and the live
    telemetry fold are those of an unfaulted run stopped there."""
    reference = _reference()
    chaos = [{"kind": kind, "epoch": epoch, "group": "left",
              "stall_s": 30.0}]
    with WorkerPool(_spec(chaos=chaos, obs=obs), workers=2) as pool:
        pool.begin()
        finished = False
        while not finished:
            finished = pool.advance_epoch()
            unfaulted = run_scenario(
                _spec(slots=pool.done, chaos=(), supervisor=None, obs=obs)
            )
            assert run_divergence(pool.collect(), unfaulted) == [], (
                f"slot {pool.done}"
            )
        recovered = pool.collect()
    assert recovered.digest == reference.digest
    assert recovered.timeline() == reference.timeline()
    assert recovered.recovery["total_restarts"] >= 1
    expected = {"kill": "crash", "stall": "hang", "poison": "poisoned",
                "corrupt_frame": "frame"}[kind]
    assert recovered.recovery["failures"][0]["kind"] == expected


def test_external_sigkill_mid_run_recovers():
    """A worker killed from outside (not self-inflicted chaos) is
    detected at the next barrier and replaced."""
    spec = _spec(chaos=())
    reference = _reference()
    with WorkerPool(spec, workers=2) as pool:
        os.kill(pool._processes[0].pid, signal.SIGKILL)
        result = pool.run()
    assert result.digest == reference.digest
    assert result.recovery["total_restarts"] >= 1
    assert result.recovery["restarts"].get("0") == 1


def test_pool_reuse_after_recovery():
    """A pool that healed once serves later runs with clean state."""
    spec = _spec(chaos=())
    with WorkerPool(spec, workers=2) as pool:
        os.kill(pool._processes[1].pid, signal.SIGKILL)
        first = pool.run()
        second = pool.run()
    assert first.recovery["total_restarts"] == 1
    assert second.recovery["total_restarts"] == 0
    assert first.digest == second.digest


def test_recovery_surfaces_in_obs_plane():
    """Restarts count in the coordinator metrics registry, ride the
    epoch samples, and can fire a declarative SLO objective."""
    assert "worker_restarts" in OBJECTIVES
    chaos = [{"kind": "kill", "epoch": 0, "group": "left"}]
    slo = [{"name": "restart-burn", "objective": "worker_restarts",
            "threshold": 1.0, "window_epochs": 4}]
    spec = _spec(chaos=chaos, slo=slo)
    with WorkerPool(spec, workers=2) as pool:
        result = pool.run()
        snapshot = pool.metrics.snapshot()
    assert RESTARTS_METRIC in snapshot
    assert sum(snapshot[RESTARTS_METRIC]["series"].values()) >= 1
    assert result.telemetry.worker_restarts_total >= 1
    edges = [(a.slo, a.state) for a in result.telemetry.slo.alerts]
    assert ("restart-burn", "firing") in edges


def test_budget_exhaustion_fails_typed_bounded_and_clean():
    """A re-arming kill outlives its budget: typed error with partial
    results, in bounded time, no live workers."""
    chaos = [{"kind": "kill", "epoch": 1, "group": "left", "rearm": True}]
    supervisor = dict(FAST_SUPERVISOR, max_restarts_per_worker=1)
    spec = _spec(chaos=chaos, supervisor=supervisor, obs=False)
    pool = WorkerPool(spec, workers=2)
    pool.start()
    started = time.monotonic()
    with pytest.raises(ShardRecoveryExhausted) as excinfo:
        pool.run()
    elapsed = time.monotonic() - started
    error = excinfo.value
    assert error.shard_groups == ["left"]
    assert error.restarts == 1
    assert len(error.failures) == 2  # original + the re-armed recurrence
    assert "right" in error.partial  # the healthy shard's data survives
    assert elapsed < 30.0
    assert not multiprocessing.active_children()


def test_sigkill_mid_epoch_cleanup_without_supervision():
    """The plain fail-fast path still tears down inside the deadline: a
    SIGKILLed worker surfaces as an error (no indefinite hang) and no
    worker outlives it."""
    spec = _spec(chaos=(), supervisor=None, obs=False)
    pool = WorkerPool(spec, workers=2)
    pool.start()
    os.kill(pool._processes[0].pid, signal.SIGKILL)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="died mid-command"):
        pool.run()
    assert time.monotonic() - started < 30.0
    assert not multiprocessing.active_children()


def test_unsupervised_spec_with_chaos_routes_to_supervised_pool():
    """run_scenario picks the self-healing pool whenever the spec
    carries chaos injections, even without an explicit supervisor."""
    chaos = [{"kind": "kill", "epoch": 0, "group": "right"}]
    data = _spec_dict(chaos=chaos, supervisor=None)
    spec = ScenarioSpec.from_dict(data)
    assert spec.supervised()
    result = run_scenario(spec, workers=2)
    assert result.recovery["total_restarts"] >= 1
    assert result.digest == _reference().digest


def test_supervisor_spec_round_trip_and_validation():
    spec = _spec()
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValueError):
        SupervisorSpec(barrier_timeout_s=0.0)
    with pytest.raises(ValueError):
        SupervisorSpec(max_restarts_per_worker=-1)
    with pytest.raises(KeyError):
        SupervisorSpec.from_dict({"barrier_timeout_s": 1.0, "nope": 2})

"""Chaos-scale: self-healing recovery is provably exact.

The sharding oracle (a sharded run is the single-process run, byte for
byte) turns "the supervisor recovered" into a checkable claim: if a run
that lost a worker mid-epoch still is the unfaulted run, the
respawn-and-replay path rebuilt the lost shard exactly — every packet,
every counter, every telemetry fold.

The sweep runs the 6-cell chaos-scale topology (8 slots, 2 workers,
supervised) once per injection: one seeded point per failure class
(kill, stall, poison, corrupt_frame) plus a kill at the first and at the
last barrier epoch.  Each recovered run must be the unfaulted run and
must have restarted a worker (a sweep that silently stopped injecting
proves nothing).  A re-arming kill that outlives its restart budget must
end in :class:`~repro.scale.supervisor.ShardRecoveryExhausted`, with the
survivors' partial results and no worker process left alive.

About 20 s of forked workers, so not in tier-1; CI's chaos-scale job
runs it under a hard timeout.
"""

import dataclasses
import multiprocessing

import pytest

from repro.faults.process import CHAOS_KINDS, ProcessChaosSpec
from repro.scale import (
    ShardRecoveryExhausted,
    SupervisorSpec,
    WorkerPool,
    run_divergence,
    run_scenario,
)
from tests.faults.test_process_chaos import chaos_scale_spec, seeded_chaos_sweep

SLOTS = 8
WORKERS = 2
SWEEP_SEED = 20250808
SPEC = chaos_scale_spec(SLOTS)
#: Fast supervision: tight barrier deadline, short backoff.  Results do
#: not depend on these, only wall time does.
SUPERVISOR = SupervisorSpec(
    barrier_timeout_s=5.0, poll_interval_s=0.01, backoff_base_s=0.01
)


def _injections():
    """One seeded point per failure class, then the edge kill points."""
    epochs = -(-SPEC.slots // SPEC.effective_epoch_slots())
    groups = list(SPEC.groups())
    return seeded_chaos_sweep(SWEEP_SEED, epochs=epochs, groups=groups) + [
        ProcessChaosSpec(
            kind="kill", epoch=0, group="campus", name="kill-first-epoch"
        ),
        ProcessChaosSpec(
            kind="kill", epoch=epochs - 1, group=groups[-1],
            name="kill-last-epoch",
        ),
    ]


INJECTIONS = _injections()


def _with_chaos(injection, **policy):
    """The spec under one process-chaos injection and the fast policy."""
    return dataclasses.replace(
        SPEC,
        process_chaos=(injection,),
        supervisor=dataclasses.replace(SUPERVISOR, **policy),
    )


@pytest.fixture(scope="module")
def unfaulted():
    return run_scenario(SPEC, workers=WORKERS)


def test_unfaulted_sharded_run_is_the_single_process_run(unfaulted):
    assert run_divergence(unfaulted, run_scenario(SPEC, workers=1)) == []


def test_sweep_covers_every_failure_class_and_both_edge_epochs():
    assert [injection.kind for injection in INJECTIONS] == [
        *CHAOS_KINDS, "kill", "kill"
    ]


@pytest.mark.parametrize("injection", INJECTIONS, ids=lambda i: i.name)
def test_recovered_run_is_the_unfaulted_run(injection, unfaulted):
    faulted = run_scenario(_with_chaos(injection.to_dict()), workers=WORKERS)
    assert run_divergence(faulted, unfaulted) == []
    assert faulted.recovery.get("total_restarts", 0) >= 1


def test_exhausted_restart_budget_fails_typed_with_partial_results():
    doomed = _with_chaos(
        {"kind": "kill", "epoch": 1, "group": "campus", "rearm": True},
        max_restarts_per_worker=1,
    )
    pool = WorkerPool(doomed, workers=2).start()
    try:
        with pytest.raises(ShardRecoveryExhausted) as exhausted:
            pool.run()
        assert exhausted.value.partial
        # Every child, not just the pool's current handles: a respawn
        # must not leave the process it replaced behind either.
        assert not multiprocessing.active_children()
    finally:
        pool.close()

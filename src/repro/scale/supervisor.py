"""Supervision policy for the worker pool: failure taxonomy and contract.

:class:`~repro.scale.pool.WorkerPool` holds an optional
:class:`~repro.scale.spec.SupervisorSpec`.  Without one it is fail-fast:
a worker that crashes or talks garbage closes the whole pool and the
run dies with a ``RuntimeError``.  A middlebox-as-a-service deployment
(ROADMAP north star) cannot ship that: a process serving dozens of
cells must survive the failure of any one shard.  With a policy, the
same barrier exchange gives three guarantees:

**No barrier blocks forever.**  Every reply is awaited with a poll
loop bounded by :attr:`~repro.scale.spec.SupervisorSpec.
barrier_timeout_s`, interleaved with ``Process.is_alive()`` checks, and
every accepted reply must carry a heartbeat whose pid matches the
process being barriered on.  Crash, hang, protocol violation and bulk
that fails the plan-row check (``frame``) each become a typed
:class:`WorkerFailure` instead of a deadlock or a folded lie.  (The
reply-shape, heartbeat and bulk checks run under both policies;
fail-fast just turns the first :class:`WorkerFailure` into the
``RuntimeError`` that ends the run.)

**Recovery is exact, not approximate.**  On failure the pool kills only
the affected worker and respawns it with ``replay_slots`` = the number
of slots every shard had confirmed at the last successful barrier.  The
replacement rebuilds its coupling groups from the deterministic
:class:`~repro.scale.spec.ScenarioSpec` and replays the confirmed
prefix epoch by epoch
(:meth:`~repro.scale.runner.ShardEngine.rebase`) — generating and
*discarding* the telemetry payloads the coordinator already folded, so
the per-group event lanes drain and scalar baselines advance without
double counting.
Determinism makes the replayed state bit-identical to the lost one:
the digest oracle (sharded == single-process at 1/2/4/8 workers) holds
across recoveries, and ``live_snapshot() == collect()`` still holds
byte for byte at every barrier because the cumulative snapshots come
out of the replayed groups exactly as they would have from the
originals.

**Failure is bounded, never silent.**  Respawns back off geometrically
and each worker has a restart budget
(:attr:`~repro.scale.spec.SupervisorSpec.max_restarts_per_worker`).
Exhausting it raises :class:`ShardRecoveryExhausted` — carrying the
partial per-group results scavenged from the surviving workers — after
the normal teardown path has joined every process.  No hang, no leak.

Recovery events surface in the obs plane: the coordinator-side
:attr:`WorkerPool.metrics <repro.scale.pool.WorkerPool.metrics>`
registry counts ``scale_worker_restarts_total`` and
``scale_recovery_replayed_slots_total`` per worker (kept out of the
telemetry stream's registry on purpose — the next barrier's rebuild
would wipe them and break live == collect), and each restart rides the
next :class:`~repro.obs.slo.EpochSample` as ``worker_restarts``, where
an SLO objective can window and alert on it.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Respawns performed by the pool, labelled by worker index.
RESTARTS_METRIC = "scale_worker_restarts_total"

#: Group-slots replayed to fast-forward replacement workers (slots x
#: groups on the respawned shard), labelled by worker index.
REPLAYED_SLOTS_METRIC = "scale_recovery_replayed_slots_total"

#: The failure classes the barrier exchange distinguishes.
FAILURE_KINDS = ("crash", "hang", "poisoned", "frame")


class WorkerFailure(Exception):
    """One recoverable worker fault, classified.

    Internal to the barrier exchange: every instance is either consumed
    by a successful respawn or folded into the error that ends the run
    (:class:`ShardRecoveryExhausted`, or the fail-fast policy's
    ``RuntimeError``).
    """

    def __init__(self, kind: str, worker: int, detail: str):
        if kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {kind!r}")
        super().__init__(f"worker {worker} {kind}: {detail}")
        self.kind = kind
        self.worker = worker
        self.detail = detail


class ShardRecoveryExhausted(RuntimeError):
    """A worker burned through its restart budget; the run is over.

    Carries everything an operator needs: the shard that kept dying,
    its failure log, and ``partial`` — the per-group results scavenged
    best-effort from the workers that were still healthy, so a
    majority-healthy run's data is not thrown away with the error.
    Raised only after full pool teardown (processes joined).
    """

    def __init__(
        self,
        worker: int,
        shard_groups: List[str],
        restarts: int,
        failures: List[Dict[str, Any]],
        partial: Dict[str, Any],
    ):
        super().__init__(
            f"shard recovery exhausted: worker {worker} "
            f"(groups {shard_groups}) failed "
            f"{len(failures)} time(s) with {restarts} restart(s) spent; "
            f"partial results for {sorted(partial)}"
        )
        self.worker = worker
        self.shard_groups = shard_groups
        self.restarts = restarts
        self.failures = failures
        self.partial = partial


__all__ = [
    "FAILURE_KINDS",
    "REPLAYED_SLOTS_METRIC",
    "RESTARTS_METRIC",
    "ShardRecoveryExhausted",
    "WorkerFailure",
]

"""The live run: a worker pool driven epoch by epoch under control.

:class:`LiveRun` is the synchronous core of the control plane — the
piece that owns the pool, the routing table, and the telemetry fan-out,
with no asyncio in sight so it unit-tests like any other scale-layer
object.  The asyncio service (:mod:`repro.serve.service`) is a thin
protocol shell around it.

The contract inherits the scale layer's oracles wholesale:

- An unmutated live run's collect digest is byte-identical to the batch
  ``run_scenario`` result for the same spec — driving epochs one at a
  time changes *when* barriers happen, never what they compute.
- After :meth:`apply`, the run is indistinguishable from a from-scratch
  run of the mutated spec (rebase semantics; see
  :meth:`~repro.scale.pool.WorkerPool.mutate`).  No worker restarts:
  the same processes keep running, only the disturbed coupling groups
  rebuild.
- A rejected delta (:class:`~repro.serve.delta.DeltaError`) is applied
  nowhere: validation runs against a *copy* of the spec before the pool
  hears anything, so the run continues byte-identical to one that never
  saw the request.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.telemetry import TelemetryBus, TelemetryRecord
from repro.obs.slo import ALERT_TOPIC
from repro.obs.stream import EPOCH_TOPIC
from repro.scale.pool import WorkerPool
from repro.scale.spec import ScenarioSpec
from repro.serve.delta import SpecDelta
from repro.serve.routing import RoutingTable

#: Event topics a control session may subscribe to.
TOPICS = ("epochs", "alerts", "conformance", "deltas")


class LiveRun:
    """One scenario, running, mutable, observable.

    ``workers`` picks the pool width; the pool takes its fail-fast or
    self-healing policy from the spec's ``supervised()`` exactly as the
    batch path does.  All driving methods are synchronous and must be
    called from one thread at a time (the service serializes them
    behind a lock).
    """

    def __init__(self, spec: ScenarioSpec, workers: int = 1):
        self.spec = spec
        self.bus = TelemetryBus()
        self.pool = WorkerPool(spec, workers=workers, bus=self.bus)
        self.routes = RoutingTable.from_spec(spec, self.pool.plan)
        self.deltas_applied: List[Dict[str, Any]] = []
        self.finished = False
        self._began = False
        self._pending: List[Dict[str, Any]] = []
        self.bus.subscribe(EPOCH_TOPIC, self._on_epoch)
        self.bus.subscribe(ALERT_TOPIC, self._on_alert)

    # -- bus fan-in ----------------------------------------------------------

    def _on_epoch(self, record: TelemetryRecord) -> None:
        self._pending.append(
            {"topic": "epochs", "data": dict(record.payload)}
        )
        # Already in fold (sorted group) order.
        for group, delta in self.pool.telemetry.epoch_conformance.items():
            if delta["frames_checked"] or delta["violations"]:
                self._pending.append(
                    {
                        "topic": "conformance",
                        "data": {"group": group, **delta},
                    }
                )

    def _on_alert(self, record: TelemetryRecord) -> None:
        self._pending.append(
            {"topic": "alerts", "data": dict(record.payload)}
        )

    def drain_events(self) -> List[Dict[str, Any]]:
        """Everything published since the last drain, in fold order."""
        pending, self._pending = self._pending, []
        return pending

    # -- drive ---------------------------------------------------------------

    @property
    def done(self) -> int:
        return self.pool.done

    def begin(self) -> None:
        if self._began:
            raise RuntimeError("live run already begun")
        self._began = True
        self.pool.begin()

    def advance_epoch(self) -> bool:
        """One epoch barrier; ``True`` once the horizon completes."""
        if not self._began:
            self.begin()
        self.finished = self.pool.advance_epoch()
        return self.finished

    def apply(self, delta: SpecDelta) -> Dict[str, Any]:
        """Validate and apply one delta at the current barrier.

        Raises :class:`~repro.serve.delta.DeltaError` (or ``ValueError``
        for a run-shape change) with the run untouched; on success the
        routing table re-derives at a bumped version and the outcome is
        journaled in :attr:`deltas_applied`.
        """
        mutated = delta.apply(self.spec)  # validates; pure
        outcome = self.pool.mutate(mutated)  # trial-builds, then commits
        self.spec = mutated
        self.routes = RoutingTable.from_spec(
            mutated, self.pool.plan, version=self.routes.version + 1
        )
        applied = {
            "delta": delta.to_dict(),
            "at_slot": self.pool.done,
            "routing_version": self.routes.version,
            **outcome,
        }
        self.deltas_applied.append(applied)
        self._pending.append({"topic": "deltas", "data": dict(applied)})
        return applied

    def collect(self):
        """The run's :class:`~repro.scale.runner.ScenarioResult` so far."""
        return self.pool.collect()

    def status(self) -> Dict[str, Any]:
        telemetry = self.pool.telemetry
        return {
            "scenario": self.spec.name,
            "workers": self.pool.plan.workers,
            "slots": self.spec.slots,
            "done": self.pool.done,
            "finished": self.finished,
            "epochs": telemetry.epochs,
            "routing_version": self.routes.version,
            "deltas_applied": len(self.deltas_applied),
            "alerts_firing": telemetry.slo.firing(),
            "worker_restarts": sum(self.pool.restarts),
            "worker_pids": [p.pid for p in self.pool._processes],
        }

    def close(self) -> None:
        self.pool.close()


__all__ = ["LiveRun", "TOPICS"]

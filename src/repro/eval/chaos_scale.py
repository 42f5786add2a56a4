"""Chaos-scale evaluation: self-healing recovery is provably exact.

The scale-out digest oracle (sharded == single-process, byte for byte)
turns "the supervisor recovered" from a vibe into a theorem: if a run
that lost a worker mid-epoch still produces the unfaulted digest, the
respawn-and-replay path reconstructed the lost shard *exactly* — every
packet, every counter, every telemetry delta.

This eval sweeps that claim across the failure classes:

1. **Seeded injection sweep** — one :func:`~repro.faults.process.
   seeded_chaos_sweep` injection per kind (kill -9 mid-epoch, stalled
   worker, poisoned reply, corrupted reply bulk) plus explicit kill
   points at the first and last barrier epoch, each run at 2 and 4
   workers under a supervised pool.  Asserts, per run: digest equality
   with the unfaulted reference, identical merged timelines, identical
   deterministic stream expositions, ``live_snapshot() == collect()``
   after recovery, and at least one restart actually happened (a sweep
   that silently stopped injecting proves nothing).
2. **Restart-budget exhaustion** — a re-arming kill that outlives its
   budget must end in :class:`~repro.scale.supervisor.
   ShardRecoveryExhausted` in bounded wall time, with partial results
   from the surviving workers and every worker process dead.

Run via ``PYTHONPATH=src python -m repro.eval chaos-scale``; shrink
with ``--slots`` / ``--workers`` for CI smoke runs.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.eval.report import format_table
from repro.faults.process import ProcessChaosSpec, seeded_chaos_sweep
from repro.obs.live import deterministic_exposition
from repro.scale import ScenarioSpec, run_scenario
from repro.scale.pool import WorkerPool
from repro.scale.supervisor import ShardRecoveryExhausted

DEFAULT_SLOTS = 8
DEFAULT_WORKERS = (2, 4)
SWEEP_SEED = 20250808

#: Fast supervision policy for the eval: tight barrier deadline, short
#: backoff — deterministic results do not depend on these, only wall
#: time does.
SUPERVISOR = {
    "barrier_timeout_s": 5.0,
    "poll_interval_s": 0.01,
    "max_restarts_per_worker": 2,
    "backoff_base_s": 0.01,
    "backoff_factor": 2.0,
}


def chaos_scale_spec(slots: int) -> ScenarioSpec:
    """A 6-cell topology with real coupling: one 3-cell DAS campus, one
    shared-spectrum pair, two singletons — enough groups that 4 workers
    get a meaningful placement, with the full obs plane streaming."""
    def cell(name, pci, group=None, chain=(), rus=None, extra=None):
        data = {
            "name": name,
            "pci": pci,
            "bandwidth_hz": 20_000_000,
            "group": group,
            "rus": rus or [{"name": f"{name}-ru"}],
            "ues": [
                {
                    "ue_id": f"{name}-ue",
                    "flows": [
                        {"kind": "cbr", "rate_mbps": 25, "direction": "dl"},
                        {
                            "kind": "poisson",
                            "rate_mbps": 8,
                            "direction": "ul",
                            "seed": pci,
                        },
                    ],
                }
            ],
            "chain": list(chain),
        }
        data.update(extra or {})
        return data

    cells = [
        cell(
            "campus0",
            1,
            group="campus",
            rus=[{"name": "campus0-ru1"}, {"name": "campus0-ru2"}],
            chain=[{"stage": "das", "params": {"partial_merge": True}}],
        ),
        cell("campus1", 2, group="campus"),
        cell("campus2", 3, group="campus"),
        cell("pair0", 4, group="pair", chain=[{"stage": "prb_monitor"}]),
        cell("pair1", 5, group="pair"),
        cell("solo0", 6, chain=[{"stage": "prb_monitor"}]),
        cell("solo1", 7),
    ]
    return ScenarioSpec.from_dict(
        {
            "name": "chaos-scale",
            "slots": slots,
            "seed": 17,
            "epoch_slots": 2,
            "obs": {
                "enabled": True,
                "stream": True,
                "deadline_accounting": True,
            },
            "cells": cells,
        }
    )


def _injections(spec: ScenarioSpec) -> List[ProcessChaosSpec]:
    """The sweep: one seeded point per failure class plus the edge kill
    points (first barrier epoch, last barrier epoch)."""
    epochs = -(-spec.slots // spec.effective_epoch_slots())
    groups = list(spec.groups())
    sweep = seeded_chaos_sweep(SWEEP_SEED, epochs=epochs, groups=groups)
    sweep.append(
        ProcessChaosSpec(
            kind="kill", epoch=0, group="campus", name="kill-first-epoch"
        )
    )
    sweep.append(
        ProcessChaosSpec(
            kind="kill",
            epoch=epochs - 1,
            group=groups[-1],
            name="kill-last-epoch",
        )
    )
    return sweep


@dataclass
class ChaosScaleResult:
    """Everything the chaos-scale gate measured, plus its assertions."""

    slots: int
    worker_counts: Tuple[int, ...]
    reference_digest: str = ""
    #: (injection name, kind, epoch, group, workers) -> row dict.
    rows: List[Dict[str, Any]] = field(default_factory=list)
    exhaustion: Dict[str, Any] = field(default_factory=dict)

    def fingerprint(self) -> Tuple:
        """Deterministic identity of the whole sweep (CI pins digests)."""
        return (
            self.reference_digest,
            tuple(
                (
                    row["injection"],
                    row["workers"],
                    row["digest_equal"],
                    row["restarts"],
                )
                for row in self.rows
            ),
        )

    def assert_healthy(self) -> None:
        assert self.rows, "sweep ran no injections"
        for row in self.rows:
            name = f"{row['injection']} @ {row['workers']}w"
            assert row["digest_equal"], (
                f"{name}: recovered digest diverged from unfaulted run"
            )
            assert row["timeline_equal"], f"{name}: merged timeline diverged"
            assert row["stream_equal"], (
                f"{name}: deterministic stream exposition diverged"
            )
            assert row["live_equals_collect"], (
                f"{name}: live_snapshot() != collect() after recovery"
            )
            assert row["restarts"] >= 1, f"{name}: no restart happened"
        ex = self.exhaustion
        assert ex.get("raised"), "budget exhaustion did not raise"
        assert ex.get("partial_groups"), "exhaustion carried no partial results"
        assert ex.get("workers_dead"), "exhaustion left live workers"

    def format(self) -> str:
        table = format_table(
            f"Chaos-scale sweep ({self.slots} slots, "
            f"reference {self.reference_digest[:12]}...)",
            [
                "injection",
                "kind",
                "epoch",
                "target",
                "workers",
                "restarts",
                "replayed",
                "digest",
                "live==collect",
            ],
            [
                [
                    row["injection"],
                    row["kind"],
                    row["epoch"],
                    row["target"],
                    row["workers"],
                    row["restarts"],
                    row["replayed_slots"],
                    "equal" if row["digest_equal"] else "DIVERGED",
                    "yes" if row["live_equals_collect"] else "NO",
                ]
                for row in self.rows
            ],
        )
        ex = self.exhaustion
        lines = [
            table,
            "",
            "Restart-budget exhaustion (re-arming kill, budget "
            f"{ex.get('budget')}):",
            f"  raised ShardRecoveryExhausted: {ex.get('raised')}"
            f" in {ex.get('elapsed_s', 0.0):.2f}s",
            f"  partial results from survivors: {ex.get('partial_groups')}",
            f"  all workers dead: {ex.get('workers_dead')}",
        ]
        return "\n".join(lines)


def _with_chaos(
    spec: ScenarioSpec, injection: ProcessChaosSpec
) -> ScenarioSpec:
    data = spec.to_dict()
    data["process_chaos"] = [injection.to_dict()]
    data["supervisor"] = dict(SUPERVISOR)
    return ScenarioSpec.from_dict(data)


def run_chaos_scale(
    slots: int = DEFAULT_SLOTS,
    worker_counts: Tuple[int, ...] = DEFAULT_WORKERS,
) -> ChaosScaleResult:
    spec = chaos_scale_spec(slots)
    result = ChaosScaleResult(slots=slots, worker_counts=tuple(worker_counts))

    references: Dict[int, Any] = {}
    for workers in worker_counts:
        references[workers] = run_scenario(spec, workers=workers)
    baseline = references[worker_counts[0]]
    result.reference_digest = baseline.digest
    for workers, reference in references.items():
        assert reference.digest == baseline.digest, (
            f"unfaulted sharded run diverged at {workers} workers"
        )

    for injection in _injections(spec):
        for workers in worker_counts:
            reference = references[workers]
            faulted = run_scenario(
                _with_chaos(spec, injection), workers=workers
            )
            result.rows.append(
                {
                    "injection": injection.name or injection.kind,
                    "kind": injection.kind,
                    "epoch": injection.epoch,
                    "target": injection.group or f"w{injection.worker}",
                    "workers": workers,
                    "restarts": faulted.recovery.get("total_restarts", 0),
                    "replayed_slots": faulted.recovery.get(
                        "replayed_slots", 0
                    ),
                    "digest_equal": faulted.digest == reference.digest,
                    "timeline_equal": (
                        faulted.timeline() == reference.timeline()
                    ),
                    "stream_equal": (
                        deterministic_exposition(faulted.telemetry.registry)
                        == deterministic_exposition(
                            reference.telemetry.registry
                        )
                    ),
                    "live_equals_collect": (
                        faulted.telemetry.live_snapshot()
                        == faulted.metrics().snapshot()
                    ),
                }
            )

    result.exhaustion = _run_exhaustion(spec)
    return result


def _run_exhaustion(spec: ScenarioSpec) -> Dict[str, Any]:
    budget = 1
    data = spec.to_dict()
    data["process_chaos"] = [
        {"kind": "kill", "epoch": 1, "group": "campus", "rearm": True}
    ]
    data["supervisor"] = dict(SUPERVISOR, max_restarts_per_worker=budget)
    doomed = ScenarioSpec.from_dict(data)
    pool = WorkerPool(doomed, workers=2)
    pool.start()
    started = time.monotonic()
    outcome: Dict[str, Any] = {"budget": budget, "raised": False}
    try:
        pool.run()
    except ShardRecoveryExhausted as exc:
        outcome["raised"] = True
        outcome["partial_groups"] = sorted(exc.partial)
        outcome["failed_worker"] = exc.worker
        outcome["restarts"] = exc.restarts
    outcome["elapsed_s"] = time.monotonic() - started
    # Every child, not just the pool's current handles: a respawn must
    # not leave the process it replaced behind either.
    outcome["workers_dead"] = not multiprocessing.active_children()
    return outcome


def run(slots: int = DEFAULT_SLOTS, workers: int = 0) -> ChaosScaleResult:
    """``workers`` narrows the sweep to that one worker count."""
    result = run_chaos_scale(
        slots=slots,
        worker_counts=(workers,) if workers else DEFAULT_WORKERS,
    )
    result.assert_healthy()
    return result


__all__ = [
    "ChaosScaleResult",
    "chaos_scale_spec",
    "run",
    "run_chaos_scale",
]

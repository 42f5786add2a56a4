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

import dataclasses
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.eval import kit
from repro.eval.report import format_table
from repro.faults.process import ProcessChaosSpec, seeded_chaos_sweep
from repro.scale import (
    ScenarioSpec,
    ShardRecoveryExhausted,
    SupervisorSpec,
    WorkerPool,
    run_divergence,
    run_scenario,
)

DEFAULT_SLOTS = 8
DEFAULT_WORKERS = (2, 4)
SWEEP_SEED = 20250808

#: Fast supervision policy for the eval: tight barrier deadline, short
#: backoff — deterministic results do not depend on these, only wall
#: time does.
SUPERVISOR = SupervisorSpec(
    barrier_timeout_s=5.0, poll_interval_s=0.01, backoff_base_s=0.01
)


def chaos_scale_spec(slots: int) -> ScenarioSpec:
    """A 6-cell topology with real coupling: one 3-cell DAS campus, one
    shared-spectrum pair, two singletons — enough groups that 4 workers
    get a meaningful placement, with the full obs plane streaming."""
    def cell(name, pci, group=None, chain=(), rus=None):
        return kit.cell(
            name, pci,
            [kit.flow("dl", 25), kit.flow("ul", 8, "poisson", seed=pci)],
            rus=rus, chain=chain, group=group,
        )

    monitor = [{"stage": "prb_monitor"}]
    cells = [
        cell(
            "campus0", 1, group="campus",
            rus=[{"name": "campus0-ru1"}, {"name": "campus0-ru2"}],
            chain=[{"stage": "das", "params": {"partial_merge": True}}],
        ),
        cell("campus1", 2, group="campus"),
        cell("campus2", 3, group="campus"),
        cell("pair0", 4, group="pair", chain=monitor),
        cell("pair1", 5, group="pair"),
        cell("solo0", 6, chain=monitor),
        cell("solo1", 7),
    ]
    return kit.scenario(
        "chaos-scale", slots, 17, cells,
        stream={"deadline_accounting": True}, epoch_slots=2,
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
class ChaosScaleResult(kit.Gate):
    """Everything the chaos-scale gate measured, plus its checks."""

    slots: int
    reference_digest: str = ""
    #: One dict per (injection, worker count); ``diverged`` is the
    #: run-equality verdict against the unfaulted reference.
    rows: List[Dict[str, Any]] = field(default_factory=list)
    exhaustion: Dict[str, Any] = field(default_factory=dict)

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
                    "DIVERGED" if "digest" in row["diverged"] else "equal",
                    "NO" if "live_vs_collect" in row["diverged"] else "yes",
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
    spec: ScenarioSpec, injection: Dict[str, Any], **policy: Any
) -> ScenarioSpec:
    """``spec`` under one process-chaos injection and the fast policy."""
    return dataclasses.replace(
        spec,
        process_chaos=(injection,),
        supervisor=dataclasses.replace(SUPERVISOR, **policy),
    )


def run_chaos_scale(
    slots: int = DEFAULT_SLOTS, workers: int = 0
) -> ChaosScaleResult:
    """``workers`` narrows the sweep to that one worker count."""
    worker_counts = (workers,) if workers else DEFAULT_WORKERS
    spec = chaos_scale_spec(slots)
    result = ChaosScaleResult(slots=slots)

    references = {
        count: run_scenario(spec, workers=count) for count in worker_counts
    }
    baseline = references[worker_counts[0]]
    result.reference_digest = baseline.digest
    for count, reference in references.items():
        diverged = run_divergence(reference, baseline)
        result.check(
            f"unfaulted_{count}w_same_run",
            not diverged,
            f"unfaulted sharded run diverged in {diverged}",
        )

    for injection in _injections(spec):
        for count in worker_counts:
            faulted = run_scenario(
                _with_chaos(spec, injection.to_dict()), workers=count
            )
            row = {
                "injection": injection.name or injection.kind,
                "kind": injection.kind,
                "epoch": injection.epoch,
                "target": injection.group or f"w{injection.worker}",
                "workers": count,
                "restarts": faulted.recovery.get("total_restarts", 0),
                "replayed_slots": faulted.recovery.get("replayed_slots", 0),
                "diverged": run_divergence(faulted, references[count]),
            }
            result.rows.append(row)
            name = f"{row['injection']}@{count}w"
            result.check(
                f"{name}_recovered_same_run",
                not row["diverged"],
                f"recovered run diverged in {row['diverged']}",
            )
            # A sweep that silently stopped injecting proves nothing.
            result.check(f"{name}_restarted", row["restarts"] >= 1)
    result.check("sweep_ran_injections", result.rows)

    result.exhaustion = ex = _run_exhaustion(spec)
    result.check("exhaustion_raised", ex.get("raised"))
    result.check("exhaustion_kept_partial_results", ex.get("partial_groups"))
    result.check("exhaustion_left_no_live_workers", ex.get("workers_dead"))
    result.assert_healthy()
    return result


def _run_exhaustion(spec: ScenarioSpec) -> Dict[str, Any]:
    budget = 1
    doomed = _with_chaos(
        spec,
        {"kind": "kill", "epoch": 1, "group": "campus", "rearm": True},
        max_restarts_per_worker=budget,
    )
    pool = WorkerPool(doomed, workers=2)
    pool.start()
    started = time.monotonic()
    outcome: Dict[str, Any] = {"budget": budget, "raised": False}
    try:
        pool.run()
    except ShardRecoveryExhausted as exc:
        outcome["raised"] = True
        outcome["partial_groups"] = sorted(exc.partial)
    outcome["elapsed_s"] = time.monotonic() - started
    # Every child, not just the pool's current handles: a respawn must
    # not leave the process it replaced behind either.
    outcome["workers_dead"] = not multiprocessing.active_children()
    return outcome

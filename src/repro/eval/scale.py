"""Scale-out benchmark: sharded throughput vs single-process, same bytes.

Runs the canonical 8-cell scenario (six independent cells plus one
coupled group: a cross-DU shared RU, exercising the atomic-placement
rule) through the persistent worker pool at 1, 2, 4 and 8 workers,
asserting after every sharded run that the result digest is
**byte-identical** to the single-process run — the sharding contract —
and reporting throughput (cell-slots simulated per wall second).

Every sharded worker count is measured twice through one
:class:`~repro.scale.pool.WorkerPool`:

- **cold** — first ``run()`` on a fresh pool, including fork and the
  parallel worker-side builds (what a one-shot ``scenario.run()`` pays);
- **warm** — a second ``run()`` on the same live pool, which only
  resets worker state: the steady-state cost a service or sweep sees.

The ≥3x warm-speedup floor at 8 workers only holds where the workers
can actually run in parallel: the assertion is gated on
``os.cpu_count() >= 4`` and the printed table carries the host's cpu
count so a 1-core CI box reports honest numbers without failing a
physically impossible bar.  Set ``REPRO_SCALE_REQUIRE_FLOOR=1`` (the
multicore CI job does) to *fail* instead of skipping when the gate
cannot be enforced — the floor is never silently waved through.

Run via ``PYTHONPATH=src python -m repro.eval scale``; shrink with
``--slots`` for CI smoke runs.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.eval import kit
from repro.eval.report import format_table
from repro.scale import Scenario, ScenarioSpec, WorkerPool, run_divergence

DEFAULT_SLOTS = 40
SPEEDUP_FLOOR = 3.0
FLOOR_WORKERS = 8
#: Minimum schedulable cores for the speedup floor to be meaningful.
FLOOR_MIN_CPUS = 4
#: Aspirational aggregate throughput (recorded, not gated).
TARGET_CELL_SLOTS_PER_S = 5000.0
WORKER_SWEEP = (1, 2, 4, 8)


def bench_spec(slots: int = DEFAULT_SLOTS) -> ScenarioSpec:
    """The 8-cell benchmark topology (also the golden-fixture scenario).

    Cells 1..6 are independent singleton groups with the paper's
    middleboxes spread across them; cells 7+8 form one coupled group
    ("campus"): both DUs mux onto cell 7's wide shared RU, so the pair
    must land on one shard.
    """
    chains = [
        [{"stage": "das", "params": {"partial_merge": True}}],
        [{"stage": "prb_monitor"}],
        [{"stage": "dmimo"}],
        [{"stage": "fronthaul_guard"}],
        [{"stage": "spectrum_sensor"}],
        [{"stage": "passthrough"}],
    ]
    cells: List[dict] = []
    for index, chain in enumerate(chains):
        name = f"cell{index + 1}"
        n_rus = 2 if chain[0]["stage"] in ("das", "dmimo") else 1
        cells.append(
            kit.cell(
                name, index + 1,
                [kit.flow("dl", 40.0),
                 kit.flow("ul", 10.0, "poisson", seed=index)],
                rus=[
                    {
                        "name": f"{name}-ru{r + 1}",
                        "n_antennas": 2,
                        "position": (10.0 * r, 5.0 * index, 0, 3.0),
                    }
                    for r in range(n_rus)
                ],
                ue={"ue_id": f"{name}-ue1"},
                chain=chain,
            )
        )
    # The coupled pair: cell7 hosts a wide RU, cell8's DU muxes onto it.
    shared_ru = {
        "name": "cell7-shared-ru",
        "n_antennas": 2,
        "num_prb": 160,
        "center_frequency_hz": 3.46e9,
    }
    sharing = {
        "stage": "ru_sharing",
        "params": {"ru": "cell7-shared-ru", "cells": ["cell7", "cell8"]},
    }
    cells.append(
        kit.cell(
            "cell7", 7, [kit.flow("dl", 40.0)],
            rus=[shared_ru], ue={"ue_id": "cell7-ue1"}, chain=[sharing],
            center_frequency_hz=3.45e9, group="campus",
        )
    )
    cells.append(
        kit.cell(
            "cell8", 8, [kit.flow("dl", 30.0)],
            rus=[{"name": "cell8-ru1", "n_antennas": 2}],
            ue={"ue_id": "cell8-ue1"},
            center_frequency_hz=3.47e9, group="campus",
        )
    )
    return kit.scenario("scale-bench-8cell", slots, 4, cells)


@dataclass
class ScaleResult(kit.Gate):
    slots: int
    cells: int
    cpu_count: int
    digest: str
    epoch_slots: int = 0
    #: workers -> cold cell-slots per wall second (fork + build + run).
    throughput: Dict[int, float] = field(default_factory=dict)
    #: workers -> cold wall seconds.
    wall: Dict[int, float] = field(default_factory=dict)
    #: workers -> warm cell-slots per wall second (live pool, reset + run).
    warm_throughput: Dict[int, float] = field(default_factory=dict)
    #: workers -> warm wall seconds.
    warm_wall: Dict[int, float] = field(default_factory=dict)
    floor_enforced: bool = False

    @property
    def speedup_at_floor(self) -> float:
        """Warm 8-worker throughput over the single-process rate."""
        base = self.warm_throughput.get(1, 0.0)
        if not base:
            return 0.0
        return self.warm_throughput.get(FLOOR_WORKERS, 0.0) / base

    @property
    def best_throughput(self) -> float:
        return max(self.warm_throughput.values(), default=0.0)

    def rows(self) -> List[List[object]]:
        base = self.warm_throughput.get(1, 0.0)
        return [
            [
                workers,
                f"{self.wall[workers]:.3f}",
                f"{self.throughput[workers]:.1f}",
                f"{self.warm_wall[workers]:.3f}",
                f"{self.warm_throughput[workers]:.1f}",
                (
                    f"{self.warm_throughput[workers] / base:.2f}x"
                    if base else "-"
                ),
            ]
            for workers in sorted(self.throughput)
        ]

    def format(self) -> str:
        table = format_table(
            f"Scale-out: {self.cells} cells x {self.slots} slots, "
            f"epoch {self.epoch_slots} "
            f"(digest {self.digest[:12]}..., {self.cpu_count} cpus)",
            ["workers", "cold_s", "cold c-s/s", "warm_s", "warm c-s/s",
             "speedup"],
            self.rows(),
        )
        floor = (
            f"floor: >= {SPEEDUP_FLOOR:.0f}x warm at {FLOOR_WORKERS} "
            "workers "
            + ("ENFORCED" if self.floor_enforced
               else f"not enforced (host has {self.cpu_count} cpus, "
                    f"needs {FLOOR_MIN_CPUS})")
        )
        target = (
            f"target: {TARGET_CELL_SLOTS_PER_S:.0f} cell-slots/s aggregate; "
            f"best {self.best_throughput:.1f}"
        )
        return table + "\n" + floor + "\n" + target


def run_scale(slots: int = DEFAULT_SLOTS) -> ScaleResult:
    """Sweep worker counts; assert byte-identical results throughout."""
    scenario = Scenario(bench_spec(slots))
    cpu_count = os.cpu_count() or 1
    reference = scenario.run(workers=1)
    result = ScaleResult(
        slots=slots,
        cells=len(scenario.spec.cells),
        cpu_count=cpu_count,
        digest=reference.digest,
        epoch_slots=scenario.spec.effective_epoch_slots(),
    )
    # Single-process has no fork/build to amortize: cold == warm.
    result.throughput[1] = reference.cell_slots_per_second
    result.wall[1] = reference.wall_seconds
    result.warm_throughput[1] = reference.cell_slots_per_second
    result.warm_wall[1] = reference.wall_seconds
    for workers in WORKER_SWEEP[1:]:
        pool = WorkerPool(scenario.spec, workers)
        try:
            started = time.perf_counter()
            cold = pool.run()  # forks + builds + runs
            cold_wall = time.perf_counter() - started
            warm = pool.run()  # live workers: reset + run
        finally:
            pool.close()
        # The sharding contract: any worker count, the same bytes.
        for temperature, outcome in (("cold", cold), ("warm", warm)):
            diverged = run_divergence(outcome, reference)
            result.check(
                f"{workers}_workers_{temperature}_same_run",
                not diverged,
                f"diverged from single-process in {diverged}",
            )
        result.throughput[workers] = result.cells * slots / cold_wall
        result.wall[workers] = cold_wall
        result.warm_throughput[workers] = warm.cell_slots_per_second
        result.warm_wall[workers] = warm.wall_seconds
    # The >=3x warm floor needs real parallelism AND a full-size run
    # (smoke horizons finish before the pool can amortize anything);
    # enforce only where the bar is meaningful, record honestly always.
    result.floor_enforced = (
        cpu_count >= FLOOR_MIN_CPUS and slots >= DEFAULT_SLOTS
    )
    if os.environ.get("REPRO_SCALE_REQUIRE_FLOOR") and not result.floor_enforced:
        raise RuntimeError(
            "REPRO_SCALE_REQUIRE_FLOOR is set but the floor cannot be "
            f"enforced here (host has {cpu_count} cpus, needs "
            f"{FLOOR_MIN_CPUS}; run has {slots} slots, needs "
            f"{DEFAULT_SLOTS}) — run full-size on a multicore machine"
        )
    if result.floor_enforced:
        result.check(
            "warm_speedup_floor",
            result.speedup_at_floor >= SPEEDUP_FLOOR,
            f"warm 8-worker speedup {result.speedup_at_floor:.2f}x below "
            f"the {SPEEDUP_FLOOR:.0f}x floor",
        )
    result.assert_healthy()
    return result

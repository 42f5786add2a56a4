"""Scenario execution: one shard engine, one driver, same results.

Every way of running a scenario executes its coupling groups through
one :class:`ShardEngine`: each group is built fresh from the spec (never
pickled live), stepped slot by slot through its network's
:meth:`~repro.sim.network_sim.FronthaulNetwork.run_slot` — the network
owns the group's one slot counter — and summarized into a
:class:`GroupResult` of plain data: slot reports, DU/RU counters,
middlebox stats, uplink IQ hashes, and a canonical-JSON sha256 digest
over all of it.

One coordinator drives the engines, whatever the worker count:
:class:`~repro.scale.pool.WorkerPool` barriers *epochs* of
:meth:`~repro.scale.spec.ScenarioSpec.effective_epoch_slots` slots over
one engine per shard of the :func:`~repro.scale.shard.plan_shards` plan.
``workers <= 1`` keeps the single engine in the calling process (no
fork, no pickling); more workers put each engine in a long-lived
process that answers over its control pipe — sound because coupling
groups are atomic, so no packet ever crosses a shard boundary.  Engines
hand back GroupResults (plain data) which merge into one
:class:`ScenarioResult`: digests combine order-independently, metrics
snapshots fold additively via
:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`, and the
global slot order (:meth:`ScenarioResult.timeline`) is derived from the
groups' names and slot counts, so it cannot depend on which worker ran
which group.

Wall-clock-dependent series (``middlebox_wall_ns`` etc.) stay out of the
digest on purpose: the digest certifies *simulation* results, which must
be byte-identical across worker counts; wall time legitimately differs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.conformance import ConformanceReport
from repro.obs.exposition import render_prometheus
from repro.obs.live import deterministic_exposition
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import GroupStreamSource, TelemetryStream
from repro.scale.build import BuiltGroup, build_groups
from repro.scale.shard import ShardPlan
from repro.scale.spec import ScenarioSpec


@dataclass
class GroupResult:
    """Plain-data summary of one coupling group's run (picklable)."""

    name: str
    cells: int
    #: Slots the group's network actually ran (its clock's advance), so
    #: a partially-driven group never claims the full horizon.
    slots: int
    #: Driver steps taken — one per slot, so always ``slots``; kept as
    #: a field because the frozen ``bench/`` sums and divides by it.
    events: int
    #: The group's slot duration (what places its slots on the timeline).
    slot_ns: int
    reports: List[Dict[str, Any]]
    cell_counters: Dict[str, Dict[str, Any]]
    middlebox_stats: List[Dict[str, Any]]
    metrics: Dict[str, Dict[str, Any]]
    #: Serialized ConformanceReport of the group's validator (empty when
    #: the spec did not request conformance).  Ships as plain data over
    #: the worker pipe like everything else here.
    conformance: Dict[str, Any] = field(default_factory=dict)
    digest: str = ""

    def __post_init__(self) -> None:
        if not self.digest:
            self.digest = self._compute_digest()

    def _compute_digest(self) -> str:
        """Canonical sha256 over the simulation-visible results only."""
        payload = {
            "group": self.name,
            "slots": self.slots,
            "reports": self.reports,
            "cells": self.cell_counters,
            "middleboxes": self.middlebox_stats,
        }
        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()


#: The :class:`~repro.sim.network_sim.SlotReport` counters
#: :meth:`ScenarioResult.delivery` sums.
LEDGER_COUNTERS = (
    "dl_packets", "ul_packets", "undeliverable", "malformed", "wire_dropped"
)


@dataclass
class ScenarioResult:
    """The merged outcome of a scenario run (any worker count)."""

    name: str
    workers: int
    wall_seconds: float
    groups: Dict[str, GroupResult] = field(default_factory=dict)
    plan: Optional[ShardPlan] = None
    #: The run's barrier accounting: ``epochs`` run and their
    #: ``epoch_slots`` length (plus two constant-zero keys the frozen
    #: benchmark still reads, see :meth:`~repro.scale.pool.WorkerPool.
    #: collect`).  Never part of the digest.
    transport: Dict[str, int] = field(default_factory=dict)
    #: The run's live :class:`~repro.obs.stream.TelemetryStream` fold
    #: (``None`` when the spec's obs is disabled).  At every barrier
    #: its registry snapshot equals :meth:`metrics`' snapshot bit for
    #: bit — two readings of the same worker state.  Never part of the
    #: digest.
    telemetry: Optional[TelemetryStream] = None
    #: Recovery accounting under a supervision policy: worker restart
    #: counts, replayed slots, and the failure log (empty for fail-fast
    #: runs).  Wall-clock territory — never part of the digest.
    recovery: Dict[str, Any] = field(default_factory=dict)

    @property
    def cells(self) -> int:
        return sum(result.cells for result in self.groups.values())

    @property
    def slots(self) -> int:
        return max(
            (result.slots for result in self.groups.values()), default=0
        )

    @property
    def cell_slots_per_second(self) -> float:
        """Throughput: cell-slots simulated per wall second."""
        if not self.wall_seconds:
            return 0.0
        return self.cells * self.slots / self.wall_seconds

    @property
    def digest(self) -> str:
        """Order-independent combination of the group digests.

        Identical across any shard plan if and only if every group
        produced byte-identical results.
        """
        combined = hashlib.sha256()
        for name in sorted(self.groups):
            combined.update(name.encode())
            combined.update(self.groups[name].digest.encode())
        return combined.hexdigest()

    def timeline(self) -> List[Tuple[int, str, int, str]]:
        """One deterministic global slot order across all groups:
        ``(start_ns, group, slot, label)`` sorted by time, then group
        name, then slot — derived, nothing of it is stored."""
        return sorted(
            (slot * result.slot_ns, name, slot, f"{name}/slot{slot}")
            for name, result in self.groups.items()
            for slot in range(result.slots)
        )

    def delivery(self) -> Dict[str, Dict[str, int]]:
        """Per group, where its packets went: the sums of its slot
        reports' :data:`LEDGER_COUNTERS` — derived, nothing stored."""
        return {
            name: {
                counter: sum(report[counter] for report in result.reports)
                for counter in LEDGER_COUNTERS
            }
            for name, result in sorted(self.groups.items())
        }

    def metrics(self) -> MetricsRegistry:
        """All shards' metric snapshots folded into one registry."""
        registry = MetricsRegistry()
        for name in sorted(self.groups):
            registry.merge_snapshot(self.groups[name].metrics)
        return registry

    def exposition(self) -> str:
        """The merged metrics as Prometheus text."""
        return render_prometheus(self.metrics())

    def conformance_report(self) -> ConformanceReport:
        """Every shard's validator report merged into one.

        Empty (zero frames, zero violations) when the spec did not set
        ``obs.conformance``.
        """
        merged = ConformanceReport()
        for name in sorted(self.groups):
            data = self.groups[name].conformance
            if data:
                merged.merge(ConformanceReport.from_dict(data))
        return merged


def run_divergence(
    outcome: ScenarioResult, reference: ScenarioResult
) -> List[str]:
    """The run-equality contract as data: which parts of it ``outcome``
    breaks against ``reference``; ``[]`` means the same run.

    Two results are the same run when their digests and slot timelines
    are equal and — where ``outcome`` carried a telemetry stream — its
    deterministic exposition equals the reference stream's (when the
    reference has one) and its live fold equals its own ``collect()``.
    However a run was sharded, driven, mutated or recovered, and at
    whichever barrier it is read, this is the one place "same run" is
    spelled out.
    """
    diverged = []
    if outcome.digest != reference.digest:
        diverged.append("digest")
    if outcome.timeline() != reference.timeline():
        diverged.append("timeline")
    stream = outcome.telemetry
    if stream is not None:
        if reference.telemetry is not None and deterministic_exposition(
            stream.registry
        ) != deterministic_exposition(reference.telemetry.registry):
            diverged.append("exposition")
        if stream.live_snapshot() != outcome.metrics().snapshot():
            diverged.append("live_vs_collect")
    return diverged


# -- shard execution ----------------------------------------------------------


def _summarize_group(group: BuiltGroup) -> GroupResult:
    """Freeze one group into plain data.

    ``slots`` is what the network's clock was advanced by, not the spec
    horizon, so a result always states what actually ran.
    """
    clock = group.network.clock
    slots = clock.current_slot - clock.start_slot
    cell_counters: Dict[str, Dict[str, Any]] = {}
    for built in group.cells:
        cell_counters[built.spec.name] = {
            "du": dataclasses.asdict(built.du.counters),
            "rus": {
                name: dataclasses.asdict(radio.counters)
                for name, (radio, _) in built.rus.items()
            },
            "uplink_sha256": built.du.uplink_sha256(),
        }
    middlebox_stats = [
        {
            "name": box.name,
            "kind": type(box).__name__,
            **dataclasses.asdict(box.stats),
        }
        for box in group.middleboxes
    ]
    return GroupResult(
        name=group.name,
        cells=len(group.cells),
        slots=slots,
        events=slots,
        slot_ns=clock.numerology.slot_duration_ns,
        reports=group.network.report_rows(),
        cell_counters=cell_counters,
        middlebox_stats=middlebox_stats,
        metrics=group.obs.registry.snapshot() if group.obs.enabled else {},
        conformance=(
            group.validator.report.to_dict() if group.validator else {}
        ),
    )


def _step_groups(groups: List[BuiltGroup], n_slots: int) -> None:
    """Advance every group ``n_slots`` slots, one group after another.

    ``run_slot`` is looked up on the network instance at every call:
    instrumentation may have replaced it there after the build.
    """
    for group in groups:
        for _ in range(n_slots):
            group.network.run_slot()


class ShardEngine:
    """One shard's groups, built and stepped in whichever process holds it.

    The only place groups are built and given stream sources, and the
    only replay loop: construction, respawn fast-forward, reset
    and live mutation are all :meth:`rebase`.  The worker command loop
    and the pool's in-process shard both drive this object; neither
    knows how a group is made.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        names: List[str],
        shard: int,
        replay_slots: int = 0,
    ):
        self.shard = shard
        #: group name -> (group, its stream source or None), run order.
        self._live: Dict[str, Any] = {}
        self.rebase(spec, names, names, replay_slots)

    def rebase(
        self,
        new_spec: ScenarioSpec,
        names: List[str],
        rebuild: List[str],
        replay_slots: int,
    ) -> None:
        """Move onto ``new_spec`` hosting ``names``, keeping warm state.

        Groups in ``rebuild`` (plus any in ``names`` this engine does
        not host yet) are built fresh from ``new_spec`` and
        deterministically fast-forwarded over the ``replay_slots``
        confirmed prefix at the run's epoch cadence; every other hosted
        group keeps its state untouched.  The replayed epochs' telemetry
        payloads are generated and *discarded*: that drains the span
        rows at the cadence a from-scratch run drains them and advances
        each source's sample baseline to the replayed snapshot, so the
        next barrier's sample recounts none of the prefix — while its
        cumulative metric snapshot shows all of it.
        Nothing is rebound until the new groups are built and replayed,
        so a build failure raises with the engine as it was.
        """
        fresh = []
        for group in build_groups(
            new_spec,
            [n for n in names if n in rebuild or n not in self._live],
        ):
            source = None
            if new_spec.obs.enabled:
                source = GroupStreamSource(
                    group, shard=self.shard, stream=new_spec.obs.stream
                )
            fresh.append((group, source))
        cadence = new_spec.effective_epoch_slots()
        replayed = 0
        while replayed < replay_slots:
            step = min(cadence, replay_slots - replayed)
            _step_groups([group for group, _ in fresh], step)
            replayed += step
            for _, source in fresh:
                if source is not None:
                    source.epoch_payload()
        live = {**self._live, **{pair[0].name: pair for pair in fresh}}
        self.spec = new_spec
        self.names = list(names)
        self._live = {name: live[name] for name in names}

    def step(self, n_slots: int) -> List[Dict[str, Any]]:
        """Advance every group one epoch and hand back its telemetry
        payloads (none when obs is disabled)."""
        _step_groups([group for group, _ in self._live.values()], n_slots)
        return [
            source.epoch_payload()
            for _, source in self._live.values()
            if source is not None
        ]

    def summarize(self) -> List[GroupResult]:
        """Freeze every group as of now, without disturbing its state."""
        return [
            _summarize_group(group) for group, _ in self._live.values()
        ]


def run_scenario(spec: ScenarioSpec, workers: int = 1) -> ScenarioResult:
    """Run a scenario single-process (``workers<=1``) or sharded.

    Identical results either way: same builds, same seeds, same
    ``begin → advance_epoch → collect`` drive of a one-shot
    :class:`~repro.scale.pool.WorkerPool`.  Only wall time differs:
    ``workers<=1`` keeps the single shard in this process, more workers
    fork one process per shard.

    ``wall_seconds`` covers the whole thing — fork, parallel worker-side
    builds, epochs, collect — so single-shot numbers stay comparable
    with earlier benchmarks.  Keep a pool of your own when running the
    same spec repeatedly; that is what it is for.
    """
    from repro.scale.pool import WorkerPool

    started = time.perf_counter()
    with WorkerPool(spec, workers if workers > 1 else 0) as pool:
        result = pool.run()
    result.wall_seconds = time.perf_counter() - started
    return result

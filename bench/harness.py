"""One repetition of a workload, timed from outside the program.

The program under test is driven through its public entry points —
``Scenario(spec).run(workers=1)`` for inline workloads, ``LiveRun`` for
the live one.  The only hooks are installed from here: the runner's
``build_groups`` is intercepted to time the build (``setup_s``) and to
reach the built instances, and each built ``FronthaulNetwork.run_slot``
gets a two-timestamp probe so per-slot wall time exists with tracing off.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.scale import Scenario, ScenarioResult, ScenarioSpec, runner
from repro.serve import LiveRun
from repro.serve.delta import DeltaError

from workloads import Workload, packet_counts

#: Simulated duration of one slot at the 30 kHz numerology every workload
#: uses; turns cell-slots per wall second into a real-time factor.
SLOT_SECONDS = 0.5e-3


@dataclass
class Rep:
    """What one repetition measured (walls in seconds unless named _ms).

    The simulation is deterministic, so position ``i`` of ``step_ms`` is
    the same work in every repetition of a workload — which is what lets
    :func:`floor_ms` filter host noise position by position.
    """

    wall_s: float
    setup_s: float
    cell_slots: int
    #: The program's own result; callers that keep many repetitions drop
    #: it (``rep.result = None``) so resident memory does not grow with
    #: the repetition count.
    result: Optional[ScenarioResult]
    digest: str
    counts: Dict[str, int]
    #: Modelled (simulated) middlebox processing time of the run.
    processing_ns_total: float
    #: Inline: ``step_ms[g][k]`` is group ``g``'s ``run_slot`` number
    #: ``k``.  Live: one row, the wall of every ``advance_epoch``.
    step_ms: List[List[float]]
    events: int = 0
    #: Live only: wall of every ``LiveRun.apply`` of the pinned script, the
    #: journal entries they returned, which epochs followed no delta (and
    #: were not the first, which absorbs the workers' build), rejections.
    apply_ms: List[float] = field(default_factory=list)
    applied: List[Dict[str, Any]] = field(default_factory=list)
    quiet_epochs: List[int] = field(default_factory=list)
    rejected_deltas: int = 0
    live_equals_collect: bool = True

    @property
    def delivered(self) -> int:
        return self.counts["dl_packets"] + self.counts["ul_packets"]

    @property
    def failed_packets(self) -> int:
        return (
            self.counts["undeliverable"]
            + self.counts["malformed"]
            + self.counts["wire_dropped"]
        )

    @property
    def stepped_s(self) -> float:
        """Wall inside the timed steps (run_slot / advance_epoch / apply)."""
        return (sum(map(sum, self.step_ms)) + sum(self.apply_ms)) / 1e3

    @property
    def quiet_epoch_ms(self) -> List[float]:
        return [self.step_ms[0][index] for index in self.quiet_epochs]


def _result_fields(result: ScenarioResult) -> Dict[str, Any]:
    """The plain values every repetition keeps of its result."""
    return dict(
        result=result,
        digest=result.digest,
        counts=packet_counts(result),
        processing_ns_total=sum(
            box["processing_ns_total"]
            for group in result.groups.values()
            for box in group.middlebox_stats
        ),
        events=sum(group.events for group in result.groups.values()),
    )


@contextmanager
def intercept_builds(
    on_built: Callable[[list, float], None]
) -> Iterator[None]:
    """Time every ``build_groups`` the inline runner makes and hand the
    built groups to ``on_built(groups, seconds)``."""
    original = runner.build_groups

    def build_groups(spec, names=None):
        started = time.perf_counter()
        groups = original(spec, names)
        on_built(groups, time.perf_counter() - started)
        return groups

    runner.build_groups = build_groups
    try:
        yield
    finally:
        runner.build_groups = original


def _probe_run_slot(network, sink: List[float]) -> None:
    inner = network.run_slot
    clock = time.perf_counter

    def run_slot(*args, **kwargs):
        started = clock()
        report = inner(*args, **kwargs)
        sink.append((clock() - started) * 1e3)
        return report

    network.run_slot = run_slot


def run_inline(
    spec: ScenarioSpec,
    instrument: Optional[Callable[[Any], None]] = None,
) -> Rep:
    """One fresh build + run of ``spec`` in this process.

    ``instrument(group)`` is called on every built group before it runs
    (the traced run installs its proxies there, the accounting repetition
    its byte counters).
    """
    step_ms: List[List[float]] = []
    setup = [0.0]

    def on_built(groups, seconds):
        setup[0] += seconds
        for group in groups:
            step_ms.append([])
            _probe_run_slot(group.network, step_ms[-1])
            if instrument is not None:
                instrument(group)

    gc.collect()
    with intercept_builds(on_built):
        started = time.perf_counter()
        result = Scenario(spec).run(workers=1)
        wall = time.perf_counter() - started
    return Rep(
        wall_s=wall - setup[0],
        setup_s=setup[0],
        cell_slots=len(spec.cells) * spec.slots,
        step_ms=step_ms,
        **_result_fields(result),
    )


def run_live(
    workload: Workload,
    workers: Optional[int] = None,
    scripted: bool = True,
    max_epochs: Optional[int] = None,
) -> Rep:
    """One ``LiveRun`` of the workload: begin, epochs with the pinned
    script applied at its slots, collect, close.

    ``setup_s`` is ``LiveRun()`` + ``begin()`` (arena + fork; workers
    build in parallel, so the first epoch absorbs the build).
    ``cell_slots`` counts confirmed slots times the cells alive in each
    epoch; replayed slots are not work delivered.
    """
    pending = list(workload.script) if scripted else []
    epoch_ms: List[float] = []
    apply_ms: List[float] = []
    applied: List[Dict[str, Any]] = []
    quiet_epochs: List[int] = []
    rejected = cell_slots = 0
    gc.collect()
    started = time.perf_counter()
    live = LiveRun(
        workload.spec,
        workers=workload.live_workers if workers is None else workers,
    )
    try:
        live.begin()
        begun = time.perf_counter()
        finished = False
        while not finished and (
            max_epochs is None or len(epoch_ms) < max_epochs
        ):
            quiet = live.done > 0
            while pending and pending[0][0] <= live.done:
                _, delta = pending.pop(0)
                quiet = False
                apply_started = time.perf_counter()
                try:
                    applied.append(live.apply(delta))
                except (DeltaError, ValueError):
                    rejected += 1
                apply_ms.append((time.perf_counter() - apply_started) * 1e3)
            before = live.done
            cells = len(live.spec.cells)
            epoch_started = time.perf_counter()
            finished = live.advance_epoch()
            epoch_ms.append((time.perf_counter() - epoch_started) * 1e3)
            cell_slots += cells * (live.done - before)
            if quiet:
                quiet_epochs.append(len(epoch_ms) - 1)
        result = live.collect()
        wall = time.perf_counter() - begun
        telemetry = result.telemetry
        live_equals_collect = (
            telemetry is None
            or not finished
            or telemetry.live_snapshot() == result.metrics().snapshot()
        )
    finally:
        live.close()
    return Rep(
        wall_s=wall,
        setup_s=begun - started,
        cell_slots=cell_slots,
        step_ms=[epoch_ms],
        apply_ms=apply_ms,
        applied=applied,
        quiet_epochs=quiet_epochs,
        rejected_deltas=rejected,
        live_equals_collect=live_equals_collect,
        **_result_fields(result),
    )


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of the driver (+ largest reaped child), MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


# -- statistics ---------------------------------------------------------------


def floor_ms(rows: Sequence[Sequence[float]]) -> List[float]:
    """Per-position minimum across repetitions of the same work.

    On a shared host identical work slows by tens of percent for seconds
    at a time; interference only ever adds time, so the minimum over
    repetitions of one position is the steadiest estimate of what that
    position costs.
    """
    return [min(column) for column in zip(*rows)]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of a sample."""
    samples = list(samples)
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "n": len(samples),
    }

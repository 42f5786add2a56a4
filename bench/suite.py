"""Measure, check and report one workload (untraced or traced).

``measure_untraced`` produces every end-to-end metric declared in
``BENCHMARK.json``; ``measure_traced`` every per-layer metric.  Both
return an :class:`Outcome`; ``run.py`` prints it and turns it into the
one-line contract result or the ``--out`` file.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.fronthaul.compression import codec_memo_stats
from repro.scale import ObsSpec

import calibrate
import harness
import trace
import workloads
from harness import Rep, percentile, summarize

BENCH_DIR = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
END_TO_END = {entry["name"]: entry for entry in DECLARED["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in DECLARED["per_layer"]}
EXPECTED_PATH = BENCH_DIR / "expected.json"
#: Fresh interpreters timed importing the program per untraced run.  They
#: are spread over the measuring window, not bunched at its start: the
#: host's slow bursts last seconds, and ``setup_s`` keeps the fastest.
IMPORT_PROBES = 6
#: Calibration-kernel calls between two repetitions (19 ms each).  The host
#: factor is a quartile over them, and how well it tracks the workloads'
#: slowdown depends on their number: using only every second call of 38
#: recorded runs raised the residual from 3-4 % to 4-5 %.
KERNEL_CALLS = 2


@dataclass
class Outcome:
    """Everything one workload measurement produced."""

    workload: str
    seed: int
    traced: bool
    #: metric name -> {"value", "unit", "q1", "q3", "n"}
    metrics: Dict[str, Dict[str, Any]]
    attempted: int
    failed: int
    problems: List[str]
    #: Simulated statistics that must repeat bit-exactly for a seed.
    exact: Dict[str, Any] = field(default_factory=dict)
    repetitions: int = 0
    spec_sha256: str = ""
    #: Untraced only: wall-clock values are raw wall ÷ this
    #: (:func:`calibrate.host_factor`).
    host_factor: float = 1.0
    tracer: Optional[trace.Tracer] = None

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted

    def to_dict(self) -> Dict[str, Any]:
        data = {
            item.name: getattr(self, item.name)
            for item in dataclasses.fields(self)
            if item.name != "tracer"
        }
        data.update(correct=self.correct, failed_share=self.failed_share)
        return data


def _metric(
    declared: Dict[str, Dict[str, Any]],
    name: str,
    samples: Sequence[float],
    value: Optional[float] = None,
) -> Dict[str, Any]:
    """One reported metric: ``value`` (default: the median of the
    per-repetition ``samples``) with the samples' quartiles and count."""
    stats = summarize(samples)
    return {
        "value": stats["median"] if value is None else value,
        "unit": declared[name]["unit"],
        "q1": stats["q1"],
        "q3": stats["q3"],
        "n": stats["n"],
    }


class _ByteCounter:
    """Sum ``len(packet.pack())`` over packets the endpoints accept.

    Only the accounting repetition carries it: re-serialising every frame
    is expensive, and the simulation is deterministic, so the total of one
    repetition is the total of all of them.
    """

    def __init__(self) -> None:
        self.wire_bytes = 0
        self.packets = 0

    def _counted(self, receive):
        def counting_receive(packet):
            receive(packet)  # raises when the endpoint rejects the frame
            self.wire_bytes += len(packet.pack())
            self.packets += 1

        return counting_receive

    def install(self, group) -> None:
        for endpoint in group.network.dus + group.network.rus:
            endpoint.receive = self._counted(endpoint.receive)


def _load_expected() -> Dict[str, Any]:
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text())


def check_pinned(outcome: Outcome, quick: bool) -> None:
    """Compare an untraced outcome's exact values with ``expected.json``
    (which pins one seed); mismatches become problems of the outcome."""
    expected = _load_expected()
    if outcome.seed != expected.get("seed"):
        return
    size = "quick" if quick else "full"
    pinned = expected.get(size, {}).get(outcome.workload)
    if pinned is None:
        outcome.problems.append(
            f"expected.json pins no {size} values for {outcome.workload}"
        )
        return
    for key, value in pinned.items():
        if outcome.exact.get(key) != value:
            outcome.problems.append(
                f"{key} {outcome.exact.get(key)!r} != pinned {value!r} "
                f"(seed {outcome.seed})"
            )


def _same(what: str, values: Sequence[Any], problems: List[str]) -> int:
    """Count repetitions whose ``what`` differs from the first one's."""
    mismatches = sum(1 for value in values if value != values[0])
    if mismatches:
        problems.append(f"{what} differs across repetitions: {set(values)}")
    return mismatches


def _slot_ms(rep: Rep, workload: workloads.Workload) -> List[float]:
    """Wall to advance the whole scenario one slot, per slot: the groups'
    ``run_slot`` walls of one slot index summed (inline), or a delta-free
    epoch's wall over its slots (live)."""
    if workload.live:
        epoch_slots = workload.spec.effective_epoch_slots()
        return [ms / epoch_slots for ms in rep.quiet_epoch_ms]
    return [sum(column) for column in zip(*rep.step_ms)]


def _noise_floor(reps: Sequence[Rep], workload: workloads.Workload):
    """One repetition with every timed position (each group's each slot,
    each epoch, each delta apply) at its minimum over the repetitions:
    ``(total seconds, per-slot ms)``.  See :func:`harness.floor_ms`."""
    floor = dataclasses.replace(
        reps[0],
        step_ms=[
            harness.floor_ms([rep.step_ms[row] for rep in reps])
            for row in range(len(reps[0].step_ms))
        ],
        apply_ms=harness.floor_ms([rep.apply_ms for rep in reps]),
    )
    unstepped_s = min(rep.wall_s - rep.stepped_s for rep in reps)
    return floor.stepped_s + unstepped_s, _slot_ms(floor, workload)


def measure_untraced(
    workload: workloads.Workload,
    seed: int,
    seconds: float,
    min_reps: int,
    import_s: List[float],
    import_probe: Callable[[], float],
) -> Outcome:
    """Accounting/warm-up repetition, then fresh-build repetitions with
    tracing off until ``seconds`` have passed (at least ``min_reps``).

    ``import_s`` holds the caller's own import time; ``import_probe()``
    (a fresh interpreter importing the program) adds :data:`IMPORT_PROBES`
    more samples, evenly spaced over the measuring window."""
    problems: List[str] = []
    oracle_spec = workload.final_spec()

    # Inline from-scratch run of the (final) spec: warms every lazy path,
    # counts wire bytes, proves the traffic is live, and — for the live
    # workload — is the digest oracle of the mutated run.
    counter = _ByteCounter()
    accounting = harness.run_inline(oracle_spec, instrument=counter.install)
    try:
        workloads.assert_live(oracle_spec, accounting.result)
    except workloads.DeadTraffic as dead:
        problems.append(f"dead traffic: {dead}")
    if counter.packets != accounting.delivered:
        problems.append(
            f"byte counter saw {counter.packets} packets, reports say "
            f"{accounting.delivered}"
        )

    if workload.live:
        run_one = partial(harness.run_live, workload)
        run_one()  # discarded warm-up of the fork / arena / pool path
    else:
        run_one = partial(harness.run_inline, workload.spec)

    reps: List[Rep] = []
    kernel_s = [calibrate.kernel() for _ in range(KERNEL_CALLS)]
    probes_due = [seconds * i / IMPORT_PROBES for i in range(IMPORT_PROBES)]
    started = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - started < seconds:
        if seconds and probes_due and (
            time.perf_counter() - started >= probes_due[0]
        ):
            probes_due.pop(0)
            import_s.append(import_probe())
        reps.append(run_one())
        reps[-1].result = None  # keep peak RSS independent of the rep count
        kernel_s += [calibrate.kernel() for _ in range(KERNEL_CALLS)]
    host = calibrate.host_factor(kernel_s)

    everything = [accounting] + reps
    mismatches = _same("digest", [rep.digest for rep in everything], problems)
    _same("delivered packets", [rep.delivered for rep in everything], problems)
    _same(
        "processing_ns_total",
        [rep.processing_ns_total for rep in everything], problems,
    )
    rejected = sum(rep.rejected_deltas for rep in reps)
    if rejected:
        problems.append(f"{rejected} deltas of the pinned script rejected")
    diverged = sum(1 for rep in reps if not rep.live_equals_collect)
    if diverged:
        problems.append("live_snapshot() != collect() after the final epoch")
    if workload.live:
        # workers=1 vs workers=2, same script: the sharding contract.
        single = harness.run_live(workload, workers=1)
        if single.digest != reps[0].digest:
            problems.append("live digest differs between 1 and 2 workers")
            mismatches += 1

    cell_slots = len(oracle_spec.cells) * oracle_spec.slots
    exact = {
        "digest": accounting.digest,
        "delivered_packets": accounting.delivered,
        "wire_bytes": counter.wire_bytes,
        "processing_ns_total": accounting.processing_ns_total,
    }

    failed_packets = sum(rep.failed_packets for rep in reps)
    deltas = len(workload.script) * len(reps)
    attempted = (
        sum(rep.delivered for rep in reps) + failed_packets + deltas + len(reps)
    )
    failed = failed_packets + rejected + mismatches + diverged
    if failed_packets:
        problems.append(f"{failed_packets} packets undeliverable/malformed/lost")

    # Reference-host seconds: noise-floor wall over the host factor.
    floor_s, floor_slot_ms = _noise_floor(reps, workload)
    floor_s /= host
    floor_slot_ms = [ms / host for ms in floor_slot_ms]
    metric = partial(_metric, END_TO_END)
    metrics = {
        "cell_slots_per_s": metric(
            "cell_slots_per_s",
            [rep.cell_slots / rep.wall_s for rep in reps],
            value=reps[0].cell_slots / floor_s,
        ),
        "delivered_pkts_per_s": metric(
            "delivered_pkts_per_s",
            [rep.delivered / rep.wall_s for rep in reps],
            value=reps[0].delivered / floor_s,
        ),
        "slot_ms_p50": metric(
            "slot_ms_p50",
            [percentile(_slot_ms(rep, workload), 0.50) for rep in reps],
            value=percentile(floor_slot_ms, 0.50),
        ),
        "slot_ms_p99": metric(
            "slot_ms_p99",
            [percentile(_slot_ms(rep, workload), 0.99) for rep in reps],
            value=percentile(floor_slot_ms, 0.99),
        ),
        "wire_bytes_per_cell_slot": metric(
            "wire_bytes_per_cell_slot", [counter.wire_bytes / cell_slots]
        ),
        # Process start -> ready to run: the fastest import of the program
        # plus the fastest spec -> built (or forked) time.
        "setup_s": metric(
            "setup_s",
            [min(import_s) + rep.setup_s for rep in reps],
            value=(min(import_s) + min(rep.setup_s for rep in reps)) / host,
        ),
        "peak_rss_mb": metric(
            "peak_rss_mb", [harness.peak_rss_mb(children=workload.live)]
        ),
    }
    return Outcome(
        workload=workload.name, seed=seed, traced=False, metrics=metrics,
        attempted=attempted, failed=failed, problems=problems, exact=exact,
        repetitions=len(reps), spec_sha256=workload.spec_sha256(),
        host_factor=host,
    )


def _memo_hit_ratio(before: Dict[str, int], after: Dict[str, int]) -> float:
    hits = sum(after[k] - before[k] for k in ("compress_hits", "parse_hits"))
    misses = sum(
        after[k] - before[k] for k in ("compress_misses", "parse_misses")
    )
    return hits / (hits + misses) if hits + misses else 0.0


def _epoch_sums_ms(rep: Rep, epoch_slots: int) -> List[float]:
    """An inline repetition's ``run_slot`` walls summed epoch by epoch."""
    return [
        sum(sum(row[start:start + epoch_slots]) for row in rep.step_ms)
        for start in range(0, len(rep.step_ms[0]), epoch_slots)
    ]


def _live_layer_metrics(
    workload: workloads.Workload, live: Rep, observed: Rep
) -> Dict[str, float]:
    """The ``scale`` / ``serve`` metrics of one scripted ``LiveRun``
    (timed from outside, no proxies).  ``scale.epoch_overhead_ms`` sets a
    delta-free epoch of an unscripted 1-worker pool against the inline
    ``run_slot`` walls of the same slots (``observed``, same obs config)."""
    epoch_slots = workload.spec.effective_epoch_slots()
    single = harness.run_live(
        workload, workers=1, scripted=False, max_epochs=8
    )
    replays = [
        (ms, applied["replayed_slots"])
        for ms, applied in zip(live.apply_ms, live.applied)
        if applied["replayed_slots"]
    ]
    transport = live.result.transport
    return {
        "scale.fork_ms_per_worker": live.setup_s * 1e3 / workload.live_workers,
        "scale.epoch_ms_p50": percentile(live.quiet_epoch_ms, 0.5),
        "scale.epoch_overhead_ms": (
            percentile(single.quiet_epoch_ms, 0.5)
            - percentile(_epoch_sums_ms(observed, epoch_slots), 0.5)
        ),
        "scale.barrier_share": sum(live.step_ms[0]) / 1e3 / live.wall_s,
        "scale.arena_bytes_per_epoch": (
            transport["arena_bytes"] / transport["epochs"]
        ),
        "scale.pipe_fallbacks": transport["pipe_fallback_payloads"],
        "serve.delta_apply_ms_p50": percentile(live.apply_ms, 0.5),
        "serve.apply_us_per_replayed_slot": (
            sum(ms for ms, _ in replays) * 1e3
            / sum(slots for _, slots in replays)
        ),
        "serve.apply_share": sum(live.apply_ms) / 1e3 / live.wall_s,
        "serve.rebuilt_groups_per_delta": statistics.mean(
            len(applied["rebuilt"]) for applied in live.applied
        ),
    }


def measure_traced(
    workload: workloads.Workload,
    seed: int,
    seconds: float,
    min_rounds: int,
) -> Outcome:
    """Rounds of (untraced, traced, obs-on) inline repetitions of the
    workload's (final) spec — plus, for the live workload, one scripted
    ``LiveRun`` and one unscripted 1-worker ``LiveRun`` per round — until
    ``seconds`` have passed (``min_rounds`` >= 1).  Per-layer values are
    medians over rounds."""
    problems: List[str] = []
    base = workload.final_spec()
    spec_off = dataclasses.replace(base, obs=ObsSpec())
    spec_on = (
        base if base.obs.enabled
        else dataclasses.replace(base, obs=ObsSpec(enabled=True))
    )

    samples: Dict[str, List[float]] = defaultdict(list)
    attempted = failed = rounds = 0
    started = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - started < seconds:
        rounds += 1
        plain = harness.run_inline(spec_off)
        tracer = trace.Tracer()
        memo_before = codec_memo_stats()
        traced = harness.run_inline(
            spec_off, instrument=partial(trace.install, tracer)
        )
        memo_after = codec_memo_stats()
        stream_s: Dict[str, List[float]] = defaultdict(list)
        with trace.stream_probes(stream_s):
            observed = harness.run_inline(spec_on)

        reps = [plain, traced, observed]
        for rep in reps[1:]:
            if (rep.digest, rep.counts) != (plain.digest, plain.counts):
                problems.append("traced/observed digest or packet counts "
                                "differ from the untraced repetition")
                failed += 1
        attempted += sum(rep.delivered + rep.failed_packets for rep in reps)
        failed += sum(rep.failed_packets for rep in reps)

        layer = trace.datapath_metrics(tracer)
        layer.update(trace.app_metrics(observed.result.metrics().snapshot()))
        epochs = max(len(stream_s["fold"]), 1)
        layer.update({
            "fronthaul.codec_memo_hit_ratio": _memo_hit_ratio(
                memo_before, memo_after
            ),
            "sim.engine.us_per_event": (
                (plain.wall_s - plain.stepped_s) * 1e6 / plain.events
            ),
            "scale.build_ms_per_cell": plain.setup_s * 1e3 / len(base.cells),
            "obs.stream.payload_ms_per_epoch": (
                sum(stream_s["payload"]) * 1e3 / epochs
            ),
            "obs.stream.fold_us_per_epoch": (
                statistics.median(stream_s["fold"]) * 1e6
                if stream_s["fold"] else 0.0
            ),
            "obs.enabled_overhead_ratio": observed.wall_s / plain.wall_s,
            "trace.overhead_ratio": traced.wall_s / plain.wall_s,
        })

        if workload.live:
            live = harness.run_live(workload)
            if live.digest != plain.digest:
                problems.append("live digest differs from the inline oracle")
                failed += 1
            attempted += live.delivered + len(workload.script)
            failed += live.failed_packets + live.rejected_deltas
            layer.update(_live_layer_metrics(workload, live, observed))
        for name, value in layer.items():
            samples[name].append(value)

    # Kernels run once, on packets the last traced repetition captured.
    captured = tracer.captured["dl"] + tracer.captured["ul"]
    for name, value in trace.fronthaul_kernels(captured).items():
        samples[name].append(value)
    if workload.live:
        kernels = trace.serve_kernels(
            workload.spec, workload.script, workload.live_workers
        )
        for name, value in kernels.items():
            samples[name].append(value)

    # Layers a workload does not cross report 0: no app of that kind in
    # the chain, no pool / stream / control plane on an inline workload.
    metrics = {
        name: _metric(PER_LAYER, name, samples.get(name) or [0.0])
        for name in PER_LAYER
    }
    unknown = set(samples) - set(PER_LAYER)
    if unknown:
        problems.append(f"undeclared per-layer metrics: {sorted(unknown)}")
    return Outcome(
        workload=workload.name, seed=seed, traced=True, metrics=metrics,
        attempted=max(attempted, 1), failed=failed, problems=problems,
        repetitions=rounds, spec_sha256=workload.spec_sha256(),
        tracer=tracer,
    )


# -- reporting ----------------------------------------------------------------


def format_outcome(outcome: Outcome) -> str:
    """Every metric by name with unit, value, quartiles and sample count."""
    kind = "per-layer (traced)" if outcome.traced else "end-to-end"
    lines = [
        f"== {outcome.workload} · {kind} · seed {outcome.seed} · "
        f"{outcome.repetitions} repetitions · spec {outcome.spec_sha256[:12]}",
        f"{'metric':<38}{'unit':>7}{'value':>14}{'q1':>14}{'q3':>14}{'n':>7}",
    ]
    for name, entry in outcome.metrics.items():
        lines.append(
            f"{name:<38}{entry['unit']:>7}{entry['value']:>14.4f}"
            f"{entry['q1']:>14.4f}{entry['q3']:>14.4f}{entry['n']:>7}"
        )
    if not outcome.traced:
        rate = outcome.metrics["cell_slots_per_s"]["value"]
        lines.append(
            f"real-time factor {rate * harness.SLOT_SECONDS:.4f} "
            f"(cell_slots_per_s x {harness.SLOT_SECONDS * 1e3:g} ms slot)"
        )
        lines.append(
            f"host factor {outcome.host_factor:.4f} (calibration kernel vs "
            f"{calibrate.REFERENCE_S * 1e3:g} ms reference; wall-clock values "
            "are raw wall / factor; q1/q3 are raw per-repetition)"
        )
        lines.append(f"exact: {json.dumps(outcome.exact, sort_keys=True)}")
    lines.append(
        f"failed_share {outcome.failed_share:.6f} "
        f"({outcome.failed} failed / {outcome.attempted} attempted)"
    )
    for problem in outcome.problems:
        lines.append(f"PROBLEM: {problem}")
    return "\n".join(lines)


def contract_line(outcome: Outcome) -> str:
    """The one JSON object the benchmark contract wants on the last line."""
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in outcome.metrics.items()
            },
        }
    )


def write_result(
    path: str, manifest: Dict[str, Any], outcomes: Sequence[Outcome]
) -> None:
    """The suite result ``compare.py`` reads — per workload, one entry per
    run under ``end_to_end`` / ``per_layer`` — and, beside it, the spans
    of each workload's last traced repetition."""
    result: Dict[str, Any] = {"manifest": manifest, "workloads": {}}
    tracers: Dict[str, trace.Tracer] = {}
    for outcome in outcomes:
        entry = result["workloads"].setdefault(outcome.workload, {})
        kind = "per_layer" if outcome.traced else "end_to_end"
        entry.setdefault(kind, []).append(outcome.to_dict())
        if outcome.tracer is not None:
            tracers[outcome.workload] = outcome.tracer
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(f"{path}.spans.jsonl", "w", encoding="utf-8") as handle:
        for workload, tracer in tracers.items():
            tracer.write(handle, workload)


def update_expected(
    outcomes: Sequence[Outcome], seed: int, quick: bool
) -> None:
    """Pin this run's exact values (digest, packets, bytes, modelled ns)."""
    expected = _load_expected()
    if expected.get("seed") != seed:
        expected = {"seed": seed}
    size = expected.setdefault("quick" if quick else "full", {})
    for outcome in outcomes:
        if not outcome.traced:
            size[outcome.workload] = outcome.exact
    EXPECTED_PATH.write_text(
        json.dumps(expected, indent=2, sort_keys=True) + "\n"
    )

"""Observability overhead: the disabled flight recorder must be ~free.

A scenario-level bench on the 8-cell run with the whole plane available
(metrics, sampled spans, deadline accounts, conformance, SLOs).  Two
floors: an ObsSpec present but disabled must be ~1.0x the no-obs run,
and *enabling streaming* — the per-epoch drain/snapshot/ship/fold —
must stay under 1.25x the same plane collected once at the end of the
run.  One ceiling: the full plane itself, collected or streamed, must
stay under 1.40x the no-obs run.  The pinned benchmark reports that
cost per workload as ``obs.enabled_overhead_ratio`` (``bench/``).
"""

import dataclasses
import gc
import statistics
import time

from repro.eval.scale import bench_spec
from repro.obs.slo import default_slos
from repro.scale import Scenario
from repro.scale.spec import ObsSpec

STREAM_SLOTS = 16
STREAM_EPOCH_SLOTS = 4
STREAM_ROUNDS = 9
#: Re-measure up to this many times before declaring the floor broken.
#: A genuinely-over-budget telemetry plane fails every attempt; a noisy
#: neighbour on a shared host does not.
STREAM_ATTEMPTS = 3
#: What *enabling streaming* may cost: the full plane (metrics, spans,
#: deadline accounts, conformance, SLOs) with per-epoch shipping and
#: live folding on, against the identical plane collected only at the
#: end of the run.  This floor pins what the streaming layer adds —
#: drain/snapshot/fold every epoch — not the cost of the plane itself.
MAX_STREAMING_RATIO = 1.25
#: An ObsSpec present but disabled: the epoch grid still runs, the
#: telemetry plane does nothing.  "~1.0x" with a noise allowance.
MAX_DISABLED_SCENARIO_RATIO = 1.15
#: What the full plane may cost against the no-obs run: 1.25-1.30x
#: measured (collect-at-end and streaming; 2-vCPU host, median of 9
#: paired rounds) with one validator call per ingress burst and per-burst
#: stage accounting, plus 0.10 for noise.  The per-packet validator that
#: packed every downlink pass read 1.41-1.53x here.
MAX_ENABLED_SCENARIO_RATIO = 1.40


def _measure_scenario_ratios(specs) -> tuple:
    """One measurement attempt: per-spec CPU ms + overhead ratios.

    CPU time (``process_time``) rather than wall time: these runs are
    single-process and CPU-bound, so scheduler interference from a busy
    host inflates wall clocks without touching the quantity the floor is
    about.  Each round runs every spec back-to-back (ABCABC... rather
    than AAABBBCCC) and contributes one *paired* ratio against the
    baseline spec, so machine drift — frequency scaling, a neighbour
    waking up — hits both sides of each ratio roughly equally; the
    median over rounds then discards the rounds it hit anyway.

    Returns ``(median ms per spec, ratio-vs-spec[0] per spec)``.
    """
    for spec in specs:  # warm up (imports, allocator)
        Scenario(spec).run(workers=1)
    rounds = []
    for _ in range(STREAM_ROUNDS):
        row = []
        for spec in specs:
            gc.collect()  # every spec starts from the same heap state
            start = time.process_time()
            Scenario(spec).run(workers=1)
            row.append(time.process_time() - start)
        rounds.append(row)
    medians = [
        statistics.median(row[i] for row in rounds) for i in range(len(specs))
    ]
    ratios = [
        statistics.median(row[i] / row[0] for row in rounds)
        for i in range(len(specs))
    ]
    return medians, ratios


def test_streaming_telemetry_scenario_overhead():
    baseline_spec = dataclasses.replace(
        bench_spec(STREAM_SLOTS),
        name="obs-overhead-baseline",
        epoch_slots=STREAM_EPOCH_SLOTS,
    )
    disabled_spec = dataclasses.replace(
        baseline_spec,
        name="obs-overhead-disabled",
        obs=ObsSpec(enabled=False, stream=True),
    )
    plane = dict(
        enabled=True,
        deadline_accounting=True,
        conformance=True,
        slo=tuple(spec.to_dict() for spec in default_slos()),
    )
    collected_spec = dataclasses.replace(
        baseline_spec,
        name="obs-overhead-collected",
        obs=ObsSpec(stream=False, **plane),
    )
    streaming_spec = dataclasses.replace(
        baseline_spec,
        name="obs-overhead-streaming",
        obs=ObsSpec(stream=True, **plane),
    )
    specs = [baseline_spec, disabled_spec, collected_spec, streaming_spec]
    best = None
    for attempt in range(1, STREAM_ATTEMPTS + 1):
        medians, ratios = _measure_scenario_ratios(specs)
        streaming_ratio = ratios[3] / ratios[2]
        if best is None or streaming_ratio < best[2]:
            best = (medians, ratios, streaming_ratio, attempt)
        if ratios[1] < MAX_DISABLED_SCENARIO_RATIO and (
            streaming_ratio < MAX_STREAMING_RATIO
        ) and max(ratios[2:]) < MAX_ENABLED_SCENARIO_RATIO:
            best = (medians, ratios, streaming_ratio, attempt)
            break
    medians, ratios, streaming_ratio, attempt = best
    disabled_ratio = ratios[1]
    baseline_s, disabled_s, collected_s, streaming_s = medians
    print(
        "\n".join(
            [
                "streaming telemetry overhead (8-cell scenario, "
                f"{STREAM_SLOTS} slots, median of {STREAM_ROUNDS} paired "
                "rounds)",
                f"  no obs                      {baseline_s * 1e3:8.1f} ms",
                f"  obs present, disabled       {disabled_s * 1e3:8.1f} ms"
                f"  ({disabled_ratio:.2f}x)",
                f"  full plane, collect at end  {collected_s * 1e3:8.1f} ms"
                f"  ({ratios[2]:.2f}x)",
                f"  full plane, streaming       {streaming_s * 1e3:8.1f} ms"
                f"  ({ratios[3]:.2f}x; {streaming_ratio:.2f}x the "
                "collect-at-end plane)",
            ]
        ),
    )
    assert disabled_ratio < MAX_DISABLED_SCENARIO_RATIO, (
        f"disabled telemetry plane costs {disabled_ratio:.2f}x the no-obs "
        f"run (allowed < {MAX_DISABLED_SCENARIO_RATIO}x) in each of "
        f"{attempt} attempts"
    )
    assert max(ratios[2:]) < MAX_ENABLED_SCENARIO_RATIO, (
        f"the full telemetry plane costs {max(ratios[2:]):.2f}x the no-obs "
        f"run (allowed < {MAX_ENABLED_SCENARIO_RATIO}x) in each of "
        f"{attempt} attempts"
    )
    assert streaming_ratio < MAX_STREAMING_RATIO, (
        f"enabling per-epoch streaming costs {streaming_ratio:.2f}x the "
        f"collect-at-end plane (allowed < {MAX_STREAMING_RATIO}x) in each "
        f"of {attempt} attempts"
    )

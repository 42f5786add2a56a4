#!/usr/bin/env python3
"""Real-time PRB utilization monitoring (Section 4.4, Figure 10c).

Ramps offered load on a 100 MHz cell while the PRB monitoring middlebox
estimates utilization from BFP exponents at sub-millisecond granularity,
then renders the telemetry timeline as an ASCII dashboard next to the
scheduler's ground truth — the kind of feed an energy-saving or load-
balancing application would consume.

The run is instrumented with the flight recorder (:mod:`repro.obs`): the
final section renders the live counter/gauge table from the exposition
module, exactly what a scraper would read off ``/metrics``.

Run:  python examples/prb_dashboard.py
"""

from repro.api import Scenario
from repro.fronthaul.cplane import Direction
from repro.obs import render_dashboard
from repro.ran.traffic import ConstantBitrateFlow

RAMP = [(0.0, 20), (150.0, 20), (400.0, 20), (700.0, 20), (100.0, 20)]
BAR_WIDTH = 40

#: One 100 MHz single-antenna cell behind a PRB monitor, its UE attached
#: with no traffic (the ramp below sets it), and the flight recorder
#: armed: metrics + 1-in-16 sampled spans.
SPEC = {
    "name": "prb-dashboard",
    "slots": sum(n_slots for _, n_slots in RAMP),
    "seed": 3,
    "cells": [{
        "name": "cell", "pci": 9, "bandwidth_hz": 100_000_000,
        "n_antennas": 1, "max_dl_layers": 1, "seed": 3,
        "rus": [{"name": "ru", "n_antennas": 1}],
        "ues": [{"ue_id": "ue", "dl_layers": 4, "dl_aggregate_se": 16.0,
                 "ul_se": 3.0}],
        "chain": [{"stage": "prb_monitor"}],
    }],
    "obs": {"enabled": True, "sample_every": 16},
}


def main() -> None:
    (group,) = Scenario.from_dict(SPEC).build()
    cell, (monitor,), obs = group.cells[0], group.middleboxes, group.obs
    du = cell.du

    print("PRB utilization dashboard (100 MHz cell, 10 ms per ramp step)")
    print(f"{'offered':>8}  {'monitor':>8}  {'truth':>6}  timeline")
    # Each window reads the deltas of running counts: the monitor's DL
    # fold and the scheduler's per-direction ground truth.
    folded = monitor.folds[Direction.DOWNLINK]
    scheduler = du.scheduler
    for rate_mbps, n_slots in RAMP:
        du.flows.clear()
        if rate_mbps > 0:
            du.attach_flow("ue", ConstantBitrateFlow(rate_mbps, "dl"),
                           Direction.DOWNLINK)
        slots_before = scheduler.scheduled_slots[Direction.DOWNLINK]
        truth_before = scheduler.utilization_sum[Direction.DOWNLINK]
        utilized_before = folded.utilized_prbs
        group.network.run(n_slots)
        dl_slots = scheduler.scheduled_slots[Direction.DOWNLINK] - slots_before
        truth_sum = scheduler.utilization_sum[Direction.DOWNLINK] - truth_before
        truth = truth_sum / dl_slots if dl_slots else 0.0
        utilized = folded.utilized_prbs - utilized_before
        estimate = utilized / folded.num_prb / max(dl_slots, 1)
        bar = "#" * int(estimate * BAR_WIDTH)
        print(f"{rate_mbps:7.0f}M  {estimate:8.1%}  {truth:6.1%}  |{bar}")

    # The feed a RIC application reads: one estimate per monitored
    # symbol, both directions, over the run's wall-clock span.
    print()
    samples = sum(fold.samples for fold in monitor.folds.values())
    span_s = SPEC["slots"] * cell.config.numerology.slot_duration_ns / 1e9
    print(f"Telemetry feed: {samples} estimates, "
          f"{samples / span_s:,.0f} samples/s (sub-millisecond granularity)")

    # The operator view: live counters/gauges from the metrics registry.
    print()
    print(render_dashboard(obs.registry, title="prb monitor observability"))
    print(f"flight recorder: {len(obs.recorder)} spans retained "
          f"(1-in-{obs.sample_every} sampling), {obs.recorder.evicted} evicted")


if __name__ == "__main__":
    main()

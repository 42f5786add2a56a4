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
from repro.apps.prb_monitor import TELEMETRY_TOPIC
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
    du, (monitor,), obs = group.cells[0].du, group.middleboxes, group.obs

    # Subscribe to the telemetry feed like a RIC application would.
    live_samples = []

    def on_sample(record) -> None:
        live_samples.append((record.timestamp_ns, record.payload.utilization))

    monitor.telemetry.subscribe(TELEMETRY_TOPIC, on_sample)

    print("PRB utilization dashboard (100 MHz cell, 10 ms per ramp step)")
    print(f"{'offered':>8}  {'monitor':>8}  {'truth':>6}  timeline")
    for rate_mbps, n_slots in RAMP:
        du.flows.clear()
        if rate_mbps > 0:
            du.attach_flow("ue", ConstantBitrateFlow(rate_mbps, "dl"),
                           Direction.DOWNLINK)
        log_start = len(du.scheduler.mac_log)
        estimate_start = len(monitor.estimates)
        group.network.run(n_slots)
        window = [
            e.utilization
            for e in monitor.estimates[estimate_start:]
            if e.direction is Direction.DOWNLINK
        ]
        dl_logs = [
            entry.utilization
            for entry in du.scheduler.mac_log[log_start:]
            if entry.direction is Direction.DOWNLINK
        ]
        truth = sum(dl_logs) / len(dl_logs) if dl_logs else 0.0
        estimate = sum(window) / max(len(dl_logs), 1)
        bar = "#" * int(estimate * BAR_WIDTH)
        print(f"{rate_mbps:7.0f}M  {estimate:8.1%}  {truth:6.1%}  |{bar}")

    # Detach like a well-behaved RIC app (no leaked callbacks on reuse).
    monitor.telemetry.unsubscribe(TELEMETRY_TOPIC, on_sample)

    # An app that joins late reads the same feed from the bus's history.
    retained = monitor.telemetry.history(TELEMETRY_TOPIC)
    print()
    first, last = live_samples[0][0], live_samples[-1][0]
    rate = len(live_samples) / ((last - first) / 1e9) if last > first else 0
    print(f"Telemetry feed: {len(live_samples)} samples pushed, "
          f"{len(retained)} retained for late joiners, "
          f"{rate:,.0f} samples/s (sub-millisecond granularity)")

    # The operator view: live counters/gauges from the metrics registry.
    print()
    print(render_dashboard(obs.registry, title="prb monitor observability"))
    print(f"flight recorder: {len(obs.recorder)} spans retained "
          f"(1-in-{obs.sample_every} sampling), {obs.recorder.evicted} evicted")


if __name__ == "__main__":
    main()

"""Chaos evaluation: graceful degradation under deterministic faults.

Three measurements, all driven by the seeded fault injector
(:mod:`repro.faults`) so a fixed seed reproduces identical numbers:

1. **Merge completeness and goodput vs loss rate** — a DAS deployment
   (1 DU, 2 RUs, partial merge + deadline flush on) under i.i.d. loss
   sweeps, a Gilbert–Elliott bursty episode, and corruption/truncation.
2. **Full chaos chain** — resilience ⊕ DAS ⊕ RU-sharing ⊕ a
   scheduled-throwing middlebox, under 1% i.i.d. loss, a bursty-loss
   episode, and 0.1% corruption, with the primary DU silenced mid-run.
   Asserts zero uncaught exceptions, exact circuit-breaker behavior, and
   that every absorbed fault is accounted in the obs counters.
3. **Failover-time CDF** — :class:`ResilienceMiddlebox` detection delay
   under injected DU silence across trials with varying failure phase.

Run via ``PYTHONPATH=src python -m repro.eval chaos``; shrink with
``--slots`` for CI smoke runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.das import DasMiddlebox
from repro.apps.resilience import ResilienceMiddlebox
from repro.apps.ru_sharing import RuSharingMiddlebox, SharedDuConfig
from repro.eval.report import format_table
from repro.faults import (
    FaultConfig,
    FaultInjector,
    FaultScope,
    FaultyMiddlebox,
    GilbertElliottConfig,
    ImpairedLink,
)
from repro.fronthaul.cplane import Direction
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.timing import SymbolTime
from repro.net.link import Link
from repro.obs import Observability
from repro.obs.sketch import QuantileSketch
from repro.ran.cell import CellConfig
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.traffic import ConstantBitrateFlow
from repro.sim.network_sim import FronthaulNetwork

DEFAULT_SLOTS = 24
#: Chain-scenario fault schedule: exactly threshold consecutive faults.
BREAKER_THRESHOLD = 5
BREAKER_PROBATION = 6
FAULTY_RANGE = (20, 20 + BREAKER_THRESHOLD)
#: The SLO the seeded burn-rate scenario must fire, by name.
SLO_ALERT_NAME = "deadline-miss-burn"
#: Starved per-slot budget (ns): any slot carrying traffic misses it.
SLO_STARVED_BUDGET_NS = 100.0


def _cell() -> CellConfig:
    return CellConfig(
        pci=1, bandwidth_hz=40_000_000, n_antennas=2, max_dl_layers=2
    )


def _make_du(du_id: int, cell: CellConfig, seed: int) -> DistributedUnit:
    du = DistributedUnit(
        du_id=du_id, cell=cell, symbols_per_slot=1, seed=seed
    )
    du.scheduler.add_ue("ue", dl_layers=2)
    du.scheduler.update_ue_quality("ue", dl_aggregate_se=10.0, ul_se=3.0)
    du.attach_flow("ue", ConstantBitrateFlow(100, "dl"), Direction.DOWNLINK)
    du.attach_flow("ue", ConstantBitrateFlow(20, "ul"), Direction.UPLINK)
    return du


@dataclass
class ScenarioRow:
    """One loss-sweep scenario outcome."""

    name: str
    offered: int
    wire_absorbed: int
    full_merges: int
    degraded_merges: int
    abandoned: int
    ul_delivered: int
    malformed: int

    @property
    def completeness_pct(self) -> float:
        total = self.full_merges + self.degraded_merges + self.abandoned
        if total == 0:
            return 0.0
        return 100.0 * (self.full_merges + self.degraded_merges) / total


@dataclass
class ChainOutcome:
    """The full DAS + RU-sharing + resilience chain under chaos."""

    slots: int
    wire_absorbed: int
    wire_events: int
    stage_faults: int
    stage_bypassed: int
    breaker_opens: int
    breaker_recoveries: int
    full_merges: int
    degraded_merges: int
    abandoned_merges: int
    malformed: int
    ul_delivered: int
    failovers: int
    accounting: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    @property
    def accounting_ok(self) -> bool:
        return all(a == b for a, b in self.accounting.values())


@dataclass
class SloChaosOutcome:
    """A seeded streamed run engineered to burn its deadline SLO budget."""

    epochs: int
    deadline_checks: int
    deadline_misses: int
    #: Every burn-rate alert edge the run's SLO engine emitted, in order.
    alerts: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def fired(self) -> List[str]:
        return [a["slo"] for a in self.alerts if a["state"] == "firing"]

    def edge_fingerprint(self) -> Tuple:
        return tuple(
            (a["slo"], a["state"], a["epoch"]) for a in self.alerts
        )


@dataclass
class ChaosResult:
    seed: int
    slots: int
    scenarios: List[ScenarioRow]
    chain: ChainOutcome
    failover_ms: List[float]
    slo: Optional[SloChaosOutcome] = None

    def fingerprint(self) -> Tuple:
        """Stable value equality across runs at the same seed."""
        return (
            self.seed,
            self.slots,
            tuple(
                (
                    row.name, row.offered, row.wire_absorbed,
                    row.full_merges, row.degraded_merges, row.abandoned,
                    row.ul_delivered, row.malformed,
                )
                for row in self.scenarios
            ),
            (
                self.chain.wire_absorbed, self.chain.wire_events,
                self.chain.stage_faults, self.chain.stage_bypassed,
                self.chain.breaker_opens, self.chain.breaker_recoveries,
                self.chain.full_merges, self.chain.degraded_merges,
                self.chain.abandoned_merges, self.chain.malformed,
                self.chain.ul_delivered, self.chain.failovers,
            ),
            tuple(self.failover_ms),
            (
                self.slo.edge_fingerprint()
                if self.slo is not None
                else ()
            ),
        )

    def assert_healthy(self) -> None:
        """The CI smoke gate: chaos was injected, absorbed, and accounted."""
        absorbed = sum(row.wire_absorbed for row in self.scenarios)
        if absorbed == 0:
            raise AssertionError("loss sweep absorbed no faults")
        if self.chain.wire_absorbed == 0:
            raise AssertionError("chain scenario absorbed no wire faults")
        if self.chain.stage_faults != FAULTY_RANGE[1] - FAULTY_RANGE[0]:
            raise AssertionError(
                f"expected {FAULTY_RANGE[1] - FAULTY_RANGE[0]} stage faults,"
                f" got {self.chain.stage_faults}"
            )
        if self.chain.breaker_opens != 1 or self.chain.breaker_recoveries != 1:
            raise AssertionError(
                "breaker did not open and recover exactly once: "
                f"opens={self.chain.breaker_opens} "
                f"recoveries={self.chain.breaker_recoveries}"
            )
        if self.chain.stage_bypassed != BREAKER_PROBATION:
            raise AssertionError(
                f"expected {BREAKER_PROBATION} bypassed packets, "
                f"got {self.chain.stage_bypassed}"
            )
        if not self.chain.accounting_ok:
            mismatches = {
                key: pair
                for key, pair in self.chain.accounting.items()
                if pair[0] != pair[1]
            }
            raise AssertionError(f"obs accounting mismatch: {mismatches}")
        if self.chain.failovers != 1:
            raise AssertionError(
                f"expected exactly one failover, got {self.chain.failovers}"
            )
        if not self.failover_ms:
            raise AssertionError("no failover trials produced an event")
        if self.slo is not None:
            if SLO_ALERT_NAME not in self.slo.fired:
                raise AssertionError(
                    f"seeded SLO chaos run did not fire {SLO_ALERT_NAME!r}; "
                    f"edges: {self.slo.alerts}"
                )
            if any(a["state"] == "resolved" for a in self.slo.alerts):
                raise AssertionError(
                    "deadline burn never recovers in this scenario, yet "
                    f"a resolved edge appeared: {self.slo.alerts}"
                )

    def format(self) -> str:
        sweep = format_table(
            f"Chaos sweep: DAS merge completeness vs loss "
            f"(seed={self.seed}, {self.slots} slots)",
            [
                "scenario", "offered", "absorbed", "full", "degraded",
                "abandoned", "complete%", "ul-delivered", "malformed",
            ],
            [
                (
                    row.name, row.offered, row.wire_absorbed,
                    row.full_merges, row.degraded_merges, row.abandoned,
                    row.completeness_pct, row.ul_delivered, row.malformed,
                )
                for row in self.scenarios
            ],
        )
        c = self.chain
        chain_table = format_table(
            "Chaos chain: resilience + DAS + RU-sharing + faulty stage",
            ["metric", "value"],
            [
                ("wire absorbed / events", f"{c.wire_absorbed}/{c.wire_events}"),
                ("stage faults (isolated)", c.stage_faults),
                ("breaker opens/recoveries",
                 f"{c.breaker_opens}/{c.breaker_recoveries}"),
                ("packets bypassed while open", c.stage_bypassed),
                ("merges full/degraded/abandoned",
                 f"{c.full_merges}/{c.degraded_merges}/{c.abandoned_merges}"),
                ("malformed contained", c.malformed),
                ("uplink packets delivered", c.ul_delivered),
                ("failovers", c.failovers),
                ("obs accounting", "ok" if c.accounting_ok else "MISMATCH"),
            ],
        )
        cdf = format_table(
            "Failover detection time CDF (injected DU silence)",
            ["percentile", "ms"],
            [
                (label, _percentile(self.failover_ms, q))
                for label, q in (
                    ("p0", 0.0), ("p25", 0.25), ("p50", 0.5),
                    ("p75", 0.75), ("p100", 1.0),
                )
            ],
        )
        blocks = [sweep, chain_table, cdf]
        if self.slo is not None:
            blocks.append(
                format_table(
                    "SLO burn-rate chaos: starved deadline budget "
                    f"({self.slo.epochs} stream epochs)",
                    ["edge", "slo", "epoch", "burn"],
                    [
                        (
                            alert["state"], alert["slo"], alert["epoch"],
                            f"{alert['burn_rate']:.1f}x",
                        )
                        for alert in self.slo.alerts
                    ]
                    or [("(none)", "-", "-", "-")],
                )
            )
        return "\n\n".join(blocks)


def _percentile(values: List[float], q: float) -> float:
    """Sketch-backed quantile (q in [0, 1]) — the streaming plane's own
    estimator (:class:`~repro.obs.sketch.QuantileSketch`), so CDFs here
    and in the live dashboard agree.  Exact at q=0 and q=1."""
    if not values:
        return float("nan")
    sketch = QuantileSketch()
    for value in values:
        sketch.observe(value)
    return sketch.quantile(q)


# -- scenario 1: loss sweep over a DAS deployment --------------------------


def _loss_scenarios() -> List[Tuple[str, Optional[FaultConfig]]]:
    uplink = FaultScope(direction=Direction.UPLINK)
    return [
        ("baseline", None),
        ("iid-1%", FaultConfig(loss_rate=0.01, scope=uplink)),
        ("iid-5%", FaultConfig(loss_rate=0.05, scope=uplink)),
        ("iid-20%", FaultConfig(loss_rate=0.20, scope=uplink)),
        (
            "ge-burst",
            FaultConfig(
                burst=GilbertElliottConfig(
                    p_enter_burst=0.05, p_exit_burst=0.30, loss_burst=0.9
                ),
                scope=uplink,
            ),
        ),
        (
            "corrupt-2%",
            FaultConfig(corrupt_rate=0.02, corrupt_bits=4, truncate_rate=0.01),
        ),
    ]


def _run_sweep_scenario(
    name: str, config: Optional[FaultConfig], seed: int, slots: int
) -> ScenarioRow:
    cell = _cell()
    du = _make_du(1, cell, seed)
    rus = [
        RadioUnit(
            ru_id=i,
            config=RuConfig(num_prb=cell.num_prb, n_antennas=2),
            du_mac=du.mac,
            seed=seed,
        )
        for i in range(2)
    ]
    das = DasMiddlebox(
        du_mac=du.mac,
        ru_macs=[ru.mac for ru in rus],
        partial_merge=True,
    )
    wire = None
    injector = None
    if config is not None:
        injector = FaultInjector(
            config, seed=seed, name=f"sweep-{name}",
            carrier_num_prb=cell.num_prb,
        )
        wire = ImpairedLink(injector)
    network = FronthaulNetwork(
        middleboxes=[das], wire=wire, deadline_flush=True
    )
    network.add_du(du)
    for ru in rus:
        network.add_ru(ru)
    reports = network.run(slots)
    return ScenarioRow(
        name=name,
        offered=injector.stats.offered if injector else 0,
        wire_absorbed=injector.stats.absorbed if injector else 0,
        full_merges=das.merged_uplink_symbols,
        degraded_merges=das.degraded_merges,
        abandoned=das.missed_merge_deadlines,
        ul_delivered=du.counters.ul_packets + du.counters.prach_detections,
        malformed=sum(r.malformed for r in reports),
    )


# -- scenario 2: the full chaos chain --------------------------------------


def _run_chain_chaos(seed: int, slots: int) -> ChainOutcome:
    obs = Observability(enabled=True, sample_every=1 << 30)
    cell = _cell()
    numerology = cell.numerology
    primary = _make_du(1, cell, seed + 1)
    standby = _make_du(2, cell, seed + 2)
    ru = RadioUnit(
        ru_id=1,
        config=RuConfig(num_prb=cell.num_prb, n_antennas=2),
        seed=seed,
    )
    grid = cell.grid
    das_mac = MacAddress.from_int(0x02_00_00_00_40_01)
    sharing_mac = MacAddress.from_int(0x02_00_00_00_40_02)
    resilience_mac = MacAddress.from_int(0x02_00_00_00_40_03)
    resilience = ResilienceMiddlebox(
        primary_du=primary.mac,
        standby_du=standby.mac,
        ru_mac=das_mac,
        silence_threshold_ns=2 * numerology.slot_duration_ns,
        mac=resilience_mac,
        obs=obs,
    )
    das = DasMiddlebox(
        du_mac=resilience_mac,
        ru_macs=[sharing_mac],
        mac=das_mac,
        partial_merge=True,
        obs=obs,
    )
    sharing = RuSharingMiddlebox(
        ru_mac=ru.mac,
        ru_grid=grid,
        dus=[SharedDuConfig(du_id=1, mac=das_mac, grid=grid)],
        mac=sharing_mac,
        obs=obs,
    )
    faulty = FaultyMiddlebox(fail_range=FAULTY_RANGE, obs=obs)
    ru.du_mac = sharing_mac

    injector = FaultInjector(
        FaultConfig(
            loss_rate=0.01,
            burst=GilbertElliottConfig(
                p_enter_burst=0.02, p_exit_burst=0.35, loss_burst=0.9
            ),
            corrupt_rate=0.001,
            corrupt_bits=3,
        ),
        seed=seed,
        name="chaos-wire",
        carrier_num_prb=cell.num_prb,
        obs=obs,
    )
    fail_slot = slots // 2
    injector.silence(
        primary.mac,
        SymbolTime.from_absolute_slot(fail_slot, numerology).slot_key(),
    )
    network = FronthaulNetwork(
        middleboxes=[resilience, das, sharing, faulty],
        wire=ImpairedLink(injector, link=Link(name="chaos-wire-link", obs=obs)),
        deadline_flush=True,
        breaker_threshold=BREAKER_THRESHOLD,
        breaker_probation=BREAKER_PROBATION,
        obs=obs,
    )
    network.add_du(primary)
    network.add_du(standby)
    network.add_ru(ru)
    reports = network.run(slots)

    chain = network.chain
    snap = obs.registry.snapshot()

    def counter_sum(metric: str, prefix: str = "") -> float:
        family = snap.get(metric)
        if family is None:
            return 0.0
        return sum(
            value
            for key, value in family["series"].items()
            if key.startswith(prefix)
        )

    # Every absorbed/injected fault must be visible to the flight
    # recorder: python-side truth vs the obs counters.
    accounting: Dict[str, Tuple[float, float]] = {
        "wire_events": (
            float(injector.stats.injected_events),
            counter_sum("fault_injected_total", "chaos-wire,"),
        ),
        "stage_faults": (
            float(chain.total_stage_faults),
            counter_sum("chain_stage_faults_total"),
        ),
        "stage_bypassed": (
            float(sum(chain.stage_bypassed)),
            counter_sum("chain_stage_bypassed_total"),
        ),
        "degraded_merges": (
            float(das.degraded_merges),
            counter_sum("das_degraded_merges_total"),
        ),
        "abandoned_merges": (
            float(das.missed_merge_deadlines),
            counter_sum("das_missed_merge_deadlines_total"),
        ),
        "link_drops": (
            float(network.wire.link.stats.drops),
            counter_sum("link_drops_total"),
        ),
    }
    return ChainOutcome(
        slots=slots,
        wire_absorbed=injector.stats.absorbed,
        wire_events=injector.stats.injected_events,
        stage_faults=chain.total_stage_faults,
        stage_bypassed=sum(chain.stage_bypassed),
        breaker_opens=chain.breakers[faulty.chain_stage].opens,
        breaker_recoveries=chain.breakers[faulty.chain_stage].recoveries,
        full_merges=das.merged_uplink_symbols,
        degraded_merges=das.degraded_merges,
        abandoned_merges=das.missed_merge_deadlines,
        malformed=sum(r.malformed for r in reports),
        ul_delivered=(
            primary.counters.ul_packets
            + primary.counters.prach_detections
            + standby.counters.ul_packets
            + standby.counters.prach_detections
        ),
        failovers=len(resilience.events),
        accounting=accounting,
    )


# -- scenario 3: failover-time CDF ------------------------------------------


def _failover_trial(seed: int, fail_slot: int) -> Optional[float]:
    cell = _cell()
    numerology = cell.numerology
    primary = _make_du(1, cell, seed + 1)
    standby = _make_du(2, cell, seed + 2)
    ru = RadioUnit(
        ru_id=1,
        config=RuConfig(num_prb=cell.num_prb, n_antennas=2),
        seed=seed,
    )
    box = ResilienceMiddlebox(
        primary_du=primary.mac,
        standby_du=standby.mac,
        ru_mac=ru.mac,
        silence_threshold_ns=2 * numerology.slot_duration_ns,
    )
    ru.du_mac = box.mac
    injector = FaultInjector(
        seed=seed, name=f"failover-{fail_slot}",
        carrier_num_prb=cell.num_prb,
    )
    injector.silence(
        primary.mac,
        SymbolTime.from_absolute_slot(fail_slot, numerology).slot_key(),
    )
    network = FronthaulNetwork(
        middleboxes=[box], wire=ImpairedLink(injector)
    )
    network.add_du(primary)
    network.add_du(standby)
    network.add_ru(ru)
    network.run(fail_slot + 8)
    if not box.events:
        return None
    return box.events[0].silence_ns / 1e6


# -- scenario 4: deterministic SLO burn-rate alert ---------------------------


def _run_slo_chaos(seed: int, slots: int) -> SloChaosOutcome:
    """A streamed scenario whose deadline SLO *must* fire, same edge every
    run: the per-slot latency budget is starved to 100 ns (any slot that
    carries traffic misses), so the windowed miss rate burns ~100x the
    1% objective and the engine emits one firing edge — deterministic
    because the whole run is (seeded traffic, modelled latencies, fixed
    epoch grid)."""
    from repro.scale import Scenario, ScenarioSpec

    spec = ScenarioSpec.from_dict(
        {
            "name": "slo-chaos",
            "slots": slots,
            "seed": seed,
            "epoch_slots": max(2, slots // 4),
            "cells": [
                {
                    "name": "slo-cell1",
                    "pci": 1,
                    "bandwidth_hz": 20_000_000,
                    "rus": [{"name": "slo-cell1-ru1", "n_antennas": 2}],
                    "ues": [
                        {
                            "ue_id": "slo-ue1",
                            "flows": [
                                {"kind": "cbr", "rate_mbps": 40.0,
                                 "direction": "dl"},
                            ],
                        }
                    ],
                    "chain": [{"stage": "prb_monitor"}],
                },
            ],
            "obs": {
                "enabled": True,
                "deadline_accounting": True,
                "stream": True,
                "deadline_budget_ns": SLO_STARVED_BUDGET_NS,
                "slo": [
                    {
                        "name": SLO_ALERT_NAME,
                        "objective": "deadline_miss_rate",
                        "threshold": 0.01,
                        "window_epochs": 2,
                        "min_samples": 2,
                    }
                ],
            },
        }
    )
    result = Scenario(spec).run(workers=1)
    stream = result.telemetry
    assert stream is not None, "SLO chaos run produced no telemetry stream"
    misses = sum(a.violations for a in stream.accountants.values())
    checks = sum(len(a.accounts) for a in stream.accountants.values())
    return SloChaosOutcome(
        epochs=stream.epochs,
        deadline_checks=checks,
        deadline_misses=misses,
        alerts=[alert.to_dict() for alert in stream.slo.alerts],
    )


# -- entry point -------------------------------------------------------------


def run_chaos(seed: int = 7, slots: Optional[int] = None) -> ChaosResult:
    if slots is None:
        slots = DEFAULT_SLOTS
    slots = max(slots, 12)
    scenarios = [
        _run_sweep_scenario(name, config, seed, slots)
        for name, config in _loss_scenarios()
    ]
    chain = _run_chain_chaos(seed, max(slots, 20))
    failover_ms = [
        ms
        for ms in (
            _failover_trial(seed + trial, fail_slot)
            for trial, fail_slot in enumerate(range(3, 9))
        )
        if ms is not None
    ]
    result = ChaosResult(
        seed=seed,
        slots=slots,
        scenarios=scenarios,
        chain=chain,
        failover_ms=failover_ms,
        slo=_run_slo_chaos(seed, slots),
    )
    result.assert_healthy()
    return result


if __name__ == "__main__":
    print(run_chaos().format())

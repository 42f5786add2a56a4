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

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.das import DasMiddlebox
from repro.apps.resilience import ResilienceMiddlebox
from repro.apps.ru_sharing import RuSharingMiddlebox, SharedDuConfig
from repro.eval import kit
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
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit
from repro.scale import ScenarioSpec, run_scenario

DEFAULT_SLOTS = 24
#: Chain-scenario fault schedule: exactly threshold consecutive faults.
BREAKER_THRESHOLD = 5
BREAKER_PROBATION = 6
FAULTY_RANGE = (20, 20 + BREAKER_THRESHOLD)
#: The SLO the seeded burn-rate scenario must fire, by name.
SLO_ALERT_NAME = "deadline-miss-burn"
#: Starved per-slot budget (ns): any slot carrying traffic misses it.
SLO_STARVED_BUDGET_NS = 100.0


def _endpoints(
    du_id: int, seed: int, rus: List[Dict[str, Any]], ru_id_base: int = 0
) -> Tuple[DistributedUnit, List[RadioUnit]]:
    """The chaos cell — 40 MHz 2x2, one UE at 100/20 Mbps — as a live DU
    and the RUs it names."""
    fragment = kit.cell(
        f"du{du_id}", 1, [kit.flow("dl", 100), kit.flow("ul", 20)],
        rus=rus, bandwidth_hz=40_000_000, seed=seed,
    )
    return kit.endpoints(fragment, du_id, ru_id_base)


def _redundant_dus(
    seed: int,
) -> Tuple[DistributedUnit, DistributedUnit, RadioUnit]:
    """A primary and a hot-standby DU serving one RU: the standby's spec
    names the same radio, and only the primary's copy of it is kept."""
    primary, (ru,) = _endpoints(1, seed + 1, kit.radios(1, seed), 1)
    standby, _ = _endpoints(2, seed + 2, kit.radios(1, seed), 1)
    return primary, standby, ru


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
class ChaosResult(kit.Gate):
    seed: int
    slots: int
    scenarios: List[ScenarioRow]
    chain: ChainOutcome
    failover_ms: List[float]
    #: The seeded streamed run engineered to burn its deadline SLO
    #: budget: epochs folded, and every alert edge its engine emitted.
    slo_epochs: int
    slo_alerts: List[Dict[str, Any]]

    def fingerprint(self) -> Tuple:
        """Stable value equality across runs at the same seed."""
        return dataclasses.astuple(self)

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
        # The streaming plane's own estimator, so CDFs here and in the
        # live dashboard agree (exact at q=0 and q=1).
        sketch = QuantileSketch()
        for ms in self.failover_ms:
            sketch.observe(ms)
        cdf = format_table(
            "Failover detection time CDF (injected DU silence)",
            ["percentile", "ms"],
            [
                (label, sketch.quantile(q))
                for label, q in (
                    ("p0", 0.0), ("p25", 0.25), ("p50", 0.5),
                    ("p75", 0.75), ("p100", 1.0),
                )
            ],
        )
        slo_table = format_table(
            "SLO burn-rate chaos: starved deadline budget "
            f"({self.slo_epochs} stream epochs)",
            ["edge", "slo", "epoch", "burn"],
            [
                (
                    alert["state"], alert["slo"], alert["epoch"],
                    f"{alert['burn_rate']:.1f}x",
                )
                for alert in self.slo_alerts
            ]
            or [("(none)", "-", "-", "-")],
        )
        return "\n\n".join([sweep, chain_table, cdf, slo_table])


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
    du, rus = _endpoints(1, seed, kit.radios(2, seed))
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
            carrier_num_prb=du.cell.num_prb,
        )
        wire = ImpairedLink(injector)
    network = kit.network(
        [du], rus, [das], wire=wire, deadline_flush=True
    )
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
    primary, standby, ru = _redundant_dus(seed)
    cell = primary.cell
    numerology = cell.numerology
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
    network = kit.network(
        [primary, standby],
        [ru],
        [resilience, das, sharing, faulty],
        wire=ImpairedLink(injector, link=Link(name="chaos-wire-link", obs=obs)),
        deadline_flush=True,
        breaker_threshold=BREAKER_THRESHOLD,
        breaker_probation=BREAKER_PROBATION,
        obs=obs,
    )
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
    primary, standby, ru = _redundant_dus(seed)
    cell = primary.cell
    numerology = cell.numerology
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
    network = kit.network(
        [primary, standby], [ru], [box], wire=ImpairedLink(injector)
    )
    network.run(fail_slot + 8)
    if not box.events:
        return None
    return box.events[0].silence_ns / 1e6


# -- scenario 4: deterministic SLO burn-rate alert ---------------------------


def slo_chaos_spec(seed: int = 7, slots: int = DEFAULT_SLOTS) -> ScenarioSpec:
    """A streamed scenario whose deadline SLO *must* fire, same edge every
    run: the per-slot latency budget is starved to 100 ns (any slot that
    carries traffic misses), so the windowed miss rate burns ~100x the
    1% objective and the engine emits one firing edge — deterministic
    because the whole run is (seeded traffic, modelled latencies, fixed
    epoch grid)."""
    cell = kit.cell(
        "slo-cell1", 1, [kit.flow("dl", 40.0)],
        rus=[{"name": "slo-cell1-ru1", "n_antennas": 2}],
        ue={"ue_id": "slo-ue1"},
        chain=[{"stage": "prb_monitor"}],
    )
    return kit.scenario(
        "slo-chaos", slots, seed, [cell],
        stream={
            "deadline_accounting": True,
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
        epoch_slots=max(2, slots // 4),
    )


# -- entry point -------------------------------------------------------------


def run_chaos(seed: int = 7, slots: int = DEFAULT_SLOTS) -> ChaosResult:
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
    stream = run_scenario(slo_chaos_spec(seed, slots)).telemetry
    alerts = [alert.to_dict() for alert in stream.slo.alerts]
    result = ChaosResult(
        seed=seed,
        slots=slots,
        scenarios=scenarios,
        chain=chain,
        failover_ms=failover_ms,
        slo_epochs=stream.epochs,
        slo_alerts=alerts,
    )
    # The CI smoke gate: chaos was injected, absorbed, and accounted.
    result.check(
        "loss_sweep_absorbed_faults",
        sum(row.wire_absorbed for row in scenarios) > 0,
    )
    result.check("chain_absorbed_wire_faults", chain.wire_absorbed > 0)
    result.expect(
        "stage_faults", chain.stage_faults, FAULTY_RANGE[1] - FAULTY_RANGE[0]
    )
    result.expect(
        "breaker_opens_and_recoveries",
        (chain.breaker_opens, chain.breaker_recoveries),
        (1, 1),
    )
    result.expect(
        "bypassed_while_open", chain.stage_bypassed, BREAKER_PROBATION
    )
    result.expect(
        "obs_accounting_mismatches",
        {k: pair for k, pair in chain.accounting.items() if pair[0] != pair[1]},
        {},
    )
    result.expect("failovers", chain.failovers, 1)
    result.check("failover_trials_produced_events", failover_ms)
    result.check(
        "slo_burn_alert_fired",
        (SLO_ALERT_NAME, "firing") in [(a["slo"], a["state"]) for a in alerts],
        f"{SLO_ALERT_NAME!r} not among edges {alerts}",
    )
    # Deadline burn never recovers in this scenario.
    result.check(
        "slo_never_resolves",
        not any(a["state"] == "resolved" for a in alerts),
        f"a resolved edge appeared: {alerts}",
    )
    result.assert_healthy()
    return result

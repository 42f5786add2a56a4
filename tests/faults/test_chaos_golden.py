"""Chaos: same seed, byte-identical chaos every time, and graceful
degradation under it.

The impairment trace is pinned byte for byte; the chaos run is pinned
by value.  That run has four parts, all driven by the seeded fault
injector, so a fixed seed reproduces every number:

1. **Loss sweep** — a DAS deployment (1 DU, 2 RUs, partial merge and
   deadline flush on) under i.i.d. loss, a Gilbert–Elliott bursty
   episode, and corruption/truncation.
2. **Chaos chain** — resilience, DAS, RU sharing and a stage that raises
   on schedule, under 1% i.i.d. loss, bursty loss and 0.1% corruption,
   with the primary DU silenced mid-run: no uncaught exception, the
   circuit breaker opens and recovers exactly once, and every absorbed
   fault is counted in the obs counters.
3. **Failover times** — how long :class:`ResilienceMiddlebox` takes to
   detect injected DU silence, over trials with varying failure slot.
4. **SLO burn** — a streamed run whose starved deadline budget must
   fire its burn-rate alert and never resolve it.

CI runs it at 12 slots; 24 is the default horizon the outcome is
pinned at.
"""

import functools

import numpy as np

from repro.apps.das import DasMiddlebox
from repro.apps.resilience import ResilienceMiddlebox
from repro.apps.ru_sharing import RuSharingMiddlebox, SharedDuConfig
from repro.core.middlebox import FAILURE_THRESHOLD, PROBATION_PACKETS
from repro.eval import kit
from repro.faults import (
    FaultConfig,
    FaultInjector,
    FaultScope,
    GilbertElliottConfig,
    ImpairedLink,
)
from repro.fronthaul.cplane import Direction
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import Numerology, slot_id, slot_time
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.obs import Observability
from repro.scale import run_scenario

from tests.conftest import random_prb_samples
from tests.faults.builders import FaultyMiddlebox
from tests import testbed


def traffic(seed, n=120):
    rng = np.random.default_rng(seed)
    src = MacAddress.from_int(0x41)
    dst = MacAddress.from_int(0x42)
    packets = []
    for i in range(n):
        time = slot_time(i % 16, Numerology(mu=1)) + i % 14
        section = UPlaneSection.from_samples(0, 0, random_prb_samples(rng, 4))
        packets.append(
            make_packet(
                src, dst,
                UPlaneMessage(direction=Direction.UPLINK, time=time,
                              sections=[section]),
                seq_id=i % 256,
            )
        )
    return packets


GOLDEN_CONFIG = FaultConfig(
    loss_rate=0.05,
    burst=GilbertElliottConfig(p_enter_burst=0.03, p_exit_burst=0.3,
                               loss_burst=0.9),
    duplicate_rate=0.02,
    reorder_rate=0.02,
    corrupt_rate=0.03,
    corrupt_bits=3,
    truncate_rate=0.01,
    jitter_ns=250.0,
)


def impair_once(seed=99):
    injector = FaultInjector(GOLDEN_CONFIG, seed=seed)
    survivors = injector.apply(traffic(seed))
    survivors += injector.flush_held()
    return injector, survivors


class TestImpairmentTraceGolden:
    def test_trace_is_byte_identical_across_runs(self):
        first, _ = impair_once()
        second, _ = impair_once()
        assert first.trace_bytes() == second.trace_bytes()
        assert first.trace_bytes()  # a nonempty golden

    def test_survivor_bytes_identical_across_runs(self):
        _, first = impair_once()
        _, second = impair_once()
        assert [p.pack() for p in first] == [p.pack() for p in second]

    def test_seed_changes_the_trace(self):
        first, _ = impair_once(seed=99)
        other, _ = impair_once(seed=100)
        assert first.trace_bytes() != other.trace_bytes()


# -- the chaos run -----------------------------------------------------------

#: Chain-scenario fault schedule: exactly threshold consecutive faults.
FAULTY_RANGE = (20, 20 + FAILURE_THRESHOLD)
#: The SLO the seeded burn-rate scenario must fire, by name.
SLO_ALERT_NAME = "deadline-miss-burn"


def _endpoints(du_id, seed, rus, ru_id_base=0):
    """The chaos cell — 40 MHz 2x2, one UE at 100/20 Mbps — as a live DU
    and the RUs it names."""
    fragment = kit.cell(
        f"du{du_id}", 1, [kit.flow("dl", 100), kit.flow("ul", 20)],
        rus=rus, bandwidth_hz=40_000_000, seed=seed,
    )
    return testbed.endpoints(fragment, du_id, ru_id_base)


def _redundant_dus(seed):
    """A primary and a hot-standby DU serving one RU: the standby's spec
    names the same radio, and only the primary's copy of it is kept."""
    primary, (ru,) = _endpoints(1, seed + 1, kit.radios(1, seed), 1)
    standby, _ = _endpoints(2, seed + 2, kit.radios(1, seed), 1)
    return primary, standby, ru


def _loss_scenarios():
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


def _sweep_row(name, config, seed, slots):
    """(name, offered, absorbed, full, degraded and abandoned merges,
    uplink delivered, malformed) of one loss-sweep scenario."""
    du, rus = _endpoints(1, seed, kit.radios(2, seed))
    das = DasMiddlebox(
        du_mac=du.mac, ru_macs=[ru.mac for ru in rus], partial_merge=True
    )
    injector = wire = None
    if config is not None:
        injector = FaultInjector(
            config, seed=seed, name=f"sweep-{name}",
            carrier_num_prb=du.cell.num_prb,
        )
        wire = ImpairedLink(injector)
    reports = testbed.network([du], rus, [das], wire=wire).run(slots)
    return (
        name,
        injector.stats.offered if injector else 0,
        injector.stats.absorbed if injector else 0,
        das.merged_uplink_symbols,
        das.degraded_merges,
        das.missed_merge_deadlines,
        du.counters.ul_packets + du.counters.prach_detections,
        sum(r.malformed for r in reports),
    )


def _chain_chaos(seed, slots):
    """The chaos chain's outcome, and each absorbed fault's count as
    ``(python-side truth, obs counter)``."""
    obs = Observability(enabled=True, sample_every=1 << 30)
    primary, standby, ru = _redundant_dus(seed)
    cell = primary.cell
    numerology = cell.numerology
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
        du_mac=resilience_mac, ru_macs=[sharing_mac], mac=das_mac,
        partial_merge=True, obs=obs,
    )
    sharing = RuSharingMiddlebox(
        ru_mac=ru.mac,
        ru_grid=cell.grid,
        dus=[SharedDuConfig(du_id=1, mac=das_mac, grid=cell.grid)],
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
    injector.silence(
        primary.mac,
        slot_id(slot_time(slots // 2, numerology)),
    )
    network = testbed.network(
        [primary, standby],
        [ru],
        [resilience, das, sharing, faulty],
        wire=ImpairedLink(injector),
        obs=obs,
    )
    reports = network.run(slots)
    chain = network.chain
    stats = injector.stats
    wire_events = (
        stats.absorbed + stats.corrupted_delivered + stats.truncated_delivered
        + stats.duplicated + stats.reordered
    )
    snap = obs.registry.snapshot()

    def counter_sum(metric, prefix=""):
        series = snap.get(metric, {"series": {}})["series"]
        return sum(v for k, v in series.items() if k.startswith(prefix))

    outcome = {
        "wire_absorbed": stats.absorbed,
        "wire_events": wire_events,
        "stage_faults": sum(chain.stage_faults),
        "stage_bypassed": sum(chain.stage_bypassed),
        "breaker_opens": chain.breakers[faulty.chain_stage].opens,
        "breaker_recoveries": chain.breakers[faulty.chain_stage].recoveries,
        "full_merges": das.merged_uplink_symbols,
        "degraded_merges": das.degraded_merges,
        "abandoned_merges": das.missed_merge_deadlines,
        "malformed": sum(r.malformed for r in reports),
        "ul_delivered": sum(
            du.counters.ul_packets + du.counters.prach_detections
            for du in (primary, standby)
        ),
        "failovers": len(resilience.events),
    }
    accounting = {
        "wire_events": (
            float(wire_events),
            counter_sum("fault_injected_total", "chaos-wire,"),
        ),
        "stage_faults": (
            float(outcome["stage_faults"]),
            counter_sum("chain_stage_faults_total"),
        ),
        "stage_bypassed": (
            float(outcome["stage_bypassed"]),
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
            float(sum(network.wire.drops.values())),
            counter_sum("link_drops_total"),
        ),
    }
    return outcome, accounting


def _failover_ms(seed, fail_slot):
    """Detection delay of DU silence injected at ``fail_slot``, in ms."""
    primary, standby, ru = _redundant_dus(seed)
    numerology = primary.cell.numerology
    box = ResilienceMiddlebox(
        primary_du=primary.mac,
        standby_du=standby.mac,
        ru_mac=ru.mac,
        silence_threshold_ns=2 * numerology.slot_duration_ns,
    )
    ru.du_mac = box.mac
    injector = FaultInjector(
        seed=seed, name=f"failover-{fail_slot}",
        carrier_num_prb=primary.cell.num_prb,
    )
    injector.silence(
        primary.mac,
        slot_id(slot_time(fail_slot, numerology)),
    )
    testbed.network(
        [primary, standby], [ru], [box], wire=ImpairedLink(injector)
    ).run(fail_slot + 8)
    return box.events[0].silence_ns / 1e6 if box.events else None


def slo_chaos_spec(seed=7, slots=24):
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
    slo = {
        "name": SLO_ALERT_NAME,
        "objective": "deadline_miss_rate",
        "threshold": 0.01,
        "window_epochs": 2,
        "min_samples": 2,
    }
    return kit.scenario(
        "slo-chaos", slots, seed, [cell],
        obs={
            "enabled": True,
            "stream": True,
            "deadline_accounting": True,
            "deadline_budget_ns": 100.0,
            "slo": [slo],
        },
        epoch_slots=max(2, slots // 4),
    )


def run_chaos(seed, slots):
    """Every part of the chaos run, as plain values."""
    outcome, accounting = _chain_chaos(seed, max(slots, 20))
    stream = run_scenario(slo_chaos_spec(seed, slots)).telemetry
    return {
        "sweep": [
            _sweep_row(name, config, seed, slots)
            for name, config in _loss_scenarios()
        ],
        "chain": outcome,
        "accounting": accounting,
        "failover_ms": [
            ms
            for ms in (
                _failover_ms(seed + trial, fail_slot)
                for trial, fail_slot in enumerate(range(3, 9))
            )
            if ms is not None
        ],
        "slo_epochs": stream.epochs,
        "slo_alerts": [alert.to_dict() for alert in stream.slo.alerts],
    }


@functools.lru_cache(maxsize=None)
def chaos_at(slots):
    return run_chaos(seed=7, slots=slots)

#: The seed-7 outcome at the default 24-slot horizon.
PINNED_24 = {
    "sweep": [
        ("baseline", 0, 0, 152, 0, 0, 152, 0),
        ("iid-1%", 383, 3, 136, 2, 0, 138, 0),
        ("iid-5%", 355, 14, 113, 9, 0, 122, 0),
        ("iid-20%", 331, 57, 71, 38, 0, 109, 0),
        ("ge-burst", 331, 29, 95, 18, 0, 113, 0),
        ("corrupt-2%", 403, 5, 145, 3, 0, 148, 0),
    ],
    "chain": {
        "wire_absorbed": 66,
        "wire_events": 67,
        "stage_faults": 5,
        "stage_bypassed": 16,
        "breaker_opens": 1,
        "breaker_recoveries": 1,
        "full_merges": 113,
        "degraded_merges": 0,
        "abandoned_merges": 0,
        "malformed": 0,
        "ul_delivered": 113,
        "failovers": 1,
    },
    "accounting": {
        "wire_events": (67.0, 67.0),
        "stage_faults": (5.0, 5.0),
        "stage_bypassed": (16.0, 16.0),
        "degraded_merges": (0.0, 0.0),
        "abandoned_merges": (0.0, 0.0),
        "link_drops": (66.0, 66.0),
    },
    "failover_ms": [1.5, 1.5, 1.5, 1.5, 1.3571428571428572, 1.5],
    "slo_epochs": 4,
    "slo_alerts": [
        {
            "slo": SLO_ALERT_NAME,
            "objective": "deadline_miss_rate",
            "state": "firing",
            "epoch": 0,
            "value": 1.0,
            "threshold": 0.01,
            "burn_rate": 100.0,
            "window_epochs": 2,
        }
    ],
}


def assert_chaos_absorbed(result):
    """Chaos was injected, absorbed and accounted; the breaker, the
    failover and the SLO alert did exactly what they are for."""
    chain = result["chain"]
    assert sum(row[2] for row in result["sweep"]) > 0
    assert chain["wire_absorbed"] > 0
    assert chain["stage_faults"] == FAULTY_RANGE[1] - FAULTY_RANGE[0]
    assert (chain["breaker_opens"], chain["breaker_recoveries"]) == (1, 1)
    assert chain["stage_bypassed"] == PROBATION_PACKETS
    assert {
        name: pair for name, pair in result["accounting"].items()
        if pair[0] != pair[1]
    } == {}
    assert chain["failovers"] == 1
    assert result["failover_ms"]
    edges = [(a["slo"], a["state"]) for a in result["slo_alerts"]]
    assert (SLO_ALERT_NAME, "firing") in edges
    # Deadline burn never recovers in this scenario.
    assert all(state != "resolved" for _, state in edges)


class TestChaosEvalGolden:
    def test_fingerprint_reproduces_across_two_runs(self):
        assert run_chaos(seed=7, slots=12) == chaos_at(12)

    def test_smoke_is_healthy(self):
        assert_chaos_absorbed(chaos_at(12))

    def test_default_horizon_is_healthy_and_pinned(self):
        assert_chaos_absorbed(chaos_at(24))
        assert chaos_at(24) == PINNED_24

"""Figure 15: DAS middlebox scalability and per-packet latency
(Section 6.4.1).

(a) Compute and network requirements vs number of RUs: middlebox ingress
and egress traffic grow linearly with the RU count (well under NIC
capacity); one CPU core bounds the per-slot uplink merge work below the
~30 us slot deadline for up to four RUs, beyond which a second core is
needed.

(b) Per-packet processing time by traffic type: DL C-/U-plane stay under
300 ns (forward + replicate); uplink packets split into a cheap caching
majority (~75%) and an expensive decompress+sum+recompress merge tail of
4-6 us that grows with the RU count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.datapath import ScalabilityPoint, cores_required
from repro.core.latency import DEFAULT_COST_MODEL
from repro.eval import kit
from repro.eval.report import format_table
from repro.obs import DeadlineAccountant, render_prometheus
from repro.obs.deadline import SLOT_BUDGET_NS
from repro.obs.metrics import MetricsRegistry
from repro.obs.sketch import QuantileSketch
from repro.fronthaul.timing import SYMBOLS_PER_SLOT
from repro.ran.cell import CellConfig
from repro.ran.stacks import SRSRAN
from repro.scale.build import build_groups


def uplane_wire_bytes(num_prb: int) -> int:
    """Wire size of one full-band U-plane frame (headers + BFP payload)."""
    from repro.fronthaul.compression import CompressionConfig

    payload = num_prb * CompressionConfig().prb_payload_bytes()
    # Ethernet (14) + eCPRI (8) + U-plane header (4) + section header (6).
    return payload + 14 + 8 + 4 + 6


def cplane_wire_bytes() -> int:
    return 14 + 8 + 8 + 8  # Ethernet + eCPRI + radio-app header + section


@dataclass
class Fig15aResult:
    points: List[ScalabilityPoint]

    def format(self) -> str:
        return format_table(
            "Figure 15a: DAS scalability vs number of RUs",
            ("RUs", "per-slot processing us", "CPU cores", "ingress Gbps",
             "egress Gbps"),
            [
                (
                    p.n_rus,
                    round(p.per_slot_processing_ns / 1000.0, 1),
                    p.cores_required,
                    round(p.ingress_gbps, 1),
                    round(p.egress_gbps, 1),
                )
                for p in self.points
            ],
        )


def run_fig15a() -> Fig15aResult:
    """Analytic scalability of the DPDK DAS middlebox (100 MHz 4x4)."""
    cell = CellConfig(pci=1)
    cost = DEFAULT_COST_MODEL
    n_ports = cell.n_antennas
    num_prb = cell.num_prb
    tdd = SRSRAN.tdd
    slots_per_second = cell.numerology.slots_per_second
    dl_symbols_per_slot = tdd.downlink_symbol_fraction() * SYMBOLS_PER_SLOT
    ul_symbols_per_slot = tdd.uplink_symbol_fraction() * SYMBOLS_PER_SLOT

    # Traffic rates (bits/s) through the middlebox.
    u_bytes = uplane_wire_bytes(num_prb)
    c_bytes = cplane_wire_bytes()
    dl_uplane_bps = u_bytes * 8 * dl_symbols_per_slot * slots_per_second * n_ports
    ul_uplane_bps = u_bytes * 8 * ul_symbols_per_slot * slots_per_second * n_ports
    cplane_bps = c_bytes * 8 * 2 * slots_per_second * n_ports

    points: List[ScalabilityPoint] = []
    for n_rus in (2, 3, 4, 5, 6):
        # Per-slot uplink work (Section 6.4.1's accounting: one packet per
        # RU antenna per slot): cache all but the last RU's packets, then
        # one merge per antenna port over all N operands.
        cache_ops = n_ports * (n_rus - 1)
        processing_ns = (
            cache_ops * cost.cache_ns
            + n_ports * cost.cache_lookup_ns
            + n_ports * cost.merge_cost(num_prb, n_rus)
            + n_ports * cost.forward_ns
        )
        ingress_bps = dl_uplane_bps + cplane_bps + n_rus * ul_uplane_bps
        egress_bps = n_rus * (dl_uplane_bps + cplane_bps) + ul_uplane_bps
        points.append(
            ScalabilityPoint(
                n_rus=n_rus,
                per_slot_processing_ns=processing_ns,
                cores_required=cores_required(processing_ns, SLOT_BUDGET_NS),
                ingress_gbps=ingress_bps / 1e9,
                egress_gbps=egress_bps / 1e9,
            )
        )
    return Fig15aResult(points=points)


@dataclass
class LatencyBreakdown:
    """Per-traffic-class packet processing times for one RU count.

    Percentiles read from mergeable quantile sketches
    (:class:`~repro.obs.sketch.QuantileSketch`) — the same machinery the
    streaming telemetry plane ships cross-shard, so eval numbers and live
    dashboard numbers come from one estimator.
    """

    n_rus: int
    by_class: Dict[str, List[float]]  # class -> per-packet ns

    def sketch(self, traffic_class: str) -> QuantileSketch:
        sketch = QuantileSketch()
        for value in self.by_class[traffic_class]:
            sketch.observe(value)
        return sketch

    def percentile(self, traffic_class: str, q: float) -> float:
        return self.sketch(traffic_class).percentile(q)


@dataclass
class Fig15bResult:
    breakdowns: List[LatencyBreakdown]

    def format(self) -> str:
        rows = []
        for breakdown in self.breakdowns:
            for traffic_class in sorted(breakdown.by_class):
                sketch = breakdown.sketch(traffic_class)
                rows.append(
                    (
                        breakdown.n_rus,
                        traffic_class,
                        round(sketch.percentile(50), 0),
                        round(sketch.percentile(75), 0),
                        round(sketch.max, 0),
                    )
                )
        return format_table(
            "Figure 15b: per-packet processing time (ns)",
            ("RUs", "traffic", "median", "p75", "max"),
            rows,
        )


@dataclass
class Fig15aMeasuredResult:
    """Observable Figure 15a: per-chain latency budgets from live runs."""

    accountants: Dict[int, DeadlineAccountant]
    registry_text: str = ""

    def format(self) -> str:
        blocks = []
        for n_rus in sorted(self.accountants):
            accountant = self.accountants[n_rus]
            blocks.append(
                accountant.budget_report(
                    title=f"Figure 15a (measured): DAS chain, {n_rus} RUs"
                )
            )
        return "\n\n".join(blocks)


def _das_spec(n_rus: int, n_slots: int, stage: Dict, **fields):
    """The Figure 15 deployment — one 100 MHz 4x4 cell at 800/60 Mbps
    fanned out to ``n_rus`` RUs by the DAS ``stage``."""
    seed = 29
    return kit.scenario(f"fig15-{n_rus}ru", n_slots, seed, [
        kit.cell(
            "das", 1, [kit.flow("dl", 800), kit.flow("ul", 60)],
            rus=kit.radios(n_rus, seed, n_antennas=4),
            ue={"dl_layers": 4, "dl_aggregate_se": 16.0},
            bandwidth_hz=100_000_000, n_antennas=4, max_dl_layers=4,
            seed=seed, chain=[stage],
        )
    ], **fields)


def run_fig15a_measured(
    ru_counts=(2, 3, 4),
    n_slots: int = 4,
) -> Fig15aMeasuredResult:
    """The deadline-accounting version of Figure 15a: run the real DAS
    middlebox per RU count with the flight recorder armed and account
    every slot's modelled latency against the fronthaul budget."""
    accountants: Dict[int, DeadlineAccountant] = {}
    registry = MetricsRegistry()
    for n_rus in ru_counts:
        (group,) = build_groups(_das_spec(
            n_rus, n_slots, {"stage": "das", "name": f"das-{n_rus}ru"},
            obs={"enabled": True, "deadline_accounting": True},
        ))
        group.network.run(n_slots)
        accountants[n_rus] = group.accountant
        registry.merge_snapshot(group.obs.registry.snapshot())
    return Fig15aMeasuredResult(
        accountants=accountants, registry_text=render_prometheus(registry)
    )


def run_fig15b(
    ru_counts=(2, 3, 4),
    n_slots: int = 4,
) -> Fig15bResult:
    """Packet-level latency breakdown: run the real DAS middlebox on a
    100 MHz cell and read the modelled total of every packet it ran."""
    breakdowns: List[LatencyBreakdown] = []
    for n_rus in ru_counts:
        (group,) = build_groups(_das_spec(n_rus, n_slots, {"stage": "das"}))
        by_class: Dict[str, List[float]] = {}
        das = group.middleboxes[0]
        for ctx in kit.run_recorded(group.network, das, n_slots):
            by_class.setdefault(ctx.traffic_class, []).append(ctx.total_ns())
        breakdowns.append(LatencyBreakdown(n_rus=n_rus, by_class=by_class))
    return Fig15bResult(breakdowns=breakdowns)

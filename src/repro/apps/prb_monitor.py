"""Real-time PRB utilization monitoring (Section 4.4, Algorithm 1).

A passive middlebox that estimates per-symbol PRB utilization from the BFP
compression exponents carried in U-plane packets, without decompressing
any IQ samples: a PRB whose exponent exceeds a threshold carries real
signal energy and is counted as utilized; near-zero (idle) PRBs compress
with exponent 0.  Estimates are appended to :attr:`PrbMonitorMiddlebox.
estimates` (the monitor's telemetry) at sub-millisecond granularity and
every packet is forwarded unmodified.

Thresholds default to the values that worked across the paper's setups:
0 for downlink and 2 for uplink (uplink noise floors produce small
non-zero exponents).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.actions import ActionContext, ExecLocation
from repro.core.middlebox import Middlebox
from repro.fronthaul.cplane import Direction
from repro.fronthaul.packet import FronthaulPacket
from repro.fronthaul.timing import SymbolTime
from repro.obs.metrics import declare

#: The help text keeps its wording: the obs-live exposition golden
#: (``tests/scale/fixtures/obs_top_exposition.golden``) pins it.
_PUBLISHES = declare(
    "counter", "prb_monitor_publishes_total",
    "utilization estimates published on the telemetry bus",
    ("middlebox", "direction"),
)
_UTILIZATION = declare(
    "gauge", "prb_utilization",
    "latest estimated PRB utilization (0..1)",
    ("middlebox", "direction"),
)


@dataclass(frozen=True)
class UtilizationEstimate:
    """One telemetry sample: the utilization bitvector of a symbol."""

    time: SymbolTime
    direction: Direction
    ru_port: int
    utilized: Tuple[bool, ...]

    @property
    def utilization(self) -> float:
        if not self.utilized:
            return 0.0
        return sum(self.utilized) / len(self.utilized)


class PrbMonitorMiddlebox(Middlebox):
    """Algorithm 1 as a passive, forwarding middlebox."""

    app_name = "prb_monitor"
    #: Table 1: the monitor's XDP implementation runs entirely in the
    #: kernel — it only reads exponent bytes and forwards.
    nominal_xdp_location = ExecLocation.KERNEL

    def __init__(
        self,
        carrier_num_prb: int,
        thr_dl: int = 0,
        thr_ul: int = 2,
        monitor_port: int = 0,
        name: str = "",
        obs=None,
        stack_profile=None,
        **kwargs,
    ):
        super().__init__(
            name=name, obs=obs, stack_profile=stack_profile, **kwargs
        )
        for knob, value in (("thr_dl", thr_dl), ("thr_ul", thr_ul)):
            if not 0 <= value <= 15:
                raise ValueError(
                    f"{knob} must be a BFP exponent in 0..15, got {value!r}"
                )
        self.carrier_num_prb = carrier_num_prb
        self.thr_dl = thr_dl
        self.thr_ul = thr_ul
        self.monitor_port = monitor_port
        self.estimates: List[UtilizationEstimate] = []

    # -- handlers --------------------------------------------------------------

    def on_uplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        # Estimate from one representative antenna port per direction —
        # all ports carry the same allocation footprint.
        if packet.eaxc.ru_port == self.monitor_port and (
            packet.message.filter_index == 0
        ):
            self._estimate(ctx, packet)
        ctx.forward(packet)

    # -- Algorithm 1 ---------------------------------------------------------------

    def _estimate(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        direction = packet.direction
        threshold = (
            self.thr_dl if direction is Direction.DOWNLINK else self.thr_ul
        )
        utilized = np.zeros(self.carrier_num_prb, dtype=bool)
        for section in packet.message.sections:
            exponents = ctx.read_exponents(section)
            flags = exponents > threshold
            start = section.start_prb
            end = min(start + section.num_prb, self.carrier_num_prb)
            if end > start:
                utilized[start:end] = flags[: end - start]
        estimate = UtilizationEstimate(
            time=packet.time,
            direction=direction,
            ru_port=packet.eaxc.ru_port,
            utilized=tuple(utilized.tolist()),
        )
        self.estimates.append(estimate)
        if self.obs.enabled:
            labels = (
                self.name, "DL" if direction is Direction.DOWNLINK else "UL"
            )
            self.obs.children(_PUBLISHES, *labels).inc()
            self.obs.children(_UTILIZATION, *labels).set(estimate.utilization)

    # -- aggregation (what applications consume) -------------------------------------

    def average_utilization(
        self, direction: Optional[Direction] = None
    ) -> float:
        """Mean PRB utilization over all collected estimates."""
        samples = [
            e.utilization
            for e in self.estimates
            if direction is None or e.direction is direction
        ]
        if not samples:
            return 0.0
        return float(np.mean(samples))

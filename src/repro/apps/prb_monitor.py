"""Real-time PRB utilization monitoring (Section 4.4, Algorithm 1).

A passive middlebox that estimates per-symbol PRB utilization from the BFP
compression exponents carried in U-plane packets, without decompressing
any IQ samples: a PRB whose exponent exceeds a threshold carries real
signal energy and is counted as utilized; near-zero (idle) PRBs compress
with exponent 0.  Every packet is forwarded unmodified.  One estimate
per monitored symbol, at sub-millisecond granularity: its per-PRB flags
stay in ``slot_state`` while the slot is held, and its count folds into
:attr:`PrbMonitorMiddlebox.folds` (the monitor's telemetry), one running
fold per direction — no record outlives its slot.

Thresholds default to the values that worked across the paper's setups:
0 for downlink and 2 for uplink (uplink noise floors produce small
non-zero exponents).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.actions import ActionContext, ExecLocation
from repro.core.middlebox import Middlebox
from repro.fronthaul.cplane import Direction
from repro.fronthaul.packet import FronthaulPacket
from repro.fronthaul.timing import slot_id
from repro.obs.metrics import declare

#: The one antenna port estimated, per direction: every port carries
#: the same allocation footprint.
_MONITOR_PORT = 0

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


class UtilizationFold:
    """One direction's estimates as running sums: every estimate's utilized
    PRBs, and each slot's mean utilization summed (Figure 10c).  A slot
    closes when an estimate of another slot arrives, not at ``end_slot``:
    a deadline-flushed DAS merge reaches a monitor upstream of it after
    that monitor's slot closed, and counts in its own slot."""

    def __init__(self, num_prb: int):
        self.num_prb = num_prb
        self.samples = self.utilized_prbs = 0
        self._closed = 0.0
        self._slot, self._slot_samples, self._slot_prbs = None, 0, 0

    def add(self, slot: int, utilized_prbs: int) -> None:
        if slot != self._slot:
            self._closed = self.slot_mean_sum()
            self._slot, self._slot_samples, self._slot_prbs = slot, 0, 0
        self._slot_samples += 1
        self._slot_prbs += utilized_prbs
        self.samples += 1
        self.utilized_prbs += utilized_prbs

    def slot_mean_sum(self) -> float:
        """Each slot's mean utilization, summed in arrival order."""
        if not self._slot_samples:
            return self._closed
        return self._closed + self._slot_prbs / (
            self._slot_samples * self.num_prb
        )


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
        self.folds: Dict[Direction, UtilizationFold] = {
            direction: UtilizationFold(carrier_num_prb)
            for direction in Direction
        }

    # -- handlers --------------------------------------------------------------

    def on_uplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        if packet.eaxc.ru_port == _MONITOR_PORT and (
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
            flags = ctx.read_exponents(section) > threshold
            start = section.start_prb
            end = min(start + section.num_prb, self.carrier_num_prb)
            if end > start:
                utilized[start:end] = flags[: end - start]
        time = packet.time
        self.slot_state[direction, time] = utilized
        count = int(np.count_nonzero(utilized))
        self.folds[direction].add(slot_id(time), count)
        if self.obs.enabled:
            labels = (
                self.name, "DL" if direction is Direction.DOWNLINK else "UL"
            )
            self.obs.children(_PUBLISHES, *labels).inc()
            self.obs.children(_UTILIZATION, *labels).set(
                count / self.carrier_num_prb
            )

    # -- aggregation (what applications consume) -------------------------------------

    def average_utilization(self, direction: Direction) -> float:
        """Mean PRB utilization over every estimate of one direction."""
        fold = self.folds[direction]
        if not fold.samples:
            return 0.0
        return fold.utilized_prbs / (fold.samples * self.carrier_num_prb)

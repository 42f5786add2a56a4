"""DPDK and XDP datapath execution models (Section 5, Figures 15-16).

RANBooster was implemented on both DPDK (kernel bypass, poll-mode, a full
core per queue) and XDP (in-kernel, interrupt-driven, with a userspace
AF_XDP component for heavyweight actions).  These models translate the
per-packet records — the :class:`~repro.core.actions.ActionContext` each
processed packet ran in — into CPU time, utilization and deadline
behaviour:

- **DPDK**: per-packet time is the plain sum of action costs; utilization
  is always 100% because of the poll-mode driver.
- **XDP**: kernel-capable actions pay an eBPF factor; packets that record
  a userspace action additionally pay the AF_XDP redirect, wakeup
  syscall, and copy; jumbo frames pay a multi-buffer penalty; utilization
  is traffic-proportional because the driver is interrupt-driven.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

from repro.core.actions import ActionContext, ExecLocation
from repro.core.latency import DEFAULT_XDP_OVERHEADS
from repro.obs.deadline import SLOT_BUDGET_NS


class DatapathKind(enum.Enum):
    DPDK = "dpdk"
    XDP = "xdp"


class DpdkDatapath:
    """Kernel-bypass poll-mode datapath.

    ``cpu_utilization`` is 1.0 per dedicated core regardless of traffic —
    the defining cost of DPDK that Figure 16 plots.
    """

    kind = DatapathKind.DPDK

    def packet_time_ns(self, ctx: ActionContext) -> float:
        return ctx.total_ns()

    def cpu_utilization(
        self, contexts: Iterable[ActionContext], interval_ns: float
    ) -> float:
        """Utilization of the polling core: always fully busy."""
        return 1.0


class XdpDatapath:
    """In-kernel interrupt-driven datapath with an AF_XDP userspace path."""

    kind = DatapathKind.XDP
    overheads = DEFAULT_XDP_OVERHEADS

    def packet_time_ns(self, ctx: ActionContext) -> float:
        o = self.overheads
        kernel_ns = sum(
            e.cost_ns
            for e in ctx.events
            if e.location == ExecLocation.KERNEL.value
        )
        user_ns = sum(
            e.cost_ns
            for e in ctx.events
            if e.location == ExecLocation.USERSPACE.value
        )
        time_ns = o.interrupt_ns + kernel_ns * o.kernel_factor
        if ctx.needs_userspace():
            time_ns += (
                o.af_xdp_redirect_ns
                + o.wakeup_syscall_ns
                + o.copy_ns_per_kb * (ctx.wire_bytes / 1024.0)
                + user_ns
            )
        if ctx.wire_bytes > o.jumbo_threshold_bytes:
            time_ns += o.jumbo_multibuffer_ns
        return time_ns

    def supports_frame(self, wire_bytes: int) -> bool:
        """XDP multi-buffer limits: the paper notes the XDP version "can
        currently only handle smaller bandwidths" — 100 MHz frames exceed
        the driver's supported 3,498-byte frame."""
        return wire_bytes <= 3498

    def cpu_utilization(
        self, contexts: Iterable[ActionContext], interval_ns: float
    ) -> float:
        """Interrupt-driven: one core's utilization tracks offered load."""
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        total = sum(self.packet_time_ns(ctx) for ctx in contexts)
        return min(total / interval_ns, 1.0)


@dataclass(frozen=True)
class ScalabilityPoint:
    """One point of the Figure 15a scalability analysis."""

    n_rus: int
    per_slot_processing_ns: float
    cores_required: int
    ingress_gbps: float
    egress_gbps: float


def cores_required(
    per_slot_processing_ns: float,
    slot_budget_ns: float = SLOT_BUDGET_NS,
) -> int:
    """Cores needed to bound added latency below the slot deadline.

    Uplink merge work parallelizes across RU antennas (Section 6.4.1:
    "each CPU core handles only a subset of the RU antennas"), so doubling
    cores halves the critical-path processing time.
    """
    if per_slot_processing_ns <= 0:
        return 1
    return max(1, math.ceil(per_slot_processing_ns / slot_budget_ns))


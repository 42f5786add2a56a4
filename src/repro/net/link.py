"""Point-to-point links with capacity and latency accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import obs as obs_module
from repro.obs import Observability
from repro.obs.metrics import declare

_DROPS = declare(
    "counter", "link_drops_total",
    "frames dropped on a link by cause",
    ("link", "reason"),
)


@dataclass
class LinkStats:
    bytes_carried: int = 0
    packets_carried: int = 0
    drops: int = 0


@dataclass
class Link:
    """A full-duplex link: fixed propagation delay plus serialization.

    ``transfer`` accounts a frame and returns its one-way latency in
    nanoseconds; sustained-rate checks are done per interval via
    :meth:`utilization`.
    """

    name: str
    capacity_gbps: float = 100.0
    propagation_ns: float = 500.0
    stats: LinkStats = field(default_factory=LinkStats)
    obs: Optional[Observability] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.capacity_gbps <= 0:
            raise ValueError("link capacity must be positive")

    def serialization_ns(self, frame_bytes: int) -> float:
        return frame_bytes * 8 / self.capacity_gbps

    def transfer(self, frame_bytes: int) -> float:
        """Account one frame; returns its latency (ns)."""
        self.stats.bytes_carried += frame_bytes
        self.stats.packets_carried += 1
        return self.propagation_ns + self.serialization_ns(frame_bytes)

    def drop(self, count: int = 1, reason: str = "impairment") -> None:
        """Account frames that died on this link (impairment, malformed)."""
        if count <= 0:
            return
        self.stats.drops += count
        obs = self.obs if self.obs is not None else obs_module.DEFAULT_OBSERVABILITY
        if obs.enabled:
            obs.children(_DROPS, self.name, reason).inc(count)

    def utilization(self, interval_ns: float) -> float:
        """Average utilization over an interval given accounted traffic."""
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        bits = self.stats.bytes_carried * 8
        return bits / (self.capacity_gbps * interval_ns)

    def reset(self) -> None:
        self.stats = LinkStats()

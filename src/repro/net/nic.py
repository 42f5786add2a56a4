"""NIC with SR-IOV virtual functions and the PCIe constraint.

SR-IOV splits a physical NIC into virtual functions, each assigned to one
middlebox; frames hop between chained middleboxes through the NIC's
embedded switch, crossing the PCIe bus twice per hop.  "The total number
of middleboxes that can be chained ... is constrained by the PCIe
throughput" (Section 5) — :meth:`Nic.max_chain_depth` computes that bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class PcieBus:
    """A PCIe attachment point (Gen4 x16 by default, ~25 GB/s usable)."""

    usable_gbps: float = 200.0

    def __post_init__(self) -> None:
        if self.usable_gbps <= 0:
            raise ValueError("PCIe bandwidth must be positive")


class Nic:
    """A physical NIC (ConnectX-6 Dx class): port rate, VFs, PCIe."""

    #: One 100GbE port.
    port_gbps = 100.0

    def __init__(
        self,
        max_vfs: int = 64,
        pcie: Optional[PcieBus] = None,
    ):
        if max_vfs < 1:
            raise ValueError("NIC must support at least one VF")
        self.max_vfs = max_vfs
        self.pcie = pcie or PcieBus()

    def max_chain_depth(self, fronthaul_gbps: float) -> int:
        """Deepest chain the PCIe bus sustains for a given fronthaul load."""
        if fronthaul_gbps <= 0:
            return self.max_vfs
        depth = int(self.pcie.usable_gbps / (2 * fronthaul_gbps))
        return max(0, min(depth, self.max_vfs))

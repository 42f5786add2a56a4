"""NIC with SR-IOV virtual functions and the PCIe constraint.

SR-IOV splits a physical NIC into virtual functions, each assigned to one
middlebox; frames hop between chained middleboxes through the NIC's
embedded switch, crossing the PCIe bus twice per hop.  "The total number
of middleboxes that can be chained ... is constrained by the PCIe
throughput" (Section 5) — :meth:`Nic.max_chain_depth` computes that bound.
"""

from __future__ import annotations


class Nic:
    """A physical NIC (ConnectX-6 Dx class): port rate, VFs, PCIe."""

    #: One 100GbE port.
    port_gbps = 100.0
    #: SR-IOV virtual functions, one per chained middlebox.
    max_vfs = 64
    #: Usable bandwidth of its PCIe Gen4 x16 attachment (~25 GB/s).
    pcie_usable_gbps = 200.0

    def max_chain_depth(self, fronthaul_gbps: float) -> int:
        """Deepest chain the PCIe bus sustains for a given fronthaul load."""
        if fronthaul_gbps <= 0:
            return self.max_vfs
        depth = int(self.pcie_usable_gbps / (2 * fronthaul_gbps))
        return max(0, min(depth, self.max_vfs))

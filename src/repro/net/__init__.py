"""Network substrate: capacity-accounted links and NICs with SR-IOV.

Models the testbed's 100GbE links and the Mellanox ConnectX-6 Dx NICs
whose SR-IOV virtual functions host chained middleboxes (Section 5,
Figure 8), including the PCIe throughput constraint that bounds chain
depth.  Forwarding by MAC is :class:`repro.sim.network_sim.
FronthaulNetwork`'s.
"""

from repro.net.link import Link, LinkStats
from repro.net.nic import Nic, PcieBus, VirtualFunction

__all__ = [
    "Link",
    "LinkStats",
    "Nic",
    "PcieBus",
    "VirtualFunction",
]

"""Network substrate: NICs with SR-IOV.

Models the testbed's Mellanox ConnectX-6 Dx NICs whose SR-IOV virtual
functions host chained middleboxes (Section 5, Figure 8), including the
PCIe throughput constraint that bounds chain depth.  Forwarding by MAC
is :class:`repro.sim.network_sim.FronthaulNetwork`'s.
"""

from repro.net.nic import Nic

__all__ = [
    "Nic",
]

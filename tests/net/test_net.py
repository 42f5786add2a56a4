"""Link and NIC/SR-IOV substrate tests."""

import pytest

from repro.net.link import Link
from repro.net.nic import Nic, PcieBus


class TestLink:
    def test_serialization_delay(self):
        link = Link("fh", capacity_gbps=100.0, propagation_ns=500.0)
        # 7.7 KB at 100 Gbps ~= 616 ns + 500 ns propagation.
        latency = link.transfer(7_700)
        assert latency == pytest.approx(500.0 + 7_700 * 8 / 100.0)

    def test_utilization_accounting(self):
        link = Link("fh", capacity_gbps=10.0)
        for _ in range(100):
            link.transfer(1_250)  # 10 kb each
        # 1 Mb over 1 ms at 10 Gbps -> 10%.
        assert link.utilization(1e6) == pytest.approx(0.1)

    def test_reset(self):
        link = Link("fh")
        link.transfer(1000)
        link.reset()
        assert link.stats.bytes_carried == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            Link("bad", capacity_gbps=0)


class TestNic:
    def test_vf_creation_capped(self):
        nic = Nic(max_vfs=2)
        nic.create_vf("mb1")
        nic.create_vf("mb2")
        with pytest.raises(RuntimeError):
            nic.create_vf("mb3")

    def test_vf_indices_sequential(self):
        nic = Nic()
        vfs = [nic.create_vf(f"mb{i}") for i in range(3)]
        assert [vf.index for vf in vfs] == [0, 1, 2]
        assert nic.vfs == vfs

    def test_pcie_traffic_two_crossings_per_hop(self):
        nic = Nic()
        assert nic.pcie_traffic_gbps(10.0, chain_depth=3) == 60.0

    def test_max_chain_depth(self):
        """Section 5: PCIe bounds the chain depth for a given load."""
        nic = Nic(pcie=PcieBus(usable_gbps=200.0))
        assert nic.max_chain_depth(20.0) == 5
        assert nic.max_chain_depth(50.0) == 2
        assert nic.max_chain_depth(200.0) == 0

    def test_zero_load_limited_by_vfs(self):
        nic = Nic(max_vfs=16)
        assert nic.max_chain_depth(0.0) == 16

    def test_port_headroom(self):
        assert Nic(port_gbps=100.0).port_headroom_gbps(30.0) == 70.0

    def test_vf_accounting(self):
        nic = Nic()
        vf = nic.create_vf("das")
        vf.account(rx_bytes=100, tx_bytes=300)
        assert (vf.rx_bytes, vf.tx_bytes) == (100, 300)

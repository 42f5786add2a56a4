"""NIC/SR-IOV substrate tests."""

from repro.net.nic import Nic


class TestNic:
    def test_max_chain_depth(self):
        """Section 5: PCIe bounds the chain depth for a given load."""
        nic = Nic()
        assert nic.max_chain_depth(20.0) == 5
        assert nic.max_chain_depth(50.0) == 2
        assert nic.max_chain_depth(200.0) == 0

    def test_zero_load_limited_by_vfs(self):
        assert Nic().max_chain_depth(0.0) == Nic.max_vfs == 64

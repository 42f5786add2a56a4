"""M-plane capability model tests."""

from repro.fronthaul.compression import CompressionConfig
from repro.ran.mplane import RuCapabilities
from repro.ran.ru import RuConfig


class TestCapabilities:
    def test_default_config_valid(self):
        assert RuCapabilities().validate(RuConfig()) == []

    def test_out_of_band_carrier_rejected(self):
        config = RuConfig(center_frequency_hz=2.6e9)
        errors = RuCapabilities().validate(config)
        assert any("GHz" in e for e in errors)

    def test_carrier_edge_checked_not_just_center(self):
        """A 100 MHz carrier centred at the band edge spills out."""
        config = RuConfig(center_frequency_hz=3.31e9, num_prb=273)
        assert RuCapabilities().validate(config)

    def test_excess_power_rejected(self):
        config = RuConfig(tx_power_dbm_per_port=30.0)
        errors = RuCapabilities().validate(config)
        assert any("dBm" in e for e in errors)

    def test_unsupported_compression_rejected(self):
        config = RuConfig(compression=CompressionConfig(iq_width=6))
        assert RuCapabilities().validate(config)

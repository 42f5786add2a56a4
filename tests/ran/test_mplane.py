"""M-plane capability model tests."""

from repro.fronthaul.compression import CompressionConfig
from repro.ran.mplane import RuCapabilities
from repro.ran.ru import RuConfig


class TestCapabilities:
    def test_default_config_valid(self):
        assert RuCapabilities().validate_compression(RuConfig().compression) == []

    def test_unsupported_compression_rejected(self):
        config = RuConfig(compression=CompressionConfig(iq_width=6))
        assert RuCapabilities().validate_compression(config.compression)

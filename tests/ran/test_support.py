"""Tests for traffic generators and vendor stacks."""

import pytest

from repro.ran.stacks import ALL_PROFILES, CAPGEMINI, RADISYS, SRSRAN, profile_by_name
from repro.ran.traffic import ConstantBitrateFlow, PoissonFlow

SLOT_NS = 500_000


class TestConstantBitrateFlow:
    def test_average_rate_exact(self):
        flow = ConstantBitrateFlow(100.0)
        total = sum(flow.bits_in_slot(SLOT_NS) for _ in range(1000))
        expected = 100e6 * 1000 * SLOT_NS / 1e9
        assert total == pytest.approx(expected, rel=1e-6)

    def test_zero_rate(self):
        flow = ConstantBitrateFlow(0.0)
        assert flow.bits_in_slot(SLOT_NS) == 0

    def test_no_drift_from_fractional_credit(self):
        flow = ConstantBitrateFlow(0.001)  # less than a bit per slot
        total = sum(flow.bits_in_slot(SLOT_NS) for _ in range(10_000))
        assert total == pytest.approx(0.001e6 * 10_000 * SLOT_NS / 1e9, abs=2)

    def test_reset(self):
        flow = ConstantBitrateFlow(33.3)
        flow.bits_in_slot(SLOT_NS)
        flow.reset()
        assert flow._credit_bits == 0.0

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            ConstantBitrateFlow(-1.0)


class TestPoissonFlow:
    def test_mean_rate(self):
        flow = PoissonFlow(50.0, seed=1)
        total = sum(flow.bits_in_slot(SLOT_NS) for _ in range(5000))
        expected = 50e6 * 5000 * SLOT_NS / 1e9
        assert total == pytest.approx(expected, rel=0.05)

    def test_burstiness(self):
        flow = PoissonFlow(10.0, seed=2)
        samples = [flow.bits_in_slot(SLOT_NS) for _ in range(200)]
        assert min(samples) == 0  # some empty slots
        assert max(samples) > 12_000  # some multi-packet slots

    def test_deterministic_with_seed(self):
        a = PoissonFlow(10.0, seed=3)
        b = PoissonFlow(10.0, seed=3)
        assert [a.bits_in_slot(SLOT_NS) for _ in range(50)] == [
            b.bits_in_slot(SLOT_NS) for _ in range(50)
        ]


class TestVendorProfiles:
    def test_three_stacks(self):
        names = {profile.name for profile in ALL_PROFILES}
        assert names == {"srsRAN", "CapGemini", "Radisys"}

    def test_lookup_case_insensitive(self):
        assert profile_by_name("SRSRAN") is SRSRAN
        assert profile_by_name("capgemini") is CAPGEMINI

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            profile_by_name("nokia")

    def test_profiles_differ_in_tdd(self):
        assert SRSRAN.tdd.pattern != CAPGEMINI.tdd.pattern

    def test_radisys_uses_wider_mantissas(self):
        assert RADISYS.compression.iq_width == 14
        assert SRSRAN.compression.iq_width == 9

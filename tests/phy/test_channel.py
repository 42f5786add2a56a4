"""Channel model tests: path loss, RSRP, SINR, floor isolation."""

import numpy as np
import pytest

from repro.phy.channel import (
    ATTACH_RSRP_THRESHOLD_DBM,
    ChannelModel,
    LinkBudget,
    PathLossParams,
    db_to_linear,
    linear_to_db,
    noise_power_dbm,
)
from repro.phy.geometry import Position


class TestDbHelpers:
    def test_roundtrip(self):
        assert linear_to_db(db_to_linear(13.7)) == pytest.approx(13.7)

    def test_zero_linear_is_minus_inf(self):
        assert linear_to_db(0) == float("-inf")


class TestNoisePower:
    def test_100mhz_noise_floor(self):
        # -174 + 10log10(98.28 MHz) + 7 dB NF ~= -87 dBm.
        noise = noise_power_dbm(273 * 12 * 30e3)
        assert noise == pytest.approx(-87.1, abs=0.3)

    def test_scales_with_bandwidth(self):
        assert noise_power_dbm(40e6) < noise_power_dbm(100e6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            noise_power_dbm(0)


class TestPathLoss:
    def test_monotonic_in_distance(self):
        params = PathLossParams(shadowing_sigma_db=0)
        losses = [params.path_loss_db(d) for d in (1, 5, 10, 30, 60)]
        assert losses == sorted(losses)

    def test_nlos_steeper_than_los(self):
        params = PathLossParams()
        near_slope = params.path_loss_db(4) - params.path_loss_db(2)
        far_slope = params.path_loss_db(40) - params.path_loss_db(20)
        assert far_slope > near_slope

    def test_floor_penetration_added(self):
        params = PathLossParams()
        assert params.path_loss_db(10, floors=1) == pytest.approx(
            params.path_loss_db(10) + params.floor_penetration_db
        )

    def test_distance_clamped_below_1m(self):
        params = PathLossParams()
        assert params.path_loss_db(0.1) == params.path_loss_db(1.0)


class TestChannelModel:
    def setup_method(self):
        self.channel = ChannelModel(seed=42)
        self.budget = LinkBudget()
        self.ru = Position(10, 10, 0, height=3.0)

    def test_shadowing_deterministic_per_pair(self):
        ue = Position(20, 12, 0)
        assert self.channel.path_gain_db(self.ru, ue) == self.channel.path_gain_db(
            self.ru, ue
        )

    def test_shadowing_differs_between_pairs(self):
        gains = {
            round(self.channel.path_gain_db(self.ru, Position(20 + i, 12, 0)), 6)
            for i in range(8)
        }
        assert len(gains) > 1

    def test_different_seeds_differ(self):
        other = ChannelModel(seed=43)
        ue = Position(25, 5, 0)
        assert self.channel.path_gain_db(self.ru, ue) != other.path_gain_db(
            self.ru, ue
        )

    def test_rsrp_decreases_with_distance(self):
        rsrps = [
            self.channel.rsrp_per_re_dbm(
                self.budget, self.ru, Position(10 + d, 10, 0), 3276
            )
            for d in (2, 10, 30)
        ]
        assert rsrps == sorted(rsrps, reverse=True)

    def test_near_ue_attaches_far_floor_does_not(self):
        """Section 6.2.1: same-floor UEs attach; upper-floor UEs cannot."""
        near = self.channel.rsrp_per_re_dbm(
            self.budget, self.ru, Position(13, 10, 0), 3276
        )
        two_floors = self.channel.rsrp_per_re_dbm(
            self.budget, self.ru, Position(13, 10, 2), 3276
        )
        assert near > ATTACH_RSRP_THRESHOLD_DBM
        assert two_floors < ATTACH_RSRP_THRESHOLD_DBM

    def test_far_corner_same_floor_attaches(self):
        corner = self.channel.rsrp_per_re_dbm(
            self.budget, self.ru, Position(50, 20, 0), 3276
        )
        assert corner > ATTACH_RSRP_THRESHOLD_DBM

    def test_rsrp_per_re_below_wideband(self):
        ue = Position(15, 10, 0)
        wideband = self.channel.rsrp_dbm(self.budget, self.ru, ue)
        per_re = self.channel.rsrp_per_re_dbm(self.budget, self.ru, ue, 3276)
        assert per_re == pytest.approx(wideband - 10 * np.log10(3276))

    def test_sinr_without_interference_is_snr(self):
        ue = Position(14, 10, 0)
        bandwidth = 273 * 12 * 30e3
        snr = self.channel.sinr_db(self.budget, [self.ru], ue, bandwidth)
        assert snr > 30  # near UE: very high SNR

    def test_interference_reduces_sinr(self):
        ue = Position(14, 10, 0)
        interferer = Position(20, 10, 0, height=3.0)
        bandwidth = 273 * 12 * 30e3
        clean = self.channel.sinr_db(self.budget, [self.ru], ue, bandwidth)
        loaded = self.channel.sinr_db(
            self.budget, [self.ru], ue, bandwidth,
            interferers=[(interferer, 1.0)],
        )
        half = self.channel.sinr_db(
            self.budget, [self.ru], ue, bandwidth,
            interferers=[(interferer, 0.5)],
        )
        assert loaded < half < clean

    def test_das_combining_raises_sinr(self):
        """DAS: multiple RUs transmitting the same signal add power."""
        ue = Position(25, 10, 0)
        second = Position(30, 10, 0, height=3.0)
        bandwidth = 273 * 12 * 30e3
        single = self.channel.sinr_db(self.budget, [self.ru], ue, bandwidth)
        combined = self.channel.sinr_db(
            self.budget, [self.ru, second], ue, bandwidth
        )
        assert combined > single


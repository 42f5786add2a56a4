"""PRB monitoring middlebox unit tests (Section 4.4, Algorithm 1)."""

import numpy as np
import pytest

from repro.apps.prb_monitor import PrbMonitorMiddlebox
from repro.fronthaul.cplane import Direction
from repro.fronthaul.ecpri import EAxCId
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import Numerology, SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection

N_PRB = 20


@pytest.fixture
def monitor():
    return PrbMonitorMiddlebox(carrier_num_prb=N_PRB)


def grid_packet(rng, du_mac, ru_mac, used_prbs, direction=Direction.DOWNLINK,
                time=None, port=0, amplitude=8000):
    """A full-band packet with data on ``used_prbs``, idle noise elsewhere."""
    samples = rng.integers(-3, 3, size=(N_PRB, 24)).astype(np.int16)
    for prb in used_prbs:
        samples[prb] = rng.integers(-amplitude, amplitude, 24)
    section = UPlaneSection.from_samples(0, 0, samples)
    message = UPlaneMessage(
        direction=direction,
        time=time or SymbolTime(0, 0, 0, 0),
        sections=[section],
    )
    return make_packet(du_mac, ru_mac, message,
                       eaxc=EAxCId(du_port=0, ru_port=port))


class TestAlgorithm1:
    def test_detects_used_prbs_exactly(self, monitor, rng, du_mac, ru_mac):
        used = {2, 5, 11, 19}
        monitor.process(grid_packet(rng, du_mac, ru_mac, used))
        estimate = monitor.estimates[0]
        assert {i for i, flag in enumerate(estimate.utilized) if flag} == used

    def test_bitvector_is_a_tuple_of_python_bools(self, monitor, rng,
                                                  du_mac, ru_mac):
        """The per-PRB flags convert in one ``tolist()``: the same tuple
        of Python bools, and the same utilization float, as converting
        flag by flag."""
        used = {0, 3, 4, 17}
        monitor.process(grid_packet(rng, du_mac, ru_mac, used))
        estimate = monitor.estimates[0]
        by_flag = tuple(bool(i in used) for i in range(N_PRB))
        assert estimate.utilized == by_flag
        assert all(type(flag) is bool for flag in estimate.utilized)
        assert estimate.utilization == sum(by_flag) / N_PRB == 0.2

    def test_idle_grid_zero_utilization(self, monitor, rng, du_mac, ru_mac):
        monitor.process(grid_packet(rng, du_mac, ru_mac, set()))
        assert monitor.estimates[0].utilization == 0.0

    def test_full_grid_full_utilization(self, monitor, rng, du_mac, ru_mac):
        monitor.process(grid_packet(rng, du_mac, ru_mac, set(range(N_PRB))))
        assert monitor.estimates[0].utilization == 1.0

    def test_uplink_threshold_tolerates_noise(self, monitor, rng, du_mac,
                                              ru_mac):
        """UL noise floors produce small exponents; thr_ul=2 masks them."""
        samples = rng.integers(-800, 800, size=(N_PRB, 24)).astype(np.int16)
        samples[7] = rng.integers(-8000, 8000, 24)
        section = UPlaneSection.from_samples(0, 0, samples)
        message = UPlaneMessage(direction=Direction.UPLINK,
                                time=SymbolTime(0, 0, 0, 10),
                                sections=[section])
        monitor.process(make_packet(ru_mac, du_mac, message))
        estimate = monitor.estimates[0]
        assert estimate.utilized[7]
        assert sum(estimate.utilized) == 1

    def test_threshold_configurable_via_management(self, rng, du_mac, ru_mac):
        monitor = PrbMonitorMiddlebox(carrier_num_prb=N_PRB, thr_dl=15)
        monitor.process(grid_packet(rng, du_mac, ru_mac, {1, 2, 3}))
        assert monitor.estimates[0].utilization == 0.0

    def test_packets_forwarded_unmodified(self, monitor, rng, du_mac, ru_mac):
        packet = grid_packet(rng, du_mac, ru_mac, {0})
        wire = packet.pack()
        result = monitor.process(packet)
        assert len(result.emissions) == 1
        assert result.emissions[0].pack() == wire

    def test_only_monitored_port_estimated(self, monitor, rng, du_mac, ru_mac):
        monitor.process(grid_packet(rng, du_mac, ru_mac, {1}, port=1))
        assert monitor.estimates == []
        monitor.process(grid_packet(rng, du_mac, ru_mac, {1}, port=0))
        assert len(monitor.estimates) == 1

    def test_prach_packets_skipped(self, monitor, rng, du_mac, ru_mac):
        packet = grid_packet(rng, du_mac, ru_mac, {1})
        packet.message.filter_index = 1
        monitor.process(packet)
        assert monitor.estimates == []

    def test_cplane_forwarded_without_estimate(self, monitor, du_mac, ru_mac):
        from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection

        message = CPlaneMessage(
            direction=Direction.DOWNLINK,
            time=SymbolTime(0, 0, 0, 0),
            sections=[CPlaneSection(0, 0, N_PRB)],
        )
        result = monitor.process(make_packet(du_mac, ru_mac, message))
        assert len(result.emissions) == 1
        assert monitor.estimates == []


class TestAggregation:
    def test_average_utilization_per_direction(self, monitor, rng, du_mac,
                                               ru_mac):
        monitor.process(grid_packet(rng, du_mac, ru_mac, set(range(10))))
        monitor.process(grid_packet(rng, du_mac, ru_mac, set()))
        assert monitor.average_utilization(Direction.DOWNLINK) == pytest.approx(
            0.25
        )
        assert monitor.average_utilization(Direction.UPLINK) == 0.0


class TestTelemetry:
    def test_estimates_published(self, monitor, rng, du_mac, ru_mac):
        monitor.process(grid_packet(rng, du_mac, ru_mac, {3}))
        (estimate,) = monitor.estimates
        assert estimate.utilized[3] and estimate.ru_port == 0

    def test_timestamps_sub_millisecond(self, monitor, rng, du_mac, ru_mac):
        """Section 4.4: sub-millisecond granularity — consecutive symbol
        estimates are ~35.7 us apart."""
        monitor.process(grid_packet(rng, du_mac, ru_mac, {1},
                                    time=SymbolTime(0, 0, 0, 0)))
        monitor.process(grid_packet(rng, du_mac, ru_mac, {1},
                                    time=SymbolTime(0, 0, 0, 1)))
        first, second = (
            e.time.ns(Numerology(mu=1)) for e in monitor.estimates
        )
        delta = second - first
        assert 30_000 < delta < 40_000

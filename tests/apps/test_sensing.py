"""Spectrum sensor tests (Section 8.1 sensing use case)."""

import numpy as np
import pytest

from repro.apps.sensing import TELEMETRY_TOPIC, SpectrumSensorMiddlebox
from repro.core.actions import _RETAINED_SLOTS
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection

N_PRB = 30


@pytest.fixture
def sensor():
    return SpectrumSensorMiddlebox(carrier_num_prb=N_PRB)


def ul_cplane(du_mac, ru_mac, start_prb, num_prb, time=None):
    return make_packet(
        du_mac, ru_mac,
        CPlaneMessage(
            direction=Direction.UPLINK,
            time=time or SymbolTime(0, 0, 0, 10),
            sections=[CPlaneSection(0, start_prb, num_prb)],
        ),
    )


def ul_uplane(rng, ru_mac, du_mac, hot_prbs, time=None, amplitude=9000):
    samples = rng.integers(-3, 3, size=(N_PRB, 24)).astype(np.int16)
    for prb in hot_prbs:
        samples[prb] = rng.integers(-amplitude, amplitude, 24)
    section = UPlaneSection.from_samples(0, 0, samples)
    return make_packet(
        ru_mac, du_mac,
        UPlaneMessage(direction=Direction.UPLINK,
                      time=time or SymbolTime(0, 0, 0, 10),
                      sections=[section]),
    )


class TestInterferenceDetection:
    def test_scheduled_energy_is_clean(self, sensor, rng, du_mac, ru_mac):
        sensor.process(ul_cplane(du_mac, ru_mac, 5, 10))
        sensor.process(ul_uplane(rng, ru_mac, du_mac, hot_prbs=range(5, 15)))
        assert sensor.alerts == []

    def test_unscheduled_energy_flagged(self, sensor, rng, du_mac, ru_mac):
        sensor.process(ul_cplane(du_mac, ru_mac, 5, 10))
        sensor.process(
            ul_uplane(rng, ru_mac, du_mac, hot_prbs=[20, 21, 22])
        )
        assert len(sensor.alerts) == 1
        alert = sensor.alerts[0]
        assert alert.prbs == (20, 21, 22)
        assert alert.max_exponent > 2

    def test_no_schedule_all_energy_is_interference(self, sensor, rng,
                                                    du_mac, ru_mac):
        """A jammer on an idle cell lights up unscheduled PRBs."""
        sensor.process(ul_uplane(rng, ru_mac, du_mac, hot_prbs=[0, 1]))
        assert sensor.alerts
        assert sensor.alerts[0].prbs == (0, 1)

    def test_noise_floor_ignored(self, sensor, rng, du_mac, ru_mac):
        sensor.process(ul_uplane(rng, ru_mac, du_mac, hot_prbs=[]))
        assert sensor.alerts == []

    def test_mixed_scheduled_and_jammed(self, sensor, rng, du_mac, ru_mac):
        sensor.process(ul_cplane(du_mac, ru_mac, 0, 10))
        sensor.process(
            ul_uplane(rng, ru_mac, du_mac,
                      hot_prbs=list(range(0, 10)) + [25])
        )
        assert sensor.alerts[0].prbs == (25,)

    def test_schedule_keyed_per_slot(self, sensor, rng, du_mac, ru_mac):
        """Last slot's grant does not whitelist this slot's energy."""
        sensor.process(ul_cplane(du_mac, ru_mac, 20, 5,
                                 time=SymbolTime(0, 0, 0, 10)))
        sensor.process(
            ul_uplane(rng, ru_mac, du_mac, hot_prbs=[21],
                      time=SymbolTime(0, 0, 1, 10))
        )
        assert sensor.alerts  # grant was for the previous slot

    def test_packets_forwarded_transparently(self, sensor, rng, du_mac,
                                             ru_mac):
        packet = ul_uplane(rng, ru_mac, du_mac, hot_prbs=[20])
        wire = packet.pack()
        result = sensor.process(packet)
        assert len(result.emissions) == 1
        assert result.emissions[0].pack() == wire

    def test_threshold_configurable(self, sensor, rng, du_mac, ru_mac):
        sensor.management.set("noise_exponent_threshold", 15)
        sensor.process(ul_uplane(rng, ru_mac, du_mac, hot_prbs=[20]))
        assert sensor.alerts == []

    def test_telemetry_published(self, sensor, rng, du_mac, ru_mac):
        seen = []
        sensor.telemetry.subscribe(TELEMETRY_TOPIC, seen.append)
        sensor.process(ul_uplane(rng, ru_mac, du_mac, hot_prbs=[7]))
        assert len(seen) == 1
        assert seen[0].payload.prbs == (7,)

    def test_flush_bounds_state(self, sensor, rng, du_mac, ru_mac):
        """Scheduled ranges go with their slot: energy on PRBs that were
        scheduled under the same (wrapping) slot key a ring ago is
        interference now."""
        sensor.process(ul_cplane(du_mac, ru_mac, 0, 10,
                                 time=SymbolTime(0, 0, 0, 10)))
        for _ in range(_RETAINED_SLOTS):
            sensor.end_slot()
        sensor.process(ul_cplane(du_mac, ru_mac, 0, 10,
                                 time=SymbolTime(0, 5, 0, 10)))
        sensor.end_slot()
        assert list(sensor.slot_state) == [((0, 5, 0), 0)]
        sensor.process(ul_uplane(rng, ru_mac, du_mac, hot_prbs=[3],
                                 time=SymbolTime(0, 0, 0, 10)))
        assert [alert.prbs for alert in sensor.alerts] == [(3,)]

    def test_kernel_placement(self, sensor, rng, du_mac, ru_mac):
        sensor.process(ul_uplane(rng, ru_mac, du_mac, hot_prbs=[20]))
        assert not any(t.needs_userspace() for t in sensor.traces)

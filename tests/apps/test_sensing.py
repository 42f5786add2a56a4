"""Spectrum sensor tests (Section 8.1 sensing use case)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.sensing import SpectrumSensorMiddlebox
from repro.core.actions import _RETAINED_SLOTS
from repro.fronthaul.compression import MOD_COMP_METH, CompressionConfig
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
from repro.fronthaul.ethernet import MacAddress
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

    def test_threshold_configurable(self, rng, du_mac, ru_mac):
        sensor = SpectrumSensorMiddlebox(
            carrier_num_prb=N_PRB, noise_exponent_threshold=15
        )
        sensor.process(ul_uplane(rng, ru_mac, du_mac, hot_prbs=[20]))
        assert sensor.alerts == []

    def test_telemetry_published(self, sensor, rng, du_mac, ru_mac):
        sensor.process(ul_uplane(rng, ru_mac, du_mac, hot_prbs=[7]))
        (alert,) = sensor.alerts
        assert alert.prbs == (7,) and alert.ru_port == 0

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
        ctx = sensor.process(ul_uplane(rng, ru_mac, du_mac, hot_prbs=[20]))
        assert not ctx.needs_userspace()


def scalar_scan(sections, scheduled, threshold, carrier_num_prb):
    """The sensor's scan as it was, every PRB visited — the oracle of the
    one that visits only the PRBs above the threshold."""
    suspicious, max_exponent = set(), 0
    for section in sections:
        for index, exponent in enumerate(section.exponents()):
            prb = section.start_prb + index
            if prb >= carrier_num_prb:
                continue
            if exponent <= threshold:
                continue
            if any(start <= prb < end for start, end in scheduled):
                continue
            suspicious.add(prb)
            max_exponent = max(max_exponent, int(exponent))
    return (tuple(sorted(suspicious)), max_exponent) if suspicious else None


_RANGE = st.tuples(st.integers(0, 40), st.integers(1, 12))


@given(
    threshold=st.integers(0, 15),
    codec=st.sampled_from([CompressionConfig(9), CompressionConfig(4, MOD_COMP_METH)]),
    ranges=st.lists(_RANGE, min_size=1, max_size=3),
    scheduled=st.lists(_RANGE, max_size=3),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_scan_alerts_like_the_every_prb_loop(
    threshold, codec, ranges, scheduled, seed
):
    rng = np.random.default_rng(seed)
    du_mac, ru_mac = MacAddress.from_int(0x11), MacAddress.from_int(0x41)
    time = SymbolTime(0, 0, 0, 10)
    sensor = SpectrumSensorMiddlebox(
        carrier_num_prb=N_PRB, noise_exponent_threshold=threshold
    )
    sensor.process(make_packet(du_mac, ru_mac, CPlaneMessage(
        direction=Direction.UPLINK, time=time,
        sections=[CPlaneSection(0, start, num) for start, num in scheduled],
    )))
    sections = []
    for index, (start_prb, num_prb) in enumerate(ranges):
        # Each PRB at its own magnitude: idle to full scale.
        scale = 1 << rng.integers(0, 16, size=(num_prb, 1))
        samples = rng.integers(-1, 2, size=(num_prb, 24)) * scale
        sections.append(UPlaneSection.from_samples(
            index, start_prb, samples.clip(-32768, 32767).astype(np.int16), codec
        ))
    sensor.process(make_packet(ru_mac, du_mac, UPlaneMessage(
        direction=Direction.UPLINK, time=time, sections=sections,
    )))
    windows = [(start, start + num) for start, num in scheduled]
    expected = scalar_scan(sections, windows, threshold, N_PRB)
    if expected is None:
        assert sensor.alerts == []
    else:
        (alert,) = sensor.alerts
        assert (alert.prbs, alert.max_exponent) == expected
        assert all(type(prb) is int for prb in alert.prbs)

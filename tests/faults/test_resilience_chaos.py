"""ResilienceMiddlebox under injected DU silence on a live network.

The failure is injected by the seeded wire (``FaultInjector.silence``),
not by surgically removing the DU from the topology: the primary keeps
emitting, the wire eats its frames, and the middlebox must notice from
timing alone.  All timing comes from packet timestamps, so every run is
deterministic.
"""

import pytest

from repro.apps.resilience import ResilienceMiddlebox
from repro.faults import FaultInjector, ImpairedLink
from repro.fronthaul.cplane import Direction
from repro.fronthaul.timing import slot_id, slot_time
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.traffic import ConstantBitrateFlow
from repro.sim.network_sim import FronthaulNetwork

FAIL_SLOT = 4


def make_du(du_id, cell, seed=17):
    du = DistributedUnit(du_id=du_id, cell=cell, symbols_per_slot=1, seed=seed)
    du.scheduler.add_ue("ue", dl_layers=2)
    du.scheduler.update_ue_quality("ue", dl_aggregate_se=10.0, ul_se=3.0)
    du.attach_flow("ue", ConstantBitrateFlow(100, "dl"), Direction.DOWNLINK)
    du.attach_flow("ue", ConstantBitrateFlow(20, "ul"), Direction.UPLINK)
    return du


@pytest.fixture
def topology(cell_40mhz):
    primary = make_du(1, cell_40mhz, seed=17)
    standby = make_du(2, cell_40mhz, seed=18)
    ru = RadioUnit(
        ru_id=1,
        config=RuConfig(num_prb=cell_40mhz.num_prb, n_antennas=2),
        seed=17,
    )
    numerology = cell_40mhz.numerology
    box = ResilienceMiddlebox(
        primary_du=primary.mac,
        standby_du=standby.mac,
        ru_mac=ru.mac,
        silence_threshold_ns=2 * numerology.slot_duration_ns,
    )
    ru.du_mac = box.mac
    injector = FaultInjector(seed=3, carrier_num_prb=cell_40mhz.num_prb)
    network = FronthaulNetwork(
        middleboxes=[box], wire=ImpairedLink(injector)
    )
    network.add_du(primary)
    network.add_du(standby)
    network.add_ru(ru)
    return network, box, injector, primary, standby, ru, numerology


def silence_primary(injector, primary, numerology, start=FAIL_SLOT, end=None):
    start_key = slot_id(slot_time(start, numerology))
    end_key = (
        None if end is None
        else slot_id(slot_time(end, numerology))
    )
    injector.silence(primary.mac, start_key, end_key)


class TestFailoverUnderSilence:
    def test_detects_and_fails_over_within_threshold(self, topology):
        network, box, injector, primary, standby, ru, numerology = topology
        silence_primary(injector, primary, numerology)
        network.run(FAIL_SLOT + 8)
        assert len(box.events) == 1
        event = box.events[0]
        assert event.failed_du == primary.mac
        assert event.standby_du == standby.mac
        assert box.active_du == standby.mac
        # Detected from timing: silence is a little over the threshold,
        # never less.
        threshold = box.silence_threshold_ns
        assert threshold < event.silence_ns <= threshold + \
            4 * numerology.slot_duration_ns
        assert injector.stats.silenced > 0

    def test_traffic_keeps_flowing_after_failover(self, topology):
        network, box, injector, primary, standby, ru, numerology = topology
        silence_primary(injector, primary, numerology)
        reports = network.run(FAIL_SLOT + 10)
        # The standby took over the uplink: it received packets after the
        # failover slot, and the primary stopped receiving.
        assert standby.counters.ul_packets + standby.counters.prach_detections > 0
        # RU kept receiving downlink the whole run (standby's stream).
        dl_after = sum(
            r.dl_packets for r in reports[FAIL_SLOT + 4:]
        )
        assert dl_after > 0

    def test_determinism_same_seed_same_event(self, cell_40mhz):
        def run_once():
            primary = make_du(1, cell_40mhz, seed=17)
            standby = make_du(2, cell_40mhz, seed=18)
            ru = RadioUnit(
                ru_id=1,
                config=RuConfig(num_prb=cell_40mhz.num_prb, n_antennas=2),
                seed=17,
            )
            numerology = cell_40mhz.numerology
            box = ResilienceMiddlebox(
                primary_du=primary.mac, standby_du=standby.mac,
                ru_mac=ru.mac,
                silence_threshold_ns=2 * numerology.slot_duration_ns,
            )
            ru.du_mac = box.mac
            injector = FaultInjector(seed=3, carrier_num_prb=cell_40mhz.num_prb)
            silence_primary(injector, primary, numerology)
            network = FronthaulNetwork(
                middleboxes=[box], wire=ImpairedLink(injector)
            )
            network.add_du(primary)
            network.add_du(standby)
            network.add_ru(ru)
            network.run(FAIL_SLOT + 8)
            return box.events[0].silence_ns, injector.trace_bytes()

        assert run_once() == run_once()


class TestLateRiser:
    def test_recovered_primary_is_suppressed(self, topology):
        network, box, injector, primary, standby, ru, numerology = topology
        # Primary dark for a bounded window, then it "recovers".
        silence_primary(
            injector, primary, numerology, start=FAIL_SLOT, end=FAIL_SLOT + 6
        )
        network.run(FAIL_SLOT + 6)  # failover happens inside the window
        assert len(box.events) == 1
        silenced_during_window = injector.stats.silenced
        dropped_before = box.stats.dropped_packets
        network.run(6)  # the primary is back on the wire
        assert injector.stats.silenced == silenced_during_window
        # No flap: the standby still owns the RU and the late riser's
        # frames reach the middlebox only to be dropped there.
        assert len(box.events) == 1
        assert box.active_du == standby.mac
        assert box.stats.dropped_packets > dropped_before

    def test_manual_failback_restores_the_primary(self, topology):
        network, box, injector, primary, standby, ru, numerology = topology
        silence_primary(
            injector, primary, numerology, start=FAIL_SLOT, end=FAIL_SLOT + 6
        )
        network.run(FAIL_SLOT + 8)
        assert box.active_du == standby.mac
        before = primary.counters.ul_packets + primary.counters.prach_detections
        box.failback()
        assert box.active_du == primary.mac
        network.run(4)
        after = primary.counters.ul_packets + primary.counters.prach_detections
        assert after > before  # uplink steered back to the primary
        assert len(box.events) == 1  # failback is not a failover event

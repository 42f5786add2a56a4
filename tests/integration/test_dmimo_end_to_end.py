"""End-to-end dMIMO: a 4-port DU driving two 2-port RUs via the middlebox.

Verifies the Section 6.2.2 story: the DU believes it owns one 4-antenna
RU, each physical RU sees a consistent 2-port stream, all four spatial
streams reach the air, and the SSB is replicated to the secondary RU.
"""

import numpy as np
import pytest

from repro.apps.dmimo import DmimoMiddlebox, RuPortMap, SsbSchedule
from repro.fronthaul.cplane import Direction
from repro.fronthaul.timing import absolute_slot
from repro.phy.iq import int16_to_iq
from repro.ran.cell import CellConfig
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.traffic import ConstantBitrateFlow
from repro.sim.network_sim import FronthaulNetwork
from tests.testbed import record_downlink, record_uplink, ssb_reference


@pytest.fixture
def dmimo_setup():
    cell = CellConfig(pci=3, bandwidth_hz=40_000_000, n_antennas=4,
                      max_dl_layers=4, ssb_period_slots=10)
    du = DistributedUnit(du_id=1, cell=cell, symbols_per_slot=6, seed=8)
    rus = [
        RadioUnit(ru_id=i, config=RuConfig(num_prb=cell.num_prb, n_antennas=2),
                  du_mac=du.mac, seed=8)
        for i in range(2)
    ]
    port_map = RuPortMap(groups=((rus[0].mac, 2), (rus[1].mac, 2)))
    ssb_start, ssb_end = cell.ssb_prb_range
    ssb = SsbSchedule(
        period_slots=cell.ssb_period_slots,
        symbols=cell.ssb_symbols,
        prb_start=ssb_start,
        num_prb=ssb_end - ssb_start,
    )
    dmimo = DmimoMiddlebox(du_mac=du.mac, port_map=port_map, ssb=ssb)
    du.scheduler.add_ue("ue", dl_layers=4)
    du.scheduler.update_ue_quality("ue", dl_aggregate_se=16.0, ul_se=3.0)
    du.attach_flow("ue", ConstantBitrateFlow(200, "dl"), Direction.DOWNLINK)
    du.attach_flow("ue", ConstantBitrateFlow(30, "ul"), Direction.UPLINK)
    network = FronthaulNetwork(middleboxes=[dmimo])
    network.add_du(du)
    for ru in rus:
        network.add_ru(ru)
    return network, du, rus, dmimo


class TestVirtualRuIllusion:
    def test_all_four_streams_reach_the_air(self, dmimo_setup):
        network, du, rus, dmimo = dmimo_setup
        network.run(6)
        # Each RU transmits on its two local ports.
        for ru in rus:
            ports = {port for _, port in ru.transmitted_symbols()}
            assert ports == {0, 1}

    def test_rus_never_see_foreign_ports(self, dmimo_setup):
        network, du, rus, dmimo = dmimo_setup
        network.run(6)
        for ru in rus:
            assert ru.counters.unsolicited_uplane == 0

    def test_stream_content_matches_du_layers(self, dmimo_setup):
        """Global layer k's IQ lands on the right physical antenna."""
        network, du, rus, dmimo = dmimo_setup
        sent = record_downlink(du)
        network.run(6)
        checked = 0
        for (time, global_port), reference in sent.items():
            ru = rus[0] if global_port < 2 else rus[1]
            local_port = global_port % 2
            grid = ru.transmit_grid(time, local_port)
            if grid is None:
                continue
            error = np.abs(grid - int16_to_iq(reference)).max()
            if global_port == 0 or not du.cell.is_ssb_slot(
                absolute_slot(time, du.cell.numerology)
            ):
                assert error < 0.05
                checked += 1
        assert checked > 8

    def test_uplink_returns_on_global_ports(self, dmimo_setup):
        network, du, rus, dmimo = dmimo_setup
        received = record_uplink(du)
        network.run(10)
        ports = {packet.eaxc.ru_port for packet in received}
        assert ports == {0, 1, 2, 3}

    def test_uplink_bits_accounted(self, dmimo_setup):
        network, du, rus, dmimo = dmimo_setup
        network.run(10)
        assert du.counters.ul_bits > 0


class TestSsbReplication:
    def test_secondary_ru_transmits_ssb(self, dmimo_setup):
        """Without the middlebox only RU 1 port 0 carries the SSB; with it
        RU 2's first antenna does too (Section 4.2)."""
        network, du, rus, dmimo = dmimo_setup
        network.run(3)  # slot 0 is an SSB slot
        assert dmimo.ssb_copies > 0
        reference = ssb_reference(du)
        ssb_start, ssb_end = du.cell.ssb_prb_range

        def correlation(ru, port, symbol):
            from repro.fronthaul.timing import symbol_time

            grid = ru.transmit_grid(symbol_time(0, 0, 0, symbol), port)
            if grid is None:
                return 0.0
            block = grid[ssb_start * 12 : ssb_end * 12]
            return float(
                np.abs(np.vdot(block, reference))
                / (np.linalg.norm(block) * np.linalg.norm(reference) + 1e-12)
            )

        ssb_symbol = du.cell.ssb_symbols[0]
        assert correlation(rus[0], 0, ssb_symbol) > 0.9  # primary
        assert correlation(rus[1], 0, ssb_symbol) > 0.9  # replicated
        assert correlation(rus[1], 1, ssb_symbol) < 0.3  # other ports clean

"""End-to-end RU sharing: two DUs multiplexed onto one 100 MHz RU.

Verifies the Section 6.2.3 story at packet level: each DU operates as if
it owned the RU, the RU sees one consistent controller, downlink PRBs land
at the right place in the RU spectrum, uplink slices return to the right
DU, and PRACH requests from both DUs reach the RU translated and combined.
"""

import numpy as np
import pytest

from repro.apps.ru_sharing import RuSharingMiddlebox, SharedDuConfig
from repro.fronthaul.compression import SAMPLES_PER_PRB
from repro.fronthaul.cplane import Direction
from repro.fronthaul.spectrum import PrbGrid, split_ru_spectrum
from repro.fronthaul.timing import slot_id
from repro.phy.iq import int16_to_iq
from repro.ran.cell import CellConfig
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.traffic import ConstantBitrateFlow
from repro.sim.network_sim import FronthaulNetwork
from tests.conformance.reference import demodulate
from tests.testbed import record_downlink, record_uplink, uplink_grid


@pytest.fixture
def sharing_setup():
    ru_grid = PrbGrid(3.46e9, 273)
    grids = split_ru_spectrum(ru_grid, [106, 106])
    ru = RadioUnit(ru_id=1, config=RuConfig(num_prb=273, n_antennas=2),
                   seed=10)
    dus = []
    configs = []
    for index, grid in enumerate(grids, start=1):
        cell = CellConfig(
            pci=index,
            bandwidth_hz=40_000_000,
            center_frequency_hz=grid.center_frequency_hz,
            n_antennas=2,
            max_dl_layers=2,
        )
        du = DistributedUnit(du_id=index, cell=cell, ru_mac=ru.mac,
                             symbols_per_slot=1, seed=10 + index)
        du.scheduler.add_ue("ue", dl_layers=2)
        du.scheduler.update_ue_quality("ue", dl_aggregate_se=10.0, ul_se=3.0)
        du.attach_flow("ue", ConstantBitrateFlow(80, "dl"),
                       Direction.DOWNLINK)
        du.attach_flow("ue", ConstantBitrateFlow(15, "ul"), Direction.UPLINK)
        dus.append(du)
        configs.append(SharedDuConfig(du_id=index, mac=du.mac, grid=grid))
    sharing = RuSharingMiddlebox(ru_mac=ru.mac, ru_grid=ru_grid, dus=configs)
    ru.du_mac = sharing.mac
    network = FronthaulNetwork(middleboxes=[sharing])
    for du in dus:
        network.add_du(du)
    network.add_ru(ru)
    return network, dus, ru, sharing, configs


class TestDownlink:
    def test_ru_accepts_multiplexed_stream(self, sharing_setup):
        network, dus, ru, sharing, configs = sharing_setup
        reports = network.run(6)
        assert ru.counters.uplane_received > 0
        assert ru.counters.unsolicited_uplane == 0
        assert sum(r.undeliverable for r in reports) == 0

    def test_du_prbs_land_at_spectrum_offsets(self, sharing_setup):
        network, dus, ru, sharing, configs = sharing_setup
        sent = [record_downlink(du) for du in dus]
        network.run(6)
        ru_grid = PrbGrid(3.46e9, 273)
        checked = 0
        for du_sent, config in zip(sent, configs):
            offset = int(round(ru_grid.offset_of(config.grid)))
            for (time, port), reference in du_sent.items():
                grid = ru.transmit_grid(time, port)
                if grid is None:
                    continue
                du_band = grid[offset * 12 : (offset + 106) * 12]
                error = np.abs(du_band - int16_to_iq(reference)).max()
                assert error < 0.05
                checked += 1
        assert checked >= 8

    def test_aligned_path_no_recompression(self, sharing_setup):
        network, dus, ru, sharing, configs = sharing_setup
        network.run(6)
        assert sharing.aligned_copies > 0
        assert sharing.misaligned_copies == 0


class TestUplink:
    def test_each_du_receives_its_slice(self, sharing_setup, rng):
        network, dus, ru, sharing, configs = sharing_setup
        ru_grid = PrbGrid(3.46e9, 273)
        from repro.phy.iq import QamModulator

        modulator = QamModulator(16)
        transmitted = {}
        received = {du.du_id: record_uplink(du) for du in dus}

        def ue_uplink(ru_obj, position, time, port):
            """Each DU's UE transmits in its own slice of the RU band."""
            key = time
            if key not in transmitted:
                n_sc = ru_obj.config.num_prb * SAMPLES_PER_PRB
                grid = np.zeros(n_sc, dtype=np.complex128)
                blocks = {}
                for du, config in zip(dus, configs):
                    pending = du._pending_ul.get(slot_id(time))
                    if not pending:
                        continue
                    offset = int(round(ru_grid.offset_of(config.grid)))
                    for allocation in pending:
                        start = (offset + allocation.start_prb) * SAMPLES_PER_PRB
                        count = allocation.num_prb * SAMPLES_PER_PRB
                        data = rng.integers(0, 16, count)
                        grid[start : start + count] = modulator.modulate(data) * 0.4
                        blocks[(du.du_id, allocation.prb_range)] = data
                transmitted[key] = (grid, blocks)
            return transmitted[key][0]

        network.run(12, uplink_signal_fn=ue_uplink)
        decoded = 0
        for du in dus:
            assert du.counters.ul_packets > 0
            for packet in received[du.du_id]:
                entry = transmitted.get(packet.time)
                if entry is None:
                    continue
                _, blocks = entry
                iq = uplink_grid(packet, du.cell.num_prb)
                complex_grid = int16_to_iq(iq).reshape(-1)
                for (du_id, (start, end)), data in blocks.items():
                    if du_id != du.du_id:
                        continue
                    block = complex_grid[start * 12 : end * 12]
                    scale = np.sqrt(np.mean(np.abs(block) ** 2))
                    if scale == 0:
                        continue
                    hits = np.mean(demodulate(modulator, block / scale) == data)
                    assert hits > 0.95
                    decoded += 1
        assert decoded > 0

    def test_uplink_bits_accounted_per_du(self, sharing_setup):
        network, dus, ru, sharing, configs = sharing_setup
        network.run(12)
        for du in dus:
            assert du.counters.ul_bits > 0


class TestPrach:
    def test_prach_round_trip_both_dus(self, sharing_setup):
        """Both DUs' PRACH requests reach the RU combined; the RU's PRACH
        data returns demultiplexed to each DU (Algorithm 3)."""
        network, dus, ru, sharing, configs = sharing_setup
        network.run(50)  # spans a PRACH period (slot offset 4, period 40)
        for du in dus:
            assert du.counters.prach_detections > 0, (
                f"DU {du.du_id} received no PRACH occasions"
            )

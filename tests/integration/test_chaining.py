"""Middlebox chaining: RU sharing composed with DAS (Figure 12).

Two MNOs' DUs share four RUs: each DU's traffic passes through its DAS
middlebox (fan-out to the four RUs) and then through per-RU sharing
middleboxes (multiplexing the two MNOs onto each RU).
"""

import pytest

from repro.apps.das import DasMiddlebox
from repro.apps.ru_sharing import RuSharingMiddlebox, SharedDuConfig
from repro.fronthaul.cplane import Direction
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.spectrum import PrbGrid, split_ru_spectrum
from repro.ran.cell import CellConfig
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.traffic import ConstantBitrateFlow

RU_GRID = PrbGrid(3.46e9, 273)
N_RUS = 2  # two shared RUs keep the packet-level test fast


@pytest.fixture
def chained_setup():
    grids = split_ru_spectrum(RU_GRID, [106, 106])
    rus = [
        RadioUnit(ru_id=i, config=RuConfig(num_prb=273, n_antennas=2),
                  seed=30)
        for i in range(N_RUS)
    ]
    dus = []
    for index, grid in enumerate(grids, start=1):
        cell = CellConfig(
            pci=index,
            bandwidth_hz=40_000_000,
            center_frequency_hz=grid.center_frequency_hz,
            n_antennas=2,
            max_dl_layers=2,
        )
        du = DistributedUnit(du_id=index, cell=cell, symbols_per_slot=1,
                             seed=30 + index)
        du.scheduler.add_ue("ue", dl_layers=2)
        du.scheduler.update_ue_quality("ue", dl_aggregate_se=10.0, ul_se=3.0)
        du.attach_flow("ue", ConstantBitrateFlow(60, "dl"),
                       Direction.DOWNLINK)
        du.attach_flow("ue", ConstantBitrateFlow(10, "ul"), Direction.UPLINK)
        dus.append(du)

    # Per-MNO virtual RU addresses for each physical RU: the DAS stage
    # fans each DU out to per-RU virtual MACs; the sharing stage on each
    # RU multiplexes the two MNOs.
    vru_macs = {
        (du.du_id, ru.ru_id): MacAddress.from_int(0x5000 + du.du_id * 16 + ru.ru_id)
        for du in dus
        for ru in rus
    }
    das_boxes = [
        DasMiddlebox(
            du_mac=du.mac,
            ru_macs=[vru_macs[(du.du_id, ru.ru_id)] for ru in rus],
            name=f"das-mno{du.du_id}",
        )
        for du in dus
    ]
    sharing_boxes = []
    for ru in rus:
        configs = [
            SharedDuConfig(
                du_id=du.du_id,
                mac=vru_macs[(du.du_id, ru.ru_id)],
                grid=grid,
            )
            for du, grid in zip(dus, grids)
        ]
        sharing_boxes.append(
            RuSharingMiddlebox(ru_mac=ru.mac, ru_grid=RU_GRID, dus=configs,
                               name=f"sharing-ru{ru.ru_id}")
        )
        ru.du_mac = sharing_boxes[-1].mac
    return dus, rus, das_boxes, sharing_boxes, vru_macs


class TestChainedDeployment:
    def run_chain(self, chained_setup, n_slots=8):
        dus, rus, das_boxes, sharing_boxes, vru_macs = chained_setup
        # The chain: DAS boxes (per MNO) then sharing boxes (per RU).
        # Sharing boxes identify DUs by the DAS-emitted virtual MACs, so
        # the DAS stage must stamp per-(mno, ru) source addresses; we
        # emulate the VF wiring by rewriting sources after fan-out.
        reports = []
        for slot in range(n_slots):
            downlink = []
            for du, das in zip(dus, das_boxes):
                packets = du.advance_slot(slot)
                packets.sort(key=lambda p: p.is_uplane)
                for packet in packets:
                    for out in das.process(packet).emissions:
                        # Stamp the MNO-specific virtual source for the
                        # addressed RU's sharing box.
                        target_vru = out.eth.dst
                        out.eth.src = target_vru
                        downlink.append(out)
            downlink.sort(key=lambda p: p.is_uplane)
            # Deliver to the sharing box owning the addressed virtual MAC.
            for packet in downlink:
                for ru, sharing in zip(rus, sharing_boxes):
                    owned = {
                        config.mac.to_int()
                        for config in sharing.dus.values()
                    }
                    if packet.eth.dst.to_int() in owned:
                        for emission in sharing.process(packet).emissions:
                            ru.receive(emission)
            # Uplink: RUs answer, sharing demuxes to virtual MACs, DAS
            # merges back to the DUs.
            for ru, sharing in zip(rus, sharing_boxes):
                owed = [
                    (time, port, None)
                    for time, port in ru.pending_uplink_symbols()
                ]
                for packet in ru.build_uplink(owed):
                    for out in sharing.process(packet).emissions:
                        # Demuxed frames address the virtual DU MACs;
                        # map them into the right DAS group.
                        for du, das in zip(dus, das_boxes):
                            vmacs = {
                                vru_macs[(du.du_id, r.ru_id)].to_int()
                                for r in rus
                            }
                            if out.eth.dst.to_int() in vmacs:
                                out.eth.src = out.eth.dst
                                for final in das.process(out).emissions:
                                    du.receive(final)
                ru.end_slot()
        return dus, rus, das_boxes, sharing_boxes

    def test_downlink_reaches_both_rus_multiplexed(self, chained_setup):
        dus, rus, das_boxes, sharing_boxes = self.run_chain(chained_setup)
        for ru in rus:
            assert ru.counters.uplane_received > 0
            assert ru.counters.unsolicited_uplane == 0
        # Both sharing boxes saw both MNOs' requests.
        for sharing in sharing_boxes:
            assert sharing.aligned_copies > 0

    def test_uplink_merged_back_per_mno(self, chained_setup):
        dus, rus, das_boxes, sharing_boxes = self.run_chain(chained_setup)
        for du, das in zip(dus, das_boxes):
            assert das.merged_uplink_symbols > 0
            assert du.counters.ul_bits > 0

    def test_das_and_sharing_compose_without_modification(self, chained_setup):
        """Chaining needs no changes to either middlebox implementation —
        the claim of Section 6.3.2."""
        dus, rus, das_boxes, sharing_boxes = self.run_chain(chained_setup)
        assert all(box.stats.rx_packets > 0 for box in das_boxes)
        assert all(box.stats.rx_packets > 0 for box in sharing_boxes)

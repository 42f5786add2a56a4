"""End-to-end DAS: DU <-> DAS middlebox <-> RUs <-> air <-> UE.

Verifies the Section 6.2.1 story at packet level: downlink replication
makes every RU transmit the identical cell signal, and the uplink merge
recovers the UE's modulated data with a combining gain over any single RU.
"""

import math

import numpy as np
import pytest

from repro.apps.das import DasMiddlebox
from repro.fronthaul.compression import SAMPLES_PER_PRB
from repro.fronthaul.cplane import Direction
from repro.fronthaul.timing import slot_id
from repro.phy.channel import ChannelModel, db_to_linear
from repro.phy.geometry import Position
from repro.phy.iq import (
    DEFAULT_BACKOFF,
    DL_FIXED_POINT_BACKOFF,
    QamModulator,
    int16_to_iq,
)
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.traffic import ConstantBitrateFlow
from repro.sim.network_sim import FronthaulNetwork
from tests.conformance.reference import demodulate
from tests.testbed import record_downlink, record_uplink, uplink_grid


def relative_gain(channel, tx, rx):
    """Linear amplitude gain normalised to the path loss at 5 m, so the
    fronthaul fixed-point amplitudes stay in range."""
    gain_db = channel.path_gain_db(tx, rx) + channel.params.path_loss_db(5.0)
    return math.sqrt(db_to_linear(gain_db))


@pytest.fixture
def das_setup(cell_40mhz):
    du = DistributedUnit(du_id=1, cell=cell_40mhz, symbols_per_slot=1, seed=6)
    rus = [
        RadioUnit(ru_id=i, config=RuConfig(num_prb=cell_40mhz.num_prb,
                                           n_antennas=2),
                  du_mac=du.mac, seed=6)
        for i in range(2)
    ]
    das = DasMiddlebox(du_mac=du.mac, ru_macs=[ru.mac for ru in rus])
    du.scheduler.add_ue("ue", dl_layers=2)
    du.scheduler.update_ue_quality("ue", dl_aggregate_se=10.0, ul_se=3.0)
    du.attach_flow("ue", ConstantBitrateFlow(120, "dl"), Direction.DOWNLINK)
    du.attach_flow("ue", ConstantBitrateFlow(30, "ul"), Direction.UPLINK)
    network = FronthaulNetwork(middleboxes=[das])
    network.add_du(du)
    network.add_ru(rus[0], Position(10, 10, 0, height=3.0))
    network.add_ru(rus[1], Position(40, 10, 0, height=3.0))
    return network, du, rus, das


class TestDownlink:
    def test_both_rus_transmit_identical_signal(self, das_setup):
        network, du, rus, das = das_setup
        network.run(5)
        symbols_a = rus[0].transmitted_symbols()
        symbols_b = rus[1].transmitted_symbols()
        assert symbols_a and symbols_a == symbols_b
        for key in symbols_a:
            grid_a = rus[0].transmit_grid(*key)
            grid_b = rus[1].transmit_grid(*key)
            assert np.array_equal(grid_a, grid_b)

    def test_transmitted_signal_matches_du_reference(self, das_setup):
        network, du, rus, das = das_setup
        sent = record_downlink(du)
        network.run(5)
        assert sent
        for (time, port), reference in sent.items():
            grid = rus[0].transmit_grid(time, port)
            assert grid is not None
            error = np.abs(grid - int16_to_iq(reference)).max()
            assert error < 0.05  # BFP quantization only


class TestUplinkMergeDecode:
    def test_merged_uplink_decodes_ue_data(self, das_setup, rng):
        """The DU recovers the UE's QAM symbols from the merged signal."""
        network, du, rus, das = das_setup
        channel = ChannelModel()
        ue_position = Position(18, 12, 0)
        modulator = QamModulator(16)
        transmitted = {}

        def ue_uplink(ru, position, time, port):
            pending = du._pending_ul.get(slot_id(time))
            if not pending:
                return None
            n_sc = ru.config.num_prb * SAMPLES_PER_PRB
            key = time
            if key not in transmitted:
                grid = np.zeros(n_sc, dtype=np.complex128)
                symbol_map = {}
                for allocation in pending:
                    start = allocation.start_prb * SAMPLES_PER_PRB
                    count = allocation.num_prb * SAMPLES_PER_PRB
                    data = rng.integers(0, 16, count)
                    symbol_map[allocation.prb_range] = data
                    grid[start : start + count] = modulator.modulate(data)
                transmitted[key] = (grid, symbol_map)
            grid, _ = transmitted[key]
            gain = relative_gain(channel, ue_position, position)
            return grid * gain * 0.5

        received = record_uplink(du)
        network.run(10, uplink_signal_fn=ue_uplink)
        assert received
        decoded_any = False
        for packet in received:
            if packet.time not in transmitted:
                continue
            _, symbol_map = transmitted[packet.time]
            iq = uplink_grid(packet, du.cell.num_prb)
            complex_grid = int16_to_iq(iq).reshape(-1)
            for (start, end), data in symbol_map.items():
                block = complex_grid[start * 12 : end * 12]
                # Normalize amplitude before hard-decision demapping.
                scale = np.sqrt(np.mean(np.abs(block) ** 2))
                assert scale > 0
                decoded = demodulate(modulator, block / scale)
                error_rate = np.mean(decoded != data)
                assert error_rate < 0.05
                decoded_any = True
        assert decoded_any

    def test_merge_combining_gain(self, das_setup, rng):
        """The merged signal is stronger than any single RU's copy."""
        network, du, rus, das = das_setup
        channel = ChannelModel()
        ue_position = Position(25, 10, 0)  # between the two RUs
        per_ru_power = {}

        def ue_uplink(ru, position, time, port):
            pending = du._pending_ul.get(slot_id(time))
            if not pending:
                return None
            n_sc = ru.config.num_prb * SAMPLES_PER_PRB
            grid = np.full(n_sc, 0.4 + 0.0j)
            gain = relative_gain(channel, ue_position, position)
            signal = grid * gain
            per_ru_power[ru.ru_id] = float(np.mean(np.abs(signal) ** 2))
            return signal

        merged = record_uplink(du)
        network.run(6, uplink_signal_fn=ue_uplink)
        assert per_ru_power
        assert merged
        iq = uplink_grid(merged[-1], du.cell.num_prb)
        # The RU quantises its uplink at DEFAULT_BACKOFF; int16_to_iq
        # decodes at the downlink drive level.
        merged = int16_to_iq(iq) * (DL_FIXED_POINT_BACKOFF / DEFAULT_BACKOFF)
        merged_power = float(np.mean(np.abs(merged) ** 2))
        assert merged_power > max(per_ru_power.values())

    def test_no_packet_loss_through_middlebox(self, das_setup):
        network, du, rus, das = das_setup
        reports = network.run(10)
        assert sum(r.undeliverable for r in reports) == 0
        # Every merged uplink symbol (data + PRACH) reached the DU once.
        delivered = du.counters.ul_packets + du.counters.prach_detections
        assert delivered == das.merged_uplink_symbols

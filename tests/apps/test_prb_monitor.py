"""PRB monitoring middlebox unit tests (Section 4.4, Algorithm 1)."""

import math

import numpy as np
import pytest

from repro.apps.das import DasMiddlebox
from repro.apps.prb_monitor import PrbMonitorMiddlebox
from repro.eval import kit
from repro.eval.fig10 import _fig10c_deployment
from repro.faults import FaultConfig, FaultInjector, FaultScope, ImpairedLink
from repro.fronthaul.compression import SAMPLES_PER_PRB
from repro.fronthaul.cplane import Direction
from repro.fronthaul.ecpri import EAxCId
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import (
    Numerology,
    ns,
    slot_id,
    slot_time,
    symbol_of,
    symbol_time,
)
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from tests import testbed
from tests.apps.prb_oracle import per_slot, record_estimates, slot_mean_sum

N_PRB = 20
T0 = symbol_time(0, 0, 0, 0)


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
        time=symbol_time(0, 0, 0, 0) if time is None else time,
        sections=[section],
    )
    return make_packet(du_mac, ru_mac, message,
                       eaxc=EAxCId(du_port=0, ru_port=port))


class TestAlgorithm1:
    def test_detects_used_prbs_exactly(self, monitor, rng, du_mac, ru_mac):
        used = {2, 5, 11, 19}
        monitor.process(grid_packet(rng, du_mac, ru_mac, used))
        flags = monitor.slot_state[Direction.DOWNLINK, T0]
        assert set(np.flatnonzero(flags).tolist()) == used

    def test_flags_are_one_bool_per_prb_and_fold_as_a_count(
        self, monitor, rng, du_mac, ru_mac
    ):
        """The symbol's per-PRB flags stay in ``slot_state``; the fold
        keeps only how many were set."""
        used = {0, 3, 4, 17}
        monitor.process(grid_packet(rng, du_mac, ru_mac, used))
        flags = monitor.slot_state[Direction.DOWNLINK, T0]
        assert flags.dtype == bool
        assert flags.tolist() == [i in used for i in range(N_PRB)]
        fold = monitor.folds[Direction.DOWNLINK]
        assert (fold.samples, fold.utilized_prbs) == (1, 4)
        assert monitor.average_utilization(Direction.DOWNLINK) == 0.2

    def test_idle_grid_zero_utilization(self, monitor, rng, du_mac, ru_mac):
        monitor.process(grid_packet(rng, du_mac, ru_mac, set()))
        assert monitor.folds[Direction.DOWNLINK].samples == 1
        assert monitor.average_utilization(Direction.DOWNLINK) == 0.0

    def test_full_grid_full_utilization(self, monitor, rng, du_mac, ru_mac):
        monitor.process(grid_packet(rng, du_mac, ru_mac, set(range(N_PRB))))
        assert monitor.average_utilization(Direction.DOWNLINK) == 1.0

    def test_uplink_threshold_tolerates_noise(self, monitor, rng, du_mac,
                                              ru_mac):
        """UL noise floors produce small exponents; thr_ul=2 masks them."""
        samples = rng.integers(-800, 800, size=(N_PRB, 24)).astype(np.int16)
        samples[7] = rng.integers(-8000, 8000, 24)
        section = UPlaneSection.from_samples(0, 0, samples)
        time = symbol_time(0, 0, 0, 10)
        message = UPlaneMessage(direction=Direction.UPLINK,
                                time=time,
                                sections=[section])
        monitor.process(make_packet(ru_mac, du_mac, message))
        flags = monitor.slot_state[Direction.UPLINK, time]
        assert flags[7]
        assert flags.sum() == 1

    def test_threshold_configurable_via_management(self, rng, du_mac, ru_mac):
        monitor = PrbMonitorMiddlebox(carrier_num_prb=N_PRB, thr_dl=15)
        monitor.process(grid_packet(rng, du_mac, ru_mac, {1, 2, 3}))
        assert monitor.folds[Direction.DOWNLINK].samples == 1
        assert monitor.average_utilization(Direction.DOWNLINK) == 0.0

    def test_packets_forwarded_unmodified(self, monitor, rng, du_mac, ru_mac):
        packet = grid_packet(rng, du_mac, ru_mac, {0})
        wire = packet.pack()
        result = monitor.process(packet)
        assert len(result.emissions) == 1
        assert result.emissions[0].pack() == wire

    def test_only_monitored_port_estimated(self, monitor, rng, du_mac, ru_mac):
        monitor.process(grid_packet(rng, du_mac, ru_mac, {1}, port=1))
        assert monitor.folds[Direction.DOWNLINK].samples == 0
        assert len(monitor.slot_state) == 0
        monitor.process(grid_packet(rng, du_mac, ru_mac, {1}, port=0))
        assert monitor.folds[Direction.DOWNLINK].samples == 1

    def test_prach_packets_skipped(self, monitor, rng, du_mac, ru_mac):
        packet = grid_packet(rng, du_mac, ru_mac, {1})
        packet.message.filter_index = 1
        monitor.process(packet)
        assert monitor.folds[Direction.DOWNLINK].samples == 0

    def test_cplane_forwarded_without_estimate(self, monitor, du_mac, ru_mac):
        from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection

        message = CPlaneMessage(
            direction=Direction.DOWNLINK,
            time=T0,
            sections=[CPlaneSection(0, 0, N_PRB)],
        )
        result = monitor.process(make_packet(du_mac, ru_mac, message))
        assert len(result.emissions) == 1
        assert monitor.folds[Direction.DOWNLINK].samples == 0


class TestAggregation:
    def test_average_utilization_per_direction(self, monitor, rng, du_mac,
                                               ru_mac):
        monitor.process(grid_packet(rng, du_mac, ru_mac, set(range(10))))
        monitor.process(grid_packet(rng, du_mac, ru_mac, set()))
        assert monitor.average_utilization(Direction.DOWNLINK) == pytest.approx(
            0.25
        )
        assert monitor.average_utilization(Direction.UPLINK) == 0.0

    def test_a_slot_closes_when_the_next_slot_arrives(self, monitor, rng,
                                                      du_mac, ru_mac):
        """Per slot, the mean of its estimates; ``end_slot`` closes
        nothing, so a packet of the open slot that arrives after it still
        counts in that slot."""
        fold = monitor.folds[Direction.DOWNLINK]
        monitor.process(grid_packet(rng, du_mac, ru_mac, set(range(10))))
        monitor.end_slot()
        monitor.process(grid_packet(rng, du_mac, ru_mac, set()))
        assert fold.slot_mean_sum() == 0.25
        monitor.process(grid_packet(rng, du_mac, ru_mac, set(range(N_PRB)),
                                    time=symbol_time(0, 0, 1, 0)))
        assert fold.slot_mean_sum() == 1.25
        assert monitor.average_utilization(Direction.DOWNLINK) == 0.5


class TestTelemetry:
    def test_estimates_published(self, monitor, rng, du_mac, ru_mac):
        monitor.process(grid_packet(rng, du_mac, ru_mac, {3}))
        assert monitor.folds[Direction.DOWNLINK].samples == 1
        assert monitor.slot_state[Direction.DOWNLINK, T0][3]

    def test_timestamps_sub_millisecond(self, monitor, rng, du_mac, ru_mac):
        """Section 4.4: sub-millisecond granularity — consecutive symbol
        estimates are ~35.7 us apart."""
        monitor.process(grid_packet(rng, du_mac, ru_mac, {1},
                                    time=symbol_time(0, 0, 0, 0)))
        monitor.process(grid_packet(rng, du_mac, ru_mac, {1},
                                    time=symbol_time(0, 0, 0, 1)))
        first, second = (
            ns(time, Numerology(mu=1)) for _, time in monitor.slot_state
        )
        delta = second - first
        assert 30_000 < delta < 40_000


class TestFoldIsThePerEstimateOracle:
    """The running fold against the record list it replaced: every
    estimate kept, grouped by slot key, each slot's mean summed."""

    @staticmethod
    def assert_fold_is_the_oracle(monitor, records, direction):
        expected = slot_mean_sum(records, direction)
        got = monitor.folds[direction].slot_mean_sum()
        assert abs(got - expected) <= math.ulp(expected), direction

    @pytest.mark.parametrize("load", [0, 150, 400, 700])
    def test_fig10c_cell(self, load):
        """Figure 10c's cell: DL slots carry 1 estimate, UL slots 14 and
        special slots 4 — the per-slot grouping is not a plain mean."""
        n_slots = 20
        group, ue_uplink = _fig10c_deployment(load, n_slots, seed=3)
        monitor = group.middleboxes[0]
        records = record_estimates(monitor)
        group.network.run(n_slots, uplink_signal_fn=ue_uplink)
        for direction in Direction:
            self.assert_fold_is_the_oracle(monitor, records, direction)
            fold = monitor.folds[direction]
            assert fold.samples == sum(
                seen is direction for _, seen, _ in records
            )
        if load:
            sizes = {
                len(values)
                for direction in Direction
                for values in per_slot(records, direction).values()
            }
            assert sizes == {1, 4, 14}

    def test_a_deadline_flushed_merge_counts_in_its_own_slot(self):
        """A degraded DAS merge released at the deadline reaches the
        monitor upstream of it after that monitor's ``end_slot``."""
        seed = 5
        du, rus = testbed.endpoints(kit.cell(
            "flushed", 1, [kit.flow("dl", 40.0), kit.flow("ul", 40.0)],
            rus=kit.radios(2, seed), seed=seed,
        ))
        monitor = PrbMonitorMiddlebox(carrier_num_prb=du.cell.num_prb)
        das = DasMiddlebox(
            du_mac=du.mac, ru_macs=[ru.mac for ru in rus], partial_merge=True
        )
        injector = FaultInjector(
            FaultConfig(
                loss_rate=0.2, scope=FaultScope(direction=Direction.UPLINK)
            ),
            seed=seed, name="flush", carrier_num_prb=du.cell.num_prb,
        )
        network = testbed.network(
            [du], rus, [monitor, das],
            wire=ImpairedLink(injector),
        )
        records = record_estimates(monitor)
        closed_at = []
        end_slot = monitor.end_slot

        def closing():
            closed_at.append(len(records))
            return end_slot()

        monitor.end_slot = closing

        def ue_uplink(ru, position, time, port):
            """Signal on the first ``symbol + 1`` PRBs of each grant: a
            slot's mean depends on which of its symbols arrive late."""
            sc = SAMPLES_PER_PRB
            grid = np.zeros(ru.config.num_prb * sc, dtype=np.complex128)
            for grant in du._pending_ul.get(slot_id(time), ()):
                width = min(grant.num_prb, symbol_of(time) + 1)
                grid[grant.start_prb * sc : (grant.start_prb + width) * sc] = 0.5
            return grid

        late = []
        for _ in range(20):
            report = network.run_slot(uplink_signal_fn=ue_uplink)
            slot_key = slot_id(slot_time(
                report.absolute_slot, du.cell.numerology
            ))
            for time, direction, _ in records[closed_at[-1]:]:
                assert slot_id(time) == slot_key
                late.append(direction)
        assert das.degraded_merges > 0
        assert late and set(late) == {Direction.UPLINK}
        for direction in Direction:
            self.assert_fold_is_the_oracle(monitor, records, direction)

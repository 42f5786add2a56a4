"""Vendor interoperability: the same middlebox code against all three RAN
stacks (Section 6.2: srsRAN, CapGemini, Radisys — "without any source code
modifications, and with only small configuration parameter changes").
"""

import pytest

from repro.apps.das import DasMiddlebox
from repro.apps.prb_monitor import PrbMonitorMiddlebox
from repro.fronthaul.cplane import Direction
from repro.ran.cell import CellConfig
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.stacks import ALL_PROFILES
from repro.ran.traffic import ConstantBitrateFlow
from repro.sim.network_sim import FronthaulNetwork


def build_network(profile, n_rus=2, seed=20):
    cell = CellConfig(
        pci=1,
        bandwidth_hz=40_000_000,
        n_antennas=2,
        max_dl_layers=2,
        compression=profile.compression,
    )
    du = DistributedUnit(du_id=1, cell=cell, profile=profile,
                         symbols_per_slot=1, seed=seed)
    rus = [
        RadioUnit(
            ru_id=i,
            config=RuConfig(num_prb=cell.num_prb, n_antennas=2,
                            compression=profile.compression),
            du_mac=du.mac,
            seed=seed,
        )
        for i in range(n_rus)
    ]
    das = DasMiddlebox(du_mac=du.mac, ru_macs=[ru.mac for ru in rus])
    monitor = PrbMonitorMiddlebox(carrier_num_prb=cell.num_prb)
    du.scheduler.add_ue("ue", dl_layers=2)
    du.scheduler.update_ue_quality("ue", dl_aggregate_se=10.0, ul_se=3.0)
    du.attach_flow("ue", ConstantBitrateFlow(100, "dl"), Direction.DOWNLINK)
    du.attach_flow("ue", ConstantBitrateFlow(15, "ul"), Direction.UPLINK)
    network = FronthaulNetwork(middleboxes=[monitor, das])
    network.add_du(du)
    for ru in rus:
        network.add_ru(ru)
    return network, du, rus, das, monitor


@pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
class TestInterop:
    def test_das_works_unmodified(self, profile):
        """The identical DAS middlebox instance type handles every stack's
        packet stream: different TDD patterns, compression widths."""
        network, du, rus, das, monitor = build_network(profile)
        reports = network.run(12)
        assert sum(r.undeliverable for r in reports) == 0
        assert das.merged_uplink_symbols > 0
        assert all(ru.counters.uplane_received > 0 for ru in rus)
        assert all(ru.counters.unsolicited_uplane == 0 for ru in rus)
        assert du.counters.ul_bits > 0

    def test_monitor_matches_ground_truth(self, profile):
        network, du, rus, das, monitor = build_network(profile)
        network.run(12)
        # The estimate is computed from this vendor's own BFP exponents
        # (width 9 or 14) and must track its scheduler's allocations.
        from repro.fronthaul.cplane import Direction as D

        truth = du.scheduler.average_utilization(D.DOWNLINK)
        fold = monitor.folds[D.DOWNLINK]
        assert fold.samples
        n_dl_slots = du.scheduler.scheduled_slots[D.DOWNLINK]
        normalized = fold.utilized_prbs / fold.num_prb / n_dl_slots
        assert normalized == pytest.approx(truth, abs=0.08)

    def test_rans_keep_vendor_tdd_cadence(self, profile):
        """Per-vendor TDD patterns change packet cadence, not correctness."""
        network, du, rus, das, monitor = build_network(profile)
        network.run(len(profile.tdd.pattern) * 2)
        assert das.stats.rx_packets > 0

"""UE tests: attach, measurements, uplink SINR."""

import pytest

from repro.phy.channel import ChannelModel
from repro.phy.geometry import FloorPlan, Position
from repro.ran.ue import AttachError, CellView, Subscriber, UserEquipment

BW = 273 * 12 * 30e3


@pytest.fixture
def channel():
    return ChannelModel(seed=5)


@pytest.fixture
def plan():
    return FloorPlan()


def make_view(ru_positions, antennas=None, pci=1, plmn="00101"):
    antennas = antennas or [4] * len(ru_positions)
    return CellView(
        pci=pci,
        plmn=plmn,
        ru_positions=ru_positions,
        ru_antennas=antennas,
        n_subcarriers=273 * 12,
    )


class TestCellView:
    def test_requires_matching_lengths(self, plan):
        with pytest.raises(ValueError):
            make_view(plan.ru_positions(0), antennas=[4])

    def test_requires_rus(self):
        with pytest.raises(ValueError):
            make_view([])


class TestMeasurements:
    def test_rsrp_combines_das_rus(self, plan, channel):
        rus = plan.ru_positions(0)
        ue = UserEquipment("001010000000001", Position(25, 10, 0),
                           channel=channel)
        single = ue.rsrp_dbm(make_view([rus[1]]))
        combined = ue.rsrp_dbm(make_view(rus))
        assert combined > single

    def test_rank_reported(self, plan, channel):
        rus = plan.ru_positions(0)
        ue = UserEquipment("001010000000001",
                           Position(rus[0].x + 3, rus[0].y, 0),
                           channel=channel)
        measurement = ue.measure(make_view([rus[0]]), BW)
        assert measurement.rank == 4
        assert ue.measurements[-1] is measurement

    def test_ue_antennas_cap_rank(self, plan, channel):
        rus = plan.ru_positions(0)
        ue = UserEquipment("001010000000001",
                           Position(rus[0].x + 3, rus[0].y, 0),
                           channel=channel)
        view = make_view([rus[0]], antennas=[8])
        assert ue.measure(view, BW).rank == UserEquipment.n_antennas == 4

    def test_uplink_combining_gain(self, plan, channel):
        rus = plan.ru_positions(0)
        ue = UserEquipment("001010000000001", Position(25, 10, 0),
                           channel=channel)
        strongest = max(ue.uplink_sinr_db(make_view([ru]), BW) for ru in rus)
        assert ue.uplink_sinr_db(make_view(rus), BW) > strongest

    def test_das_vs_dmimo_link_types(self, plan, channel):
        """DAS layer count is the per-RU antenna count; dMIMO adds them."""
        rus = plan.ru_positions(0)
        ue = UserEquipment("001010000000001", Position(25, 10, 0),
                           channel=channel)
        view = make_view(rus, antennas=[1] * 4)
        assert ue.das_link(view, BW).best_rank() == 1
        assert ue.mimo_link(view, BW).best_rank() > 1


class TestAttach:
    def test_attaches_to_strongest(self, plan, channel):
        rus = plan.ru_positions(0)
        views = [make_view([ru], pci=i) for i, ru in enumerate(rus)]
        ue = UserEquipment("001010000000001",
                           Position(rus[2].x + 1, rus[2].y, 0),
                           channel=channel)
        chosen = ue.scan_and_attach(views)
        assert chosen.pci == 2
        assert ue.serving_pci == 2

    def test_upper_floor_cannot_attach(self, plan, channel):
        """Section 6.2.1: upper-floor UEs fail to attach to a ground cell."""
        ground = make_view([plan.ru_positions(0)[0]])
        ue = UserEquipment("001010000000001", Position(10, 10, 3),
                           channel=channel)
        with pytest.raises(AttachError):
            ue.scan_and_attach([ground])

    def test_forced_pci(self, plan, channel):
        """Section 6.2.3: forcing association by physical cell id is
        offering the UE only that cell."""
        rus = plan.ru_positions(0)
        views = [make_view([rus[0]], pci=10), make_view([rus[0]], pci=11)]
        ue = UserEquipment("001010000000001",
                           Position(rus[0].x + 2, rus[0].y, 0),
                           channel=channel)
        forced = [view for view in views if view.pci == 11]
        assert ue.scan_and_attach(forced).pci == 11

    def test_plmn_filter(self, plan, channel):
        rus = plan.ru_positions(0)
        foreign = make_view([rus[0]], plmn="00102")
        ue = UserEquipment("001010000000001",
                           Position(rus[0].x + 2, rus[0].y, 0),
                           channel=channel)
        assert ue.can_attach(foreign)
        with pytest.raises(AttachError):
            ue.scan_and_attach([foreign])

    def test_malformed_imsi_rejected(self):
        with pytest.raises(ValueError):
            Subscriber("12ab")

"""Table 1: kernel vs userspace packet processing per application.

The XDP implementations place DAS and RU sharing in userspace (IQ work)
and dMIMO and PRB monitoring in the kernel (header work only).  We assert
both the declared design placement and that the *measured* actions
of each app's data path agree with it.
"""


from repro.apps.das import DasMiddlebox
from repro.apps.dmimo import DmimoMiddlebox, RuPortMap
from repro.apps.prb_monitor import PrbMonitorMiddlebox
from repro.apps.ru_sharing import RuSharingMiddlebox, SharedDuConfig
from repro.core.actions import ExecLocation
from repro.fronthaul.cplane import Direction
from repro.fronthaul.ecpri import EAxCId
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import make_packet
from repro.fronthaul.spectrum import PrbGrid, split_ru_spectrum
from repro.fronthaul.timing import SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection

from tests.conftest import random_prb_samples


class TestDeclaredPlacement:
    """Table 1 as declared by each application class."""

    def test_das_userspace(self):
        assert DasMiddlebox.nominal_xdp_location is ExecLocation.USERSPACE

    def test_dmimo_kernel(self):
        assert DmimoMiddlebox.nominal_xdp_location is ExecLocation.KERNEL

    def test_ru_sharing_userspace(self):
        assert RuSharingMiddlebox.nominal_xdp_location is ExecLocation.USERSPACE

    def test_prb_monitor_kernel(self):
        assert PrbMonitorMiddlebox.nominal_xdp_location is ExecLocation.KERNEL


class TestMeasuredPlacement:
    """The recorded actions of each app's uplink data path match Table 1."""

    def test_das_uplink_needs_userspace(self, rng, du_mac):
        rus = [MacAddress.from_int(0x20 + i) for i in range(2)]
        das = DasMiddlebox(du_mac=du_mac, ru_macs=rus)
        contexts = []
        for mac in rus:
            section = UPlaneSection.from_samples(
                0, 0, random_prb_samples(rng, 4)
            )
            packet = make_packet(
                mac, du_mac,
                UPlaneMessage(direction=Direction.UPLINK,
                              time=SymbolTime(0, 0, 0, 5),
                              sections=[section]),
            )
            contexts.append(das.process(packet))
        assert any(ctx.needs_userspace() for ctx in contexts)

    def test_dmimo_data_path_stays_in_kernel(self, rng, du_mac):
        ru = MacAddress.from_int(0x31)
        dmimo = DmimoMiddlebox(
            du_mac=du_mac, port_map=RuPortMap(groups=((ru, 2),))
        )
        section = UPlaneSection.from_samples(0, 0, random_prb_samples(rng, 4))
        packet = make_packet(
            du_mac, MacAddress.from_int(0xFF),
            UPlaneMessage(direction=Direction.DOWNLINK,
                          time=SymbolTime(0, 0, 0, 1), sections=[section]),
            eaxc=EAxCId(du_port=0, ru_port=1),
        )
        assert not dmimo.process(packet).needs_userspace()

    def test_monitor_stays_in_kernel(self, rng, du_mac, ru_mac):
        monitor = PrbMonitorMiddlebox(carrier_num_prb=8)
        section = UPlaneSection.from_samples(0, 0, random_prb_samples(rng, 8))
        packet = make_packet(
            du_mac, ru_mac,
            UPlaneMessage(direction=Direction.DOWNLINK,
                          time=SymbolTime(0, 0, 0, 0), sections=[section]),
        )
        assert not monitor.process(packet).needs_userspace()

    def test_sharing_uplink_needs_userspace(self, rng):
        ru_grid = PrbGrid(3.46e9, 273)
        grid = split_ru_spectrum(ru_grid, [106])[0]
        du = SharedDuConfig(du_id=1, mac=MacAddress.from_int(0x11), grid=grid)
        sharing = RuSharingMiddlebox(
            ru_mac=MacAddress.from_int(0x41), ru_grid=ru_grid, dus=[du]
        )
        from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection

        time = SymbolTime(0, 0, 0, 10)
        cplane = make_packet(
            du.mac, sharing.ru_mac,
            CPlaneMessage(direction=Direction.UPLINK, time=time,
                          sections=[CPlaneSection(0, 0, 106)]),
        )
        contexts = [sharing.process(cplane)]
        section = UPlaneSection.from_samples(
            0, 0, random_prb_samples(rng, 273)
        )
        uplink = make_packet(
            sharing.ru_mac, du.mac,
            UPlaneMessage(direction=Direction.UPLINK, time=time,
                          sections=[section]),
        )
        contexts.append(sharing.process(uplink))
        assert any(ctx.needs_userspace() for ctx in contexts)

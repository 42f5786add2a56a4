"""The unified ``process_uplink`` entrypoint (the only uplink entrypoint).

The ``process_uplink_from`` alias PR 4 deprecated is gone: in-repo
callers migrated then, CI has run ``-W error::DeprecationWarning`` since,
and this suite pins both that the attribute no longer exists and that a
full network slot stays warning-clean.
"""

import warnings

import pytest

from repro.core.chain import MiddleboxChain
from repro.core.middlebox import Middlebox
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import SymbolTime


def ul_packet():
    return make_packet(
        MacAddress.from_int(2),
        MacAddress.from_int(1),
        CPlaneMessage(
            direction=Direction.UPLINK,
            time=SymbolTime(0, 0, 0, 0),
            sections=[CPlaneSection(0, 0, 50)],
        ),
    )


class Tracer(Middlebox):
    app_name = "tracer"

    def __init__(self, log=None, **kwargs):
        super().__init__(**kwargs)
        self.log = log if log is not None else []

    def on_cplane(self, ctx, pkt):
        self.log.append(self.name)
        ctx.forward(pkt)

    on_uplane = on_cplane


class Holder(Tracer):
    """A stage with DAS-like deadline-hold capability."""

    app_name = "holder"
    deadline_hold = True


def make_chain(log):
    boxes = [
        Tracer(name="first", log=log),
        Holder(name="holder", log=log),
        Tracer(name="last", log=log),
    ]
    return MiddleboxChain(boxes, name="t"), boxes


class TestProcessUplink:
    def test_full_chain_runs_in_reverse(self):
        log = []
        chain, _ = make_chain(log)
        out = chain.process_uplink([ul_packet()])
        assert len(out) == 1
        assert log == ["last", "holder", "first"]

    def test_source_by_index_runs_upstream_stages_only(self):
        log = []
        chain, _ = make_chain(log)
        chain.process_uplink([ul_packet()], source=1)
        assert log == ["first"]

    def test_unknown_source_raises(self):
        chain, _ = make_chain([])
        with pytest.raises(IndexError, match="out of range"):
            chain.process_uplink([ul_packet()], source=4)

    def test_deadline_flush_false_bypasses_holding_stages(self):
        log = []
        chain, _ = make_chain(log)
        chain.process_uplink([ul_packet()], deadline_flush=False)
        assert log == ["last", "first"]
        assert chain.hold_bypassed == 1

    def test_empty_upstream_returns_copy(self):
        chain, _ = make_chain([])
        packets = [ul_packet()]
        out = chain.process_uplink(packets, source=0)
        assert out == packets and out is not packets


class TestAliasRemoved:
    def test_deprecated_alias_is_gone(self):
        """The PR 4 migration window is closed: the alias must not
        linger as silent API surface."""
        chain, _ = make_chain([])
        assert not hasattr(chain, "process_uplink_from")

    def test_no_repo_code_triggers_the_warning(self):
        """In-repo callers are migrated: a full network slot under
        ``-W error::DeprecationWarning`` must not raise."""
        from repro.ran.cell import CellConfig
        from repro.ran.du import DistributedUnit
        from repro.ran.ru import RadioUnit, RuConfig
        from repro.sim.network_sim import FronthaulNetwork
        from repro.apps.das import DasMiddlebox

        cell = CellConfig(pci=1, bandwidth_hz=20_000_000, n_antennas=2,
                          max_dl_layers=2)
        du = DistributedUnit(du_id=1, cell=cell, symbols_per_slot=1)
        rus = [
            RadioUnit(
                ru_id=i + 1,
                config=RuConfig(num_prb=cell.num_prb, n_antennas=2),
                du_mac=du.mac,
            )
            for i in range(2)
        ]
        das = DasMiddlebox(du_mac=du.mac, ru_macs=[ru.mac for ru in rus],
                           partial_merge=True)
        network = FronthaulNetwork(middleboxes=[das], deadline_flush=True)
        network.add_du(du)
        for ru in rus:
            network.add_ru(ru)
        du.scheduler.add_ue("u1", dl_layers=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            network.run(2)

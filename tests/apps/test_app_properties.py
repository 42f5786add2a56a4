"""Property-based tests of middlebox invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.das import DasMiddlebox
from repro.apps.dmimo import DmimoMiddlebox, RuPortMap
from repro.fronthaul.cplane import Direction
from repro.fronthaul.ecpri import EAxCId
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection

DU_MAC = MacAddress.from_int(0x01)


def ul_packet(seed, src, time, port, n_prbs=4):
    rng = np.random.default_rng(seed)
    samples = rng.integers(-8000, 8000, size=(n_prbs, 24)).astype(np.int16)
    section = UPlaneSection.from_samples(0, 0, samples)
    return make_packet(
        src, DU_MAC,
        UPlaneMessage(direction=Direction.UPLINK, time=time,
                      sections=[section]),
        eaxc=EAxCId(du_port=0, ru_port=port),
    )


@st.composite
def das_arrival_orders(draw):
    n_rus = draw(st.integers(min_value=2, max_value=4))
    n_symbols = draw(st.integers(min_value=1, max_value=3))
    arrivals = [
        (ru, symbol)
        for ru in range(n_rus)
        for symbol in range(n_symbols)
    ]
    return n_rus, n_symbols, draw(st.permutations(arrivals))


@settings(max_examples=50, deadline=None)
@given(das_arrival_orders())
def test_das_merges_exactly_once_per_symbol_any_order(case):
    """Whatever the interleaving of RU arrivals across symbols, every
    symbol merges exactly once and the merged payload is order-invariant."""
    n_rus, n_symbols, order = case
    ru_macs = [MacAddress.from_int(0x20 + i) for i in range(n_rus)]
    das = DasMiddlebox(du_mac=DU_MAC, ru_macs=ru_macs)
    merged_payloads = {}
    for ru_index, symbol in order:
        time = SymbolTime(0, 0, 0, symbol)
        packet = ul_packet(seed=ru_index * 100 + symbol,
                           src=ru_macs[ru_index], time=time, port=0)
        result = das.process(packet)
        for emission in result.emissions:
            key = emission.time
            assert key not in merged_payloads, "double merge"
            merged_payloads[key] = emission.message.sections[0].payload
    assert len(merged_payloads) == n_symbols
    assert das.merged_uplink_symbols == n_symbols
    assert len(das.cache) == 0
    # Order invariance: re-run in sorted order, payloads must match.
    das2 = DasMiddlebox(du_mac=DU_MAC, ru_macs=ru_macs)
    for ru_index, symbol in sorted(order):
        time = SymbolTime(0, 0, 0, symbol)
        result = das2.process(ul_packet(seed=ru_index * 100 + symbol,
                                        src=ru_macs[ru_index], time=time,
                                        port=0))
        for emission in result.emissions:
            key = emission.time
            assert (
                emission.message.sections[0].payload
                == merged_payloads[key]
            )
    assert das.merged_uplink_symbols == das2.merged_uplink_symbols


@settings(max_examples=50, deadline=None)
@given(
    groups=st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                    max_size=4),
)
def test_dmimo_port_map_is_bijection(groups):
    """Any RU/antenna composition yields a bijective global<->local map."""
    macs = [MacAddress.from_int(0x30 + i) for i in range(len(groups))]
    port_map = RuPortMap(groups=tuple(zip(macs, groups)))
    seen = set()
    for global_port in range(port_map.total_ports):
        mac, local = port_map.to_local(global_port)
        assert (mac.to_int(), local) not in seen
        seen.add((mac.to_int(), local))
        assert port_map.to_global(mac, local) == global_port
    assert len(seen) == sum(groups)


@settings(max_examples=30, deadline=None)
@given(
    groups=st.lists(st.integers(min_value=1, max_value=3), min_size=2,
                    max_size=3),
    ports=st.data(),
)
def test_dmimo_roundtrip_identity_on_wire(groups, ports):
    """DL remap followed by UL remap restores the global port, for any
    composition and any port."""
    macs = [MacAddress.from_int(0x30 + i) for i in range(len(groups))]
    port_map = RuPortMap(groups=tuple(zip(macs, groups)))
    dmimo = DmimoMiddlebox(du_mac=DU_MAC, port_map=port_map)
    global_port = ports.draw(
        st.integers(min_value=0, max_value=port_map.total_ports - 1)
    )
    dl = make_packet(
        DU_MAC, MacAddress.from_int(0xFF),
        UPlaneMessage(
            direction=Direction.DOWNLINK,
            time=SymbolTime(0, 0, 0, 1),
            sections=[
                UPlaneSection.from_samples(
                    0, 0, np.zeros((2, 24), dtype=np.int16)
                )
            ],
        ),
        eaxc=EAxCId(du_port=0, ru_port=global_port),
    )
    out = dmimo.process(dl).emissions[0]
    ul = make_packet(
        out.eth.dst, DU_MAC,
        UPlaneMessage(
            direction=Direction.UPLINK,
            time=SymbolTime(0, 0, 0, 10),
            sections=[
                UPlaneSection.from_samples(
                    0, 0, np.zeros((2, 24), dtype=np.int16)
                )
            ],
        ),
        eaxc=EAxCId(du_port=0, ru_port=out.eaxc.ru_port),
    )
    back = dmimo.process(ul).emissions[0]
    assert back.eaxc.ru_port == global_port
    assert back.eth.dst == DU_MAC

"""The benchmark's instrument and the program agree on names.

``bench/trace.py`` measures the per-layer metrics by replacing bound
methods *on built instances, by attribute name*, and times packet and
codec kernels by calling ``packet.wire_size`` / ``packet.clone()`` /
``codec_for(c).compress`` / ``.decompress``.  ``bench/`` may not change
in a perf PR, so a rename in ``src/`` would silently zero a metric (a
renamed ``build_uplink`` read 0 us/pkt and leaked the RU's time into
``sim.network.self_share``).  This test greps the instrument for the
names it proxies and holds the built network to them.
"""

import pathlib
import re

import pytest

from repro.fronthaul.compression import codec_for
from repro.fronthaul.packet import FronthaulPacket
from repro.scale import ScenarioSpec
from repro.scale.runner import build_groups

TRACE = pathlib.Path(__file__).resolve().parents[2] / "bench" / "trace.py"

SPEC = {
    "name": "trace-contract",
    "slots": 5,
    "seed": 1,
    "cells": [
        {
            "name": "c1",
            "pci": 1,
            "bandwidth_hz": 20_000_000,
            "rus": [{"name": "c1-ru1", "n_antennas": 2}],
            "ues": [
                {
                    "ue_id": "c1-ue1",
                    "flows": [
                        {"kind": "cbr", "rate_mbps": 40.0, "direction": "dl"},
                        {"kind": "cbr", "rate_mbps": 40.0, "direction": "ul"},
                    ],
                }
            ],
            "chain": [{"stage": "das", "params": {}, "name": "das"}],
        }
    ],
}


@pytest.fixture(scope="module")
def proxied():
    """``{owner variable in trace.install: {attribute names}}``."""
    if not TRACE.exists():
        pytest.skip("bench/ is not part of this checkout")
    names = {}
    for owner, attr in re.findall(
        r'tracer\.wrap\(\s*([\w.]+),\s*"(\w+)"', TRACE.read_text()
    ):
        names.setdefault(owner, set()).add(attr)
    return names


@pytest.fixture()
def network():
    (group,) = build_groups(ScenarioSpec.from_dict(SPEC))
    return group.network


def test_instrument_proxies_the_expected_layer_boundaries(proxied):
    assert proxied == {
        "du": {"advance_slot", "receive"},
        "ru": {"receive", "build_uplink"},
        "network.chain": {"process_downlink", "process_uplink"},
        "network": {"run_slot"},
    }


def test_every_proxied_name_is_a_method_of_the_built_instances(proxied, network):
    owners = {
        "du": network.dus,
        "ru": network.rus,
        "network.chain": [network.chain],
        "network": [network],
    }
    for owner, attrs in proxied.items():
        assert owners[owner], owner
        for instance in owners[owner]:
            for attr in attrs:
                assert callable(getattr(instance, attr, None)), (owner, attr)


def test_run_slot_reaches_every_proxy_through_the_instance(proxied, network):
    """A proxy set on the instance must see the calls ``run_slot`` makes
    (a class-level or renamed call path would bypass it), and
    ``build_uplink`` must hand back the packet list the trace counts."""
    calls = {}

    def spy(instance, owner, attr):
        inner = getattr(instance, attr)

        def proxy(*args, **kwargs):
            result = inner(*args, **kwargs)
            calls.setdefault((owner, attr), []).append(result)
            return result

        setattr(instance, attr, proxy)

    owners = {
        "du": network.dus, "ru": network.rus,
        "network.chain": [network.chain],
    }
    for owner, instances in owners.items():
        for instance in instances:
            for attr in proxied[owner]:
                spy(instance, owner, attr)
    network.run(5)  # DDDSU: four downlink slots and the uplink slot
    assert set(calls) == {
        (owner, attr) for owner in owners for attr in proxied[owner]
    }
    built = [r for r in calls[("ru", "build_uplink")] if r]
    assert built and all(
        isinstance(packet, FronthaulPacket) for packet in built[0]
    )
    assert len(calls[("ru", "build_uplink")]) == 5 * len(network.rus)


def test_packet_and_codec_kernel_surface(proxied, network):
    """What ``fronthaul_kernels`` calls on captured U-plane packets."""
    source = TRACE.read_text()
    for call in ("packet.wire_size\n", "packet.clone()", "packet.pack()",
                 "codec.compress(samples)", "codec.decompress(payload,"):
        assert call in source, call
    packet = next(
        p for du in network.dus for p in du.advance_slot(0) if p.is_uplane
    )
    assert isinstance(type(packet).wire_size, property)
    assert packet.wire_size == len(packet.pack())
    assert packet.clone().pack() == packet.pack()
    section = packet.message.sections[0]
    codec = codec_for(section.compression)
    samples = section.iq_samples()
    assert codec.compress(samples) == section.payload_bytes()
    assert (
        codec.decompress(section.payload_bytes(), section.num_prb) == samples
    ).all()

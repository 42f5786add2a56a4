"""Downlink determinism: the IQ every RU accepts is a function of the spec.

No run digest covers a downlink IQ byte — the digest hashes the uplink
each DU receives, the counters and the slot reports — so these tests
hash it themselves: per RU, in acceptance order, the symbol, port and
payload bytes of every downlink U-plane section the RU accepts.  That
hash must be equal across two builds of one spec, across worker counts,
and for a run whose clock starts at slot 5,080 (the frame wrap at 5,120
falls inside its window): the DU keys its samples on the slot *offset*.
"""

import hashlib

import pytest

from repro.eval import kit
from repro.fronthaul.timing import SlotClock, symbol_of
from repro.ran.ru import RadioUnit
from repro.scale import Scenario, runner

START = 5_080
SLOTS = 48


def _cell(name, pci, chain=(), rus=2, **fields):
    return kit.cell(
        name, pci, [kit.flow("dl", 60.0), kit.flow("ul", 20.0)],
        rus=[{"name": f"{name}-ru{i}", "n_antennas": 2} for i in range(rus)],
        chain=list(chain), **fields,
    )


def _spec(seed=3):
    return kit.scenario(
        "dl-determinism", SLOTS, seed,
        [
            _cell("das", 1, [{"stage": "das"}], bandwidth_hz=40_000_000,
                  symbols_per_slot=14),
            _cell("dmimo", 2, [{"stage": "dmimo"}], symbols_per_slot=2),
            _cell("plain", 3, rus=1),
        ],
    )


def _probe(radio):
    return vars(radio).setdefault("_dl_probe", hashlib.sha256())


@pytest.fixture(autouse=True)
def dl_probe(monkeypatch):
    """Every RU hashes what it accepts, and a group summary — in whichever
    process ran the group — carries each RU's hex digest."""
    receive = RadioUnit._receive_dl_uplane

    def hashing(self, packet):
        accepted = self.counters.uplane_received
        receive(self, packet)
        if self.counters.uplane_received > accepted:
            probe = _probe(self)
            probe.update(bytes([symbol_of(packet.time), packet.eaxc.ru_port]))
            for section in packet.message.sections:
                probe.update(section.payload)

    summarize = runner._summarize_group

    def summarizing(group):
        result = summarize(group)
        for built in group.cells:
            result.cell_counters[built.spec.name]["dl_sha256"] = {
                name: _probe(radio).hexdigest()
                for name, (radio, _) in built.rus.items()
            }
        return result

    monkeypatch.setattr(RadioUnit, "_receive_dl_uplane", hashing)
    monkeypatch.setattr(runner, "_summarize_group", summarizing)


def _hashes_from(spec, start):
    """Build ``spec`` and drive every group from absolute slot ``start``."""
    hashes = {}
    for group in spec.build():
        network = group.network
        network.clock = SlotClock(network.clock.numerology, start_slot=start)
        network.run(spec.slots)
        for built in group.cells:
            hashes[built.spec.name] = {
                name: _probe(radio).hexdigest()
                for name, (radio, _) in built.rus.items()
            }
    return hashes


def _hashes_of_run(spec, workers):
    result = Scenario(spec).run(workers=workers)
    return {
        cell: counters["dl_sha256"]
        for group in result.groups.values()
        for cell, counters in group.cell_counters.items()
    }


def test_two_builds_of_one_spec_send_one_downlink():
    first, second = _hashes_from(_spec(), 0), _hashes_from(_spec(), 0)
    assert first == second
    # The hash sees the IQ: every cell's RUs accepted downlink, a DAS
    # sends both its RUs the same, and another seed moves every hash.
    empty = hashlib.sha256().hexdigest()
    sent = {
        (cell, ru): digest
        for cell, rus in first.items()
        for ru, digest in rus.items()
        if digest != empty
    }
    assert {cell for cell, _ in sent} == set(first)
    assert len(set(first["das"].values())) == 1
    other = _hashes_from(_spec(seed=4), 0)
    assert all(other[cell][ru] != digest for (cell, ru), digest in sent.items())


def test_one_and_two_workers_send_the_built_downlink():
    built = _hashes_from(_spec(), 0)
    assert _hashes_of_run(_spec(), workers=1) == built
    assert _hashes_of_run(_spec(), workers=2) == built


def test_a_run_started_at_slot_5080_sends_the_same_downlink():
    assert _hashes_from(_spec(), START) == _hashes_from(_spec(), 0)

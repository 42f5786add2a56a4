"""Hand-wired testbeds and the DU-side probes the tests read.

Every product network is built from a spec, and
:func:`~repro.scale.build.build_groups` numbers DUs and RUs from 1 in
spec order.  Tests that need other ids — a golden pinned to the ids it
was taken with, a standby DU on another cell's RU — wire the live
objects here instead: :func:`endpoints` builds one cell fragment's DU
and RUs at chosen ids and :func:`network` puts them behind a chain.

The DU keeps no record of what it received or sent:
:func:`record_uplink` wraps ``receive`` on one instance,
:func:`record_downlink` its downlink grid build, and :func:`uplink_grid`
and :func:`ssb_reference` rebuild what a test compares against.
Likewise the deadline accountant keeps a fold, not its slots:
:func:`record_slots` wraps its ``observe_slot``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.middlebox import Middlebox
from repro.eval import kit
from repro.fronthaul.compression import SAMPLES_PER_PRB
from repro.fronthaul.packet import FronthaulPacket
from repro.phy.iq import QamModulator
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit
from repro.scale.build import build_cell
from repro.sim.network_sim import FronthaulNetwork


def endpoints(
    fragment: Dict[str, Any], du_id: int = 1, ru_id_base: int = 0
) -> Tuple[DistributedUnit, List[RadioUnit]]:
    """One cell fragment (:func:`repro.eval.kit.cell`) as live objects:
    its DU (UE and flows attached) and its RUs, ids ``ru_id_base +
    offset``, uplink addressed to the DU.  The fragment carries its own
    ``seed``, so nothing is derived from the one-cell scenario it is
    built under."""
    spec = kit.scenario(fragment["name"], 1, 0, [fragment])
    built = build_cell(spec, spec.cells[0], du_id, ru_id_base)
    return built.du, [radio for radio, _ in built.rus.values()]


def network(
    dus: Sequence[DistributedUnit],
    rus: Sequence[RadioUnit],
    middleboxes: Sequence[Middlebox],
    **options: Any,
) -> FronthaulNetwork:
    """A network with the DUs and RUs attached behind the chain;
    ``options`` are :class:`FronthaulNetwork`'s own keywords."""
    net = FronthaulNetwork(middleboxes=middleboxes, **options)
    for du in dus:
        net.add_du(du)
    for radio in rus:
        net.add_ru(radio)
    return net


def record_uplink(du: DistributedUnit) -> List[FronthaulPacket]:
    """Every data (non-PRACH) U-plane packet ``du`` receives from now on,
    in arrival order: ``receive`` is wrapped on the instance."""
    received: List[FronthaulPacket] = []
    receive = du.receive

    def recording(packet: FronthaulPacket) -> None:
        receive(packet)
        if packet.message.filter_index != 1:
            received.append(packet)

    du.receive = recording
    return received


def record_slots(accountant: Any) -> List[Tuple[int, Dict[str, float]]]:
    """Every slot ``accountant`` (a
    :class:`~repro.obs.deadline.DeadlineAccountant`) observes from now
    on, ``(absolute_slot, per-stage ns)`` in order: ``observe_slot`` is
    wrapped on the instance."""
    slots: List[Tuple[int, Dict[str, float]]] = []
    observe_slot = accountant.observe_slot

    def recording(absolute_slot: int, per_stage_ns: Dict[str, float]) -> Any:
        slots.append((absolute_slot, dict(per_stage_ns)))
        return observe_slot(absolute_slot, per_stage_ns)

    accountant.observe_slot = recording
    return slots


def record_downlink(
    du: DistributedUnit,
) -> Dict[Tuple[int, int], np.ndarray]:
    """The int16 grid of every downlink U-plane symbol ``du`` builds from
    now on, ``{(time, port): grid}``, ``(num_prb, 24)`` as the codec
    takes it: the slot ``_dl_slot`` returns is kept and its rows paired
    with the packets ``_build_dl_uplane`` returns (one per row, in
    order); both are wrapped on the instance."""
    grids: Dict[Tuple[int, int], np.ndarray] = {}
    slots: List[np.ndarray] = []
    dl_slot, build = du._dl_slot, du._build_dl_uplane

    def recording_slot(*args: Any) -> np.ndarray:
        slot = dl_slot(*args)
        slots.append(slot.copy())
        return slot

    def recording_build(*args: Any) -> List[FronthaulPacket]:
        slots.clear()
        packets = build(*args)
        (slot,) = slots
        for packet, row in zip(packets, slot):
            grids[(packet.time, packet.eaxc.ru_port)] = row.reshape(
                du.cell.num_prb, 2 * SAMPLES_PER_PRB
            )
        return packets

    du._dl_slot = recording_slot
    du._build_dl_uplane = recording_build
    return grids


def uplink_grid(packet: FronthaulPacket, num_prb: int) -> np.ndarray:
    """The full-band ``(num_prb, 24)`` int16 grid one uplink packet
    carries; PRBs no section covers are zero."""
    grid = np.zeros((num_prb, 2 * SAMPLES_PER_PRB), np.int16)
    for section in packet.message.sections:
        grid[section.start_prb : section.start_prb + section.num_prb] = (
            section.iq_samples()
        )
    return grid


def ssb_reference(du: DistributedUnit) -> np.ndarray:
    """The cell's SSB waveform as the DU builds it: a QPSK sequence
    seeded by the PCI over the SSB's PRBs."""
    ssb_start, ssb_end = du.cell.ssb_prb_range
    rng = np.random.default_rng(du.cell.pci)
    return QamModulator(4).modulate(
        rng.integers(0, 4, (ssb_end - ssb_start) * SAMPLES_PER_PRB)
    )

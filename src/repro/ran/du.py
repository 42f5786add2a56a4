"""The Distributed Unit: fronthaul packet generation and consumption.

The DU model drives one cell: each slot it runs the MAC scheduler, then
emits the C-plane scheduling messages and downlink U-plane IQ packets the
paper's middleboxes intercept, and consumes the uplink U-plane packets the
RU (or a middlebox acting on its behalf) returns.

The packet stream is standards-shaped: C-plane section type 1 for data,
type 3 for PRACH, per-antenna-port eAxC flows with sequence numbers, BFP
compressed U-plane payloads, and an SSB transmitted on the first antenna
port only (the property the dMIMO middlebox's SSB replication fixes).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.actions import SlotRing
from repro.fronthaul.compression import SAMPLES_PER_PRB
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction, SectionType
from repro.fronthaul.ecpri import EAxCId
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import FronthaulPacket, make_packet
from repro.fronthaul.timing import SYMBOLS_PER_SLOT, slot_id, slot_time, time_fields
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.phy.iq import DL_FIXED_POINT_BACKOFF, INT16_SCALE, QamModulator, iq_to_int16
from repro.phy.keyed import KeyedPool, mix64
from repro.ran.cell import CellConfig
from repro.ran.scheduler import MacScheduler, PrbAllocation
from repro.ran.stacks import SRSRAN, VendorProfile

#: Amplitude of the near-zero noise the DU emits on idle PRBs (relative to
#: full scale).  Idle PRBs therefore compress with BFP exponent 0 — the
#: contrast Algorithm 1 thresholds on.
IDLE_PRB_AMPLITUDE = 2.0e-4

#: QAM order used to synthesize data PRBs (16QAM keeps decode robust under
#: the channel noise of the end-to-end tests).
DATA_QAM_ORDER = 16

#: The 16-QAM points as the wire carries them, ``(16, 2)`` interleaved
#: I/Q: each is what ``iq_to_int16`` gives it at the downlink drive level
#: (which takes whole PRBs: 48 samples are 3 × 16 points).
QAM_INT16 = iq_to_int16(
    np.tile(QamModulator(DATA_QAM_ORDER).modulate(np.arange(DATA_QAM_ORDER)), 3),
    backoff=DL_FIXED_POINT_BACKOFF,
).reshape(-1, 2)[:DATA_QAM_ORDER]
#: One point as one int32 word: a subcarrier's (I, Q) pair of a slot grid.
_QAM_PAIRS = QAM_INT16.view(np.int32).ravel()

#: Idle-PRB noise pre-quantised, ``rint(N(0, σ))`` in int16 steps at the
#: downlink drive level (σ ≈ 4.6), and data PRBs' 16-QAM symbol indices:
#: one pool each per process, read by key (``DistributedUnit._dl_slot``).
_IDLE_SIGMA = IDLE_PRB_AMPLITUDE * INT16_SCALE * DL_FIXED_POINT_BACKOFF
_IDLE_NOISE = KeyedPool(1, np.int8, lambda rng, n: np.rint(rng.normal(0, _IDLE_SIGMA, n)))
_DATA_SYMBOLS = KeyedPool(2, np.uint8, lambda rng, n: rng.integers(0, DATA_QAM_ORDER, n))


@dataclass
class DuCounters:
    """Throughput accounting for the experiments."""

    dl_bits: int = 0
    ul_bits: int = 0
    dl_packets: int = 0
    ul_packets: int = 0
    cplane_packets: int = 0
    prach_detections: int = 0


class DistributedUnit:
    """One DU instance driving one cell over the fronthaul.

    Parameters
    ----------
    du_id:
        Stable identifier; also used as the eAxC DU-port id and section id
        base in the RU-sharing scenarios.
    cell:
        Cell configuration.
    symbols_per_slot:
        How many data symbols per slot to emit U-plane packets for.  The
        protocol content is identical for every symbol, so tests and
        packet-level experiments keep this small; ``None`` emits all.
        No default: :class:`~repro.scale.spec.CellSpec` holds the one.
    profile:
        Vendor stack profile.
    ru_mac:
        Fronthaul Ethernet address of this DU's (virtual) RU; the DU's
        own is derived from ``du_id``.
    seed:
        The cell seed every downlink sample is keyed on (with ``du_id``,
        the slot offset, symbol and port).
    """

    def __init__(
        self,
        du_id: int,
        cell: CellConfig,
        symbols_per_slot: Optional[int],
        profile: VendorProfile = SRSRAN,
        ru_mac: Optional[MacAddress] = None,
        seed: int = 0,
        compression=None,
    ):
        self.du_id = du_id
        self.cell = cell
        self.profile = profile
        #: Negotiated wire codec for this cell's eAxC streams; defaults
        #: to the stack's BFP parameters when no negotiation happened.
        self.compression = (
            profile.compression if compression is None else compression
        )
        self.mac = MacAddress.from_int(0x02_00_00_00_00_00 + du_id)
        self.ru_mac = ru_mac or MacAddress.from_int(0x02_00_00_00_10_00 + du_id)
        self.scheduler = MacScheduler(cell, profile)
        self.symbols_per_slot = symbols_per_slot
        self.counters = DuCounters()
        #: The slot offset of the downlink's key is the count of slots this
        #: DU has run, so a run started at any absolute slot sends the
        #: same IQ.
        self.seed = seed
        self._slots_run = 0
        self.flows: Dict[str, Tuple[object, Direction]] = {}
        #: sha256 over every data reception's wire-level IQ since the run
        #: began, in arrival order, fed once a slot from the bytes
        #: received since.
        self._uplink_hash = hashlib.sha256()
        self._unhashed: List[bytes] = []
        #: UL allocations awaiting U-plane data: {slot id: [allocations]},
        #: and the slot's uplink symbol count their bits are pro-rated over.
        self._pending_ul = SlotRing()
        self._pending_ul_symbols = SlotRing()
        self._seq: Dict[int, int] = {}

    # -- traffic -------------------------------------------------------------

    def attach_flow(self, ue_id: str, flow, direction: Direction) -> None:
        """Bind a traffic generator to an attached UE."""
        if ue_id not in self.scheduler.ues:
            raise KeyError(f"UE {ue_id} is not attached")
        self.flows[f"{ue_id}/{flow.name}/{direction.name}"] = (flow, direction, ue_id)

    def _enqueue_traffic(self) -> None:
        slot_ns = self.cell.numerology.slot_duration_ns
        for flow, direction, ue_id in self.flows.values():
            bits = flow.bits_in_slot(slot_ns)
            if bits <= 0:
                continue
            if direction is Direction.DOWNLINK:
                self.scheduler.enqueue_dl(ue_id, bits)
            else:
                self.scheduler.enqueue_ul(ue_id, bits)

    # -- slot processing -------------------------------------------------------

    def advance_slot(self, absolute_slot: int) -> List[FronthaulPacket]:
        """Run slot ``absolute_slot``: schedule, emit C-plane and DL
        U-plane packets.  The DU keeps no clock — the network that drives
        it owns the counter and tells every DU the same slot."""
        stamp = slot_time(absolute_slot, self.cell.numerology)
        offset, self._slots_run = self._slots_run, self._slots_run + 1
        self._enqueue_traffic()
        allocations = self.scheduler.schedule_slot(absolute_slot)
        dl_allocs = [a for a in allocations if a.direction is Direction.DOWNLINK]
        ul_allocs = [a for a in allocations if a.direction is Direction.UPLINK]
        # The TDD pattern is asked once per slot; every builder below and
        # the uplink accounting read these two lists.
        tdd, symbols = self.profile.tdd, range(SYMBOLS_PER_SLOT)
        dl_symbols = [s for s in symbols if tdd.is_downlink_symbol(absolute_slot, s)]
        ul_symbols = [s for s in symbols if tdd.is_uplink_symbol(absolute_slot, s)]
        is_ssb_slot = self.cell.is_ssb_slot(absolute_slot)
        transmitting = bool(dl_allocs) or is_ssb_slot
        packets: List[FronthaulPacket] = []
        if transmitting:
            # The stacks we model send full-band U-plane messages (Figure 2
            # shows PRB 0-105 in one section) with near-zero samples on
            # idle PRBs.  Which PRBs hold user data is *not* visible from
            # the C-plane — the property that makes Algorithm 1's
            # exponent-based utilization estimate necessary.  With nothing
            # to transmit the fronthaul goes quiet, which is what makes the
            # XDP datapath's CPU utilization traffic-proportional (Fig 16).
            packets += self._fullband_cplane(Direction.DOWNLINK, stamp, dl_symbols)
        if ul_allocs:
            # No uplink grants, no C-plane: a DU with no traffic stays
            # silent — the uncertainty the RU-sharing middlebox's numPrb
            # widening works around (Section 4.3).
            packets += self._fullband_cplane(Direction.UPLINK, stamp, ul_symbols)
            self._pending_ul[slot_id(stamp)] = ul_allocs
            self._pending_ul_symbols[slot_id(stamp)] = max(len(ul_symbols), 1)
        if self.cell.is_prach_slot(absolute_slot) and ul_symbols:
            packets.append(self._prach_cplane(stamp, ul_symbols))
        if transmitting:
            packets += self._build_dl_uplane(
                stamp, offset, is_ssb_slot, dl_allocs, dl_symbols
            )
        for allocation in dl_allocs:
            self.counters.dl_bits += allocation.bits
        return packets

    # -- C-plane construction --------------------------------------------------

    def _next_seq(self, eaxc_int: int) -> int:
        seq = self._seq.get(eaxc_int, 0)
        self._seq[eaxc_int] = (seq + 1) % 256
        return seq

    def _fullband_cplane(
        self, direction: Direction, stamp: int, symbols: List[int]
    ) -> List[FronthaulPacket]:
        """One full-carrier type-1 request per port covering ``symbols``."""
        if not symbols:
            return []
        packets = []
        for port in range(self.cell.n_antennas):
            message = CPlaneMessage(
                direction=direction,
                time=stamp + symbols[0],
                sections=[
                    CPlaneSection(
                        section_id=(self.du_id * 256) % 4096,
                        start_prb=0,
                        num_prb=self.cell.num_prb,
                        num_symbols=len(symbols),
                    )
                ],
                compression=self.compression,
            )
            eaxc = EAxCId(du_port=self.du_id, ru_port=port)
            packets.append(self._emit(message, eaxc))
        return packets

    def _prach_cplane(
        self, stamp: int, ul_symbols: List[int]
    ) -> FronthaulPacket:
        section = CPlaneSection(
            section_id=self.du_id % 4096,
            start_prb=0,
            num_prb=self.cell.prach_num_prb,
            num_symbols=min(len(ul_symbols), 4),
            freq_offset=self.cell.prach_freq_offset,
        )
        message = CPlaneMessage(
            direction=Direction.UPLINK,
            time=stamp + ul_symbols[0],
            sections=[section],
            section_type=SectionType.PRACH,
            compression=self.compression,
            filter_index=1,  # PRACH filter
        )
        return self._emit(message, EAxCId(du_port=self.du_id, ru_port=0))

    # -- DL U-plane construction ----------------------------------------------

    def _build_dl_uplane(
        self,
        stamp: int,
        offset: int,
        is_ssb_slot: bool,
        allocations: List[PrbAllocation],
        symbols: List[int],
    ) -> List[FronthaulPacket]:
        if self.symbols_per_slot is not None:
            if is_ssb_slot:
                # Keep SSB symbols in the simulated subset so SSB-dependent
                # behaviour (dMIMO replication) is exercised.
                preferred = [s for s in self.cell.ssb_symbols if s in symbols]
                others = [s for s in symbols if s not in preferred]
                symbols = sorted(
                    (preferred + others)[: self.symbols_per_slot]
                )
            else:
                symbols = symbols[: self.symbols_per_slot]
        rows = [
            (symbol, port)
            for symbol in symbols
            for port in range(self.cell.n_antennas)
        ]
        slot = self._dl_slot(offset, rows, allocations, is_ssb_slot)
        grids = slot.reshape(len(rows), self.cell.num_prb, -1)
        sections = UPlaneSection.from_ranges(
            [(self.du_id % 4096, 0, grid) for grid in grids], self.compression
        )
        packets = []
        for (symbol, port), section in zip(rows, sections):
            message = UPlaneMessage(
                direction=Direction.DOWNLINK, time=stamp + symbol,
                sections=[section],
            )
            eaxc = EAxCId(du_port=self.du_id, ru_port=port)
            packets.append(self._emit(message, eaxc, uplane=True))
        return packets

    def _dl_slot(
        self,
        offset: int,
        rows: List[Tuple[int, int]],
        allocations: List[PrbAllocation],
        is_ssb_slot: bool,
    ) -> np.ndarray:
        """The int16 grid of each ``(symbol, port)`` row of the slot
        ``offset`` slots into the run, ``(len(rows), 2 n_sc)`` interleaved
        I/Q: keyed idle noise, then each allocation's keyed 16-QAM points
        on its layers' ports, then the SSB on port 0.  A row is a function
        of its key alone, whatever the other rows."""
        symbols, ports = np.array(rows, dtype=np.uint64).reshape(-1, 2).T
        keys = mix64(self.seed, self.du_id, offset, symbols, ports)
        n_sc = self.cell.num_prb * SAMPLES_PER_PRB
        slot = _IDLE_NOISE.windows(keys, 2 * n_sc).astype(np.int16)
        data = _DATA_SYMBOLS.windows(keys >> np.uint64(32), n_sc)
        pairs = slot.view(np.int32)
        for allocation in allocations:
            layers = ports < allocation.layers
            start = allocation.start_prb * SAMPLES_PER_PRB
            stop = start + allocation.num_prb * SAMPLES_PER_PRB
            pairs[layers, start:stop] = _QAM_PAIRS.take(data[layers, start:stop])
        if is_ssb_slot:
            ssb = (ports == 0) & np.isin(symbols, self.cell.ssb_symbols)
            start = self.cell.ssb_prb_range[0] * 2 * SAMPLES_PER_PRB
            slot[ssb, start : start + len(self._ssb_int16)] = self._ssb_int16
        return slot

    @cached_property
    def _ssb_int16(self) -> np.ndarray:
        """The SSB's PRBs as interleaved int16, built once per DU: a
        deterministic PSS/SSS-like sequence derived from the PCI.

        Real SSBs encode the cell id in their sequences; a PCI-seeded QPSK
        sequence preserves the property the dMIMO middlebox needs (the SSB
        is recognisable, constant, and distinct per cell).
        """
        ssb_start, ssb_end = self.cell.ssb_prb_range
        rng = np.random.default_rng(self.cell.pci)
        waveform = QamModulator(4).modulate(
            rng.integers(0, 4, (ssb_end - ssb_start) * SAMPLES_PER_PRB)
        )
        return iq_to_int16(waveform, backoff=DL_FIXED_POINT_BACKOFF).ravel()

    def _emit(self, message, eaxc: EAxCId, uplane: bool = False) -> FronthaulPacket:
        packet = make_packet(
            src=self.mac,
            dst=self.ru_mac,
            message=message,
            seq_id=self._next_seq(eaxc.to_int()),
            eaxc=eaxc,
        )
        if uplane:
            self.counters.dl_packets += 1
        else:
            self.counters.cplane_packets += 1
        return packet

    # -- uplink consumption ----------------------------------------------------

    def receive(self, packet: FronthaulPacket) -> None:
        """Consume an uplink U-plane packet (from the RU or a middlebox)."""
        if not packet.is_uplane or packet.direction is not Direction.UPLINK:
            raise ValueError("DU only receives uplink U-plane packets")
        if packet.message.filter_index == 1:
            self.counters.prach_detections += 1
            return
        time, ru_port = packet.time, packet.eaxc.ru_port
        sections = packet.message.sections
        self.counters.ul_packets += 1
        self._account_uplink(time, ru_port, sections)
        unhashed = self._unhashed
        frame, subframe, slot, symbol = time_fields(time)
        unhashed.append(
            f"{frame},{subframe},{slot},{symbol},{ru_port}".encode()
        )
        for section in sections:
            unhashed.append(
                f"{section.section_id},{section.start_prb},"
                f"{section.num_prb}".encode()
            )
            unhashed.append(section.payload)

    def _fold_uplink_hash(self) -> None:
        """One update for all that arrived since the last: ``sha256(a + b)``
        is ``update(a); update(b)``."""
        self._uplink_hash.update(b"".join(self._unhashed))
        self._unhashed.clear()

    def end_slot(self) -> None:
        """Close the slot, once its uplink arrived: the hash takes the
        slot's receptions, and the slot's grants age out of their ring."""
        self._fold_uplink_hash()
        self._pending_ul.close()
        self._pending_ul_symbols.close()

    def uplink_sha256(self) -> str:
        """Hex digest of every data reception so far (order-sensitive);
        reading it mid-run does not disturb the running hash."""
        self._fold_uplink_hash()
        return self._uplink_hash.hexdigest()

    def _account_uplink(
        self, time: int, ru_port: int, sections: List[UPlaneSection]
    ) -> None:
        """Credit UL bits for allocations covered by a received packet.

        Bits are credited once per slot (on the first antenna port's
        arrival) per allocation, pro-rated over the slot's UL symbols.
        """
        if ru_port != 0:
            return
        key = slot_id(time)
        pending = self._pending_ul.get(key)
        if not pending:
            return
        symbols = self._pending_ul_symbols[key]
        covered = []
        for allocation in pending:
            for section in sections:
                a_start, a_end = allocation.prb_range
                s_start, s_end = section.prb_range
                if s_start <= a_start and s_end >= a_end:
                    covered.append(allocation)
                    break
        for allocation in covered:
            self.counters.ul_bits += allocation.bits // symbols

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
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.actions import SlotRing
from repro.fronthaul.compression import SAMPLES_PER_PRB
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction, SectionType
from repro.fronthaul.ecpri import EAxCId
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import FronthaulPacket, make_packet
from repro.fronthaul.timing import SYMBOLS_PER_SLOT, SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.phy.iq import QamModulator, iq_to_int16
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

#: Fixed-point drive level of the DL transmit grid.  Real L1s run a few dB
#: below full scale, which is what makes BFP exponents discriminate
#: data from idle even at wide mantissas (Radisys' 14-bit profile).
DL_FIXED_POINT_BACKOFF = 0.7

#: (symbol, port) rows the downlink float stage quantises at once: the
#: bound ``ran.ru`` measured (DESIGN.md, "Blocked slot pass").
_BLOCK_ROWS = 8


@dataclass
class UplinkReception:
    """Bookkeeping for one received uplink U-plane packet."""

    time: SymbolTime
    ru_port: int
    sections: List[UPlaneSection]


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
    cell, profile:
        Cell configuration and vendor stack profile.
    ru_mac:
        Fronthaul Ethernet address of this DU's (virtual) RU; the DU's
        own is derived from ``du_id``.
    symbols_per_slot:
        How many data symbols per slot to emit U-plane packets for.  The
        protocol content is identical for every symbol, so tests and
        packet-level experiments keep this small; ``None`` emits all.
    """

    def __init__(
        self,
        du_id: int,
        cell: CellConfig,
        profile: VendorProfile = SRSRAN,
        ru_mac: Optional[MacAddress] = None,
        symbols_per_slot: Optional[int] = 2,
        record_reference: bool = False,
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
        self.record_reference = record_reference
        self.counters = DuCounters()
        self.rng = np.random.default_rng(seed)
        self.modulator = QamModulator(DATA_QAM_ORDER)
        self.flows: Dict[str, Tuple[object, Direction]] = {}
        #: Data receptions, while their slot is held:
        #: {(time, ru_port): [UplinkReception]}.
        self._receptions = SlotRing()
        #: sha256 over every data reception's wire-level IQ since the run
        #: began, in arrival order (the log above forgets; this does not),
        #: fed once a slot from the bytes received since.
        self._uplink_hash = hashlib.sha256()
        self._unhashed: List[bytes] = []
        #: Reference DL int16 grids for tests: {(time, port): samples}.
        self.dl_reference: Dict[Tuple, np.ndarray] = {}
        #: UL allocations awaiting U-plane data: {slot_key: [allocations]},
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
        slot_time = SymbolTime.from_absolute_slot(
            absolute_slot, self.cell.numerology
        )
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
            packets += self._fullband_cplane(Direction.DOWNLINK, slot_time, dl_symbols)
        if ul_allocs:
            # No uplink grants, no C-plane: a DU with no traffic stays
            # silent — the uncertainty the RU-sharing middlebox's numPrb
            # widening works around (Section 4.3).
            packets += self._fullband_cplane(Direction.UPLINK, slot_time, ul_symbols)
            self._pending_ul[slot_time.slot_key()] = ul_allocs
            self._pending_ul_symbols[slot_time.slot_key()] = max(len(ul_symbols), 1)
        if self.cell.is_prach_slot(absolute_slot) and ul_symbols:
            packets.append(self._prach_cplane(slot_time, ul_symbols))
        if transmitting:
            packets += self._build_dl_uplane(
                slot_time, is_ssb_slot, dl_allocs, dl_symbols
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
        self, direction: Direction, slot_time: SymbolTime, symbols: List[int]
    ) -> List[FronthaulPacket]:
        """One full-carrier type-1 request per port covering ``symbols``."""
        if not symbols:
            return []
        packets = []
        for port in range(self.cell.n_antennas):
            message = CPlaneMessage(
                direction=direction,
                time=replace(slot_time, symbol=symbols[0]),
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
        self, slot_time: SymbolTime, ul_symbols: List[int]
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
            time=replace(slot_time, symbol=ul_symbols[0]),
            sections=[section],
            section_type=SectionType.PRACH,
            compression=self.compression,
            filter_index=1,  # PRACH filter
        )
        return self._emit(message, EAxCId(du_port=self.du_id, ru_port=0))

    # -- DL U-plane construction ----------------------------------------------

    def _build_dl_uplane(
        self,
        slot_time: SymbolTime,
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
        keys = [
            (replace(slot_time, symbol=symbol), port)
            for symbol in symbols
            for port in range(self.cell.n_antennas)
        ]
        # Each (symbol, port) row is drawn on its own — ``normal`` and the
        # allocations' ``integers`` alternate on one generator — into a
        # block of at most ``_BLOCK_ROWS`` complex rows quantised at once;
        # the slot's int16 then goes through the codec in one blocked pass.
        n_sc = self.cell.num_prb * SAMPLES_PER_PRB
        grids: List[np.ndarray] = []
        for start in range(0, len(keys), _BLOCK_ROWS):
            block = keys[start : start + _BLOCK_ROWS]
            signal = np.empty((len(block), n_sc), dtype=np.complex128)
            for row, (time, port) in zip(signal, block):
                self._symbol_grid(row, allocations, port, time.symbol, is_ssb_slot)
            grids.extend(iq_to_int16(signal, backoff=DL_FIXED_POINT_BACKOFF))
        sections = UPlaneSection.from_ranges(
            [(self.du_id % 4096, 0, grid) for grid in grids], self.compression
        )
        packets = []
        for (time, port), grid, section in zip(keys, grids, sections):
            message = UPlaneMessage(
                direction=Direction.DOWNLINK, time=time, sections=[section]
            )
            eaxc = EAxCId(du_port=self.du_id, ru_port=port)
            packets.append(self._emit(message, eaxc, uplane=True))
            if self.record_reference:
                self.dl_reference[(time, port)] = grid
        return packets

    def _symbol_grid(
        self,
        row: np.ndarray,
        allocations: List[PrbAllocation],
        port: int,
        symbol: int,
        is_ssb_slot: bool,
    ) -> None:
        """Fill ``row`` with one symbol's complex grid for one port."""
        row.real, row.imag = self.rng.normal(0, IDLE_PRB_AMPLITUDE, (2, len(row)))
        for allocation in allocations:
            if port >= allocation.layers:
                continue
            start = allocation.start_prb * SAMPLES_PER_PRB
            count = allocation.num_prb * SAMPLES_PER_PRB
            data_symbols = self.rng.integers(0, DATA_QAM_ORDER, count)
            row[start : start + count] = self.modulator.modulate(data_symbols)
        if is_ssb_slot and port == 0 and symbol in self.cell.ssb_symbols:
            ssb_start, ssb_end = self.cell.ssb_prb_range
            start = ssb_start * SAMPLES_PER_PRB
            count = (ssb_end - ssb_start) * SAMPLES_PER_PRB
            row[start : start + count] = self._ssb_waveform(count)

    def _ssb_waveform(self, n_samples: int) -> np.ndarray:
        """Deterministic PSS/SSS-like sequence derived from the PCI.

        Real SSBs encode the cell id in their sequences; a PCI-seeded QPSK
        sequence preserves the property the dMIMO middlebox needs (the SSB
        is recognisable, constant, and distinct per cell).
        """
        rng = np.random.default_rng(self.cell.pci)
        qpsk = QamModulator(4)
        return qpsk.modulate(rng.integers(0, 4, n_samples))

    def ssb_reference(self) -> np.ndarray:
        """The cell's SSB waveform (used by tests to locate SSB copies)."""
        ssb_start, ssb_end = self.cell.ssb_prb_range
        return self._ssb_waveform((ssb_end - ssb_start) * SAMPLES_PER_PRB)

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
        reception = UplinkReception(
            time=packet.time,
            ru_port=packet.eaxc.ru_port,
            sections=list(packet.message.sections),
        )
        # The packet's datapath life ends here and the log outlives the
        # slot: it keeps the wire bytes, not the encoder's parse.
        for section in reception.sections:
            section.shed_parse()
        self._receptions.setdefault(
            (reception.time, reception.ru_port), []
        ).append(reception)
        self.counters.ul_packets += 1
        self._account_uplink(reception)
        time, unhashed = reception.time, self._unhashed
        unhashed.append(
            f"{time.frame},{time.subframe},{time.slot},{time.symbol},"
            f"{reception.ru_port}".encode()
        )
        for section in reception.sections:
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
        slot's receptions, which age out of their ring with the grants."""
        self._fold_uplink_hash()
        self._receptions.close()
        self._pending_ul.close()
        self._pending_ul_symbols.close()

    @property
    def uplink_receptions(self) -> List[UplinkReception]:
        """Data receptions of the slots still held, oldest first."""
        return [r for held in self._receptions.values() for r in held]

    def uplink_sha256(self) -> str:
        """Hex digest of every data reception so far (order-sensitive);
        reading it mid-run does not disturb the running hash."""
        self._fold_uplink_hash()
        return self._uplink_hash.hexdigest()

    def _account_uplink(self, reception: UplinkReception) -> None:
        """Credit UL bits for allocations covered by a received packet.

        Bits are credited once per slot (on the first antenna port's
        arrival) per allocation, pro-rated over the slot's UL symbols.
        """
        if reception.ru_port != 0:
            return
        key = reception.time.slot_key()
        pending = self._pending_ul.get(key)
        if not pending:
            return
        symbols = self._pending_ul_symbols[key]
        covered = []
        for allocation in pending:
            for section in reception.sections:
                a_start, a_end = allocation.prb_range
                s_start, s_end = section.prb_range
                if s_start <= a_start and s_end >= a_end:
                    covered.append(allocation)
                    break
        for allocation in covered:
            self.counters.ul_bits += allocation.bits // symbols

    def uplink_iq(self, time: SymbolTime, ru_port: int) -> Optional[np.ndarray]:
        """Recover the full-band int16 uplink grid for a symbol/port."""
        held = self._receptions.get((time, ru_port))
        if not held:
            return None
        grid = np.zeros((self.cell.num_prb, 2 * SAMPLES_PER_PRB), np.int16)
        for section in held[0].sections:
            grid[
                section.start_prb : section.start_prb + section.num_prb
            ] = section.iq_samples()
        return grid

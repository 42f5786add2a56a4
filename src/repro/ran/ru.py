"""A Cat-A O-RAN Radio Unit model.

The RU is deliberately simple (Cat-A: all MIMO processing happens at the
DU, Section 4.2): it obeys C-plane instructions, converts downlink U-plane
IQ to air samples, and digitizes air samples back into uplink U-plane
packets covering exactly the PRB ranges the C-plane requested — including
the full-spectrum requests the RU-sharing middlebox widens ``numPrb`` to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.actions import SlotRing
from repro.fronthaul.compression import SAMPLES_PER_PRB, CompressionConfig, codec_for
from repro.fronthaul.cplane import CPlaneMessage, Direction, SectionType
from repro.fronthaul.ecpri import EAxCId
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import FronthaulPacket, make_packet
from repro.fronthaul.spectrum import PrbGrid
from repro.fronthaul.timing import SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.phy.iq import int16_to_iq, iq_to_int16

#: Owed (symbol, port) rows the uplink float stage draws and quantises at
#: once: ~0.5 MB of float64 in flight at 1,272 subcarriers, ``peak_rss_mb``
#: as the per-symbol stage left it (DESIGN.md, "Blocked slot pass").
_BLOCK_ROWS = 8


@dataclass(frozen=True)
class RuConfig:
    """RU hardware parameters (a Foxconn RPQN-7800 equivalent)."""

    num_prb: int = 273
    center_frequency_hz: float = 3.46e9
    n_antennas: int = 4
    scs_hz: int = 30_000
    compression: CompressionConfig = field(default_factory=CompressionConfig)
    tx_power_dbm_per_port: float = 24.0

    @property
    def grid(self) -> PrbGrid:
        return PrbGrid(self.center_frequency_hz, self.num_prb, self.scs_hz)


@dataclass
class _UplinkRequest:
    """A pending C-plane request the RU must satisfy with U-plane data."""

    sections: List[Tuple[int, int, int]]  # (section_id, start_prb, num_prb)
    is_prach: bool = False
    start_symbol: int = 0
    num_symbols: int = 1


@dataclass
class RuCounters:
    cplane_received: int = 0
    uplane_received: int = 0
    uplane_sent: int = 0
    unsolicited_uplane: int = 0


class RadioUnit:
    """One physical RU on the fronthaul.

    Downlink: C-plane messages open transmission windows; U-plane packets
    fill the transmit grid, decoded only when read (only PRBs covered by a
    C-plane section are accepted — unsolicited data is dropped, as real RUs do).

    Uplink: ``build_uplink(items)`` converts one slot's received air
    samples — ``(time, port, air_iq)`` per owed symbol — into U-plane
    packets answering the recorded C-plane requests.
    """

    def __init__(
        self,
        ru_id: int,
        config: RuConfig = RuConfig(),
        mac: Optional[MacAddress] = None,
        du_mac: Optional[MacAddress] = None,
        seed: int = 0,
    ):
        self.ru_id = ru_id
        self.config = config
        self.mac = mac or MacAddress.from_int(0x02_00_00_00_20_00 + ru_id)
        self.du_mac = du_mac or MacAddress.from_int(0x02_00_00_00_00_00)
        self.counters = RuCounters()
        self.rng = np.random.default_rng(seed ^ (ru_id * 7919))
        #: DL transmit grids, decoded only when read: {(time, port):
        #: [(start, end, compression, parse rows)]} in arrival order.
        self._tx_grids = SlotRing()
        #: DL C-plane windows: {(slot_key, port): [(start, end) PRB ranges]}.
        self._dl_windows = SlotRing()
        #: Pending UL requests: {(slot_key, port, is_prach): _UplinkRequest}.
        #: Data and PRACH requests are distinct: they cover different
        #: channels and the RU answers each with its own U-plane stream.
        self._ul_requests: Dict[Tuple, _UplinkRequest] = {}
        self._seq: Dict[int, int] = {}

    # -- fronthaul reception -----------------------------------------------

    def receive(self, packet: FronthaulPacket) -> None:
        if packet.eth.dst != self.mac:
            raise ValueError(
                f"RU {self.ru_id} received packet for {packet.eth.dst}"
            )
        if packet.is_cplane:
            self._receive_cplane(packet)
        else:
            self._receive_dl_uplane(packet)

    def _receive_cplane(self, packet: FronthaulPacket) -> None:
        self.counters.cplane_received += 1
        message: CPlaneMessage = packet.message
        port = packet.eaxc.ru_port
        key = (message.time.slot_key(), port)
        if message.direction is Direction.DOWNLINK:
            windows = self._dl_windows.setdefault(key, [])
            for section in message.sections:
                windows.append(section.prb_range)
        else:
            is_prach = message.section_type is SectionType.PRACH
            request = self._ul_requests.setdefault(
                key + (is_prach,),
                _UplinkRequest(sections=[], is_prach=is_prach),
            )
            request.start_symbol = message.time.symbol
            for section in message.sections:
                request.sections.append(
                    (section.section_id, section.start_prb, section.num_prb)
                )
                request.num_symbols = max(request.num_symbols, section.num_symbols)

    def _receive_dl_uplane(self, packet: FronthaulPacket) -> None:
        message: UPlaneMessage = packet.message
        if message.direction is not Direction.DOWNLINK:
            raise ValueError("RU received uplink U-plane on downlink path")
        port = packet.eaxc.ru_port
        if port >= self.config.n_antennas:
            self.counters.unsolicited_uplane += 1
            return
        windows = self._dl_windows.get((message.time.slot_key(), port))
        if not windows:
            self.counters.unsolicited_uplane += 1
            return
        self.counters.uplane_received += 1
        accepted = self._tx_grids.setdefault((message.time, port), [])
        for section in message.sections:
            start, end = section.prb_range
            end = min(end, self.config.num_prb)
            if end <= start:
                continue
            if not any(w_start <= start and end <= w_end for w_start, w_end in windows):
                # PRBs outside every C-plane window are ignored.
                continue
            accepted.append((start, end, section.compression, section.parse_rows(end - start)))

    # -- air interface -------------------------------------------------------

    def transmit_grid(self, time: SymbolTime, port: int) -> Optional[np.ndarray]:
        """Complex air samples for one symbol/port (None if idle), decoded
        now from the accepted sections in arrival order."""
        accepted = self._tx_grids.get((time, port))
        if accepted is None:
            return None
        samples = np.zeros((self.config.num_prb, 2 * SAMPLES_PER_PRB), np.int16)
        for start, end, compression, parse in accepted:
            samples[start:end] = codec_for(compression).decompress_array(*parse)
        return int16_to_iq(samples)

    def transmitted_symbols(self) -> List[Tuple[SymbolTime, int]]:
        return sorted(self._tx_grids, key=lambda k: (k[0], k[1]))

    def build_uplink(
        self,
        items: Iterable[Tuple[SymbolTime, int, Optional[np.ndarray]]],
        noise_amplitude: float = 2.0e-4,
    ) -> List[FronthaulPacket]:
        """Digitize one slot's air samples into U-plane packets.

        ``items`` yields ``(time, port, air_iq)`` per owed symbol/port;
        ``air_iq`` is the complex full-band signal arriving at that
        antenna (None means only receiver noise).  Only PRB ranges with a
        recorded C-plane request are emitted, honoring O-RAN semantics.
        Items are pulled until ``_BLOCK_ROWS`` owed rows are held, then one
        noise draw fills the block (C order: the stream of 2 x rows
        per-symbol draws) and one quantise digitizes it; the slot's int16
        ranges go through the codec together.
        """
        n_sc = self.config.num_prb * SAMPLES_PER_PRB
        owed = self._owed(items, n_sc)
        answered = []  # (time, port, is_prach, [(section_id, start_prb, rows)])
        while block := list(islice(owed, _BLOCK_ROWS)):
            noise = self.rng.normal(0, noise_amplitude, (len(block), 2, n_sc))
            signal = np.empty((len(block), n_sc), dtype=np.complex128)
            signal.real, signal.imag = noise[:, 0], noise[:, 1]
            for row, (*_, air_iq) in zip(signal, block):
                if air_iq is not None:
                    row += air_iq
            grids = iq_to_int16(signal)
            for full_grid, (time, port, requests, _) in zip(grids, block):
                for request in requests:
                    # Slicing clips a request that overruns the carrier edge.
                    parts = [
                        (section_id, start_prb, full_grid[start_prb : start_prb + num_prb])
                        for section_id, start_prb, num_prb in request.sections
                    ]
                    answered.append((time, port, request.is_prach, parts))
        built = iter(
            UPlaneSection.from_ranges(
                [part for *_, parts in answered for part in parts],
                self.config.compression,
            )
        )
        packets = []
        for time, port, is_prach, parts in answered:
            sections = [next(built) for _ in parts]
            message = UPlaneMessage(
                direction=Direction.UPLINK,
                time=time,
                sections=sections,
                filter_index=1 if is_prach else 0,
            )
            packets.append(
                make_packet(
                    src=self.mac,
                    dst=self.du_mac,
                    message=message,
                    seq_id=self._next_seq(port),
                    eaxc=EAxCId(du_port=0, ru_port=port),
                )
            )
        self.counters.uplane_sent += len(packets)
        return packets

    def _owed(self, items, n_sc: int):
        """The items some recorded request covers, as ``(time, port,
        requests, air_iq)``; a wrong-length ``air_iq`` raises at the pull."""
        for time, port, air_iq in items:
            slot_key = time.slot_key()
            requests = [
                request
                for is_prach in (False, True)
                if (request := self._ul_requests.get((slot_key, port, is_prach)))
                and 0 <= time.symbol - request.start_symbol < request.num_symbols
            ]
            if not requests:
                continue
            if air_iq is not None and len(air_iq) != n_sc:
                raise ValueError(
                    f"air IQ has {len(air_iq)} subcarriers, RU grid has {n_sc}"
                )
            yield time, port, requests, air_iq

    def pending_uplink_symbols(self) -> List[Tuple[SymbolTime, int]]:
        """(time, port) pairs the RU owes uplink U-plane packets for.

        One entry per requested symbol; the sim layer pairs each with
        its air samples and hands the slot's list to :meth:`build_uplink`.
        """
        result = set()
        for (slot_key, port, _), request in self._ul_requests.items():
            frame, subframe, slot = slot_key
            last = min(request.start_symbol + request.num_symbols, 14)
            for symbol in range(request.start_symbol, last):
                result.add((SymbolTime(frame, subframe, slot, symbol), port))
        return sorted(result, key=lambda item: (item[0], item[1]))

    def end_slot(self) -> None:
        """Close the slot, once its uplink packets are built: the
        answered requests go, and the transmit grids and downlink windows
        age out of their rings."""
        self._ul_requests.clear()
        self._tx_grids.close()
        self._dl_windows.close()

    def _next_seq(self, port: int) -> int:
        seq = self._seq.get(port, 0)
        self._seq[port] = (seq + 1) % 256
        return seq

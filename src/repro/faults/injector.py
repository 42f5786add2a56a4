"""Deterministic, seeded fronthaul fault injection.

A :class:`FaultInjector` impairs a packet stream the way a real fronthaul
does: i.i.d. random loss, Gilbert–Elliott bursty loss, duplication,
reordering, bit-flip corruption, truncation, serialization jitter, and
scheduled per-source silence windows (a DU going dark).  Every decision
comes from one ``random.Random(seed)`` stream, so the same seed over the
same packet sequence produces a byte-identical impairment trace — the
property the chaos golden test pins.

Corrupted and truncated frames are re-parsed at the injection point: if
the mangled bytes no longer parse, the wire itself "eats" the frame (a
CRC-failed Ethernet frame never reaches the host) and the drop is counted
here; if they still parse, the damaged packet is delivered so the
receiver-side hardening (switch/network ``ValueError`` containment) gets
exercised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import obs as obs_module
from repro.fronthaul.cplane import Direction
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import FronthaulPacket, parse_packet
from repro.obs import Observability
from repro.obs.metrics import declare

#: Offset of the first byte the corruptor may touch: past the MAC
#: addresses, so a damaged frame still switches to the same endpoint.
_CORRUPT_START_BYTE = 12

_INJECTED = declare(
    "counter", "fault_injected_total",
    "impairment events per injector and kind",
    ("injector", "kind"),
)


@dataclass(frozen=True)
class GilbertElliottConfig:
    """Two-state Markov burst-loss model (good/bad channel)."""

    p_enter_burst: float = 0.05
    p_exit_burst: float = 0.25
    loss_good: float = 0.0
    loss_burst: float = 1.0

    def __post_init__(self) -> None:
        for name in ("p_enter_burst", "p_exit_burst", "loss_good", "loss_burst"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")


@dataclass(frozen=True)
class FaultScope:
    """Restricts which packets a fault config applies to.

    ``None`` fields match everything.  Packets outside the scope pass
    through untouched and consume no randomness, so narrowing the scope
    never perturbs the decisions made for in-scope packets.
    """

    direction: Optional[Direction] = None
    eaxc: Optional[Tuple[int, ...]] = None
    src: Optional[Tuple[int, ...]] = None

    def matches(self, packet: FronthaulPacket) -> bool:
        if self.direction is not None and packet.direction is not self.direction:
            return False
        if self.eaxc is not None and packet.ecpri.eaxc.to_int() not in self.eaxc:
            return False
        if self.src is not None and packet.eth.src.to_int() not in self.src:
            return False
        return True


@dataclass(frozen=True)
class SilenceWindow:
    """All frames from ``src`` die between two slot boundaries.

    ``end_slot_key=None`` silences the source forever — the model of a
    crashed DU used by the failover experiments.
    """

    src: int
    start_slot_key: Tuple[int, int, int]
    end_slot_key: Optional[Tuple[int, int, int]] = None

    def matches(self, packet: FronthaulPacket) -> bool:
        if packet.eth.src.to_int() != self.src:
            return False
        slot_key = packet.time.slot_key()
        if slot_key < self.start_slot_key:
            return False
        return self.end_slot_key is None or slot_key < self.end_slot_key


@dataclass(frozen=True)
class FaultConfig:
    """Composable impairments, each an independent per-packet probability."""

    loss_rate: float = 0.0
    burst: Optional[GilbertElliottConfig] = None
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0
    corrupt_bits: int = 2
    truncate_rate: float = 0.0
    jitter_ns: float = 0.0
    scope: FaultScope = FaultScope()

    def __post_init__(self) -> None:
        for name in (
            "loss_rate", "duplicate_rate", "reorder_rate",
            "corrupt_rate", "truncate_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.corrupt_bits < 1:
            raise ValueError("corrupt_bits must be >= 1")
        if self.jitter_ns < 0:
            raise ValueError("jitter_ns must be >= 0")


@dataclass
class InjectorStats:
    """Everything the injector did, split by cause."""

    offered: int = 0
    delivered: int = 0
    lost_iid: int = 0
    lost_burst: int = 0
    silenced: int = 0
    corrupted_delivered: int = 0
    corrupt_dropped: int = 0
    truncated_delivered: int = 0
    truncate_dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    jitter_ns_total: float = 0.0

    @property
    def absorbed(self) -> int:
        """Packets the wire removed from the stream entirely."""
        return (
            self.lost_iid
            + self.lost_burst
            + self.silenced
            + self.corrupt_dropped
            + self.truncate_dropped
        )


class FaultInjector:
    """Applies a :class:`FaultConfig` to packet bursts, deterministically.

    ``apply`` returns the surviving packets for this burst; packets held
    for reordering are released at the *next* ``apply`` call (arriving one
    burst late and out of order).  ``trace`` records every impairment
    event as ``"<ordinal>:<kind>"`` strings; :meth:`trace_bytes` is the
    byte-identical artifact the determinism golden test compares.
    """

    def __init__(
        self,
        config: FaultConfig = FaultConfig(),
        seed: int = 0,
        name: str = "wire",
        carrier_num_prb: Optional[int] = None,
        obs: Optional[Observability] = None,
    ):
        self.config = config
        self.seed = seed
        self.name = name
        self.carrier_num_prb = carrier_num_prb
        self.obs = obs if obs is not None else obs_module.DEFAULT_OBSERVABILITY
        self.stats = InjectorStats()
        self.trace: List[str] = []
        self.silences: List[SilenceWindow] = []
        self._rng = random.Random(seed)
        self._held: List[FronthaulPacket] = []
        self._burst_bad = False
        self._ordinal = 0

    # -- configuration -----------------------------------------------------

    def silence(
        self,
        src: MacAddress,
        start_slot_key: Tuple[int, int, int],
        end_slot_key: Optional[Tuple[int, int, int]] = None,
    ) -> None:
        """Schedule a per-source blackout window (e.g. a DU crash)."""
        self.silences.append(
            SilenceWindow(src.to_int(), start_slot_key, end_slot_key)
        )

    # -- injection ---------------------------------------------------------

    def apply(self, packets: List[FronthaulPacket]) -> List[FronthaulPacket]:
        """Impair one burst; returns survivors plus any released stragglers."""
        released = self._held
        self._held = []
        out: List[FronthaulPacket] = []
        for packet in packets:
            self._process(packet, out)
        if released:
            out.extend(released)
            self.stats.delivered += len(released)
        return out

    def apply_one(self, packet: FronthaulPacket) -> List[FronthaulPacket]:
        return self.apply([packet])

    def flush_held(self) -> List[FronthaulPacket]:
        """Release reorder-held packets without offering new traffic."""
        return self.apply([])

    def trace_bytes(self) -> bytes:
        return "\n".join(self.trace).encode("ascii")

    # -- internals ---------------------------------------------------------

    def _event(self, ordinal: int, kind: str) -> None:
        self.trace.append(f"{ordinal}:{kind}")
        if self.obs.enabled:
            self.obs.children(_INJECTED, self.name, kind).inc()

    def _process(
        self, packet: FronthaulPacket, out: List[FronthaulPacket]
    ) -> None:
        self._ordinal += 1
        ordinal = self._ordinal
        stats = self.stats
        stats.offered += 1
        for window in self.silences:
            if window.matches(packet):
                stats.silenced += 1
                self._event(ordinal, "silence")
                return
        config = self.config
        if not config.scope.matches(packet):
            out.append(packet)
            stats.delivered += 1
            return
        rng = self._rng
        if config.loss_rate and rng.random() < config.loss_rate:
            stats.lost_iid += 1
            self._event(ordinal, "loss.iid")
            return
        if config.burst is not None:
            ge = config.burst
            flip = rng.random()
            if self._burst_bad:
                if flip < ge.p_exit_burst:
                    self._burst_bad = False
            elif flip < ge.p_enter_burst:
                self._burst_bad = True
            p_loss = ge.loss_burst if self._burst_bad else ge.loss_good
            if p_loss and rng.random() < p_loss:
                stats.lost_burst += 1
                self._event(ordinal, "loss.burst")
                return
        if config.corrupt_rate and rng.random() < config.corrupt_rate:
            damaged = self._corrupt(packet)
            if damaged is None:
                stats.corrupt_dropped += 1
                self._event(ordinal, "corrupt.dropped")
                return
            stats.corrupted_delivered += 1
            self._event(ordinal, "corrupt")
            packet = damaged
        if config.truncate_rate and rng.random() < config.truncate_rate:
            shortened = self._truncate(packet)
            if shortened is None:
                stats.truncate_dropped += 1
                self._event(ordinal, "truncate.dropped")
                return
            stats.truncated_delivered += 1
            self._event(ordinal, "truncate")
            packet = shortened
        duplicate: Optional[FronthaulPacket] = None
        if config.duplicate_rate and rng.random() < config.duplicate_rate:
            stats.duplicated += 1
            self._event(ordinal, "duplicate")
            duplicate = packet.clone()
        if config.reorder_rate and rng.random() < config.reorder_rate:
            stats.reordered += 1
            self._event(ordinal, "reorder")
            self._held.append(packet)
            if duplicate is not None:
                out.append(duplicate)
                stats.delivered += 1
            return
        if config.jitter_ns:
            stats.jitter_ns_total += rng.random() * config.jitter_ns
        out.append(packet)
        stats.delivered += 1
        if duplicate is not None:
            out.append(duplicate)
            stats.delivered += 1

    def _corrupt(self, packet: FronthaulPacket) -> Optional[FronthaulPacket]:
        """Flip ``corrupt_bits`` random bits past the MAC addresses."""
        data = bytearray(packet.pack())
        first_bit = _CORRUPT_START_BYTE * 8
        for _ in range(self.config.corrupt_bits):
            bit = self._rng.randrange(first_bit, len(data) * 8)
            data[bit // 8] ^= 1 << (bit % 8)
        return self._reparse(bytes(data))

    def _truncate(self, packet: FronthaulPacket) -> Optional[FronthaulPacket]:
        """Cut the frame at a random byte (a runt frame)."""
        data = packet.pack()
        cut = self._rng.randrange(1, len(data))
        return self._reparse(data[:cut])

    def _reparse(self, data: bytes) -> Optional[FronthaulPacket]:
        try:
            return parse_packet(data, carrier_num_prb=self.carrier_num_prb)
        except Exception:
            # Unparseable on the wire: the frame dies before any host
            # sees it (the fronthaul equivalent of a failed CRC).
            return None

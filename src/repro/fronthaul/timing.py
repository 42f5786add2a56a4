"""5G NR frame structure: numerology, slots, symbols, TDD patterns.

Fronthaul scheduling happens per symbol (~33.3 us for the 30 kHz SCS cells
used throughout the paper).  Every C-/U-plane message carries a
frame/subframe/slot/symbol timestamp, and the middleboxes key their caches
on it, so the timing model is shared by the DU, RU, and middlebox layers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Tuple

SYMBOLS_PER_SLOT = 14
SUBFRAMES_PER_FRAME = 10
FRAME_DURATION_NS = 10_000_000  # 10 ms
MAX_FRAME_ID = 256  # frameId is one byte on the wire


class SlotType(enum.Enum):
    """Link direction of a TDD slot."""

    DOWNLINK = "D"
    UPLINK = "U"
    SPECIAL = "S"


#: Pattern letter -> member, so a symbol-direction query is a dict read
#: instead of an ``Enum.__call__`` per symbol.
_SLOT_TYPES = {member.value: member for member in SlotType}


@dataclass(frozen=True)
class Numerology:
    """3GPP numerology mu: subcarrier spacing 15 * 2**mu kHz."""

    mu: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.mu <= 4:
            raise ValueError(f"numerology mu out of range: {self.mu}")

    @property
    def scs_hz(self) -> int:
        return 15_000 * (1 << self.mu)

    @property
    def slots_per_subframe(self) -> int:
        return 1 << self.mu

    @property
    def slots_per_frame(self) -> int:
        return SUBFRAMES_PER_FRAME * self.slots_per_subframe

    @property
    def slot_duration_ns(self) -> int:
        return FRAME_DURATION_NS // self.slots_per_frame

    @property
    def symbol_duration_ns(self) -> float:
        return self.slot_duration_ns / SYMBOLS_PER_SLOT

    @property
    def slots_per_second(self) -> int:
        return 100 * self.slots_per_frame  # 100 frames per second


@dataclass(frozen=True, order=True)
class SymbolTime:
    """A fronthaul timestamp: (frame, subframe, slot, symbol).

    ``slot`` is the slot index within the subframe (0..2^mu-1) as encoded
    on the wire.
    """

    # Slotted, so the hash computed once in ``__post_init__`` costs no
    # per-instance dict: one is alive per packet.
    __slots__ = ("frame", "subframe", "slot", "symbol", "_hash")

    frame: int
    subframe: int
    slot: int
    symbol: int

    def __post_init__(self) -> None:
        if not 0 <= self.frame < MAX_FRAME_ID:
            raise ValueError(f"frame out of range: {self.frame}")
        if not 0 <= self.subframe < SUBFRAMES_PER_FRAME:
            raise ValueError(f"subframe out of range: {self.subframe}")
        if not 0 <= self.slot < 64:
            raise ValueError(f"slot out of range: {self.slot}")
        if not 0 <= self.symbol < SYMBOLS_PER_SLOT:
            raise ValueError(f"symbol out of range: {self.symbol}")
        # The dataclass hash, computed once: every SlotRing, cache and
        # flow-key lookup hashes a SymbolTime.
        object.__setattr__(self, "_hash", hash(
            (self.frame, self.subframe, self.slot, self.symbol)
        ))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Pickle and copy rebuild through __init__: the frozen __setattr__
        # refuses the default slot-state restore.
        return type(self), (self.frame, self.subframe, self.slot, self.symbol)

    def slot_key(self) -> Tuple[int, int, int]:
        """Key identifying the slot (ignoring the symbol index)."""
        return (self.frame, self.subframe, self.slot)

    def absolute_slot(self, numerology: Numerology) -> int:
        """Monotonic slot counter within the 256-frame wire epoch."""
        per_frame = numerology.slots_per_frame
        per_subframe = numerology.slots_per_subframe
        return self.frame * per_frame + self.subframe * per_subframe + self.slot

    @classmethod
    def from_absolute_slot(
        cls, index: int, numerology: Numerology, symbol: int = 0
    ) -> "SymbolTime":
        per_frame = numerology.slots_per_frame
        per_subframe = numerology.slots_per_subframe
        frame = (index // per_frame) % MAX_FRAME_ID
        rem = index % per_frame
        return cls(frame, rem // per_subframe, rem % per_subframe, symbol)

    def ns(self, numerology: Numerology) -> float:
        """Nanoseconds since epoch start for the beginning of this symbol."""
        return (
            self.absolute_slot(numerology) * numerology.slot_duration_ns
            + self.symbol * numerology.symbol_duration_ns
        )


@dataclass(frozen=True)
class TddPattern:
    """A repeating TDD slot pattern such as ``DDDSU`` or ``DDDDDDDSUU``.

    Special slots are modelled with a configurable downlink/uplink symbol
    split (guard symbols are neither).
    """

    pattern: str = "DDDSU"
    special_dl_symbols: int = 6
    special_guard_symbols: int = 4
    special_ul_symbols: int = 4

    def __post_init__(self) -> None:
        if not self.pattern or any(c not in "DSU" for c in self.pattern):
            raise ValueError(f"malformed TDD pattern: {self.pattern!r}")
        total = (
            self.special_dl_symbols
            + self.special_guard_symbols
            + self.special_ul_symbols
        )
        if total != SYMBOLS_PER_SLOT:
            raise ValueError(f"special slot symbols must sum to 14, got {total}")

    def slot_type(self, absolute_slot: int) -> SlotType:
        return _SLOT_TYPES[self.pattern[absolute_slot % len(self.pattern)]]

    def is_downlink_symbol(self, absolute_slot: int, symbol: int) -> bool:
        kind = self.slot_type(absolute_slot)
        if kind is SlotType.DOWNLINK:
            return True
        if kind is SlotType.SPECIAL:
            return symbol < self.special_dl_symbols
        return False

    def is_uplink_symbol(self, absolute_slot: int, symbol: int) -> bool:
        kind = self.slot_type(absolute_slot)
        if kind is SlotType.UPLINK:
            return True
        if kind is SlotType.SPECIAL:
            return symbol >= SYMBOLS_PER_SLOT - self.special_ul_symbols
        return False

    def downlink_symbol_fraction(self) -> float:
        """Fraction of all symbols usable for downlink over one period."""
        dl = 0
        for slot_char in self.pattern:
            if slot_char == "D":
                dl += SYMBOLS_PER_SLOT
            elif slot_char == "S":
                dl += self.special_dl_symbols
        return dl / (len(self.pattern) * SYMBOLS_PER_SLOT)

    def uplink_symbol_fraction(self) -> float:
        """Fraction of all symbols usable for uplink over one period."""
        ul = 0
        for slot_char in self.pattern:
            if slot_char == "U":
                ul += SYMBOLS_PER_SLOT
            elif slot_char == "S":
                ul += self.special_ul_symbols
        return ul / (len(self.pattern) * SYMBOLS_PER_SLOT)


class SlotClock:
    """Iterator over consecutive slots, yielding :class:`SymbolTime` stamps.

    A :class:`~repro.sim.network_sim.FronthaulNetwork` owns the one clock
    of a run; tests use it to generate deterministic timestamp sequences.
    """

    def __init__(self, numerology: Numerology, start_slot: int = 0):
        self.numerology = numerology
        #: Where the counter was born: ``current_slot - start_slot`` is
        #: how many slots it has been advanced.
        self.start_slot = start_slot
        self._slot = start_slot

    @property
    def current_slot(self) -> int:
        return self._slot

    def advance(self) -> SymbolTime:
        """Return the stamp for the current slot and move to the next."""
        stamp = SymbolTime.from_absolute_slot(self._slot, self.numerology)
        self._slot += 1
        return stamp

    def symbols(self) -> Iterator[SymbolTime]:
        """Yield the 14 symbol stamps of the current slot (no advance)."""
        base = SymbolTime.from_absolute_slot(self._slot, self.numerology)
        for symbol in range(SYMBOLS_PER_SLOT):
            yield SymbolTime(base.frame, base.subframe, base.slot, symbol)

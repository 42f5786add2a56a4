"""5G NR frame structure: numerology, slots, symbols, TDD patterns.

Fronthaul scheduling happens per symbol (~33.3 us for the 30 kHz SCS cells
used throughout the paper).  Every C-/U-plane message carries a
frame/subframe/slot/symbol timestamp, and the middleboxes key their caches
on it, so the timing model is shared by the DU, RU, and middlebox layers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

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


# -- the O-RAN timestamp ------------------------------------------------------
#
# A fronthaul time is one int, the header's own 24 bits:
# ``frame << 16 | subframe << 12 | slot << 6 | symbol`` (frameId 8 bits,
# subframeId 4, slotId 6, symbolId 6).  It packs, parses, compares and
# keys without a numerology; int order is (frame, subframe, slot, symbol)
# order, and it wraps at 256 frames as the wire does.  The functions below
# are the only code that knows the layout.


def symbol_time(frame: int, subframe: int, slot: int, symbol: int) -> int:
    """The time of ``symbol`` in ``slot`` (index within the subframe, as
    on the wire), range-checked."""
    if not 0 <= frame < MAX_FRAME_ID:
        raise ValueError(f"frame out of range: {frame}")
    if not 0 <= subframe < SUBFRAMES_PER_FRAME:
        raise ValueError(f"subframe out of range: {subframe}")
    if not 0 <= slot < 64:
        raise ValueError(f"slot out of range: {slot}")
    if not 0 <= symbol < SYMBOLS_PER_SLOT:
        raise ValueError(f"symbol out of range: {symbol}")
    return frame << 16 | subframe << 12 | slot << 6 | symbol


def slot_time(absolute_slot: int, numerology: Numerology) -> int:
    """Symbol 0 of clock slot ``absolute_slot`` counted from frame 0; a
    later symbol of that slot is this plus its index."""
    per_frame = numerology.slots_per_frame
    per_subframe = numerology.slots_per_subframe
    rem = absolute_slot % per_frame
    frame = (absolute_slot // per_frame) % MAX_FRAME_ID
    return frame << 16 | (rem // per_subframe) << 12 | (rem % per_subframe) << 6


def slot_id(time: int) -> int:
    """The slot a time falls in, symbol dropped: equal for every symbol of
    one slot, ordered like the slots."""
    return time >> 6


def symbol_of(time: int) -> int:
    return time & 0x3F


def time_fields(time: int) -> Tuple[int, int, int, int]:
    """``(frame, subframe, slot, symbol)``, for printers."""
    return time >> 16, time >> 12 & 0xF, time >> 6 & 0x3F, time & 0x3F


def absolute_slot(time: int, numerology: Numerology) -> int:
    """Monotonic slot counter within the 256-frame wire epoch."""
    return (
        (time >> 16) * numerology.slots_per_frame
        + (time >> 12 & 0xF) * numerology.slots_per_subframe
        + (time >> 6 & 0x3F)
    )


def ns(time: int, numerology: Numerology) -> float:
    """Nanoseconds since epoch start for the beginning of this symbol."""
    return (
        absolute_slot(time, numerology) * numerology.slot_duration_ns
        + (time & 0x3F) * numerology.symbol_duration_ns
    )


def wire_fields(time: int) -> Tuple[int, int]:
    """The header's frameId byte and its subframe/slot/symbol word."""
    return time >> 16, time & 0xFFFF


def from_wire(frame: int, word: int) -> int:
    """The time a header carries; a subframe or symbol no frame has raises
    ``ValueError``, as :func:`symbol_time` does."""
    return symbol_time(frame, word >> 12, word >> 6 & 0x3F, word & 0x3F)


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
    """The slot counter of a run: a
    :class:`~repro.sim.network_sim.FronthaulNetwork` owns one, and every
    DU is told the slot it reads."""

    def __init__(self, numerology: Numerology, start_slot: int = 0):
        self.numerology = numerology
        #: Where the counter was born: ``current_slot - start_slot`` is
        #: how many slots it has been advanced.
        self.start_slot = start_slot
        self._slot = start_slot

    @property
    def current_slot(self) -> int:
        return self._slot

    def advance(self) -> int:
        """Return the current slot and move to the next."""
        self._slot += 1
        return self._slot - 1

"""Per-stream eCPRI sequence tracking with 8-bit wraparound.

The eCPRI ``seq_id`` is one byte on the wire, so consumers comparing raw
integers misclassify the wrap after packet 255 as a retransmission.
:class:`SequenceTracker` keeps per-stream state (keyed however the caller
likes — typically ``(src_mac, eaxc)``) and classifies each observed
sequence number as new, duplicate, or reordered, counting the gap when
packets went missing in between.

An optional per-observation ``context`` (e.g. the packet's flow key)
disambiguates seq reuse: a repeated sequence number only counts as a
duplicate when its context matches the one recorded for that number —
a retransmission repeats *both*; an unsequenced source reusing seq 0
for every symbol does not.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Hashable, Optional

from repro import obs as obs_module
from repro.obs import Observability
from repro.obs.metrics import declare

_UNSET = object()

_ANOMALIES = declare(
    "counter", "seq_anomalies_total",
    "sequence anomalies per tracker and kind",
    ("tracker", "kind"),
)
_GAPS = declare(
    "counter", "seq_gaps_total",
    "sequence gap events per tracker",
    ("tracker",),
)
_LOST_PACKETS = declare(
    "counter", "seq_lost_packets_total",
    "packets inferred lost from sequence gaps",
    ("tracker",),
)


class SeqVerdict(enum.Enum):
    NEW = "new"
    DUPLICATE = "duplicate"
    REORDERED = "reordered"


@dataclass(frozen=True)
class SeqStatus:
    """Classification of one observed sequence number."""

    verdict: SeqVerdict
    #: Sequence numbers skipped since the last in-order packet (loss).
    gap: int = 0


class _StreamState:
    __slots__ = ("last", "order", "contexts")

    def __init__(self, window: int):
        self.last: Optional[int] = None
        self.order: Deque[int] = deque(maxlen=window)
        #: seq -> context it was last seen with (window-bounded).
        self.contexts: Dict[int, object] = {}

    def remember(self, seq: int, context: object) -> None:
        if seq not in self.contexts and len(self.order) == self.order.maxlen:
            evicted = self.order.popleft()
            self.contexts.pop(evicted, None)
        if seq not in self.contexts:
            self.order.append(seq)
        self.contexts[seq] = context

    def matches(self, seq: int, context: object) -> bool:
        """Was ``seq`` seen recently with the same context?"""
        if seq not in self.contexts:
            return False
        recorded = self.contexts[seq]
        if context is _UNSET or recorded is _UNSET:
            return True
        return recorded == context


class SequenceTracker:
    """Classify per-stream sequence numbers modulo ``modulus``.

    A forward step of up to ``modulus // 2`` is treated as progress (any
    skipped numbers are a gap); a repeat of a recently seen number with a
    matching context is a duplicate; anything else arriving from behind
    is a reordered straggler.  The half-window rule is what makes the
    256-wrap look like ``delta == 1`` instead of a 255-step retreat.
    """

    def __init__(
        self,
        modulus: int = 256,
        window: int = 64,
        name: str = "seq",
        obs: Optional[Observability] = None,
    ):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        if not 1 <= window < modulus:
            raise ValueError("window must be in [1, modulus)")
        self.modulus = modulus
        self.window = window
        self.name = name
        self.obs = obs if obs is not None else obs_module.DEFAULT_OBSERVABILITY
        self._streams: Dict[Hashable, _StreamState] = {}
        self.gaps = 0
        self.lost_in_gaps = 0
        self.duplicates = 0
        self.reordered = 0

    def observe(
        self, key: Hashable, seq: int, context: object = _UNSET
    ) -> SeqStatus:
        seq %= self.modulus
        state = self._streams.get(key)
        if state is None:
            state = self._streams[key] = _StreamState(self.window)
        if state.last is None:
            state.last = seq
            state.remember(seq, context)
            return SeqStatus(SeqVerdict.NEW)
        delta = (seq - state.last) % self.modulus
        if delta == 0:
            if state.matches(seq, context):
                self._count("duplicate")
                return SeqStatus(SeqVerdict.DUPLICATE)
            # Same number, different context: an unsequenced source (or a
            # full 256-packet lap); treat as fresh traffic.
            state.remember(seq, context)
            return SeqStatus(SeqVerdict.NEW)
        if delta <= self.modulus // 2:
            gap = delta - 1
            state.last = seq
            state.remember(seq, context)
            if gap:
                self.gaps += 1
                self.lost_in_gaps += gap
                self._export_gap(gap)
            return SeqStatus(SeqVerdict.NEW, gap=gap)
        # Arriving from behind the stream head: a duplicate if we saw it
        # recently (same context), otherwise a late (reordered) original.
        if state.matches(seq, context):
            self._count("duplicate")
            return SeqStatus(SeqVerdict.DUPLICATE)
        state.remember(seq, context)
        self._count("reordered")
        return SeqStatus(SeqVerdict.REORDERED)

    def streams(self) -> int:
        return len(self._streams)

    # -- accounting --------------------------------------------------------

    def _count(self, kind: str) -> None:
        if kind == "duplicate":
            self.duplicates += 1
        else:
            self.reordered += 1
        if self.obs.enabled:
            self.obs.children(_ANOMALIES, self.name, kind).inc()

    def _export_gap(self, gap: int) -> None:
        if self.obs.enabled:
            self.obs.children(_GAPS, self.name).inc()
            self.obs.children(_LOST_PACKETS, self.name).inc(gap)

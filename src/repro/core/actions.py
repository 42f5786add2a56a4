"""The four RANBooster processing actions (Section 3.2.1).

- **A1 packet redirection and drop** -- steering packets to a different
  DU or RU by rewriting Ethernet addresses / VLAN ids, or dropping them.
- **A2 packet replication** -- cloning a packet towards several
  destinations.
- **A3 packet caching** -- storing packets keyed by (time, direction,
  port) to combine with later arrivals.
- **A4 payload inspection and modification** -- reading/rewriting O-RAN
  header fields and raw IQ samples.

Every action invocation is recorded on the packet's :class:`ActionContext`
with its modelled cost and execution-location capability, which the
datapath models (Figures 15-16) consume; one
:class:`~repro.obs.recorder.SpanEvent` is built per distinct ``(kind,
cost)`` and shared by every context that records it.  The A4
helpers do the *real* work on real packet bytes -- BFP decompression,
element-wise IQ summing, PRB relocation -- so middlebox correctness is
exercised end to end.
"""

from __future__ import annotations

import enum
from collections.abc import MutableMapping
from itertools import takewhile
from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.latency import DEFAULT_COST_MODEL, ActionCostModel
from repro.fronthaul.cplane import CPlaneMessage
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import FronthaulPacket
from repro.fronthaul.uplane import UPlaneSection
from repro.obs.recorder import SpanEvent


class ActionKind(enum.Enum):
    # Identity hashing: ``Enum.__hash__`` hashes the member name in Python
    # on every ``_EVENTS`` lookup.
    __hash__ = object.__hash__

    ROUTE = "A1.route"
    DROP = "A1.drop"
    REPLICATE = "A2.replicate"
    CACHE_PUT = "A3.cache_put"
    CACHE_GET = "A3.cache_get"
    INSPECT = "A4.inspect"
    HEADER_MODIFY = "A4.header_modify"
    READ_EXPONENTS = "A4.read_exponents"
    DECOMPRESS = "A4.decompress"
    COMPRESS = "A4.compress"
    IQ_MERGE = "A4.iq_merge"
    PRB_COPY = "A4.prb_copy"


class ExecLocation(enum.Enum):
    """Where an action can run in the XDP datapath (Section 5).

    Redirection, drops and simple header work run in the kernel XDP
    program; caching, replication and IQ modification are inefficient in
    eBPF and go to the userspace component over AF_XDP.
    """

    KERNEL = "kernel"
    USERSPACE = "userspace"


#: Capability map: the cheapest location each action kind can run at.
ACTION_LOCATION: Dict[ActionKind, ExecLocation] = {
    ActionKind.ROUTE: ExecLocation.KERNEL,
    ActionKind.DROP: ExecLocation.KERNEL,
    ActionKind.REPLICATE: ExecLocation.USERSPACE,
    ActionKind.CACHE_PUT: ExecLocation.USERSPACE,
    ActionKind.CACHE_GET: ExecLocation.USERSPACE,
    ActionKind.INSPECT: ExecLocation.KERNEL,
    ActionKind.HEADER_MODIFY: ExecLocation.KERNEL,
    ActionKind.READ_EXPONENTS: ExecLocation.KERNEL,
    ActionKind.DECOMPRESS: ExecLocation.USERSPACE,
    ActionKind.COMPRESS: ExecLocation.USERSPACE,
    ActionKind.IQ_MERGE: ExecLocation.USERSPACE,
    ActionKind.PRB_COPY: ExecLocation.USERSPACE,
}


#: The one event per distinct ``(kind, cost_ns)`` recorded in this process:
#: a shared, frozen value (compare it, never mutate it).
_EVENTS: Dict[Tuple[ActionKind, float], SpanEvent] = {}


def shared_event(kind: ActionKind, cost_ns: float) -> SpanEvent:
    """The one event for ``(kind, cost_ns)``, built the first time."""
    event = _EVENTS.get((kind, cost_ns))
    if event is None:
        event = _EVENTS[kind, cost_ns] = SpanEvent(
            kind.value, cost_ns, ACTION_LOCATION[kind].value
        )
    return event


#: Closed slots a :class:`SlotRing` still holds.  Private, not a knob: the
#: longest reader is the pinned 16-slot obs-top run, whose last occupancy
#: gauge counts every RU-sharing request key since slot 0 (DESIGN.md).
_RETAINED_SLOTS = 16


class SlotRing(MutableMapping):
    """Per-slot state: an insertion-ordered mapping its owner closes once
    a slot, the entries opened more than ``_RETAINED_SLOTS`` closes ago
    falling off the front — bounded memory however long the run.

    An entry is stamped with the closes counted when its key was first
    set: a slot number that never wraps, unlike the ``(frame, subframe,
    slot)`` most keys carry, so a key seen again 256 frames later finds
    nothing left of its namesake.
    """

    def __init__(self) -> None:
        self._values: Dict[Hashable, Any] = {}
        self._opened: Dict[Hashable, int] = {}
        self.slot = 0

    def __getitem__(self, key: Hashable) -> Any:
        return self._values[key]

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self._opened.setdefault(key, self.slot)
        self._values[key] = value

    def __delitem__(self, key: Hashable) -> None:
        del self._values[key]
        del self._opened[key]

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    # The caches call these per packet: the mixin's go through a caught KeyError.
    def __contains__(self, key: object) -> bool:
        return key in self._values

    def get(self, key: Hashable, default: Any = None) -> Any:
        return self._values.get(key, default)

    def setdefault(self, key: Hashable, default: Any = None) -> Any:
        if key not in self._values:
            self[key] = default
        return self._values[key]

    def pop(self, key: Hashable, *default: Any) -> Any:
        value = self._values.pop(key, *default)
        self._opened.pop(key, None)
        return value

    def close(self) -> None:
        """End the open slot and drop what has been held too long."""
        self.slot += 1
        horizon = self.slot - _RETAINED_SLOTS
        # Stamps never decrease in insertion order: the stale keys are a
        # prefix of the stamp dict, read in one pass.
        opened = self._opened
        for key in list(takewhile(lambda key: opened[key] < horizon, opened)):
            del self._values[key], opened[key]


class PacketCache:
    """Action A3: packets stored by key until their peers arrive.

    Keys are typically ``(time, direction, ru_port)`` flow keys; the DAS
    middlebox caches per-RU uplink packets until all RUs reported, and the
    RU-sharing middlebox caches per-DU C-plane requests.  The store is a
    :class:`SlotRing` the owning middlebox closes with its slot.
    """

    def __init__(self):
        self.ring = SlotRing()

    def put(self, key: Hashable, packet: FronthaulPacket, tag: Hashable = None) -> int:
        """Store a packet under ``key``; returns the new occupancy."""
        held = self.ring.setdefault(key, [])
        held.append((tag, packet))
        return len(held)

    def peek(self, key: Hashable) -> List[Tuple[Hashable, FronthaulPacket]]:
        return list(self.ring.get(key, ()))

    def tags(self, key: Hashable) -> List[Hashable]:
        return [tag for tag, _ in self.ring.get(key, ())]

    def pop_all(self, key: Hashable) -> List[Tuple[Hashable, FronthaulPacket]]:
        return self.ring.pop(key, [])

    def discard(self, key: Hashable) -> None:
        self.ring.pop(key, None)

    def keys(self) -> List[Hashable]:
        return list(self.ring)

    def __len__(self) -> int:
        return sum(len(held) for held in self.ring.values())


#: Section fields a riding parse describes.
_PAYLOAD_FIELDS = frozenset({"payload", "compression", "num_prb"})


class ActionContext:
    """The per-packet action API handed to middlebox handlers, and the
    packet's only record.

    Collects emissions (the packets leaving the middlebox, after A1
    resolution) and the actions applied, plus the packet's wire size and
    Figure 15b traffic class once a middlebox processed it.  Handlers call
    these methods instead of mutating packets ad hoc, which is what makes
    the latency/datapath accounting of Figures 15-16 possible.  Nothing
    keeps a context after ``process()`` returns it; the figures that read
    contexts collect them through :func:`repro.eval.kit.run_recorded`.

    Slotted, since one is allocated per packet per stage.  The modelled
    total is kept running: added in record order from 0, exactly what
    summing the events in order gives.
    """

    __slots__ = (
        "cache_store", "cost", "emissions", "events", "wire_bytes",
        "traffic_class", "_total",
    )

    def __init__(
        self,
        cache: PacketCache,
        cost_model: ActionCostModel = DEFAULT_COST_MODEL,
    ):
        self.cache_store = cache
        self.cost = cost_model
        self.emissions: List[FronthaulPacket] = []
        self.events: List[SpanEvent] = []
        self.wire_bytes = 0
        self.traffic_class = "other"
        self._total = 0

    def record(self, kind: ActionKind, cost_ns: float) -> None:
        self.events.append(
            _EVENTS.get((kind, cost_ns)) or shared_event(kind, cost_ns)
        )
        self._total += cost_ns

    def total_ns(self) -> float:
        return self._total

    def needs_userspace(self) -> bool:
        userspace = ExecLocation.USERSPACE.value
        return any(e.location == userspace for e in self.events)

    # -- A1: redirection and drop -------------------------------------------

    def forward(
        self,
        packet: FronthaulPacket,
        dst: Optional[MacAddress] = None,
        src: Optional[MacAddress] = None,
    ) -> None:
        """Send a packet out, optionally rewriting its MAC addresses."""
        if dst is not None:
            packet.eth.dst = dst
        if src is not None:
            packet.eth.src = src
        self.record(ActionKind.ROUTE, self.cost.forward_ns)
        self.emissions.append(packet)

    def drop(self, packet: FronthaulPacket) -> None:
        self.record(ActionKind.DROP, self.cost.drop_ns)

    # -- A2: replication -------------------------------------------------------

    def replicate(self, packet: FronthaulPacket, copies: int) -> List[FronthaulPacket]:
        """Clone a packet ``copies`` times (the original stays usable)."""
        if copies < 0:
            raise ValueError("copies must be non-negative")
        self.record(
            ActionKind.REPLICATE, self.cost.replicate_ns_per_copy * copies
        )
        return [packet.clone() for _ in range(copies)]

    # -- A3: caching ------------------------------------------------------------

    def cache_put(
        self, key: Hashable, packet: FronthaulPacket, tag: Hashable = None
    ) -> int:
        self.record(ActionKind.CACHE_PUT, self.cost.cache_ns)
        return self.cache_store.put(key, packet, tag)

    def cache_pop_all(
        self, key: Hashable
    ) -> List[Tuple[Hashable, FronthaulPacket]]:
        self.record(ActionKind.CACHE_GET, self.cost.cache_lookup_ns)
        return self.cache_store.pop_all(key)

    # -- A4: inspection and modification ----------------------------------------

    def inspect(self, packet: FronthaulPacket) -> FronthaulPacket:
        """Read-only access to header fields (cost-tagged)."""
        self.record(ActionKind.INSPECT, self.cost.inspect_ns)
        return packet

    def set_ru_port(self, packet: FronthaulPacket, ru_port: int) -> None:
        """Remap the eAxC RU-port id (the dMIMO antenna remap)."""
        packet.ecpri.eaxc = packet.ecpri.eaxc.with_ru_port(ru_port)
        self.record(ActionKind.HEADER_MODIFY, self.cost.header_modify_ns)

    def set_cplane_num_prb(
        self, packet: FronthaulPacket, num_prb: int, start_prb: int = 0
    ) -> None:
        """Widen a C-plane request to ``num_prb`` PRBs (RU sharing)."""
        if not packet.is_cplane:
            raise ValueError("numPrb widening applies to C-plane packets")
        message: CPlaneMessage = packet.message
        for section in message.sections:
            section.start_prb = start_prb
            section.num_prb = num_prb
        self.record(ActionKind.HEADER_MODIFY, self.cost.header_modify_ns)

    def set_section_fields(self, packet: FronthaulPacket, **fields) -> None:
        """Rewrite section header fields (freqOffset, sectionId, ...).

        ``payload``, ``compression`` and ``num_prb`` are refused: a
        section's riding parse describes exactly those, and only
        :meth:`compress` builds a section where all agree.
        """
        stale = _PAYLOAD_FIELDS.intersection(fields)
        if stale:
            raise ValueError(
                f"{sorted(stale)} describe the payload; rewrite it with "
                "compress(), which builds a fresh section"
            )
        for section in packet.message.sections:
            for name, value in fields.items():
                if not hasattr(section, name):
                    raise AttributeError(f"section has no field {name!r}")
                setattr(section, name, value)
        self.record(ActionKind.HEADER_MODIFY, self.cost.header_modify_ns)

    def read_exponents(self, section: UPlaneSection) -> np.ndarray:
        """Per-PRB BFP exponents without decompressing (Algorithm 1)."""
        self.record(
            ActionKind.READ_EXPONENTS,
            self.cost.exponent_read_ns_per_prb * section.num_prb,
        )
        return section.exponents()

    def decompress(
        self, section: UPlaneSection, decoded: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``decoded``: the section's samples the caller already holds (DU
        copies of one RU section): recorded, not decoded again."""
        self.record(
            ActionKind.DECOMPRESS, self.cost.decompress_cost(section.num_prb)
        )
        return section.iq_samples() if decoded is None else decoded

    def compress(self, section: UPlaneSection, samples: np.ndarray) -> UPlaneSection:
        self.record(
            ActionKind.COMPRESS, self.cost.compress_cost(section.num_prb)
        )
        return section.replace_payload(samples)

    def merge_iq(self, sections: Sequence[UPlaneSection]) -> UPlaneSection:
        """Element-wise sum of the IQ samples of aligned sections.

        The DAS uplink combine (Section 4.1), batched: all N operands are
        expanded into ONE ``(n_rus, n_prbs, 24)`` stack, summed once with
        saturation, and recompressed once — no per-section round-trips and
        no per-PRB Python loop (:meth:`UPlaneSection.merged`, which also
        spares operands this process encoded the bit-unpack and forwards a
        lone one byte for byte).  The cost recorded is the modelled
        merge's, whatever work the twin skipped.
        """
        if not sections:
            raise ValueError("nothing to merge")
        first = sections[0]
        for section in sections[1:]:
            if section.prb_range != first.prb_range:
                raise ValueError(
                    f"cannot merge misaligned sections {section.prb_range} "
                    f"vs {first.prb_range}"
                )
            if section.compression != first.compression:
                raise ValueError("cannot merge mixed compression configs")
        merged = UPlaneSection.merged(sections)
        self.record(
            ActionKind.IQ_MERGE,
            self.cost.merge_cost(first.num_prb, len(sections)),
        )
        return merged

    def copy_prbs(
        self,
        source: UPlaneSection,
        destination: UPlaneSection,
        source_start_prb: int,
        dest_start_prb: int,
        num_prb: int,
        aligned: bool = True,
    ) -> UPlaneSection:
        """Relocate PRBs between sections (RU-sharing mux/demux).

        Aligned grids move the raw compressed bytes (exponent included);
        misaligned grids must decompress, shift, and recompress
        (Section 4.3, Figure 6).
        """
        self.record(
            ActionKind.PRB_COPY, self.cost.prb_copy_cost(num_prb, aligned)
        )
        if aligned:
            prb_bytes = source.compression.prb_payload_bytes()
            if destination.compression != source.compression:
                raise ValueError("aligned copy requires identical compression")
            src_index = source_start_prb - source.start_prb
            dst_index = dest_start_prb - destination.start_prb
            if not (0 <= src_index and src_index + num_prb <= source.num_prb):
                raise ValueError("source PRB range out of bounds")
            if not (
                0 <= dst_index and dst_index + num_prb <= destination.num_prb
            ):
                raise ValueError("destination PRB range out of bounds")
            payload = bytearray(destination.payload)
            payload[
                dst_index * prb_bytes : (dst_index + num_prb) * prb_bytes
            ] = source.payload[
                src_index * prb_bytes : (src_index + num_prb) * prb_bytes
            ]
            return UPlaneSection(
                section_id=destination.section_id,
                start_prb=destination.start_prb,
                num_prb=destination.num_prb,
                payload=bytes(payload),
                compression=destination.compression,
            )
        # Misaligned: full decompress of both, sample-level move, recompress.
        src_samples = self.decompress(source)
        dst_samples = self.decompress(destination)
        src_index = source_start_prb - source.start_prb
        dst_index = dest_start_prb - destination.start_prb
        dst_samples[dst_index : dst_index + num_prb] = src_samples[
            src_index : src_index + num_prb
        ]
        return self.compress(destination, dst_samples)

    def extract_prbs(
        self,
        source: UPlaneSection,
        source_start_prb: int,
        num_prb: int,
        section_id: int,
        dest_start_prb: int = 0,
    ) -> UPlaneSection:
        """Aligned extraction: carve a PRB range out of ``source`` as a new
        section sharing the original payload bytes (RU-sharing demux).

        Equivalent to allocating a zero section and :meth:`copy_prbs`-ing
        into it, but zero-copy: the new section's payload is a view over
        the source's wire bytes.
        """
        self.record(
            ActionKind.PRB_COPY, self.cost.prb_copy_cost(num_prb, True)
        )
        view = source.prb_payload_view(source_start_prb, num_prb)
        return UPlaneSection(
            section_id=section_id,
            start_prb=dest_start_prb,
            num_prb=num_prb,
            payload=view,
            compression=source.compression,
        )

    def assemble_prbs(
        self,
        num_prb: int,
        placements: Sequence[Tuple[UPlaneSection, int]],
        compression,
        section_id: int = 0,
        start_prb: int = 0,
    ) -> UPlaneSection:
        """Aligned scatter: build one ``num_prb``-wide section by writing
        each source's wire bytes at its destination PRB index in a single
        output buffer (RU-sharing downlink mux).

        ``placements`` is a sequence of ``(source_section, dest_prb_index)``
        pairs.  Unwritten PRBs are idle (exponent 0, zero mantissas) —
        byte-identical to compressing a zero grid.  One allocation total,
        versus one full payload copy per operand with repeated
        :meth:`copy_prbs` calls.
        """
        prb_bytes = compression.prb_payload_bytes()
        payload = bytearray(num_prb * prb_bytes)
        for source, dest_index in placements:
            if source.compression != compression:
                raise ValueError("aligned assembly requires identical compression")
            if not (0 <= dest_index and dest_index + source.num_prb <= num_prb):
                raise ValueError("destination PRB range out of bounds")
            self.record(
                ActionKind.PRB_COPY,
                self.cost.prb_copy_cost(source.num_prb, True),
            )
            payload[
                dest_index * prb_bytes : (dest_index + source.num_prb) * prb_bytes
            ] = source.payload
        return UPlaneSection(
            section_id=section_id,
            start_prb=start_prb,
            num_prb=num_prb,
            payload=bytes(payload),
            compression=compression,
        )

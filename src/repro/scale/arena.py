"""Shared-memory IQ/result transport for the persistent worker pool.

The bulk path between a forked worker and the coordinator is a
preallocated **arena**: one ``multiprocessing.shared_memory`` segment
partitioned into per-worker :class:`RingBuffer` regions.  Workers write
payload bytes straight into their ring and send only a tiny
``(offset, nbytes, watermark)``
descriptor over the control pipe; the coordinator reads the bytes as a
``memoryview`` of the same physical pages — zero copies on the read
side, one on the write side.

Payloads are framed with pickle protocol 5: picklable containers travel
in-band while contiguous numpy arrays are exported **out-of-band** via
``buffer_callback``, so packet batches land in the arena as raw array
bytes and reconstruct on the coordinator side as views over shared
memory (:func:`write_payload` / :func:`read_payload`).

Ring discipline: allocations are contiguous (wrapping past the end of
the region when the tail has moved on) and tracked by *absolute*
monotonic watermarks.  The reader acknowledges consumption by echoing
the highest watermark it has finished with (:meth:`RingBuffer.
release_until`), which the strict request/response protocol of the pool
makes race-free: a worker only ever writes after receiving the
coordinator's ack for everything previously sent.  A payload that cannot
fit raises :class:`ArenaFullError` — never silent corruption — and the
pool falls back to the pipe for that payload.
"""

from __future__ import annotations

import pickle
from multiprocessing import shared_memory
from typing import Any, List, Optional, Tuple

#: One contiguous allocation: ``(offset, nbytes, watermark)``.  The
#: watermark is the ring's absolute head after the write; acking it
#: releases this extent and any wrap padding that preceded it.
Extent = Tuple[int, int, int]

#: A framed payload: the in-band pickle extent plus one extent per
#: out-of-band (numpy) buffer.  Tiny tuples of ints — this is all that
#: ever crosses the control pipe.
PayloadDescriptor = Tuple[Extent, Tuple[Extent, ...]]


class ArenaFullError(RuntimeError):
    """A payload does not fit in the ring's free space.

    Raised *before* any byte of the failed allocation is written, so the
    ring's committed contents stay intact — callers may retry later or
    fall back to another transport.
    """


class ArenaFrameError(RuntimeError):
    """A payload descriptor fails its watermark/length bounds check.

    A corrupted (or maliciously poisoned) descriptor must never reach
    ``pickle.loads`` — unpickling attacker-shaped garbage is the exact
    failure class shared-memory transports are infamous for.
    :func:`validate_descriptor` raises this instead, and the supervised
    pool routes it to the recovery path like any other worker fault.
    """


class RingBuffer:
    """A single-producer/single-consumer byte ring over a memoryview.

    Positions are **absolute** (monotonically increasing); the physical
    offset of an allocation is ``position % capacity``.  Allocations are
    always contiguous: when a request does not fit between the head and
    the end of the region, the head skips the remainder (wrap padding)
    and the allocation starts at offset 0.  ``release_until(watermark)``
    frees everything up to an acked watermark, padding included.
    """

    def __init__(self, buffer: memoryview):
        self._buffer = buffer
        self.capacity = len(buffer)
        #: Absolute write head: next byte to be allocated.
        self.head = 0
        #: Absolute tail: oldest byte not yet released by the reader.
        self.tail = 0

    @property
    def used(self) -> int:
        return self.head - self.tail

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def alloc(self, nbytes: int) -> Extent:
        """Reserve ``nbytes`` contiguous bytes; raise when they don't fit."""
        if nbytes < 0:
            raise ValueError("cannot allocate a negative extent")
        if nbytes > self.capacity:
            raise ArenaFullError(
                f"payload of {nbytes} B exceeds the ring capacity "
                f"({self.capacity} B); raise arena_bytes_per_worker"
            )
        head = self.head
        offset = head % self.capacity
        if offset + nbytes > self.capacity:
            # Wrap: pad out the end of the region, start at offset 0.
            # Padding ahead of a fully-drained ring frees immediately;
            # otherwise it is released when the reader acks past it.
            padding = self.capacity - offset
            if self.tail == head:
                self.tail = head + padding
            head += padding
            offset = 0
        if head + nbytes - self.tail > self.capacity:
            raise ArenaFullError(
                f"ring full: {nbytes} B requested, "
                f"{self.capacity - (head - self.tail)} B free after wrap "
                f"(capacity {self.capacity} B, unreleased {self.used} B)"
            )
        self.head = head + nbytes
        return (offset, nbytes, self.head)

    def write(self, data) -> Extent:
        """Copy ``data`` (bytes-like) into the ring; return its extent."""
        view = memoryview(data).cast("B")
        extent = self.alloc(view.nbytes)
        offset, nbytes, _ = extent
        self._buffer[offset:offset + nbytes] = view
        return extent

    def view(self, offset: int, nbytes: int) -> memoryview:
        """Zero-copy read of one extent."""
        if offset < 0 or offset + nbytes > self.capacity:
            raise ValueError(
                f"extent ({offset}, {nbytes}) outside ring of "
                f"{self.capacity} B"
            )
        return self._buffer[offset:offset + nbytes]

    def release_until(self, watermark: int) -> None:
        """Free every byte up to an acked absolute watermark."""
        if watermark > self.head:
            raise ValueError(
                f"ack watermark {watermark} ahead of head {self.head}"
            )
        self.tail = max(self.tail, watermark)

    def reset(self) -> None:
        """Forget all content (both sides must agree — e.g. on rebuild)."""
        self.head = 0
        self.tail = 0


def write_payload(ring: RingBuffer, obj: Any) -> PayloadDescriptor:
    """Frame ``obj`` into the ring: in-band pickle + out-of-band buffers.

    Contiguous numpy arrays (and anything else exposing the pickle-5
    buffer protocol) are written as raw bytes, so a batch of IQ arrays
    moves as array views rather than re-serialized copies.  The whole
    frame takes **one** ring allocation — per-buffer costs are a single
    memcpy each, not an alloc round — and raises :class:`ArenaFullError`
    (ring untouched) when the payload does not fit.
    """
    buffers: List[pickle.PickleBuffer] = []
    data = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    raws = [b.raw().cast("B") for b in buffers]
    total = len(data) + sum(raw.nbytes for raw in raws)
    if total > ring.free:
        raise ArenaFullError(
            f"payload of {total} B exceeds free ring space ({ring.free} B)"
        )
    offset, _, mark = ring.alloc(total)
    region = ring.view(offset, total)
    position = 0
    region[position:position + len(data)] = data
    main = (offset, len(data), mark)
    position += len(data)
    extents = []
    for raw in raws:
        region[position:position + raw.nbytes] = raw
        extents.append((offset + position, raw.nbytes, mark))
        position += raw.nbytes
    return (main, tuple(extents))


def _valid_extent_shape(extent: Any) -> bool:
    return (
        isinstance(extent, tuple)
        and len(extent) == 3
        and all(
            isinstance(part, int) and not isinstance(part, bool)
            for part in extent
        )
    )


def validate_descriptor(
    ring: RingBuffer,
    descriptor: Any,
    released: int = 0,
) -> PayloadDescriptor:
    """Bounds-check a payload descriptor before any byte of it is read.

    ``released`` is the highest watermark the reader has already acked
    for this ring: every extent of a *fresh* payload must lie strictly
    beyond it and within one ring capacity of it, or the descriptor
    points at bytes the protocol can never have written.  (The check is
    against the reader's acked watermark, not the local ring head — the
    coordinator's ring twin never writes, so its head stays 0.)

    Returns the descriptor (now known well-shaped) on success and raises
    :class:`ArenaFrameError` on any structural or bounds violation, so
    corrupted shared memory surfaces as a typed, recoverable fault
    instead of a pickle of garbage.
    """
    if (
        not isinstance(descriptor, tuple)
        or len(descriptor) != 2
        or not _valid_extent_shape(descriptor[0])
        or not isinstance(descriptor[1], tuple)
        or not all(_valid_extent_shape(extent) for extent in descriptor[1])
    ):
        raise ArenaFrameError(
            f"malformed payload descriptor: {descriptor!r}"
        )
    main, extents = descriptor
    if main[1] < 1:
        raise ArenaFrameError(
            f"payload descriptor has an empty in-band frame: {main!r}"
        )
    for offset, nbytes, mark in (main, *extents):
        if offset < 0 or nbytes < 0 or offset + nbytes > ring.capacity:
            raise ArenaFrameError(
                f"extent ({offset}, {nbytes}) outside ring of "
                f"{ring.capacity} B"
            )
        # A frame written after ack `released` starts from a drained
        # ring, so its watermark advances by at most wrap padding
        # (< capacity) plus the frame itself (<= capacity).
        if mark <= released or mark - released >= 2 * ring.capacity:
            raise ArenaFrameError(
                f"extent watermark {mark} outside the live window "
                f"({released}, {released + 2 * ring.capacity})"
            )
    return descriptor


def read_payload(ring: RingBuffer, descriptor: PayloadDescriptor) -> Any:
    """Reconstruct a payload from its descriptor, zero-copy.

    Out-of-band buffers come back as memoryviews into the ring, so numpy
    arrays in the payload alias shared memory until the descriptor's
    watermark is released — copy anything that must outlive the ack.
    """
    (offset, nbytes, _), extents = descriptor
    views = [ring.view(o, n) for (o, n, _) in extents]
    return pickle.loads(ring.view(offset, nbytes), buffers=views)


def payload_watermark(descriptor: PayloadDescriptor) -> int:
    """The highest absolute watermark of a framed payload (the ack value)."""
    (_, _, mark), extents = descriptor
    for _, _, extent_mark in extents:
        mark = max(mark, extent_mark)
    return mark


def payload_nbytes(descriptor: PayloadDescriptor) -> int:
    """Total payload bytes described (transport accounting)."""
    (_, nbytes, _), extents = descriptor
    return nbytes + sum(n for _, n, _ in extents)


class SharedArena:
    """One shared-memory segment partitioned into per-worker rings.

    The coordinator :meth:`create`\\ s the arena (and owns the unlink);
    each worker :meth:`attach`\\ es by name and uses only its own region,
    so rings are strictly single-producer/single-consumer.  Both sides
    ``close()`` their mapping; ``unlink()`` is idempotent and safe to
    call from cleanup paths that may run twice.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        workers: int,
        bytes_per_worker: int,
        owner: bool,
    ):
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self._name = shm.name
        self.workers = workers
        self.bytes_per_worker = bytes_per_worker
        self._owner = owner
        self._unlinked = False
        #: Region views handed to rings; released in close() so the
        #: underlying mmap can actually unmap (no exported pointers).
        self._views: List[memoryview] = []

    @classmethod
    def create(cls, workers: int, bytes_per_worker: int) -> "SharedArena":
        if workers < 1:
            raise ValueError("arena needs at least one worker region")
        if bytes_per_worker < 4096:
            raise ValueError("arena regions below 4 KiB are useless")
        shm = shared_memory.SharedMemory(
            create=True, size=workers * bytes_per_worker
        )
        return cls(shm, workers, bytes_per_worker, owner=True)

    @classmethod
    def attach(
        cls, name: str, workers: int, bytes_per_worker: int
    ) -> "SharedArena":
        # Fork workers share the coordinator's resource tracker, whose
        # name cache dedupes the attach-side registration — so the
        # coordinator's single unlink() leaves the tracker clean, and a
        # crashed run still gets the segment reaped by the tracker.
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, workers, bytes_per_worker, owner=False)

    @property
    def name(self) -> str:
        return self._name

    def ring(self, index: int) -> RingBuffer:
        """The ring over worker ``index``'s region of the segment."""
        if self._shm is None:
            raise RuntimeError("arena is closed")
        if not 0 <= index < self.workers:
            raise IndexError(
                f"worker index {index} outside arena of {self.workers}"
            )
        start = index * self.bytes_per_worker
        base = memoryview(self._shm.buf)
        region = base[start:start + self.bytes_per_worker]
        base.release()  # the slice exports its own buffer
        self._views.append(region)
        return RingBuffer(region)

    def close(self) -> None:
        """Drop this process's mapping (ring views become invalid)."""
        for view in self._views:
            view.release()
        self._views.clear()
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - a caller still holds
                pass             # a view; the mapping dies with the process
            else:
                self._shm = None

    def unlink(self) -> None:
        """Remove the segment from the system (owner side, idempotent)."""
        if not self._owner or self._unlinked:
            return
        self._unlinked = True
        if self._shm is not None:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        else:
            unlink_segment(self._name)


def unlink_segment(name: str) -> None:
    """Best-effort unlink of a segment by name (crash-path cleanup)."""
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - lost a benign race
        pass


__all__ = [
    "ArenaFrameError",
    "ArenaFullError",
    "Extent",
    "PayloadDescriptor",
    "RingBuffer",
    "SharedArena",
    "payload_nbytes",
    "payload_watermark",
    "read_payload",
    "unlink_segment",
    "validate_descriptor",
    "write_payload",
]

"""Block Floating Point (BFP) compression of U-plane IQ payloads.

Every RAN implementation the paper studied compresses U-plane IQ samples
with BFP at PRB granularity (Section 2.2, Figure 2): the 12 complex samples
of a PRB share one exponent byte, and each I/Q component is stored as an
``iq_width``-bit two's-complement mantissa.  The PRB monitoring middlebox
(Algorithm 1) reads exactly these exponents, and the DAS / RU-sharing
middleboxes must decompress, combine, and recompress them, so this module
implements real bit-accurate BFP with arbitrary mantissa widths.

The wire codec is fully vectorized and int16-native: the per-PRB shift is
found in the samples' own dtype (no ``log2``, no int64 copy), all PRBs of
a block are packed on uint64 word lanes (eight mantissas to ``width``
bytes, no bit ever a byte) and wire bytes are unpacked through one
``np.unpackbits`` over a ``(n_prbs, 24, width)`` bit tensor, which is
what lets the Python middleboxes approach the per-packet constant cost of
the paper's C implementation (Figure 15b).  Because a PRB holds 24
mantissas and ``24 * width`` is always a multiple of 8, every PRB's
mantissa block is exactly ``3 * width`` bytes and a payload is one strided
``(n_prbs, param + 3 * width)`` byte grid — no per-PRB Python loop.  Both
codecs (BFP here, modulation compression in ``modcomp.py``) are the same
kernels under a different per-PRB parameter, and an endpoint compresses a
whole slot's PRB ranges in one blocked pass (``encode_ranges``).

Nothing is memoised.  An encode is ``parse_of`` then ``pack``; the slot
pass (``encode_ranges``) runs the first half and hands each range its
``(shifts, mantissas)`` and a :class:`PendingWire`, so a section this
process encoded (``uplane.py``) is never bit-unpacked and is packed only
if read.  Only bytes that crossed a wire are parsed (``parse_wire``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

SAMPLES_PER_PRB = 12

#: O-RAN udCompMeth code for block floating point.
BFP_COMP_METH = 1
#: udCompMeth code for uncompressed 16-bit fixed point.
NO_COMP_METH = 0
#: udCompMeth code for modulation compression (O-RAN CUS Annex A.4).
MOD_COMP_METH = 4

#: Largest exponent the 4-bit wire nibble can carry (Figure 2).
MAX_WIRE_EXPONENT = 15


#: A parsed payload: read-only per-PRB shifts ``(n_prbs,)`` and int16
#: mantissas ``(n_prbs, 24)`` — what ``parse_of`` finds, ``pack`` packs
#: and ``parse_wire`` unpacks.
Parse = Tuple[np.ndarray, np.ndarray]


def codec_memo_stats() -> Dict[str, int]:
    """Constant zeros: there is no codec memo (DESIGN.md, "The encoder's
    parse rides on the section").  Kept, with :func:`clear_codec_memo`,
    because the frozen benchmark imports both (``bench/suite.py``,
    ``bench/trace.py``)."""
    return dict.fromkeys(
        (
            "compress_hits", "compress_misses", "parse_hits",
            "parse_misses", "compress_entries", "parse_entries",
        ),
        0,
    )


def clear_codec_memo() -> None:
    """No-op: see :func:`codec_memo_stats`."""


@dataclass(frozen=True)
class CompressionConfig:
    """Parameters carried in the O-RAN ``udCompHdr`` field.

    ``iq_width`` is the mantissa width in bits (Figure 2 shows width 9);
    ``comp_meth`` selects the scheme.  BFP, modulation compression, and
    uncompressed are implemented — the three wire formats the vendor
    stacks negotiate over M-plane.
    """

    iq_width: int = 9
    comp_meth: int = BFP_COMP_METH

    def __post_init__(self) -> None:
        if self.comp_meth == NO_COMP_METH:
            if self.iq_width not in (0, 16):
                raise ValueError("uncompressed payloads use 16-bit samples")
        elif self.comp_meth == BFP_COMP_METH:
            if not 2 <= self.iq_width <= 16:
                raise ValueError(f"BFP iq_width out of range: {self.iq_width}")
        elif self.comp_meth == MOD_COMP_METH:
            if not 1 <= self.iq_width <= 14:
                raise ValueError(
                    f"modcomp iq_width out of range: {self.iq_width}"
                )
        else:
            raise ValueError(f"unsupported compression method: {self.comp_meth}")

    def to_byte(self) -> int:
        width = 0 if self.iq_width == 16 else self.iq_width
        return ((width & 0xF) << 4) | (self.comp_meth & 0xF)

    @classmethod
    def from_byte(cls, value: int) -> "CompressionConfig":
        width = (value >> 4) & 0xF
        meth = value & 0xF
        if width == 0:
            width = 16
        return cls(iq_width=width, comp_meth=meth)

    def to_dict(self) -> Dict[str, int]:
        """Plain-data form, the exact inverse of :meth:`from_dict`."""
        return {"iq_width": self.iq_width, "comp_meth": self.comp_meth}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CompressionConfig":
        """Strict constructor from plain data.

        Unknown keys raise :class:`KeyError` — the same strictness as
        ``ScenarioSpec.from_dict`` — so a typoed ``iq_widht`` in a spec
        fails loudly instead of silently negotiating the default codec.
        """
        unknown = set(data) - {"iq_width", "comp_meth"}
        if unknown:
            raise KeyError(
                f"compression config has unknown keys: {sorted(unknown)}"
            )
        return cls(
            iq_width=int(data.get("iq_width", 9)),
            comp_meth=int(data.get("comp_meth", BFP_COMP_METH)),
        )

    def prb_payload_bytes(self) -> int:
        """Serialized size of one PRB: param byte(s) + packed mantissas."""
        mantissa_bits = 2 * SAMPLES_PER_PRB * self.iq_width
        packed = (mantissa_bits + 7) // 8
        if self.comp_meth == NO_COMP_METH:
            return 2 * SAMPLES_PER_PRB * 2  # int16 I and Q, no exponent
        if self.comp_meth == MOD_COMP_METH:
            return 2 + packed  # csf/scaler param halfword + mantissas
        return 1 + packed


#: PRBs per codec block.  A slot's worth of mantissas is packed at most
#: this many PRBs at a time so the uint64 lanes (~0.3 KB a PRB in
#: flight) stay under 200 KB whatever the slot holds — whole-slot lanes
#: read 0.5-1.0 MiB more ``peak_rss_mb`` on the benchmark and packed no
#: faster (DESIGN.md, "Blocked slot pass").
_BLOCK_PRBS = 512

#: ``_BIT_WEIGHTS[w]``: MSB-first int16 place values of a ``w``-bit
#: mantissa; the sign bit weighs ``-2**(w-1)``, so a weighted sum
#: sign-extends for free.
_BIT_WEIGHTS = [
    (1 << np.arange(width - 1, -1, -1)).astype(np.uint16).view(np.int16)
    for width in range(17)
]
for _weights in _BIT_WEIGHTS[1:16]:
    _weights[0] = -_weights[0]  # width 16's 0x8000 already reads -32768
_POWERS_OF_TWO = 1 << np.arange(63, dtype=np.int64)
#: ``_LANE_PLACES[w]``: place values of the four ``w``-bit fields of a
#: uint64 pack lane.
_LANE_PLACES = [
    np.array([1 << 3 * width, 1 << 2 * width, 1 << width, 1], dtype=np.uint64)
    for width in range(17)
]


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class PendingWire:
    """Bytes ``[start, stop)`` of an encode pass, not packed yet: the first
    :meth:`read` of any range packs the pass once (``encode_pass`` is
    ``[codec, parse]`` until then, ``[codec, wire bytes]`` after), and a
    range keeps its slice, so every section sharing it reads one object."""

    __slots__ = ("_pass", "_start", "_stop", "_bytes")

    def __init__(self, encode_pass: list, start: int, stop: int) -> None:
        self._pass, self._start, self._stop = encode_pass, start, stop
        self._bytes: Optional[bytes] = None

    def __len__(self) -> int:
        return self._stop - self._start

    def read(self) -> bytes:
        if self._bytes is None:
            whole, self._pass = self._pass, None
            if not isinstance(whole[1], bytes):
                whole[1] = whole[0].pack(whole[1])
            self._bytes = whole[1][self._start : self._stop]
        return self._bytes


def _as_prb_rows(samples) -> np.ndarray:
    """Samples as a signed-integer ``(n_prbs, 24)`` array (int16 kept)."""
    samples = np.asarray(samples)
    if samples.dtype.kind != "i":
        samples = samples.astype(np.int64)
    if samples.ndim != 2 or samples.shape[1] != 2 * SAMPLES_PER_PRB:
        raise ValueError(f"expected shape (n, 24), got {samples.shape}")
    return samples


def prb_shifts(samples: np.ndarray, width: int) -> np.ndarray:
    """Per-PRB right shift after which every sample fits ``width`` bits.

    Exact two's-complement arithmetic in the samples' own dtype:
    ``s ^ (s >> sign)`` folds a negative ``v`` onto ``-v - 1`` (so -256
    needs 9 bits, like 255); a folded row maximum below ``2**(width-1)``
    fits as it is, and every further power of two it reaches costs one
    more shift.  No ``log2``, no widening copy.
    """
    folded = samples ^ (samples >> (8 * samples.dtype.itemsize - 1))
    return np.searchsorted(
        _POWERS_OF_TWO[width - 1 :], folded.max(axis=1), side="right"
    )


def pack_mantissas(mantissas: np.ndarray, width: int) -> np.ndarray:
    """Pack ``(n_prbs, 24)`` mantissas that fit ``width`` bits into
    ``(n_prbs, 3 * width)`` wire bytes, MSB first.

    Eight mantissas fill exactly ``width`` bytes, so a PRB is three groups
    of eight.  A group rides two uint64 lanes of four fields masked to
    ``width`` bits (``a``, ``b``: dot products with the place values) and
    is the big-endian bytes of ``a << 4w | b`` — one word while ``8w <=
    64``, else its top 64 bits and the low ``w - 8`` bytes of ``b``.
    """
    fields = np.asarray(mantissas, dtype=np.int16).view(np.uint16)
    fields = fields & ((1 << width) - 1)
    lanes = fields.astype(np.uint64).reshape(-1, 4) @ _LANE_PLACES[width]
    a, b = lanes[0::2], lanes[1::2]
    if width <= 8:
        word = (a << (4 * width)) | b
        packed = word.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - width :]
    else:
        packed = np.empty((len(a), width), dtype=np.uint8)
        top = (a << (64 - 4 * width)) | (b >> (8 * width - 64))
        packed[:, :8] = top.astype(">u8").view(np.uint8).reshape(-1, 8)
        packed[:, 8:] = b.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 16 - width :]
    return packed.reshape(len(fields), 3 * width)


def unpack_mantissas(blocks: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`pack_mantissas`: signed int16 ``(n_prbs, 24)``."""
    bits = np.unpackbits(blocks, axis=1).reshape(
        len(blocks), 2 * SAMPLES_PER_PRB, width
    )
    return np.einsum("ijk,k->ij", bits.astype(np.int16), _BIT_WEIGHTS[width])


class _PrbCodec:
    """What the BFP and modulation-compression codecs share.

    Both put a per-PRB parameter (BFP exponent byte, modcomp csf/scaler
    halfword) in front of 24 packed mantissas ``x >> shift``; they differ
    in the parameter's layout and legal range and in how a mantissa is
    expanded again.  Subclasses supply ``_param_bytes``,
    ``_check_shifts``, ``_store_params``, ``_load_params`` and
    ``decompress_array``.
    """

    _param_bytes: int
    config: CompressionConfig

    # -- array-level API ---------------------------------------------------

    def _shifts_for(self, samples: np.ndarray) -> np.ndarray:
        shifts = prb_shifts(_as_prb_rows(samples), self.config.iq_width)
        return shifts.astype(self._shift_dtype)

    def compress_array(self, samples: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Compress to (per-PRB shifts, mantissas) arrays.

        Mantissas have shape (n_prbs, 24), already shifted, in the
        samples' dtype.  Raises :class:`ValueError` when a PRB would need
        a shift the wire parameter cannot carry — silently masking it (as
        a naive implementation might) corrupts every sample in the PRB.
        int16 input can never trigger this, but callers feeding wider
        accumulators must saturate first.
        """
        samples = _as_prb_rows(samples)
        shifts = prb_shifts(samples, self.config.iq_width)
        self._check_shifts(int(shifts.max(initial=0)))
        mantissas = samples >> shifts.astype(samples.dtype)[:, None]
        return shifts.astype(self._shift_dtype), mantissas

    # -- wire-level API ----------------------------------------------------

    #: ``compress(decompress(compress(x))) == compress(x)``: what lets a
    #: merge of one operand forward the operand's bytes.
    recompression_stable = True

    def parse_of(self, samples: np.ndarray) -> Parse:
        """The first half of an encode: read-only per-PRB shifts and int16
        mantissas, equal to ``parse_wire(pack(...))`` — so whoever keeps
        them never unpacks the bytes."""
        shifts, mantissas = self.compress_array(samples)
        return _freeze(shifts), _freeze(mantissas.astype(np.int16, copy=False))

    def pack(self, parse: Parse) -> bytes:
        """The second half: ``param || packed mantissas`` per PRB (Figure 2
        of the paper for BFP), the word lanes filled ``_BLOCK_PRBS`` PRBs
        at a time."""
        shifts, mantissas = parse
        width = self.config.iq_width
        out = np.empty(
            (len(mantissas), self._param_bytes + 3 * width), dtype=np.uint8
        )
        self._store_params(out, shifts)
        for start in range(0, len(mantissas), _BLOCK_PRBS):
            block = slice(start, start + _BLOCK_PRBS)
            out[block, self._param_bytes :] = pack_mantissas(
                mantissas[block], width
            )
        return out.tobytes()

    def compress(self, samples: np.ndarray) -> bytes:
        """Serialize samples of shape (n_prbs, 24) to the wire format."""
        return self.pack(self.parse_of(samples))

    def encode_ranges(
        self, ranges: Sequence[np.ndarray]
    ) -> List[Tuple[Parse, PendingWire]]:
        """Encode many ``(n_i, 24)`` int16 PRB ranges in one pass; one
        ``(parse, pending wire bytes)`` each.

        The entry of every in-process encode site: the ranges are stacked
        and parsed once, and the parse sliced back per range — a view, so
        it keeps the whole pass's shift and mantissa arrays alive while it
        lives.  Nothing is packed until a range's bytes are read.
        """
        if not ranges:
            return []
        stacked = ranges[0] if len(ranges) == 1 else np.concatenate(ranges)
        shifts, mantissas = parse = self.parse_of(stacked)
        encode_pass, prb_bytes = [self, parse], self.config.prb_payload_bytes()
        edges = list(accumulate(map(len, ranges), initial=0))
        return [
            (
                (shifts[start:end], mantissas[start:end]),
                PendingWire(encode_pass, start * prb_bytes, end * prb_bytes),
            )
            for start, end in zip(edges, edges[1:])
        ]

    def compress_ranges(self, ranges: Sequence[np.ndarray]) -> List[bytes]:
        """The payloads of :meth:`encode_ranges`, read at once."""
        return [wire.read() for _, wire in self.encode_ranges(ranges)]

    def _grid(self, payload, n_prbs: int) -> np.ndarray:
        """The payload's first ``n_prbs`` PRBs as a ``(n_prbs, prb_bytes)``
        byte view — no copy."""
        prb_bytes = self.config.prb_payload_bytes()
        if len(payload) < n_prbs * prb_bytes:
            raise ValueError(
                f"truncated payload: need {n_prbs * prb_bytes}, "
                f"got {len(payload)}"
            )
        return np.frombuffer(
            payload, dtype=np.uint8, count=n_prbs * prb_bytes
        ).reshape(n_prbs, prb_bytes)

    def parse_wire(self, payload, n_prbs: int) -> Parse:
        """Parse wire payload to (per-PRB shifts, signed int16 mantissas)
        without expanding to samples.  Returned arrays are read-only."""
        grid = self._grid(payload, n_prbs)
        mantissas = unpack_mantissas(
            grid[:, self._param_bytes :], self.config.iq_width
        )
        return _freeze(self._load_params(grid)), _freeze(mantissas)

    def read_exponents(self, payload: bytes, n_prbs: int) -> np.ndarray:
        """Read only the per-PRB shifts — BFP exponents or modcomp
        scalers (Algorithm 1's fast path).

        A pure strided view over the wire bytes, no bit unpacking.  Either
        way idle PRBs read 0 and loaded PRBs a positive value, so the PRB
        monitor works unmodified over both codecs.
        """
        return self._load_params(self._grid(payload, n_prbs))

    def decompress(self, payload: bytes, n_prbs: int) -> np.ndarray:
        """Parse a wire payload back to int16 samples of shape (n_prbs, 24)."""
        return self.decompress_array(*self.parse_wire(payload, n_prbs))


class BfpCompressor(_PrbCodec):
    """Block Floating Point codec over int16 IQ samples.

    Samples are represented as interleaved I/Q int16 arrays of shape
    ``(n_prbs, 24)`` (12 complex samples per PRB).  ``compress`` yields one
    exponent per PRB plus the packed mantissas; ``decompress`` restores
    samples up to quantization.  Also carries the uncompressed (16-bit
    fixed point) wire format.
    """

    _param_bytes = 1
    _shift_dtype = np.uint8

    def __init__(self, config: CompressionConfig = CompressionConfig()):
        self.config = config

    def exponents_for(self, samples: np.ndarray) -> np.ndarray:
        """Per-PRB BFP exponents for int16 samples of shape (n_prbs, 24).

        The exponent is the number of right-shifts needed so the largest
        magnitude in the PRB fits the mantissa width.  Idle PRBs (all
        near-zero samples) get exponent 0 — the property Algorithm 1's
        utilization estimator relies on.
        """
        return self._shifts_for(samples)

    def _check_shifts(self, largest: int) -> None:
        if largest > MAX_WIRE_EXPONENT:
            raise ValueError(
                f"BFP exponent {largest} exceeds the 4-bit wire field "
                f"(max {MAX_WIRE_EXPONENT}); saturate samples to int16 "
                "before compressing"
            )

    def _store_params(self, out: np.ndarray, shifts: np.ndarray) -> None:
        out[:, 0] = shifts

    def _load_params(self, grid: np.ndarray) -> np.ndarray:
        if self.config.comp_meth == NO_COMP_METH:
            raise ValueError("uncompressed payloads carry no BFP exponents")
        return grid[:, 0] & 0x0F

    def decompress_array(
        self, exponents: np.ndarray, mantissas: np.ndarray
    ) -> np.ndarray:
        """Restore int16 samples from (exponents, mantissas).

        int32 holds a 16-bit mantissa shifted by the largest wire
        exponent (15) exactly; the clip saturates it to int16.
        """
        restored = np.left_shift(
            mantissas, np.asarray(exponents)[:, None], dtype=np.int32
        )
        return restored.clip(-32768, 32767, out=restored).astype(np.int16)

    # Uncompressed: int16 samples under exponent 0, packed big-endian.
    def parse_of(self, samples: np.ndarray) -> Parse:
        if self.config.comp_meth != NO_COMP_METH:
            return super().parse_of(samples)
        mantissas = _as_prb_rows(samples).astype(np.int16)
        return _freeze(np.zeros(len(mantissas), np.uint8)), _freeze(mantissas)

    def pack(self, parse: Parse) -> bytes:
        if self.config.comp_meth != NO_COMP_METH:
            return super().pack(parse)
        return parse[1].astype(">i2").tobytes()

    def parse_wire(self, payload, n_prbs: int) -> Parse:
        if self.config.comp_meth != NO_COMP_METH:
            return super().parse_wire(payload, n_prbs)
        samples = self._grid(payload, n_prbs).view(">i2").astype(np.int16)
        return _freeze(np.zeros(n_prbs, np.uint8)), _freeze(samples)


def codec_for(config: CompressionConfig):
    """The wire codec implementing ``config.comp_meth``.

    The dispatch point of the two-codec fronthaul: BFP and uncompressed
    payloads go through :class:`BfpCompressor`, modulation compression
    through :class:`~repro.fronthaul.modcomp.ModCompressor`.  Both expose
    the same parse_of/pack/compress/encode_ranges/decompress/parse_wire/
    read_exponents surface, so everything above this line
    (U-plane sections, DAS merge, PRB monitoring) is codec-agnostic.
    """
    if config.comp_meth == MOD_COMP_METH:
        from repro.fronthaul.modcomp import ModCompressor

        return ModCompressor(config)
    return BfpCompressor(config)

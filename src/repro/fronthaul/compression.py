"""Block Floating Point (BFP) compression of U-plane IQ payloads.

Every RAN implementation the paper studied compresses U-plane IQ samples
with BFP at PRB granularity (Section 2.2, Figure 2): the 12 complex samples
of a PRB share one exponent byte, and each I/Q component is stored as an
``iq_width``-bit two's-complement mantissa.  The PRB monitoring middlebox
(Algorithm 1) reads exactly these exponents, and the DAS / RU-sharing
middleboxes must decompress, combine, and recompress them, so this module
implements real bit-accurate BFP with arbitrary mantissa widths.

The wire codec is fully vectorized and int16-native: the per-PRB shift is
found in the samples' own dtype (no ``log2``, no int64 copy), and all PRBs
of a block are packed and unpacked through one ``np.packbits`` /
``np.unpackbits`` call over a ``(n_prbs, 24, width)`` bit tensor, which is
what lets the Python middleboxes approach the per-packet constant cost of
the paper's C implementation (Figure 15b).  Because a PRB holds 24
mantissas and ``24 * width`` is always a multiple of 8, every PRB's
mantissa block is exactly ``3 * width`` bytes and a payload is one strided
``(n_prbs, param + 3 * width)`` byte grid — no per-PRB Python loop.  Both
codecs (BFP here, modulation compression in ``modcomp.py``) are the same
kernels under a different per-PRB parameter, and an endpoint compresses a
whole slot's PRB ranges in one blocked pass (``compress_ranges``).

Repeated identical *wire* payloads (the DAS downlink replicates the same
symbol to N RUs; RU sharing re-parses the same full-band uplink packet
once per DU) hit a small LRU parse memo instead of re-running the codec.
Compression has no memo: the IQ an endpoint or a merge compresses never
repeats.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Sequence, Tuple

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


class _LruMemo:
    """Tiny bounded LRU cache for codec results.

    Values must be immutable (bytes, or ndarrays with ``writeable=False``)
    because they are shared between all callers that present the same
    payload — exactly the DAS replicate / RU-sharing demux pattern.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._store: "OrderedDict[Hashable, object]" = OrderedDict()

    def get(self, key: Hashable):
        try:
            value = self._store[key]
        except KeyError:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: object) -> None:
        self._store[key] = value
        self._store.move_to_end(key)
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)


#: Parse memo: (config byte, payload bytes) -> (exponents, mantissas).
_PARSE_MEMO = _LruMemo(capacity=128)


def codec_memo_stats() -> Dict[str, int]:
    """Hit/miss counters of the parse memo (observability + tests).

    The three ``compress_*`` keys are constant zero: the compress memo
    never hit on live traffic and is gone, but the frozen benchmark
    still indexes them (``bench/suite.py``).
    """
    return {
        "compress_hits": 0,
        "compress_misses": 0,
        "parse_hits": _PARSE_MEMO.hits,
        "parse_misses": _PARSE_MEMO.misses,
        "compress_entries": 0,
        "parse_entries": len(_PARSE_MEMO),
    }


def clear_codec_memo() -> None:
    """Reset the memo (used by benchmarks to measure cold paths)."""
    _PARSE_MEMO.clear()


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


#: PRBs per codec block.  A slot's worth of IQ is compressed in passes of
#: at most this many PRBs so the bit tensor (24 * width bytes a PRB) stays
#: a few hundred KB whatever the slot holds — whole-slot tensors raised
#: peak RSS 2-3 MB on the benchmark (DESIGN.md, "Blocked slot pass").
_BLOCK_PRBS = 512

#: ``_BIT_MASKS[w]``: MSB-first single-bit masks of a ``w``-bit mantissa.
_BIT_MASKS = [
    (1 << np.arange(width - 1, -1, -1)).astype(np.uint16)
    for width in range(17)
]
#: ``_BIT_WEIGHTS[w]``: the same bits as signed int16 place values; the
#: sign bit weighs ``-2**(w-1)``, so a weighted sum sign-extends for free.
_BIT_WEIGHTS = [masks.view(np.int16).copy() for masks in _BIT_MASKS]
for _weights in _BIT_WEIGHTS[1:16]:
    _weights[0] = -_weights[0]  # width 16's 0x8000 already reads -32768
_POWERS_OF_TWO = 1 << np.arange(63, dtype=np.int64)


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


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

    One mask-and-test over the uint16 view builds the ``(n, 24, width)``
    bit tensor (the low ``width`` bits of a two's-complement int16 *are*
    the wire mantissa, so no masking and no ``1 << 16`` that int16 cannot
    hold); ``24 * width`` is a multiple of 8, so one ``np.packbits`` emits
    every PRB's block.
    """
    unsigned = np.asarray(mantissas, dtype=np.int16).view(np.uint16)
    bits = (unsigned[:, :, None] & _BIT_MASKS[width]) != 0
    return np.packbits(
        bits.reshape(len(unsigned), 2 * SAMPLES_PER_PRB * width), axis=1
    )


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

    def _encode(self, samples: np.ndarray) -> bytes:
        """One codec pass: param || mantissa block per PRB, one store."""
        shifts, mantissas = self.compress_array(samples)
        width = self.config.iq_width
        out = np.empty(
            (len(samples), self._param_bytes + 3 * width), dtype=np.uint8
        )
        self._store_params(out, shifts)
        out[:, self._param_bytes :] = pack_mantissas(mantissas, width)
        return out.tobytes()

    def compress(self, samples: np.ndarray) -> bytes:
        """Serialize samples of shape (n_prbs, 24) to the wire format.

        Each PRB is emitted as ``param || packed mantissas`` (Figure 2 of
        the paper for BFP), ``_BLOCK_PRBS`` PRBs per codec pass.
        """
        samples = _as_prb_rows(samples)
        if len(samples) <= _BLOCK_PRBS:
            return self._encode(samples)
        return b"".join(
            self._encode(samples[start : start + _BLOCK_PRBS])
            for start in range(0, len(samples), _BLOCK_PRBS)
        )

    def compress_ranges(self, ranges: Sequence[np.ndarray]) -> List[bytes]:
        """Compress many ``(n_i, 24)`` int16 PRB ranges; one payload each.

        The slot-level pass of the RU and DU builders: the ranges are
        stacked and compressed ``_BLOCK_PRBS`` PRBs at a time (a range may
        straddle blocks), then the wire bytes are sliced back per range.
        """
        if not ranges:
            return []
        stacked = ranges[0] if len(ranges) == 1 else np.concatenate(ranges)
        wire = self.compress(stacked)
        edges = np.cumsum([0] + [len(piece) for piece in ranges])
        edges *= self.config.prb_payload_bytes()
        return [wire[start:end] for start, end in zip(edges, edges[1:])]

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

    def _parse(self, payload, n_prbs: int) -> Tuple[np.ndarray, np.ndarray]:
        grid = self._grid(payload, n_prbs)
        mantissas = unpack_mantissas(
            grid[:, self._param_bytes :], self.config.iq_width
        )
        return _freeze(self._load_params(grid)), _freeze(mantissas)

    def parse_wire(self, payload: bytes, n_prbs: int) -> Tuple[np.ndarray, np.ndarray]:
        """Parse wire payload to (per-PRB shifts, signed int16 mantissas)
        without expanding to samples.

        Returned arrays are read-only: identical payloads share one memo
        entry (the DAS/RU-sharing replicate pattern), so callers that
        mutate must ``.copy()`` first.
        """
        needed = n_prbs * self.config.prb_payload_bytes()
        memo_key = (self.config.to_byte(), bytes(payload[:needed]))
        cached = _PARSE_MEMO.get(memo_key)
        if cached is None:
            cached = self._parse(memo_key[1], n_prbs)
            _PARSE_MEMO.put(memo_key, cached)
        return cached

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

    def decompress_stack(self, payloads, n_prbs: int) -> np.ndarray:
        """Decompress N equal-length payloads in one codec pass.

        Returns int16 samples of shape ``(len(payloads), n_prbs, 24)``.
        This is the batched substrate of the DAS uplink merge: the N
        per-RU payloads are joined (views go to ``join`` as they are) and
        parsed as one ``N * n_prbs`` PRB grid, so the bit-unpacking runs
        once instead of N times.  Like every batch pass it bypasses the
        memo.
        """
        per_payload = n_prbs * self.config.prb_payload_bytes()
        for payload in payloads:
            if len(payload) < per_payload:
                raise ValueError("truncated payload in decompress_stack")
        combined = b"".join(payload[:per_payload] for payload in payloads)
        stacked = self.decompress_array(
            *self._parse(combined, len(payloads) * n_prbs)
        )
        return stacked.reshape(len(payloads), n_prbs, 2 * SAMPLES_PER_PRB)


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

    def _encode(self, samples: np.ndarray) -> bytes:
        if self.config.comp_meth == NO_COMP_METH:
            return samples.astype(">i2").tobytes()
        return super()._encode(samples)

    def _parse(self, payload, n_prbs: int) -> Tuple[np.ndarray, np.ndarray]:
        if self.config.comp_meth != NO_COMP_METH:
            return super()._parse(payload, n_prbs)
        # Uncompressed: big-endian int16 samples under exponent 0.
        samples = self._grid(payload, n_prbs).view(">i2").astype(np.int16)
        return _freeze(np.zeros(n_prbs, np.uint8)), _freeze(samples)


def codec_for(config: CompressionConfig):
    """The wire codec implementing ``config.comp_meth``.

    The dispatch point of the two-codec fronthaul: BFP and uncompressed
    payloads go through :class:`BfpCompressor`, modulation compression
    through :class:`~repro.fronthaul.modcomp.ModCompressor`.  Both expose
    the same compress/compress_ranges/decompress/decompress_stack/
    parse_wire/read_exponents surface, so everything above this line
    (U-plane sections, DAS merge, PRB monitoring) is codec-agnostic.
    """
    if config.comp_meth == MOD_COMP_METH:
        from repro.fronthaul.modcomp import ModCompressor

        return ModCompressor(config)
    return BfpCompressor(config)


def merge_payloads(
    payloads, n_prbs: int, config: CompressionConfig
) -> bytes:
    """Batched A4 merge: sum N compressed payloads, recompress once.

    Decompresses the operands into one ``(n_ops, n_prbs, 24)`` stack with a
    single codec pass, sums across operands with int32 accumulation and
    int16 saturation, and compresses the result in one pass — the DAS
    uplink combine without any per-section round-trips.  Works for any
    negotiated codec via :func:`codec_for`.
    """
    compressor = codec_for(config)
    stack = compressor.decompress_stack(payloads, n_prbs)
    total = stack.sum(axis=0, dtype=np.int32)
    merged = np.clip(total, -32768, 32767).astype(np.int16)
    return compressor.compress(merged)

"""O-RAN modulation compression of U-plane IQ payloads.

The second standard fronthaul codec (O-RAN CUS Annex A.4, udCompMeth 4;
Lagén et al., *Modulation Compression in Next Generation RAN*): instead
of a per-PRB exponent over near-full-width mantissas, the DU transmits
the constellation points themselves — each I/Q component quantized to an
``iq_width``-bit signed value plus a per-PRB power-of-two scaler that
maps the points back onto the fixed-point grid.  Because a QAM
constellation needs only a handful of bits per axis (16-QAM fits in 3),
modulation compression cuts wire bytes another ~2–3x below 9-bit BFP,
which directly raises the cell-slots/s a fronthaul switch can carry.

Per-PRB wire layout (mirroring BFP's ``exponent || mantissas`` grid):

- 2-byte big-endian ``udCompParam``: bit 15 is ``csf`` (constellation
  shift flag, set exactly when the scaler is non-zero), bits 14..0 the
  power-of-two ``scaler`` ``s``.
- ``3 * iq_width`` bytes of 24 MSB-first two's-complement mantissas
  (``24 * width`` is always a multiple of 8).

Compression picks the smallest ``s`` such that every ``x >> s`` fits a
signed ``iq_width``-bit mantissa; decompression reconstructs mid-rise:
``x' = (m << s) + 2**(s-1)`` (offset 0 when ``s == 0``, which is then
lossless).  The reconstruction error is at most half the quantization
step ``2**s``, and re-compressing a decompressed payload reproduces the
wire bytes exactly — the "lossy once, stable forever" property the DAS
merge and the differential harness rely on.  It holds from width 2 up;
a 1-bit mantissa has no magnitude bit, so an all-negative PRB decodes to
``-2**(s-1)``, which re-compresses at scaler ``s - 1``
(``recompression_stable``).

The codec is the BFP fast path with a different parameter: it shares
:class:`~repro.fronthaul.compression._PrbCodec` — the int16 shift search,
the one ``pack_mantissas``/``unpack_mantissas`` kernel pair, the
blocked slot pass and its ``parse_of``/``pack`` halves — and adds only
the csf/scaler halfword and the mid-rise reconstruction.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.fronthaul.compression import (
    MOD_COMP_METH,
    CompressionConfig,
    _PrbCodec,
)


def max_scaler(iq_width: int) -> int:
    """Largest legal scaler for a mantissa width.

    int16 sources never need more than ``16 - width`` right-shifts, so
    anything above is an illegal parameter the
    :class:`~repro.conformance.validator.WireValidator` flags.
    """
    return max(0, 16 - iq_width)


class ModCompressor(_PrbCodec):
    """Modulation-compression codec over int16 IQ samples.

    Mirrors :class:`~repro.fronthaul.compression.BfpCompressor` exactly:
    samples are interleaved I/Q int16 arrays of shape ``(n_prbs, 24)``,
    ``compress`` yields per-PRB ``csf``/``scaler`` params plus packed
    mantissas, and ``read_exponents`` returns the scalers — the same
    per-PRB energy indicator Algorithm 1's utilization estimator reads
    from BFP exponents, so the PRB-monitoring path is codec-agnostic.
    """

    _param_bytes = 2
    _shift_dtype = np.uint16

    def __init__(self, config: CompressionConfig):
        if config.comp_meth != MOD_COMP_METH:
            raise ValueError(
                f"ModCompressor requires comp_meth {MOD_COMP_METH}, "
                f"got {config.comp_meth}"
            )
        self.config = config

    @property
    def recompression_stable(self) -> bool:
        return self.config.iq_width > 1

    def _check_shifts(self, largest: int) -> None:
        legal = max_scaler(self.config.iq_width)
        if largest > legal:
            raise ValueError(
                f"modcomp scaler {largest} exceeds the legal bound "
                f"{legal} for width {self.config.iq_width}; saturate "
                "samples to int16 before compressing"
            )

    def _store_params(self, out: np.ndarray, shifts: np.ndarray) -> None:
        out[:, 0] = (shifts > 0) << 7  # csf bit; legal scalers fit a byte
        out[:, 1] = shifts

    def _load_params(self, grid: np.ndarray) -> np.ndarray:
        return ((grid[:, 0].astype(np.uint16) << 8) | grid[:, 1]) & 0x7FFF

    def decompress_array(
        self, scalers: np.ndarray, mantissas: np.ndarray
    ) -> np.ndarray:
        """Restore int16 samples from (scalers, mantissas).

        Mid-rise reconstruction: each mantissa maps to the centre of its
        quantization cell, ``(m << s) + 2**(s-1)``, so the error is at
        most half a step and the scaler-0 path is exact.
        """
        # Illegal wire scalers are the validator's problem; clamped to 16
        # they saturate exactly as any larger shift would (m >= 0 clips
        # to 32767, m < 0 to -32768) and a 14-bit mantissa stays in int32.
        shifts = np.minimum(scalers, 16).astype(np.int32)
        half = (np.int32(1) << shifts) >> 1
        restored = (
            np.asarray(mantissas, dtype=np.int32) << shifts[:, None]
        ) + half[:, None]
        return np.clip(restored, -32768, 32767).astype(np.int16)

    def read_params(self, payload: bytes, n_prbs: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-PRB (csf, scaler) arrays without unpacking mantissas.

        A pure strided view over the param halfwords — the validator's
        legality fast path.
        """
        grid = self._grid(payload, n_prbs)
        return grid[:, 0] >> 7, self._load_params(grid)


__all__ = ["ModCompressor", "max_scaler"]

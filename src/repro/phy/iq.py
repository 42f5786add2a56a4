"""QAM modulation and IQ fixed-point conversion.

The DU modulates transport-block bits into complex IQ samples (one per
subcarrier), which the fronthaul carries as 16-bit fixed point before BFP
compression (Figure 2: samples are fractions in [-1, 1)).  The packet-level
experiments use these samples end-to-end: the DU modulates known payloads,
middleboxes manipulate the compressed samples, the RU/channel applies gain
and noise, and decode correctness is judged by demodulating.
"""

from __future__ import annotations

import numpy as np

from repro.fronthaul.compression import SAMPLES_PER_PRB

#: Fixed-point scale: int16 full scale maps to amplitude 1.0 (Q15).
INT16_SCALE = 32767.0


def iq_to_int16(samples: np.ndarray, backoff: float = 0.25) -> np.ndarray:
    """Convert complex IQ to interleaved int16 of shape (..., n_prbs, 24).

    ``backoff`` leaves headroom below full scale (real DUs run several dB
    below clipping); interleaving is I0,Q0,I1,Q1,... per PRB as on the wire.
    """
    complex_grid = np.asarray(samples)
    if complex_grid.shape[-1] % SAMPLES_PER_PRB:
        raise ValueError(
            f"subcarrier count {complex_grid.shape[-1]} is not a whole "
            "number of PRBs"
        )
    n_prbs = complex_grid.shape[-1] // SAMPLES_PER_PRB
    # complex128 memory already is I0,Q0,I1,Q1,...: scale into a fresh
    # array, then round and saturate its float64 view in place.
    scaled = np.asarray(
        complex_grid * (INT16_SCALE * backoff), dtype=np.complex128, order="C"
    )
    interleaved = scaled.view(np.float64)
    np.rint(interleaved, out=interleaved)
    np.clip(interleaved, -32768, 32767, out=interleaved)
    return interleaved.astype(np.int16).reshape(
        complex_grid.shape[:-1] + (n_prbs, 2 * SAMPLES_PER_PRB)
    )


def int16_to_iq(samples: np.ndarray, backoff: float = 0.25) -> np.ndarray:
    """Inverse of :func:`iq_to_int16`: (..., n_prbs, 24) -> (..., n_sc)."""
    arr = np.asarray(samples, dtype=np.float64)
    i_part = arr[..., 0::2]
    q_part = arr[..., 1::2]
    complex_grid = (i_part + 1j * q_part) / (INT16_SCALE * backoff)
    return complex_grid.reshape(arr.shape[:-2] + (-1,))


class QamModulator:
    """Square-QAM modulation/demodulation with Gray mapping.

    Supports orders 4, 16, 64, 256 (QPSK through 256QAM) — the modulation
    set of the 5G downlink.  Hard-decision demodulation is sufficient for
    the correctness experiments (symbol error rate as decode proxy).
    """

    SUPPORTED_ORDERS = (4, 16, 64, 256)

    def __init__(self, order: int = 16):
        if order not in self.SUPPORTED_ORDERS:
            raise ValueError(f"unsupported QAM order: {order}")
        self.order = order
        self.bits_per_symbol = int(np.log2(order))
        side = int(np.sqrt(order))
        self._side = side
        levels = 2 * np.arange(side) - (side - 1)
        # Normalize to unit average energy.
        self._norm = np.sqrt((2 / 3) * (order - 1))
        self._levels = levels / self._norm
        self._gray = _gray_code(side)
        self._inverse_gray = np.argsort(self._gray)

    def modulate(self, symbols: np.ndarray) -> np.ndarray:
        """Map integer symbols in [0, order) to complex constellation points."""
        symbols = np.asarray(symbols)
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.order):
            raise ValueError("symbol index out of range")
        half_bits = self.bits_per_symbol // 2
        i_index = self._inverse_gray[symbols >> half_bits]
        q_index = self._inverse_gray[symbols & (self._side - 1)]
        return self._levels[i_index] + 1j * self._levels[q_index]

    def demodulate(self, points: np.ndarray) -> np.ndarray:
        """Hard-decision demap complex points back to integer symbols."""
        points = np.asarray(points)
        half_bits = self.bits_per_symbol // 2
        i_index = self._nearest_level(points.real)
        q_index = self._nearest_level(points.imag)
        return (self._gray[i_index] << half_bits) | self._gray[q_index]

    def _nearest_level(self, values: np.ndarray) -> np.ndarray:
        scaled = values * self._norm
        index = np.round((scaled + (self._side - 1)) / 2).astype(np.int64)
        return np.clip(index, 0, self._side - 1)


def _gray_code(n: int) -> np.ndarray:
    codes = np.arange(n)
    return codes ^ (codes >> 1)

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
#: Headroom below full scale unless a caller picks its own.
DEFAULT_BACKOFF = 0.25
#: Fixed-point drive level of the DL transmit grid.  Real L1s run a few dB
#: below full scale, which is what makes BFP exponents discriminate
#: data from idle even at wide mantissas (Radisys' 14-bit profile).  The
#: DU quantises its downlink at it and the RU decodes its air samples at it.
DL_FIXED_POINT_BACKOFF = 0.7


def iq_to_int16(
    samples: np.ndarray, backoff: float = DEFAULT_BACKOFF
) -> np.ndarray:
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


def int16_to_iq(samples: np.ndarray) -> np.ndarray:
    """Inverse of :func:`iq_to_int16` at the downlink drive level
    :data:`DL_FIXED_POINT_BACKOFF`: (..., n_prbs, 24) -> (..., n_sc)."""
    arr = np.asarray(samples, dtype=np.float64)
    i_part = arr[..., 0::2]
    q_part = arr[..., 1::2]
    complex_grid = (i_part + 1j * q_part) / (
        INT16_SCALE * DL_FIXED_POINT_BACKOFF
    )
    return complex_grid.reshape(arr.shape[:-2] + (-1,))


class QamModulator:
    """Square-QAM modulation with Gray mapping.

    Supports orders 4, 16, 64, 256 (QPSK through 256QAM) — the modulation
    set of the 5G downlink.
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
        self._levels = levels / np.sqrt((2 / 3) * (order - 1))
        self._inverse_gray = np.argsort(_gray_code(side))

    def modulate(self, symbols: np.ndarray) -> np.ndarray:
        """Map integer symbols in [0, order) to complex constellation points."""
        symbols = np.asarray(symbols)
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.order):
            raise ValueError("symbol index out of range")
        half_bits = self.bits_per_symbol // 2
        i_index = self._inverse_gray[symbols >> half_bits]
        q_index = self._inverse_gray[symbols & (self._side - 1)]
        return self._levels[i_index] + 1j * self._levels[q_index]


def _gray_code(n: int) -> np.ndarray:
    codes = np.arange(n)
    return codes ^ (codes >> 1)

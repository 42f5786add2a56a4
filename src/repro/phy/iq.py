"""IQ resource grids, QAM modulation, and fixed-point conversion.

The DU modulates transport-block bits into complex IQ samples (one per
subcarrier), which the fronthaul carries as 16-bit fixed point before BFP
compression (Figure 2: samples are fractions in [-1, 1)).  The packet-level
experiments use these grids end-to-end: the DU modulates known payloads,
middleboxes manipulate the compressed samples, the RU/channel applies gain
and noise, and decode correctness is judged by demodulating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


@dataclass
class ResourceGrid:
    """A per-symbol frequency grid: (layers, subcarriers) complex samples.

    This is what one U-plane symbol's worth of IQ looks like before
    compression; each layer corresponds to one eAxC RU port.
    """

    layers: int
    n_prbs: int
    data: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        shape = (self.layers, self.n_prbs * SAMPLES_PER_PRB)
        if self.data is None:
            self.data = np.zeros(shape, dtype=np.complex128)
        elif self.data.shape != shape:
            raise ValueError(f"grid data must be {shape}, got {self.data.shape}")

    @property
    def n_subcarriers(self) -> int:
        return self.n_prbs * SAMPLES_PER_PRB

    def fill_prbs(
        self, layer: int, start_prb: int, values: np.ndarray
    ) -> None:
        """Write modulated samples into a PRB range of one layer."""
        n_prb = len(values) // SAMPLES_PER_PRB
        start = start_prb * SAMPLES_PER_PRB
        self.data[layer, start : start + n_prb * SAMPLES_PER_PRB] = values

    def prb_slice(self, layer: int, start_prb: int, num_prb: int) -> np.ndarray:
        start = start_prb * SAMPLES_PER_PRB
        return self.data[layer, start : start + num_prb * SAMPLES_PER_PRB]

    def to_int16(self, layer: int, backoff: float = 0.25) -> np.ndarray:
        """One layer as fronthaul fixed point, shape (n_prbs, 24)."""
        return iq_to_int16(self.data[layer], backoff)

    @classmethod
    def from_int16(
        cls, samples_per_layer: "list[np.ndarray]", backoff: float = 0.25
    ) -> "ResourceGrid":
        layers = len(samples_per_layer)
        stacked = np.stack([int16_to_iq(s, backoff) for s in samples_per_layer])
        n_prbs = stacked.shape[-1] // SAMPLES_PER_PRB
        return cls(layers=layers, n_prbs=n_prbs, data=stacked)


def random_qam_grid(
    n_prbs: int,
    layers: int = 1,
    order: int = 16,
    rng: Optional[np.random.Generator] = None,
) -> "tuple[ResourceGrid, np.ndarray]":
    """Generate a grid of random QAM symbols; returns (grid, symbol indices).

    Used by the DU model to synthesize U-plane payloads whose decode
    correctness can be checked after middlebox processing.
    """
    rng = rng or np.random.default_rng()
    modulator = QamModulator(order)
    symbols = rng.integers(0, order, size=(layers, n_prbs * SAMPLES_PER_PRB))
    grid = ResourceGrid(layers=layers, n_prbs=n_prbs)
    grid.data[:] = modulator.modulate(symbols)
    return grid, symbols

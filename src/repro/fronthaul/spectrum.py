"""PRB spectrum grids and the RU-sharing frequency-alignment math.

Implements the Appendix A.1.1 formulas: given a shared RU's center
frequency and bandwidth, compute DU center frequencies whose PRB grids
align with the RU's grid (Figure 6), and map DU PRB indices into RU PRB
indices for the multiplexing done by the RU-sharing middlebox.
"""

from __future__ import annotations

from dataclasses import dataclass

SUBCARRIERS_PER_PRB = 12

#: PRB counts for common 5G NR channel bandwidths at 30 kHz SCS (3GPP 38.104).
PRBS_FOR_BANDWIDTH_30KHZ = {
    20_000_000: 51,
    25_000_000: 65,
    40_000_000: 106,
    50_000_000: 133,
    60_000_000: 162,
    80_000_000: 217,
    100_000_000: 273,
}


def prbs_for_bandwidth(bandwidth_hz: int, scs_hz: int = 30_000) -> int:
    """Number of PRBs for a channel bandwidth.

    Uses the 3GPP table for 30 kHz SCS; other spacings fall back to a 90%
    spectral-occupancy approximation (adequate for synthetic cells).
    """
    if scs_hz == 30_000 and bandwidth_hz in PRBS_FOR_BANDWIDTH_30KHZ:
        return PRBS_FOR_BANDWIDTH_30KHZ[bandwidth_hz]
    return int(bandwidth_hz * 0.9 // (SUBCARRIERS_PER_PRB * scs_hz))


@dataclass(frozen=True)
class PrbGrid:
    """The frequency grid of a cell or RU.

    A grid is ``num_prb`` PRBs of 12 subcarriers centred on
    ``center_frequency_hz``.  PRB 0 starts at the low edge of the occupied
    spectrum, mirroring the wire encoding (startPrbu counts from 0).
    """

    center_frequency_hz: float
    num_prb: int
    scs_hz: int = 30_000

    def __post_init__(self) -> None:
        if self.num_prb <= 0:
            raise ValueError(f"num_prb must be positive: {self.num_prb}")
        if self.scs_hz <= 0:
            raise ValueError(f"scs must be positive: {self.scs_hz}")

    @property
    def prb_bandwidth_hz(self) -> int:
        return SUBCARRIERS_PER_PRB * self.scs_hz

    @property
    def occupied_bandwidth_hz(self) -> int:
        return self.num_prb * self.prb_bandwidth_hz

    @property
    def prb0_frequency_hz(self) -> float:
        """Equation (1)-(2): low edge of PRB 0."""
        return self.center_frequency_hz - self.prb_bandwidth_hz * self.num_prb / 2

    def prb_start_frequency_hz(self, prb: int) -> float:
        """Low-edge frequency of a PRB index on this grid."""
        return self.prb0_frequency_hz + prb * self.prb_bandwidth_hz

    def contains(self, other: "PrbGrid") -> bool:
        """True if ``other``'s occupied spectrum fits inside this grid's."""
        return (
            other.prb0_frequency_hz >= self.prb0_frequency_hz - 1e-6
            and other.prb_start_frequency_hz(other.num_prb)
            <= self.prb_start_frequency_hz(self.num_prb) + 1e-6
        )

    def offset_of(self, other: "PrbGrid") -> float:
        """Offset of ``other``'s PRB 0 from this grid's PRB 0, in PRBs.

        An integral result means the two grids are aligned (left side of
        Figure 6); a fractional result means misaligned PRBs that force the
        middlebox to decompress/copy/recompress.
        """
        if self.scs_hz != other.scs_hz:
            raise ValueError("grids with different SCS cannot be aligned")
        delta_hz = other.prb0_frequency_hz - self.prb0_frequency_hz
        return delta_hz / self.prb_bandwidth_hz

    def is_aligned_with(self, other: "PrbGrid") -> bool:
        offset = self.offset_of(other)
        return abs(offset - round(offset)) < 1e-6

    def aligned_prb_offset(self, other: "PrbGrid") -> int:
        """Integer PRB offset of ``other`` within this grid.

        Raises if the grids are misaligned or ``other`` does not fit.
        """
        if not self.is_aligned_with(other):
            raise ValueError("PRB grids are misaligned")
        if not self.contains(other):
            raise ValueError("inner grid does not fit in outer grid")
        return round(self.offset_of(other))


def aligned_du_center_frequency(
    ru_grid: PrbGrid, du_num_prb: int, prb_offset: int
) -> float:
    """Appendix A.1.1, equations (1)-(4): DU center frequency that aligns
    the DU's PRB grid to the RU grid at ``prb_offset``.

    ``prb_offset`` is the RU PRB index where the DU's PRB 0 lands.
    """
    if prb_offset < 0 or prb_offset + du_num_prb > ru_grid.num_prb:
        raise ValueError(
            f"DU grid ({du_num_prb} PRBs at offset {prb_offset}) exceeds RU "
            f"grid of {ru_grid.num_prb} PRBs"
        )
    prb0 = ru_grid.prb0_frequency_hz
    return prb0 + SUBCARRIERS_PER_PRB * ru_grid.scs_hz * (prb_offset + du_num_prb / 2)


def split_ru_spectrum(ru_grid: PrbGrid, du_num_prbs: "list[int]") -> "list[PrbGrid]":
    """Carve a shared RU's spectrum into aligned, non-overlapping DU grids.

    Used by the RU-sharing experiments (Figure 10b, Figure 12): each DU gets
    a contiguous aligned block, packed from PRB 0 upward.
    """
    total = sum(du_num_prbs)
    if total > ru_grid.num_prb:
        raise ValueError(
            f"DU grids need {total} PRBs but RU only has {ru_grid.num_prb}"
        )
    grids = []
    offset = 0
    for num_prb in du_num_prbs:
        center = aligned_du_center_frequency(ru_grid, num_prb, offset)
        grids.append(PrbGrid(center, num_prb, ru_grid.scs_hz))
        offset += num_prb
    return grids

"""Appendix experiments: A.1 sharing math checks and A.2 cost analysis."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.eval.report import format_table
from repro.fronthaul.prach import (
    translate_freq_offset,
    translate_freq_offset_via_re0,
)
from repro.fronthaul.spectrum import PrbGrid, split_ru_spectrum
from repro.sim.cost import DeploymentCost


@dataclass
class SharingMathResult:
    """Appendix A.1.1/A.1.2 worked example (the paper's Figure 6 setup)."""

    ru_center_hz: float
    du_centers_hz: List[float]
    du_offsets_prb: List[float]
    prach_offsets: List[Tuple[int, int]]  # (DU freqOffset, RU freqOffset)

    def format(self) -> str:
        rows = []
        for index, (center, offset) in enumerate(
            zip(self.du_centers_hz, self.du_offsets_prb)
        ):
            rows.append((f"DU {index}", center / 1e9, offset))
        return format_table(
            "Appendix A.1: aligned DU placement in a 100MHz shared RU",
            ("DU", "center GHz", "PRB offset"),
            rows,
        )


def run_sharing_math() -> SharingMathResult:
    ru_center_hz = 3.46e9
    ru_grid = PrbGrid(ru_center_hz, 273)
    grids = split_ru_spectrum(ru_grid, [106, 106])
    offsets = [ru_grid.offset_of(grid) for grid in grids]
    prach = []
    for grid in grids:
        for du_offset in (0, 100, 1272):
            ru_offset = translate_freq_offset(
                du_offset, grid.center_frequency_hz, ru_center_hz, 30_000
            )
            # The two derivations of Appendix A.1.2 must agree.
            assert ru_offset == translate_freq_offset_via_re0(
                du_offset, grid.center_frequency_hz, ru_center_hz, 30_000
            )
            prach.append((du_offset, ru_offset))
    return SharingMathResult(
        ru_center_hz=ru_center_hz,
        du_centers_hz=[g.center_frequency_hz for g in grids],
        du_offsets_prb=offsets,
        prach_offsets=prach,
    )


@dataclass
class CostResult:
    """Appendix A.2: CapEx comparison for the Cambridge deployment."""

    ranbooster_usd: float
    conventional_usd: float
    savings_fraction: float

    def format(self) -> str:
        return format_table(
            "Appendix A.2: CapEx comparison (USD)",
            ("solution", "cost", "relative"),
            [
                ("RANBooster (50% margin)", round(self.ranbooster_usd),
                 f"-{self.savings_fraction * 100:.0f}%"),
                ("Conventional DAS ($2/sqft)", round(self.conventional_usd),
                 "baseline"),
            ],
        )


def run_cost_analysis() -> CostResult:
    deployment = DeploymentCost()
    return CostResult(
        ranbooster_usd=deployment.ranbooster_usd(),
        conventional_usd=deployment.conventional_usd(),
        savings_fraction=deployment.savings_fraction(),
    )

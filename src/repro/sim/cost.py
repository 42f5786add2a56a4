"""CapEx cost model (Appendix A.2).

Reproduces the paper's best-effort cost comparison: a commodity
RANBooster deployment (RUs, cabling, switches, GM clock, NICs, CPU cores)
against a conventional proprietary DAS priced per square foot.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostModel:
    """Unit prices (USD), following the Appendix A.2 accounting."""

    commodity_ru_usd: float = 1_700.0
    cabling_per_ru_usd: float = 470.0
    switch_usd: float = 9_000.0
    gm_clock_usd: float = 4_500.0
    nic_usd: float = 1_800.0
    cpu_core_usd: float = 450.0
    conventional_das_usd_per_sqft: float = 2.0

    def ranbooster_deployment_usd(
        self,
        n_rus: int,
        middlebox_cpu_cores: int = 8,
        building_work_usd: float = 0.0,
    ) -> float:
        """Commodity infrastructure cost of a RANBooster deployment: one
        switch, one grandmaster clock and one NIC besides the RUs."""
        if n_rus < 1:
            raise ValueError("a deployment needs at least one RU")
        return (
            n_rus * (self.commodity_ru_usd + self.cabling_per_ru_usd)
            + self.switch_usd
            + self.gm_clock_usd
            + self.nic_usd
            + middlebox_cpu_cores * self.cpu_core_usd
            + building_work_usd
        )

    def conventional_das_usd(self, area_sqft: float) -> float:
        if area_sqft <= 0:
            raise ValueError("area must be positive")
        return area_sqft * self.conventional_das_usd_per_sqft


@dataclass
class DeploymentCost:
    """The Appendix A.2 comparison for a concrete deployment."""

    model: CostModel = field(default_factory=CostModel)
    #: The Cambridge deployment: 5 floors x 15,403 sqft.
    area_sqft: float = 77_015.0
    n_rus: int = 16
    middlebox_cpu_cores: int = 8
    building_work_usd: float = 6_400.0
    vendor_margin: float = 0.5

    def ranbooster_usd(self) -> float:
        base = self.model.ranbooster_deployment_usd(
            n_rus=self.n_rus,
            middlebox_cpu_cores=self.middlebox_cpu_cores,
            building_work_usd=self.building_work_usd,
        )
        return base * (1.0 + self.vendor_margin)

    def conventional_usd(self) -> float:
        return self.model.conventional_das_usd(self.area_sqft)

    def savings_fraction(self) -> float:
        """Relative CapEx saving of RANBooster vs the conventional DAS.

        The paper reports ~41% cheaper even with a 50% vendor margin.
        """
        conventional = self.conventional_usd()
        return (conventional - self.ranbooster_usd()) / conventional

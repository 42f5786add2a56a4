"""User equipment: attach, channel quality reporting, traffic endpoints.

A UE scans candidate cells by per-RE RSRP, attaches to the strongest one
above the decode threshold, and reports rank/CQI derived from the MIMO
link model.  The experiments' smartphones and Quectel-modem Raspberry Pis
are all instances of this class at different positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.phy.channel import (
    ATTACH_RSRP_THRESHOLD_DBM,
    ChannelModel,
    LinkBudget,
    UE_LINK_BUDGET,
)
from repro.phy.geometry import Position
from repro.phy.mimo import MimoLink


@dataclass(frozen=True)
class Subscriber:
    """A provisioned SIM: IMSI plus the PLMN it belongs to."""

    imsi: str
    plmn: str = "00101"

    def __post_init__(self) -> None:
        if not self.imsi.isdigit() or not 14 <= len(self.imsi) <= 15:
            raise ValueError(f"malformed IMSI: {self.imsi!r}")


@dataclass
class CellView:
    """What a UE can see of one candidate cell: its radiating RUs."""

    pci: int
    plmn: str
    ru_positions: Sequence[Position]
    ru_antennas: Sequence[int]
    n_subcarriers: int
    ru_budget: LinkBudget = field(default_factory=LinkBudget)

    def __post_init__(self) -> None:
        if len(self.ru_positions) != len(self.ru_antennas):
            raise ValueError("one antenna count per RU position required")
        if not self.ru_positions:
            raise ValueError("a cell must radiate from at least one RU")


@dataclass
class UeMeasurement:
    """One measurement report: serving RSRP, SINR, rank."""

    pci: int
    rsrp_dbm: float
    sinr_db: float
    rank: int
    aggregate_se: float


class AttachError(Exception):
    """No cell above the attach threshold (the paper's upper-floor UEs)."""


class UserEquipment:
    """A 5G UE: position, radio measurements, attach state, IQ endpoints."""

    def __init__(
        self,
        imsi: str,
        position: Position,
        n_antennas: int = 4,
        channel: Optional[ChannelModel] = None,
        plmn: str = "00101",
    ):
        self.subscriber = Subscriber(imsi=imsi, plmn=plmn)
        self.position = position
        self.n_antennas = n_antennas
        self.channel = channel or ChannelModel()
        self.serving_pci: Optional[int] = None
        self.measurements: List[UeMeasurement] = []
        self.dl_bits_received = 0
        self.ul_bits_sent = 0

    @property
    def imsi(self) -> str:
        return self.subscriber.imsi

    # -- measurements ---------------------------------------------------------

    def rsrp_dbm(self, cell: CellView) -> float:
        """Best per-RE RSRP across the cell's RUs (SSB measurement).

        For DAS cells all RUs transmit the same SSB, so powers combine;
        the UE reports the combined level.
        """
        powers_mw = [
            10.0
            ** (
                self.channel.rsrp_per_re_dbm(
                    cell.ru_budget, ru, self.position, cell.n_subcarriers
                )
                / 10.0
            )
            for ru in cell.ru_positions
        ]
        return 10.0 * np.log10(sum(powers_mw))

    def can_attach(self, cell: CellView) -> bool:
        return self.rsrp_dbm(cell) > ATTACH_RSRP_THRESHOLD_DBM

    def mimo_link(
        self,
        cell: CellView,
        bandwidth_hz: float,
        interferers: Sequence[Tuple[Position, float]] = (),
        max_layers: int = 4,
        **link_kwargs,
    ) -> MimoLink:
        """Per-antenna-port link quality towards this cell.

        Each RU contributes its antenna ports at the SINR set by its own
        path to the UE — the distributed-MIMO geometry of Section 4.2.
        """
        groups = [
            (
                self.channel.sinr_db(
                    cell.ru_budget, [ru], self.position, bandwidth_hz, interferers
                ),
                antennas,
            )
            for ru, antennas in zip(cell.ru_positions, cell.ru_antennas)
        ]
        return MimoLink.distributed(
            groups, max_layers=min(max_layers, self.n_antennas), **link_kwargs
        )

    def das_link(
        self,
        cell: CellView,
        bandwidth_hz: float,
        interferers: Sequence[Tuple[Position, float]] = (),
        max_layers: int = 4,
        **link_kwargs,
    ) -> MimoLink:
        """Link quality when all RUs transmit the *same* signal (DAS).

        Powers combine into a single effective transmission whose layer
        count is the per-RU antenna count, not the RU count.
        """
        sinr = self.channel.sinr_db(
            cell.ru_budget,
            list(cell.ru_positions),
            self.position,
            bandwidth_hz,
            interferers,
        )
        n_antennas = min(cell.ru_antennas)
        return MimoLink.colocated(
            sinr,
            n_antennas,
            max_layers=min(max_layers, self.n_antennas),
            **link_kwargs,
        )

    def uplink_sinr_db(
        self,
        cell: CellView,
        bandwidth_hz: float,
        combining: bool = True,
    ) -> float:
        """Uplink SINR at the cell's RU(s) from this UE.

        With ``combining`` the per-RU received powers add (the DAS uplink
        merge); otherwise only the strongest RU counts.
        """
        powers = self.channel.received_powers_mw(
            UE_LINK_BUDGET, list(cell.ru_positions), self.position
        )
        from repro.phy.channel import db_to_linear, linear_to_db, noise_power_dbm

        noise = db_to_linear(noise_power_dbm(bandwidth_hz))
        signal = powers.sum() if combining else powers.max()
        return linear_to_db(signal / noise)

    def measure(self, cell: CellView, bandwidth_hz: float) -> UeMeasurement:
        link = self.mimo_link(cell, bandwidth_hz)
        rank = link.best_rank()
        measurement = UeMeasurement(
            pci=cell.pci,
            rsrp_dbm=self.rsrp_dbm(cell),
            sinr_db=max(link.antenna_sinrs_db),
            rank=rank,
            aggregate_se=link.aggregate_se(),
        )
        self.measurements.append(measurement)
        return measurement

    # -- attach ---------------------------------------------------------------

    def scan_and_attach(
        self,
        cells: Sequence[CellView],
        forced_pci: Optional[int] = None,
    ) -> CellView:
        """Attach to the strongest eligible cell (optionally forced by PCI,
        as in the RU-sharing experiment of Section 6.2.3)."""
        candidates = [
            cell
            for cell in cells
            if (forced_pci is None or cell.pci == forced_pci)
            and cell.plmn == self.subscriber.plmn
            and self.can_attach(cell)
        ]
        if not candidates:
            raise AttachError(
                f"UE {self.imsi} found no attachable cell "
                f"(forced_pci={forced_pci})"
            )
        best = max(candidates, key=self.rsrp_dbm)
        self.serving_pci = best.pci
        return best

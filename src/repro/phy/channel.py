"""Indoor radio channel: path loss, RSRP, noise, SINR.

A 3GPP InH-Office style log-distance model with floor-penetration loss.
The absolute numbers are calibrated so the testbed geometry reproduces the
paper's observations: UEs near an RU see very high SNR; UEs on other floors
cannot attach to a single ground-floor cell (Section 6.2.1); co-channel
multi-cell deployments suffer inter-cell interference (Figure 11b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.phy.geometry import Position

BOLTZMANN_NOISE_DBM_HZ = -174.0


def noise_power_dbm(bandwidth_hz: float) -> float:
    """Thermal noise power over a bandwidth, including a 7 dB receiver NF."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return BOLTZMANN_NOISE_DBM_HZ + 10 * math.log10(bandwidth_hz) + 7.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(linear: float) -> float:
    if linear <= 0:
        return -math.inf
    return 10.0 * math.log10(linear)


@dataclass(frozen=True)
class PathLossParams:
    """Log-distance path-loss parameters (3GPP InH-Office flavoured).

    PL(d) = pl_1m + 10*n*log10(d) + floor_loss*floors + shadowing.
    ``breakpoint_m`` switches from the LOS to the NLOS exponent: past a few
    metres indoors, walls and furniture dominate.
    """

    pl_1m_db: float = 43.3  # free space at 1 m for 3.5 GHz + margin
    los_exponent: float = 1.73
    nlos_exponent: float = 3.19
    breakpoint_m: float = 8.0
    floor_penetration_db: float = 45.0
    shadowing_sigma_db: float = 3.0

    def path_loss_db(self, distance_m: float, floors: int = 0) -> float:
        distance_m = max(distance_m, 1.0)
        if distance_m <= self.breakpoint_m:
            pl = self.pl_1m_db + 10 * self.los_exponent * math.log10(distance_m)
        else:
            pl_bp = self.pl_1m_db + 10 * self.los_exponent * math.log10(
                self.breakpoint_m
            )
            pl = pl_bp + 10 * self.nlos_exponent * math.log10(
                distance_m / self.breakpoint_m
            )
        return pl + self.floor_penetration_db * floors


@dataclass(frozen=True)
class LinkBudget:
    """Transmit-side parameters of one radio link end."""

    tx_power_dbm: float = 24.0  # per antenna port, small-cell class
    antenna_gain_db: float = 3.0

    @property
    def eirp_dbm(self) -> float:
        return self.tx_power_dbm + self.antenna_gain_db


@dataclass
class ChannelModel:
    """Deterministic-plus-shadowing channel between positions.

    Shadowing is frozen per (tx, rx) pair from a seeded RNG so repeated
    queries are consistent within an experiment (a UE standing still sees a
    stable channel) while different pairs decorrelate.
    """

    params: PathLossParams = field(default_factory=PathLossParams)
    seed: int = 0
    _shadowing_cache: Dict[Tuple, float] = field(default_factory=dict, repr=False)

    def _shadowing_db(self, tx: Position, rx: Position) -> float:
        if self.params.shadowing_sigma_db <= 0:
            return 0.0
        key = (round(tx.x, 1), round(tx.y, 1), tx.floor,
               round(rx.x, 1), round(rx.y, 1), rx.floor)
        if key not in self._shadowing_cache:
            rng = np.random.default_rng((hash(key) ^ self.seed) & 0x7FFFFFFF)
            self._shadowing_cache[key] = float(
                rng.normal(0.0, self.params.shadowing_sigma_db)
            )
        return self._shadowing_cache[key]

    def path_gain_db(self, tx: Position, rx: Position) -> float:
        """Channel gain (negative of path loss) including shadowing."""
        distance = tx.distance_to(rx)
        floors = tx.floors_between(rx)
        loss = self.params.path_loss_db(distance, floors)
        return -(loss + self._shadowing_db(tx, rx))

    def rsrp_dbm(self, budget: LinkBudget, tx: Position, rx: Position) -> float:
        """Total received power from one transmit port (wideband)."""
        return budget.eirp_dbm + self.path_gain_db(tx, rx)

    def rsrp_per_re_dbm(
        self,
        budget: LinkBudget,
        tx: Position,
        rx: Position,
        n_subcarriers: int,
    ) -> float:
        """RSRP as UEs report it: received power per resource element.

        The transmit power is spread across all occupied subcarriers, so
        per-RE power is the wideband power minus 10*log10(n_subcarriers).
        Cell attach decisions compare this against
        :data:`ATTACH_RSRP_THRESHOLD_DBM`.
        """
        if n_subcarriers <= 0:
            raise ValueError("n_subcarriers must be positive")
        return self.rsrp_dbm(budget, tx, rx) - 10 * math.log10(n_subcarriers)

    def received_powers_mw(
        self, budget: LinkBudget, tx_positions: Sequence[Position], rx: Position
    ) -> np.ndarray:
        """Linear received power (mW) from each of several transmitters."""
        return np.array(
            [db_to_linear(self.rsrp_dbm(budget, tx, rx)) for tx in tx_positions]
        )

    def sinr_db(
        self,
        budget: LinkBudget,
        serving: Sequence[Position],
        rx: Position,
        bandwidth_hz: float,
        interferers: Sequence[Tuple[Position, float]] = (),
    ) -> float:
        """Wideband SINR at ``rx``.

        ``serving`` transmitters combine coherently-enough to add power
        (the DAS case: same signal from all RUs).  ``interferers`` is a
        sequence of (position, activity factor) pairs for co-channel cells
        (Figure 11b's inter-cell interference).
        """
        signal_mw = self.received_powers_mw(budget, serving, rx).sum()
        noise_mw = db_to_linear(noise_power_dbm(bandwidth_hz))
        interference_mw = sum(
            db_to_linear(self.rsrp_dbm(budget, pos, rx)) * activity
            for pos, activity in interferers
        )
        return linear_to_db(signal_mw / (noise_mw + interference_mw))


#: UE uplink transmit budget (23 dBm power class 3, no antenna gain).
UE_LINK_BUDGET = LinkBudget(tx_power_dbm=23.0, antenna_gain_db=0.0)

#: Attach threshold: below this per-RE RSRP the UE cannot decode the SSB
#: and synchronize to the cell.
ATTACH_RSRP_THRESHOLD_DBM = -100.0

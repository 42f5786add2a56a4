"""M-plane: what an RU advertises it can do (Section 2.2).

The fronthaul's M-plane carries management: operators use it to read an
RU's hardware capabilities and to (re)configure its carrier — center
frequency, bandwidth, transmit power, compression.  The RU-sharing
deployments of Sections 4.3/6.3.2 depend on exactly this: the shared
100 MHz RU is "configured for a specific center frequency and bandwidth"
before the middlebox carves it up.

Only the capability model is built: it is the M-plane's one
consumer-visible effect here — codec negotiation
(:func:`repro.ran.stacks.negotiate_compression`) and the scenario builder
refuse a configuration the radio does not advertise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.fronthaul.compression import (
    BFP_COMP_METH,
    MOD_COMP_METH,
    NO_COMP_METH,
    CompressionConfig,
)
from repro.ran.ru import RuConfig


@dataclass(frozen=True)
class RuCapabilities:
    """What the hardware can do (the read-only capability model)."""

    min_frequency_hz: float = 3.3e9
    max_frequency_hz: float = 3.8e9  # 5G band n78
    max_bandwidth_prbs: int = 273
    max_antennas: int = 4
    max_tx_power_dbm: float = 24.0
    supported_iq_widths: Tuple[int, ...] = (8, 9, 12, 14, 16)
    #: udCompMeth codes the radio advertises over M-plane; codec
    #: negotiation (:func:`repro.ran.stacks.negotiate_compression`)
    #: refuses anything outside this set.
    supported_comp_meths: Tuple[int, ...] = (
        NO_COMP_METH,
        BFP_COMP_METH,
        MOD_COMP_METH,
    )
    #: Mantissa widths accepted for modulation compression (distinct
    #: from the BFP widths — constellation axes are much narrower).
    supported_modcomp_widths: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 8)

    def validate_compression(self, config: CompressionConfig) -> List[str]:
        """Constraint violations of a proposed wire codec config."""
        errors: List[str] = []
        if config.comp_meth not in self.supported_comp_meths:
            errors.append(
                f"comp_meth {config.comp_meth} unsupported (advertised: "
                f"{self.supported_comp_meths})"
            )
        elif config.comp_meth == MOD_COMP_METH:
            if config.iq_width not in self.supported_modcomp_widths:
                errors.append(
                    f"modcomp iq_width {config.iq_width} unsupported"
                )
        elif config.iq_width not in self.supported_iq_widths:
            errors.append(f"iq_width {config.iq_width} unsupported")
        return errors

    def validate(self, config: RuConfig) -> List[str]:
        """All constraint violations of a candidate configuration."""
        errors = []
        grid = config.grid
        low = grid.prb0_frequency_hz
        high = grid.prb_start_frequency_hz(grid.num_prb)
        if low < self.min_frequency_hz or high > self.max_frequency_hz:
            errors.append(
                f"carrier {low / 1e9:.4f}-{high / 1e9:.4f} GHz outside "
                f"band {self.min_frequency_hz / 1e9}-"
                f"{self.max_frequency_hz / 1e9} GHz"
            )
        if config.num_prb > self.max_bandwidth_prbs:
            errors.append(
                f"{config.num_prb} PRBs exceed the hardware's "
                f"{self.max_bandwidth_prbs}"
            )
        if config.n_antennas > self.max_antennas:
            errors.append(
                f"{config.n_antennas} antennas exceed the hardware's "
                f"{self.max_antennas}"
            )
        if config.tx_power_dbm_per_port > self.max_tx_power_dbm:
            errors.append(
                f"{config.tx_power_dbm_per_port} dBm exceeds the rated "
                f"{self.max_tx_power_dbm} dBm"
            )
        errors.extend(self.validate_compression(config.compression))
        return errors

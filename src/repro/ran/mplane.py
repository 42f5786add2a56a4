"""M-plane: what an RU advertises it can do (Section 2.2).

The fronthaul's M-plane carries management: operators use it to read an
RU's hardware capabilities and to (re)configure its carrier — center
frequency, bandwidth, transmit power, compression.  The RU-sharing
deployments of Sections 4.3/6.3.2 depend on exactly this: the shared
100 MHz RU is "configured for a specific center frequency and bandwidth"
before the middlebox carves it up.

Only the part of the capability model with a reader is built: the
codecs an RU advertises, which codec negotiation
(:func:`repro.ran.stacks.negotiate_compression`, run by the scenario
builder for every cell) refuses to step outside of.
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


@dataclass(frozen=True)
class RuCapabilities:
    """What the hardware can do (the read-only capability model)."""

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

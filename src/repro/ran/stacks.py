"""Vendor RAN stack profiles.

The paper validated the middleboxes against three O-RAN stacks -- srsRAN
(open source), CapGemini and Radisys (commercial, on Intel FlexRAN L1) --
"without any source code modification, and with only small configuration
parameter changes (e.g., TDD pattern)", observing throughput differences
"caused by the variations in the implementation quality and cell
configurations provided by each vendor" (Section 6.2).

A profile captures exactly those variations: the TDD pattern, control
overhead, scheduler efficiency, uplink MCS ceiling, and fronthaul packing
conventions.  The middlebox implementations take no vendor-specific code
paths; interop tests run the same middlebox against all three profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.fronthaul.compression import MOD_COMP_METH, CompressionConfig
from repro.fronthaul.timing import TddPattern

#: The negotiable wire codecs, by spec-level name.
CODEC_BFP = "bfp"
CODEC_MODCOMP = "modcomp"
CODEC_NAMES = (CODEC_BFP, CODEC_MODCOMP)


class CodecNegotiationError(ValueError):
    """DU and RU could not agree on a wire codec for a stream."""


@dataclass(frozen=True)
class VendorProfile:
    """Behavioural fingerprint of one vendor's DU/L1 implementation."""

    name: str
    tdd: TddPattern
    #: Fraction of REs lost to control channels / reference signals.
    dl_overhead: float
    ul_overhead: float
    #: Scheduler efficiency: fraction of theoretically schedulable PRBs
    #: the implementation actually fills under saturation.
    scheduler_efficiency: float
    #: Uplink spectral-efficiency ceiling (conservative UL MCS tables).
    ul_max_se: float
    #: Downlink per-layer SE ceiling.
    dl_max_se: float
    #: SE ceiling for single-layer (SISO) cells; some stacks cap rank-1
    #: throughput well below the MCS table (srsRAN's 100 MHz SISO tops out
    #: around 250 Mbps — the "implementation quality" variation of §6.2).
    dl_max_se_rank1: float = 7.4
    compression: CompressionConfig = field(default_factory=CompressionConfig)
    #: The vendor's modulation-compression wire parameters, if its L1
    #: implements the second codec (None = BFP only).  The mantissa width
    #: reflects the densest constellation the stack schedules.
    modcomp: Optional[CompressionConfig] = None
    #: Codec a DU of this stack proposes when the spec does not pin one.
    preferred_codec: str = CODEC_BFP
    #: Max PRBs per U-plane section before the DU splits messages.
    uplane_section_max_prbs: int = 273
    #: Whether C-plane messages cover a whole slot or go per-symbol.
    cplane_per_symbol: bool = False

    def supported_codecs(self) -> Tuple[str, ...]:
        """Codec names this stack can put on the wire, preference first."""
        codecs = [CODEC_BFP]
        if self.modcomp is not None:
            codecs.append(CODEC_MODCOMP)
        if self.preferred_codec in codecs:
            codecs.remove(self.preferred_codec)
            codecs.insert(0, self.preferred_codec)
        return tuple(codecs)

    def codec_config(self, codec: Optional[str] = None) -> CompressionConfig:
        """The wire parameters for a named codec (None = preference)."""
        name = codec or self.preferred_codec
        if name not in CODEC_NAMES:
            raise CodecNegotiationError(
                f"unknown codec {name!r}; expected one of {CODEC_NAMES}"
            )
        if name not in self.supported_codecs():
            raise CodecNegotiationError(
                f"{self.name} does not implement modulation compression"
            )
        return self.compression if name == CODEC_BFP else self.modcomp


SRSRAN = VendorProfile(
    name="srsRAN",
    tdd=TddPattern("DDDSU", 6, 4, 4),
    dl_overhead=0.14,
    ul_overhead=0.16,
    scheduler_efficiency=0.97,
    ul_max_se=3.0,
    dl_max_se=7.4,
    dl_max_se_rank1=4.6,
    compression=CompressionConfig(iq_width=9),
    # 16-QAM-dominated scheduling: 3-bit constellation axes.
    modcomp=CompressionConfig(iq_width=3, comp_meth=MOD_COMP_METH),
)

CAPGEMINI = VendorProfile(
    name="CapGemini",
    tdd=TddPattern("DDDSUDDSUU", 10, 2, 2),
    dl_overhead=0.12,
    ul_overhead=0.15,
    scheduler_efficiency=0.98,
    ul_max_se=4.4,
    dl_max_se=7.4,
    compression=CompressionConfig(iq_width=9),
    # 256-QAM plus beamforming headroom: 4-bit constellation axes.
    modcomp=CompressionConfig(iq_width=4, comp_meth=MOD_COMP_METH),
    cplane_per_symbol=True,
)

RADISYS = VendorProfile(
    name="Radisys",
    tdd=TddPattern("DDDSU", 10, 2, 2),
    dl_overhead=0.13,
    ul_overhead=0.15,
    scheduler_efficiency=0.96,
    ul_max_se=4.0,
    dl_max_se=7.2,
    compression=CompressionConfig(iq_width=14),
    # Conservative FlexRAN L1 port: wide 6-bit axes with EVM margin.
    modcomp=CompressionConfig(iq_width=6, comp_meth=MOD_COMP_METH),
    uplane_section_max_prbs=136,
)

ALL_PROFILES = (SRSRAN, CAPGEMINI, RADISYS)


def profile_by_name(name: str) -> VendorProfile:
    for profile in ALL_PROFILES:
        if profile.name.lower() == name.lower():
            return profile
    raise KeyError(f"unknown vendor profile: {name}")


def negotiate_compression(
    profile: VendorProfile,
    codec: Optional[str] = None,
    capabilities=None,
) -> CompressionConfig:
    """Pick the wire config for one cell's eAxC streams.

    The M-plane handshake in miniature: the DU proposes the stack's
    parameters for ``codec`` (spec-pinned, or the stack's preference when
    None) and the RU's advertised :class:`~repro.ran.mplane.
    RuCapabilities` must accept them.  Raises
    :class:`CodecNegotiationError` when the stack lacks the codec or the
    radio rejects the parameters — a deployment-time failure, never a
    silent fallback.
    """
    config = profile.codec_config(codec)
    if capabilities is not None:
        errors = capabilities.validate_compression(config)
        if errors:
            raise CodecNegotiationError(
                f"{profile.name} proposed {config} but the RU refused: "
                + "; ".join(errors)
            )
    return config

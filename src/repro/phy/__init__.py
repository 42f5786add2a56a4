"""Radio-layer substrate: IQ grids, channel model, MIMO capacity, geometry.

The paper's testbed uses real radios and walking UEs; this package is the
simulated equivalent.  It provides:

- :mod:`repro.phy.iq` -- QAM modulation and the fixed-point conversion
  feeding the fronthaul BFP compressor.
- :mod:`repro.phy.geometry` -- the five-floor building of Figure 9a, RU
  placements, and UE walk paths.
- :mod:`repro.phy.channel` -- 3GPP InH-style path loss with floor
  penetration, RSRP, thermal noise, and SINR with inter-cell interference.
- :mod:`repro.phy.mimo` -- rank selection and the attenuated-Shannon
  spectral-efficiency/throughput model used by all experiments.
"""

from repro.phy.iq import QamModulator, iq_to_int16, int16_to_iq
from repro.phy.geometry import FloorPlan, Position, WalkPath
from repro.phy.channel import ChannelModel, LinkBudget, noise_power_dbm
from repro.phy.mimo import MimoLink, spectral_efficiency, throughput_mbps

__all__ = [
    "QamModulator",
    "iq_to_int16",
    "int16_to_iq",
    "FloorPlan",
    "Position",
    "WalkPath",
    "ChannelModel",
    "LinkBudget",
    "noise_power_dbm",
    "MimoLink",
    "spectral_efficiency",
    "throughput_mbps",
]

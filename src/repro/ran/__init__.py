"""RAN network functions: the substrate the middleboxes sit between.

- :mod:`repro.ran.cell` -- cell configuration (bandwidth, SCS, TDD, MIMO).
- :mod:`repro.ran.stacks` -- vendor stack profiles (srsRAN, CapGemini,
  Radisys) capturing the configuration differences the paper mentions.
- :mod:`repro.ran.scheduler` -- MAC scheduler allocating PRBs per slot,
  with the MAC log used as ground truth in Figure 10c.
- :mod:`repro.ran.du` -- the Distributed Unit: C/U-plane generation and
  uplink consumption.
- :mod:`repro.ran.ru` -- a Cat-A O-RAN Radio Unit model.
- :mod:`repro.ran.ue` -- UEs: attach, CQI/rank reporting, traffic.
- :mod:`repro.ran.traffic` -- iperf-like constant-bitrate flows.
- :mod:`repro.ran.mplane` -- M-plane: the RU capability model codec
  negotiation validates against.
"""

from repro.ran.cell import CellConfig
from repro.ran.stacks import CAPGEMINI, RADISYS, SRSRAN, VendorProfile
from repro.ran.scheduler import MacScheduler, PrbAllocation, SlotLog
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit
from repro.ran.ue import UserEquipment
from repro.ran.traffic import ConstantBitrateFlow, PoissonFlow
from repro.ran.mplane import RuCapabilities

__all__ = [
    "CellConfig",
    "VendorProfile",
    "SRSRAN",
    "CAPGEMINI",
    "RADISYS",
    "MacScheduler",
    "PrbAllocation",
    "SlotLog",
    "DistributedUnit",
    "RadioUnit",
    "UserEquipment",
    "ConstantBitrateFlow",
    "PoissonFlow",
    "RuCapabilities",
]

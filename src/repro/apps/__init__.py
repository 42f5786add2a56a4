"""RANBooster applications.

The four reference middleboxes of Section 4:

- :mod:`repro.apps.das` -- Distributed Antenna System: replicate one
  cell's signal across many RUs, merge uplink IQ.
- :mod:`repro.apps.dmimo` -- Distributed MIMO: combine several small RUs
  into one virtual RU by remapping eAxC antenna ports; replicate the SSB.
- :mod:`repro.apps.ru_sharing` -- RU sharing: multiplex several DUs onto
  one RU's spectrum (Algorithms 2 and 3).
- :mod:`repro.apps.prb_monitor` -- real-time PRB utilization monitoring
  from BFP compression exponents (Algorithm 1).

And the Section 8.1 use cases, built on the same template:

- :mod:`repro.apps.resilience` -- DU failure detection and failover.
- :mod:`repro.apps.security` -- spoofing/replay filtering.
- :mod:`repro.apps.sensing` -- uplink interference detection.
"""

from repro.apps.das import DasMiddlebox
from repro.apps.dmimo import DmimoMiddlebox, RuPortMap
from repro.apps.ru_sharing import RuSharingMiddlebox, SharedDuConfig
from repro.apps.prb_monitor import PrbMonitorMiddlebox
from repro.apps.resilience import FailoverEvent, ResilienceMiddlebox
from repro.apps.security import FronthaulGuardMiddlebox, SecurityAlert
from repro.apps.sensing import InterferenceAlert, SpectrumSensorMiddlebox

__all__ = [
    "DasMiddlebox",
    "DmimoMiddlebox",
    "RuPortMap",
    "RuSharingMiddlebox",
    "SharedDuConfig",
    "PrbMonitorMiddlebox",
    "ResilienceMiddlebox",
    "FailoverEvent",
    "FronthaulGuardMiddlebox",
    "SecurityAlert",
    "SpectrumSensorMiddlebox",
    "InterferenceAlert",
]

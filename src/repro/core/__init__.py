"""The RANBooster middlebox framework (the paper's core contribution).

- :mod:`repro.core.actions` -- the four processing actions: A1 packet
  redirection/drop, A2 replication, A3 caching, A4 payload inspection and
  modification (Section 3.2.1), each with cost accounting.
- :mod:`repro.core.middlebox` -- the templated middlebox base class
  developers specialize with C-/U-plane handlers (Section 3.2.2).
- :mod:`repro.core.chain` -- middlebox chaining: the forwarding graph of
  the SR-IOV embedded switch (Section 5, Figure 8).
- :mod:`repro.core.telemetry` -- the monitoring interface middleboxes
  expose to applications.
- :mod:`repro.core.management` -- on-the-fly configuration changes.
- :mod:`repro.core.latency` -- the per-action latency cost model
  (calibrated to Figure 15b).
- :mod:`repro.core.datapath` -- DPDK and XDP execution models: CPU
  utilization, deadlines, kernel/userspace placement (Figures 15-16).
"""

from repro.core.actions import ActionContext, ActionKind, ActionTrace, PacketCache
from repro.core.middlebox import Middlebox, MiddleboxStats
from repro.core.chain import MiddleboxChain
from repro.core.telemetry import TelemetryBus, TelemetryRecord
from repro.core.management import ManagementInterface
from repro.core.latency import ActionCostModel, DEFAULT_COST_MODEL
from repro.core.datapath import (
    DatapathKind,
    DpdkDatapath,
    ExecLocation,
    XdpDatapath,
)

__all__ = [
    "ActionContext",
    "ActionKind",
    "ActionTrace",
    "PacketCache",
    "Middlebox",
    "MiddleboxStats",
    "MiddleboxChain",
    "TelemetryBus",
    "TelemetryRecord",
    "ManagementInterface",
    "ActionCostModel",
    "DEFAULT_COST_MODEL",
    "DatapathKind",
    "DpdkDatapath",
    "XdpDatapath",
    "ExecLocation",
]

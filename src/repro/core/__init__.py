"""The RANBooster middlebox framework (the paper's core contribution).

- :mod:`repro.core.actions` -- the four processing actions: A1 packet
  redirection/drop, A2 replication, A3 caching, A4 payload inspection and
  modification (Section 3.2.1), each with cost accounting.
- :mod:`repro.core.middlebox` -- the templated middlebox base class
  developers specialize with C-/U-plane handlers (Section 3.2.2).
- :mod:`repro.core.chain` -- middlebox chaining: the forwarding graph of
  the SR-IOV embedded switch (Section 5, Figure 8).
- A middlebox's monitoring interface is its app's record list plus the
  :mod:`repro.obs` metric families; its management interface is its
  spec params, changed on the fly by a ``rechain`` delta
  (:mod:`repro.serve.delta`).
- :mod:`repro.core.latency` -- the per-action latency cost model
  (calibrated to Figure 15b).
- :mod:`repro.core.datapath` -- DPDK and XDP execution models: CPU
  utilization, deadlines, kernel/userspace placement (Figures 15-16).
"""

from repro.core.actions import ActionContext, ActionKind, PacketCache
from repro.core.middlebox import Middlebox, MiddleboxStats
from repro.core.chain import MiddleboxChain
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
    "PacketCache",
    "Middlebox",
    "MiddleboxStats",
    "MiddleboxChain",
    "ActionCostModel",
    "DEFAULT_COST_MODEL",
    "DatapathKind",
    "DpdkDatapath",
    "XdpDatapath",
    "ExecLocation",
]

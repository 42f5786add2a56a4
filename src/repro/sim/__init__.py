"""Simulation layer: testbed builder, power and cost models.

- :mod:`repro.sim.network_sim` -- the packet-level testbed: DUs,
  middlebox chains, RUs and UEs wired together.
- :mod:`repro.sim.power` -- server/CPU power model (Figure 14).
- :mod:`repro.sim.cost` -- CapEx model (Appendix A.2).
"""

from repro.sim.network_sim import FronthaulNetwork
from repro.sim.power import ServerPowerModel, deployment_power_w
from repro.sim.cost import CostModel, DeploymentCost

__all__ = [
    "FronthaulNetwork",
    "ServerPowerModel",
    "deployment_power_w",
    "CostModel",
    "DeploymentCost",
]

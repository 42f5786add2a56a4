"""RANBooster reproduction: fronthaul middleboxes for Open RAN.

This package reproduces the system described in "RANBooster: Democratizing
advanced cellular connectivity through fronthaul middleboxes" (SIGCOMM 2025)
on a simulated substrate:

- :mod:`repro.fronthaul` -- O-RAN WG4 CUS-plane wire formats (Ethernet,
  eCPRI, C-plane/U-plane sections, BFP compression, timing, spectrum math).
- :mod:`repro.phy` -- radio substrate (IQ grids, channel model, MIMO).
- :mod:`repro.ran` -- RAN network functions (DU, RU, UE, scheduler, core).
- :mod:`repro.core` -- the RANBooster middlebox framework (actions A1-A4,
  templated middleboxes, chaining, datapath models, telemetry).
- :mod:`repro.apps` -- the four reference middleboxes (DAS, dMIMO,
  RU sharing, PRB monitoring).
- :mod:`repro.net` -- NIC/switch/link models (SR-IOV chaining substrate).
- :mod:`repro.obs` -- the fronthaul flight recorder: metrics registry,
  per-packet span tracing, exposition, deadline accounting.
- :mod:`repro.sim` -- slot-synchronous testbed, power & cost models.
- :mod:`repro.eval` -- one experiment runner per paper table/figure.
"""

__version__ = "1.0.0"

__all__ = [
    "fronthaul",
    "phy",
    "ran",
    "core",
    "apps",
    "net",
    "obs",
    "sim",
    "eval",
]

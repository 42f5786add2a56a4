"""Wire-level conformance validation for the fronthaul datapath.

The paper's interop claim (three commercial stacks accept the
middleboxes' fronthaul bytes, §6.2/Table 2) is only as strong as the
bytes themselves, so this package provides a standing correctness
oracle:

- :mod:`repro.conformance.violations` — the violation taxonomy and the
  mergeable :class:`ConformanceReport`;
- :mod:`repro.conformance.validator` — the stateful
  :class:`WireValidator` checking eCPRI well-formedness, section
  structure, C/U-plane PRB accounting, per-profile BFP legality,
  sequence continuity, and slot-timing monotonicity;
- :mod:`repro.conformance.tap` — attachment points: a pass-through
  middlebox and the ``FronthaulNetwork(validator=...)`` hook;
- :mod:`repro.conformance.reference` — scalar reference
  implementations of the vectorized hot paths for differential testing;
- :mod:`repro.conformance.generators` — Hypothesis strategies for wire
  objects and scenario specs (test-only; requires ``hypothesis``).
"""

from repro.conformance.tap import ConformanceTap
from repro.conformance.validator import WireValidator
from repro.conformance.violations import (
    ConformanceReport,
    Violation,
    ViolationClass,
)

__all__ = [
    "ConformanceReport",
    "ConformanceTap",
    "Violation",
    "ViolationClass",
    "WireValidator",
]

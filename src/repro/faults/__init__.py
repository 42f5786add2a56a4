"""Deterministic fault injection + datapath hardening primitives.

The injection side lives here (``FaultInjector`` and the access wire
it impairs, ``ImpairedLink``); the hardening it exercises lives where
the behavior belongs: per-stage isolation and the circuit breaker in
:mod:`repro.core.chain`, partial merges in :mod:`repro.apps.das` and
malformed-frame containment in :mod:`repro.sim.network_sim`.
``SequenceTracker`` (seq_id gap/dup/reorder detection with
8-bit wraparound) is shared by both sides.

Process-level chaos (:mod:`repro.faults.process`) extends the same
discipline to the scale-out control plane: declarative, seeded worker
kills/stalls/poisoned replies/frame corruption, recovered exactly by
:class:`repro.scale.pool.WorkerPool` under a supervision policy.
"""

from repro.faults.injector import (
    FaultConfig,
    FaultInjector,
    FaultScope,
    GilbertElliottConfig,
    InjectorStats,
    SilenceWindow,
)
from repro.faults.link import ImpairedLink
from repro.faults.process import (
    CHAOS_KINDS,
    ProcessChaosAgent,
    ProcessChaosSpec,
    corrupt_bulk,
)
from repro.faults.registry import (
    FAULT_REGISTRY,
    fault_config_from_spec,
    fault_kinds,
    injector_from_spec,
    register_fault,
)
from repro.faults.sequence import SeqStatus, SeqVerdict, SequenceTracker

__all__ = [
    "CHAOS_KINDS",
    "FAULT_REGISTRY",
    "FaultConfig",
    "FaultInjector",
    "FaultScope",
    "GilbertElliottConfig",
    "ImpairedLink",
    "InjectorStats",
    "ProcessChaosAgent",
    "ProcessChaosSpec",
    "SeqStatus",
    "SeqVerdict",
    "SequenceTracker",
    "SilenceWindow",
    "corrupt_bulk",
    "fault_config_from_spec",
    "fault_kinds",
    "injector_from_spec",
    "register_fault",
]

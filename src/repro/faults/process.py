"""Process-level chaos: seeded control-plane failure injection.

PR 3's :class:`~repro.faults.injector.FaultInjector` chaos-hardens the
*datapath* — loss, corruption and reordering on the fronthaul wire.
This module does the same for the *control plane* of the sharded worker
pool: it describes, as plain spec data, the ways a pool worker process
itself can fail, so the pool's supervision policy
(:mod:`repro.scale.supervisor`) can be driven
through every failure class deterministically and proven to recover
*exactly* (byte-identical digests against an unfaulted run).

Failure classes (:data:`CHAOS_KINDS`):

- ``kill`` — the worker SIGKILLs itself mid-epoch (half the epoch's
  slots stepped, then ``kill -9``): the crashed-process path.
- ``stall`` — the worker sleeps through the barrier: the hung-process
  path, detected by the coordinator's barrier deadline.
- ``poison`` — the worker answers the barrier with a protocol-violating
  reply (wrong slot count, alien heartbeat): the byzantine-reply path.
- ``corrupt_frame`` — the worker ships a mangled bulk payload: the
  corrupted-reply path, caught by the coordinator's check of the bulk
  against the shard's plan row as a typed ``frame`` failure.

Injections are declarative (:class:`ProcessChaosSpec`, JSON-safe) and
ride :class:`~repro.scale.spec.ScenarioSpec.process_chaos`, so the same
spec reproduces the same failure at the same barrier epoch on the same
coupling group every run — which is what lets the chaos-scale eval
sweep kill points and assert digest equality with the unfaulted run.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The process-level failure classes an injection may trigger.
CHAOS_KINDS = ("kill", "stall", "poison", "corrupt_frame")


@dataclass(frozen=True)
class ProcessChaosSpec:
    """One declarative control-plane failure injection.

    ``epoch`` is the 0-based barrier epoch at which the failure fires.
    The target worker is named either directly (``worker``, a shard
    index) or — placement-independently, which is what digest sweeps at
    several worker counts want — as the worker hosting coupling group
    ``group``.  Exactly one of the two must be set.

    ``rearm`` keeps the injection armed on a respawned worker, so the
    failure recurs on every recovery attempt: the knob that drives the
    restart budget to exhaustion on purpose.  By default a respawned
    worker is disarmed and recovery converges.
    """

    kind: str
    epoch: int
    group: Optional[str] = None
    worker: Optional[int] = None
    rearm: bool = False
    #: How long a ``stall`` sleeps (seconds).  Longer than the barrier
    #: deadline, or it is a slow worker rather than a hung one.
    stall_s: float = 30.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(
                f"chaos kind must be one of {CHAOS_KINDS}, got {self.kind!r}"
            )
        if self.epoch < 0:
            raise ValueError("chaos epoch must be >= 0")
        if (self.group is None) == (self.worker is None):
            raise ValueError(
                "a process chaos spec targets exactly one of group/worker"
            )
        if self.stall_s <= 0:
            raise ValueError("stall_s must be positive")

    def targets(self, worker: int, group_names: Sequence[str]) -> bool:
        """Does this injection fire on the worker serving these groups?"""
        if self.worker is not None:
            return self.worker == worker
        return self.group in group_names

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProcessChaosSpec":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise KeyError(
                f"process chaos spec has unknown keys: {sorted(unknown)}"
            )
        return cls(**data)


class ProcessChaosAgent:
    """Worker-side trigger: fires each matching injection exactly once.

    Built inside the worker process from the spec's ``process_chaos``
    entries.  ``armed=False`` (a respawned worker) keeps only the
    ``rearm`` injections, so by default a recovery attempt does not
    immediately re-fail.  A ``reset`` command rebuilds the agent fully
    armed — a new run gets the full chaos schedule again.
    """

    def __init__(
        self,
        specs: Sequence[ProcessChaosSpec],
        worker: int,
        group_names: Sequence[str],
        armed: bool = True,
    ):
        self.worker = worker
        self._pending: List[ProcessChaosSpec] = [
            spec
            for spec in specs
            if spec.targets(worker, group_names) and (armed or spec.rearm)
        ]

    def take(self, epoch_index: int) -> Optional[ProcessChaosSpec]:
        """Pop the injection scheduled for this barrier epoch, if any."""
        for position, spec in enumerate(self._pending):
            if spec.epoch == epoch_index:
                return self._pending.pop(position)
        return None

    @property
    def pending(self) -> Tuple[ProcessChaosSpec, ...]:
        return tuple(self._pending)


def corrupt_bulk(
    bulk: Optional[List[Dict[str, Any]]],
) -> List[Dict[str, Any]]:
    """Mangle an epoch reply's bulk (the ``corrupt_frame`` kind).

    The first telemetry payload is replaced by one stamped with a shard
    and group no plan row holds, so the coordinator rejects the reply as
    a ``frame`` failure instead of folding it.  Works on ``None`` too
    (an epoch that shipped no payload).
    """
    return [{"group": None, "shard": -1}, *(bulk or ())[1:]]


def seeded_chaos_sweep(
    seed: int,
    epochs: int,
    groups: Sequence[str],
    kinds: Sequence[str] = CHAOS_KINDS,
) -> List[ProcessChaosSpec]:
    """A deterministic injection per failure class: seeded kill points.

    For each kind the seeded RNG picks a barrier epoch in
    ``[0, epochs)`` and a target coupling group, so a fixed seed sweeps
    the same (kind, epoch, group) points every run — the chaos-scale
    eval's sweep generator.
    """
    if epochs < 1:
        raise ValueError("need at least one epoch to inject into")
    if not groups:
        raise ValueError("need at least one target group")
    rng = random.Random(seed)
    sweep = []
    for kind in kinds:
        sweep.append(
            ProcessChaosSpec(
                kind=kind,
                epoch=rng.randrange(epochs),
                group=rng.choice(list(groups)),
                name=f"sweep-{kind}",
            )
        )
    return sweep


__all__ = [
    "CHAOS_KINDS",
    "ProcessChaosAgent",
    "ProcessChaosSpec",
    "corrupt_bulk",
    "seeded_chaos_sweep",
]

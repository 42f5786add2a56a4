"""Typed live mutations of a running :class:`~repro.scale.spec.ScenarioSpec`.

A neutral-host middlebox operator admits tenants, rechains their
middleboxes, and injects or clears impairments *while the service runs*
— restart-and-replay is exactly the operational regime the control plane
exists to avoid.  A :class:`SpecDelta` is the wire-safe description of
one such mutation: an ordered tuple of :class:`DeltaOp` operations, each
naming cells, registered stage names, and registered fault kinds in
plain data (JSON round-trippable, unknown keys rejected — the same
discipline as the spec layer it mutates).

Semantics — **rebase, not patch**.  Applying a delta at slot ``s`` of a
running scenario produces the state the *mutated spec run from scratch*
would have reached at slot ``s``: the engine rebuilds every coupling
group whose build fingerprint changed
(:meth:`~repro.scale.spec.ScenarioSpec.group_fingerprints`) and
deterministically replays the confirmed prefix, while untouched groups
keep their live objects.  Three properties fall out:

- **The digest oracle survives mutation.**  A mutated run's results are
  byte-identical to a from-scratch run of the mutated spec, at any
  worker count — the property the delta test suite pins.
- **Supervised recovery composes.**  PR 8's respawn-and-replay rebuilds
  a lost shard from the *current* spec; after a mutation that is the
  mutated spec, and the replayed state is exactly the pre-crash one.
- **Rollback is trivial.**  A delta is validated (structurally, then by
  a trial build of the changed groups) *before* any running state is
  touched; a rejected delta leaves the run byte-identical to one that
  never saw it.

Telemetry *events* are not rewritten: spans, deadline accounts and the
epoch counts already folded by the coordinator stay as observed, and a
rebuilt group's replay advances their baselines so nothing recounts.
Metric *state* is: every barrier ships each group's cumulative snapshot,
so the live view shows post-mutation truth — replayed prefix included,
evicted groups gone — and ``live == collect`` holds bit for bit at
every barrier.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.scale.spec import ScenarioSpec

#: The operations a delta may carry, in the vocabulary of the spec.
DELTA_OPS = (
    "add_cell",
    "remove_cell",
    "rechain",
    "inject_fault",
    "clear_fault",
)


class DeltaError(ValueError):
    """A delta that cannot apply to the spec it was aimed at.

    Raised *before* any running state changes — validation, trial
    builds, and spec construction all happen on plain data, so a
    rejected delta has no side effects to roll back.
    """


@dataclass(frozen=True)
class DeltaOp:
    """One mutation step.

    ``op`` selects the operation; the other fields are per-op operands:

    - ``add_cell``: ``cell`` is a full :class:`~repro.scale.spec.
      CellSpec` dict, appended to the scenario (so existing cells keep
      their derived du/RU identities).
    - ``remove_cell``: ``target`` names the cell to evict.
    - ``rechain``: ``target`` plus ``chain``, the replacement stage list
      (:class:`~repro.scale.spec.StageSpec` dicts, by registered name).
    - ``inject_fault``: ``target`` plus ``fault``, a named fault spec
      (:mod:`repro.faults.registry`) installed as the cell's access
      wire.
    - ``clear_fault``: ``target``; removes the cell's access wire.
    """

    op: str
    target: str = ""
    cell: Optional[Dict[str, Any]] = None
    chain: Optional[Tuple[Dict[str, Any], ...]] = None
    fault: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.op not in DELTA_OPS:
            raise DeltaError(
                f"op must be one of {DELTA_OPS}, got {self.op!r}"
            )
        if self.op == "add_cell":
            if not isinstance(self.cell, dict) or not self.cell.get("name"):
                raise DeltaError("add_cell needs a 'cell' spec dict with a name")
            if self.target:
                raise DeltaError("add_cell takes 'cell', not 'target'")
        else:
            if not self.target:
                raise DeltaError(f"{self.op} needs a 'target' cell name")
            if self.cell is not None:
                raise DeltaError(f"{self.op} does not take a 'cell' dict")
        if self.op == "rechain" and self.chain is None:
            raise DeltaError("rechain needs a 'chain' stage list")
        if self.op != "rechain" and self.chain is not None:
            raise DeltaError(f"{self.op} does not take a 'chain'")
        if self.op == "inject_fault" and not self.fault:
            raise DeltaError("inject_fault needs a 'fault' spec")
        if self.op != "inject_fault" and self.fault is not None:
            raise DeltaError(f"{self.op} does not take a 'fault'")

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"op": self.op}
        if self.target:
            data["target"] = self.target
        if self.cell is not None:
            data["cell"] = dict(self.cell)
        if self.chain is not None:
            data["chain"] = [dict(stage) for stage in self.chain]
        if self.fault is not None:
            data["fault"] = dict(self.fault)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DeltaOp":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise DeltaError(f"delta op has unknown keys: {sorted(unknown)}")
        data = dict(data)
        if data.get("chain") is not None:
            data["chain"] = tuple(dict(stage) for stage in data["chain"])
        if data.get("cell") is not None:
            data["cell"] = dict(data["cell"])
        if data.get("fault") is not None:
            data["fault"] = dict(data["fault"])
        return cls(**data)


@dataclass(frozen=True)
class SpecDelta:
    """An ordered batch of mutations applied atomically at one barrier."""

    ops: Tuple[DeltaOp, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.ops:
            raise DeltaError("a delta needs at least one op")

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"ops": [op.to_dict() for op in self.ops]}
        if self.name:
            data["name"] = self.name
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpecDelta":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise DeltaError(f"delta has unknown keys: {sorted(unknown)}")
        ops = data.get("ops")
        if not isinstance(ops, (list, tuple)):
            raise DeltaError("delta needs an 'ops' list")
        return cls(
            ops=tuple(DeltaOp.from_dict(dict(op)) for op in ops),
            name=data.get("name", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "SpecDelta":
        return cls.from_dict(json.loads(text))

    # -- application ---------------------------------------------------------

    def apply(self, spec: ScenarioSpec) -> ScenarioSpec:
        """The mutated spec (pure; ``spec`` itself is untouched).

        Validation is layered: each op checks its operands against the
        evolving cell population (typed :class:`DeltaError`), stage and
        fault names are checked against the live registries, and the
        final :class:`~repro.scale.spec.ScenarioSpec` constructor
        re-runs every structural invariant.  Ops apply in order, so a
        delta may admit a cell and immediately rechain it.
        """
        data = spec.to_dict()
        cells: List[Dict[str, Any]] = data["cells"]
        for op in self.ops:
            handler = _HANDLERS[op.op]
            handler(op, cells)
        _check_group_wires(cells)
        try:
            return ScenarioSpec.from_dict(data)
        except (ValueError, KeyError, TypeError) as exc:
            raise DeltaError(f"mutated spec is invalid: {exc}") from exc


# -- op handlers (mutate the plain cell list in place) ------------------------


def _find(cells: List[Dict[str, Any]], name: str) -> Dict[str, Any]:
    for cell in cells:
        if cell["name"] == name:
            return cell
    raise DeltaError(
        f"unknown cell {name!r}; scenario has {[c['name'] for c in cells]}"
    )


def _check_stages(stages: Sequence[Dict[str, Any]]) -> None:
    from repro.scale.registry import stage_names

    known = set(stage_names())
    for stage in stages:
        if not isinstance(stage, dict) or "stage" not in stage:
            raise DeltaError(f"chain entries need a 'stage' name: {stage!r}")
        if stage["stage"] not in known:
            raise DeltaError(
                f"unknown stage {stage['stage']!r}; "
                f"registered: {sorted(known)}"
            )


def _check_fault(fault: Dict[str, Any]) -> None:
    from repro.faults.registry import fault_kinds

    kind = fault.get("kind")
    if kind not in fault_kinds():
        raise DeltaError(
            f"unknown fault kind {kind!r}; registered: {fault_kinds()}"
        )


def _add_cell(op: DeltaOp, cells: List[Dict[str, Any]]) -> None:
    name = op.cell["name"]
    if any(cell["name"] == name for cell in cells):
        raise DeltaError(f"cell {name!r} already exists")
    _check_stages(op.cell.get("chain", ()))
    if op.cell.get("wire") is not None:
        _check_fault(op.cell["wire"])
    cells.append(json.loads(json.dumps(op.cell)))


def _remove_cell(op: DeltaOp, cells: List[Dict[str, Any]]) -> None:
    cell = _find(cells, op.target)
    if len(cells) == 1:
        raise DeltaError("cannot remove the last cell of a scenario")
    cells.remove(cell)


def _rechain(op: DeltaOp, cells: List[Dict[str, Any]]) -> None:
    cell = _find(cells, op.target)
    _check_stages(op.chain)
    cell["chain"] = [json.loads(json.dumps(stage)) for stage in op.chain]


def _inject_fault(op: DeltaOp, cells: List[Dict[str, Any]]) -> None:
    cell = _find(cells, op.target)
    _check_fault(op.fault)
    cell["wire"] = json.loads(json.dumps(op.fault))


def _clear_fault(op: DeltaOp, cells: List[Dict[str, Any]]) -> None:
    cell = _find(cells, op.target)
    if cell.get("wire") is None:
        raise DeltaError(f"cell {op.target!r} has no fault to clear")
    cell["wire"] = None


def _check_group_wires(cells: List[Dict[str, Any]]) -> None:
    """A coupling group has exactly one access wire (build invariant)."""
    wired: Dict[str, List[str]] = {}
    for cell in cells:
        if cell.get("wire") is not None:
            group = cell.get("group") or cell["name"]
            wired.setdefault(group, []).append(cell["name"])
    for group, names in wired.items():
        if len(names) > 1:
            raise DeltaError(
                f"group {group!r} would carry {len(names)} access wires "
                f"({names}); a group has one"
            )


_HANDLERS = {
    "add_cell": _add_cell,
    "remove_cell": _remove_cell,
    "rechain": _rechain,
    "inject_fault": _inject_fault,
    "clear_fault": _clear_fault,
}


__all__ = [
    "DELTA_OPS",
    "DeltaError",
    "DeltaOp",
    "SpecDelta",
]

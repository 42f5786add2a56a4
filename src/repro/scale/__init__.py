"""The scale-out engine: declarative scenarios, sharded execution.

Describe a multi-cell deployment once as plain data, then run it either
single-process (exact legacy semantics) or sharded across workers — same
spec, byte-identical results::

    from repro.scale import Scenario

    scenario = Scenario.from_json(open("deployment.json").read())
    result = scenario.run(workers=4)
    print(result.digest, result.cell_slots_per_second)

See :mod:`repro.scale.spec` for the spec schema,
:mod:`repro.scale.registry` for the middlebox stage names a spec may
reference, and :mod:`repro.scale.shard` for the placement rules (cells
sharing a ``group`` are never split across workers).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.scale.build import BuiltCell, BuiltGroup, build_groups
from repro.scale.pool import JOIN_TIMEOUT_S, WorkerPool
from repro.scale.registry import (
    STAGE_REGISTRY,
    StageBuildContext,
    build_stage,
    register_stage,
    stage_names,
)
from repro.scale.runner import (
    GroupResult,
    ScenarioResult,
    run_divergence,
    run_scenario,
)
from repro.scale.shard import ShardPlan, plan_shards
from repro.scale.spec import (
    SPEC_VERSION,
    CellSpec,
    FlowSpec,
    ObsSpec,
    RuSpec,
    ScenarioSpec,
    StageSpec,
    SupervisorSpec,
    UeSpec,
)
from repro.scale.supervisor import ShardRecoveryExhausted


class Scenario:
    """Convenience wrapper pairing a :class:`ScenarioSpec` with execution.

    Constructible from a spec, a dict, a JSON string, or a JSON file; the
    underlying plain-data spec stays reachable as ``.spec``.
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        return cls(ScenarioSpec.from_dict(data))

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls(ScenarioSpec.from_json(text))

    @classmethod
    def from_file(cls, path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    @property
    def name(self) -> str:
        return self.spec.name

    def to_dict(self) -> Dict[str, Any]:
        return self.spec.to_dict()

    def to_json(self, indent: int = 2) -> str:
        return self.spec.to_json(indent=indent)

    def build(self, groups: Optional[List[str]] = None) -> List[BuiltGroup]:
        """Materialize the live objects without running anything."""
        return build_groups(self.spec, groups)

    def plan(self, workers: int) -> ShardPlan:
        return plan_shards(self.spec, workers)

    def run(self, workers: int = 1, bus=None, tail=None) -> ScenarioResult:
        """Execute the scenario; ``workers=1`` is exact single-process.

        ``bus``/``tail`` stream live telemetry (epoch summaries, SLO
        alerts) while the run executes; see
        :func:`~repro.scale.runner.run_scenario`.
        """
        return run_scenario(self.spec, workers=workers, bus=bus, tail=tail)


def run(scenario, workers: int = 1) -> ScenarioResult:
    """Run a scenario given as a Scenario, ScenarioSpec, dict, or JSON."""
    if isinstance(scenario, Scenario):
        spec = scenario.spec
    elif isinstance(scenario, ScenarioSpec):
        spec = scenario
    elif isinstance(scenario, dict):
        spec = ScenarioSpec.from_dict(scenario)
    elif isinstance(scenario, str):
        spec = ScenarioSpec.from_json(scenario)
    else:
        raise TypeError(
            "run() wants a Scenario, ScenarioSpec, dict, or JSON string; "
            f"got {type(scenario).__name__}"
        )
    return run_scenario(spec, workers=workers)


__all__ = [
    "JOIN_TIMEOUT_S",
    "SPEC_VERSION",
    "STAGE_REGISTRY",
    "BuiltCell",
    "BuiltGroup",
    "CellSpec",
    "FlowSpec",
    "GroupResult",
    "ObsSpec",
    "RuSpec",
    "Scenario",
    "ScenarioResult",
    "ScenarioSpec",
    "ShardPlan",
    "ShardRecoveryExhausted",
    "StageBuildContext",
    "StageSpec",
    "SupervisorSpec",
    "UeSpec",
    "WorkerPool",
    "build_groups",
    "build_stage",
    "plan_shards",
    "register_stage",
    "run",
    "run_divergence",
    "run_scenario",
    "stage_names",
]

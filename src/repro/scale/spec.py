"""The declarative Scenario API: plain-data deployment descriptions.

A :class:`ScenarioSpec` describes a multi-cell RANBooster deployment —
cells (DU + RUs + UE population + traffic), vendor stack profiles, chain
stages by registered name, fault and observability configuration, seeds —
as a dict/JSON-serializable value.  ``ScenarioSpec.build()`` (in
:mod:`repro.scale.build`) materializes today's live objects from it, so
the exact same JSON drives a single-process run and a sharded
multiprocessing run with no code changes.

Coupling model: cells that share a middlebox touchpoint (a DAS merge
group spanning cells, a shared RU muxed among several DUs) declare the
same ``group``.  A group is the atomic unit of placement — the shard
planner never splits one, so DAS merges and shared-RU muxing always
execute at full packet fidelity inside one worker, and no packet ever
crosses a shard boundary.

Everything here is deliberately dumb data: no live objects, no numpy, no
callables.  ``to_dict``/``from_dict`` round-trip exactly; unknown keys
are rejected so stale specs fail loudly instead of silently dropping
configuration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Spec format version; bumped on incompatible layout changes.
SPEC_VERSION = 1

_FLOW_KINDS = ("cbr", "poisson")
_DIRECTIONS = ("dl", "ul")


def _check_keys(kind: str, data: Dict[str, Any], allowed: Sequence[str]) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise KeyError(f"{kind} spec has unknown keys: {sorted(unknown)}")


@dataclass(frozen=True)
class FlowSpec:
    """One traffic generator bound to a UE (an iperf equivalent)."""

    kind: str = "cbr"
    rate_mbps: float = 50.0
    direction: str = "dl"
    name: str = ""
    packet_bits: int = 12_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _FLOW_KINDS:
            raise ValueError(f"flow kind must be one of {_FLOW_KINDS}")
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"flow direction must be one of {_DIRECTIONS}")
        if self.rate_mbps < 0:
            raise ValueError("flow rate must be non-negative")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FlowSpec":
        _check_keys("flow", data, cls.__dataclass_fields__)
        return cls(**data)


@dataclass(frozen=True)
class UeSpec:
    """One UE of a cell's population: link quality plus traffic flows."""

    ue_id: str
    dl_layers: int = 2
    dl_aggregate_se: float = 10.0
    ul_se: float = 3.0
    flows: Tuple[FlowSpec, ...] = ()

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "UeSpec":
        _check_keys("ue", data, cls.__dataclass_fields__)
        data = dict(data)
        data["flows"] = tuple(
            FlowSpec.from_dict(flow) for flow in data.get("flows", ())
        )
        return cls(**data)


@dataclass(frozen=True)
class RuSpec:
    """One radio unit: antennas, placement, and its noise seed."""

    name: str
    n_antennas: int = 2
    #: PRBs of the RU grid; ``None`` inherits the cell's grid size.  A
    #: shared RU hosting several cells sets this wide enough to span
    #: every guest's spectrum slice.
    num_prb: Optional[int] = None
    #: RU grid center; ``None`` inherits the cell's center frequency.
    center_frequency_hz: Optional[float] = None
    #: (x metres, y metres, floor, height metres).
    position: Tuple[float, float, int, float] = (0.0, 0.0, 0, 3.0)
    seed: Optional[int] = None

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RuSpec":
        _check_keys("ru", data, cls.__dataclass_fields__)
        data = dict(data)
        if "position" in data:
            data["position"] = tuple(data["position"])
        return cls(**data)


@dataclass(frozen=True)
class StageSpec:
    """One middlebox chain stage, by registered factory name.

    ``stage`` names a factory in the stage registry
    (:mod:`repro.scale.registry`); ``params`` is the factory's plain-data
    configuration, resolving cells and RUs by spec name.
    """

    stage: str
    params: Dict[str, Any] = field(default_factory=dict)
    name: str = ""

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StageSpec":
        _check_keys("stage", data, cls.__dataclass_fields__)
        data = dict(data)
        data["params"] = dict(data.get("params", {}))
        return cls(**data)


@dataclass(frozen=True)
class CellSpec:
    """One cell: a DU, its RUs, its UE population, and its chain."""

    name: str
    pci: int
    bandwidth_hz: int = 40_000_000
    #: ``None`` keeps the CellConfig default (3.46 GHz); shared-RU cells
    #: set explicit slice centers inside the host RU's grid.
    center_frequency_hz: Optional[float] = None
    n_antennas: int = 2
    max_dl_layers: int = 2
    #: Vendor stack profile name (``repro.ran.stacks.profile_by_name``).
    profile: str = "srsRAN"
    #: Wire codec for this cell's eAxC streams: ``"bfp"``, ``"modcomp"``,
    #: or ``None`` to let the stack's preference win the negotiation
    #: (:func:`repro.ran.stacks.negotiate_compression`).
    codec: Optional[str] = None
    symbols_per_slot: int = 1
    seed: Optional[int] = None
    #: Coupling group: cells naming the same group run in one network on
    #: one shard (their chains concatenate in spec order).  ``None`` puts
    #: the cell in its own singleton group.
    group: Optional[str] = None
    deadline_flush: bool = False
    #: Declarative fault spec for the access wire (repro.faults.registry).
    wire: Optional[Dict[str, Any]] = None
    rus: Tuple[RuSpec, ...] = ()
    ues: Tuple[UeSpec, ...] = ()
    chain: Tuple[StageSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.rus:
            raise ValueError(f"cell {self.name!r} needs at least one RU")
        if self.codec is not None and self.codec not in ("bfp", "modcomp"):
            raise ValueError(
                f"cell {self.name!r} names unknown codec {self.codec!r}; "
                "expected 'bfp' or 'modcomp'"
            )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellSpec":
        _check_keys("cell", data, cls.__dataclass_fields__)
        data = dict(data)
        data["rus"] = tuple(RuSpec.from_dict(ru) for ru in data.get("rus", ()))
        data["ues"] = tuple(UeSpec.from_dict(ue) for ue in data.get("ues", ()))
        data["chain"] = tuple(
            StageSpec.from_dict(stage) for stage in data.get("chain", ())
        )
        if data.get("wire") is not None:
            data["wire"] = dict(data["wire"])
        return cls(**data)


@dataclass(frozen=True)
class ObsSpec:
    """Observability configuration of a scenario run."""

    enabled: bool = False
    sample_every: int = 1
    #: Attach a per-group DeadlineAccountant (30 us slot budget).
    deadline_accounting: bool = False
    #: Attach a per-group wire-level conformance validator at RU/DU
    #: ingress; per-shard reports merge in the ScenarioResult.
    conformance: bool = False
    #: Stream the full telemetry plane at every barrier epoch: sampled
    #: spans, deadline accounts and conformance deltas ride each epoch
    #: reply beside the metric snapshot, and the coordinator folds them
    #: live (see :mod:`repro.obs.stream`).  Implies nothing when
    #: ``enabled`` is False.
    stream: bool = False
    #: Relative accuracy of every quantile sketch the run creates
    #: (slot-latency percentiles, eval CDFs).
    sketch_accuracy: float = 0.01
    #: Flight-recorder ring size per group (and for the coordinator's
    #: stream fold); ``None`` keeps the recorder default (4096).
    max_spans: Optional[int] = None
    #: Override the deadline budget (ns); ``None`` keeps the paper's
    #: 30 us allowance.  Chaos/SLO tests pin a tiny budget here to make
    #: burn-rate alerts deterministic.
    deadline_budget_ns: Optional[float] = None
    #: Declarative SLO specs evaluated over the stream (plain dicts,
    #: see :class:`repro.obs.slo.SloSpec`).  Empty means no engine.
    slo: Tuple[Dict[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.sketch_accuracy < 1.0:
            raise ValueError("sketch_accuracy must be in (0, 1)")
        if self.max_spans is not None and self.max_spans < 1:
            raise ValueError("max_spans must be >= 1 when set")
        if self.deadline_budget_ns is not None and self.deadline_budget_ns <= 0:
            raise ValueError("deadline_budget_ns must be positive when set")

    def slo_specs(self):
        """The parsed :class:`~repro.obs.slo.SloSpec` objects."""
        from repro.obs.slo import SloSpec

        return tuple(SloSpec.from_dict(dict(entry)) for entry in self.slo)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ObsSpec":
        _check_keys("obs", data, cls.__dataclass_fields__)
        data = dict(data)
        if "slo" in data:
            data["slo"] = tuple(dict(entry) for entry in data["slo"])
        return cls(**data)


@dataclass(frozen=True)
class SupervisorSpec:
    """Self-healing policy for the worker pool.

    ``barrier_timeout_s`` bounds how long the coordinator waits on any
    one worker's barrier reply before declaring it hung (the poll loop
    also notices a crashed worker much sooner, via ``is_alive``).
    ``max_restarts_per_worker`` caps recovery attempts per shard within
    one run; exceeding it raises
    :class:`~repro.scale.supervisor.ShardRecoveryExhausted` instead of
    retrying forever.  Respawn attempts back off geometrically
    (``backoff_base_s * backoff_factor ** restarts_so_far``).
    """

    barrier_timeout_s: float = 30.0
    poll_interval_s: float = 0.05
    max_restarts_per_worker: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.barrier_timeout_s <= 0:
            raise ValueError("barrier_timeout_s must be positive")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if self.max_restarts_per_worker < 0:
            raise ValueError("max_restarts_per_worker must be >= 0")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SupervisorSpec":
        _check_keys("supervisor", data, cls.__dataclass_fields__)
        return cls(**data)


def assert_same_run_shape(old: "ScenarioSpec", new: "ScenarioSpec") -> None:
    """Reject mutations that change anything but the cell population.

    Live delta application (:meth:`~repro.scale.pool.WorkerPool.mutate`)
    rebases *cells* onto a running horizon; the run's own shape — slots,
    seeds, barrier cadence, observability plane, supervision policy —
    must stay fixed, because epochs already confirmed were produced
    under it.  Raises ``ValueError`` naming the offending fields.
    """
    old_data = old.to_dict()
    new_data = new.to_dict()
    old_data.pop("cells")
    new_data.pop("cells")
    changed = sorted(
        key
        for key in set(old_data) | set(new_data)
        if old_data.get(key) != new_data.get(key)
    )
    if changed:
        raise ValueError(
            f"live mutation may only change cells; these differ: {changed}"
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete multi-cell deployment description."""

    name: str
    cells: Tuple[CellSpec, ...]
    slots: int = 20
    seed: int = 0
    #: Barrier-epoch length: shards free-run ``epoch_slots`` slots
    #: between coordinator barriers, shipping only tiny per-epoch deltas
    #: at each boundary.  ``None`` lets shards free-run the whole horizon
    #: (the coarsest — and fastest — epoch), which is sound because
    #: coupled cells are always co-scheduled, so there are no cross-shard
    #: touchpoints.
    epoch_slots: Optional[int] = None
    obs: ObsSpec = field(default_factory=ObsSpec)
    #: Self-healing policy for sharded runs; ``None`` keeps the pool
    #: fail-fast unless ``process_chaos`` forces supervision.
    supervisor: Optional[SupervisorSpec] = None
    #: Declarative process-level failure injections (plain dicts, see
    #: :class:`repro.faults.process.ProcessChaosSpec`).  Ignored by the
    #: in-process (workers <= 1) shard — there is no process to kill.
    process_chaos: Tuple[Dict[str, Any], ...] = ()
    version: int = SPEC_VERSION

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("a scenario needs at least one cell")
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        if self.epoch_slots is not None and self.epoch_slots < 1:
            raise ValueError("epoch_slots must be >= 1 when set")
        names = [cell.name for cell in self.cells]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate cell names: {names}")
        ru_names = [ru.name for cell in self.cells for ru in cell.rus]
        if len(set(ru_names)) != len(ru_names):
            raise ValueError(f"duplicate RU names: {ru_names}")
        if self.version != SPEC_VERSION:
            raise ValueError(
                f"spec version {self.version} != supported {SPEC_VERSION}"
            )

    # -- derived structure ---------------------------------------------------

    def groups(self) -> Dict[str, List[CellSpec]]:
        """Coupling groups in declaration order: group name -> cells."""
        grouped: Dict[str, List[CellSpec]] = {}
        for cell in self.cells:
            grouped.setdefault(cell.group or cell.name, []).append(cell)
        return grouped

    def cell_index(self, name: str) -> int:
        for index, cell in enumerate(self.cells):
            if cell.name == name:
                return index
        raise KeyError(f"unknown cell {name!r}")

    def cell_seed(self, cell: CellSpec) -> int:
        """Deterministic per-cell seed, stable under any sharding."""
        if cell.seed is not None:
            return cell.seed
        return self.seed * 1000 + self.cell_index(cell.name)

    def effective_epoch_slots(self) -> int:
        """The barrier cadence a run actually uses: ``epoch_slots``,
        else the whole horizon (free-run)."""
        return self.epoch_slots or self.slots

    def ru_id_base(self, cell_name: str) -> int:
        """Global 1-based RU id of the cell's first RU (spec-order stable)."""
        base = 1
        for candidate in self.cells:
            if candidate.name == cell_name:
                return base
            base += len(candidate.rus)
        raise KeyError(f"unknown cell {cell_name!r}")

    def group_fingerprints(self) -> Dict[str, str]:
        """Build-identity fingerprint of every coupling group.

        Two specs whose fingerprints agree for a group build
        byte-identical live objects for it: the fingerprint covers each
        member cell's full plain-data description *and* every derived
        identity the builder consumes — global cell index (du_id),
        global RU id base, and the effective per-cell seed.  Live
        mutation (:mod:`repro.serve.delta`) uses this to decide which
        groups a delta actually disturbs: only groups whose fingerprint
        changed are rebuilt and replayed, everything else keeps running
        untouched.
        """
        fingerprints: Dict[str, str] = {}
        for name, members in self.groups().items():
            payload = [
                {
                    "cell": asdict(cell),
                    "index": self.cell_index(cell.name),
                    "ru_id_base": self.ru_id_base(cell.name),
                    "seed": self.cell_seed(cell),
                }
                for cell in members
            ]
            canonical = json.dumps(payload, sort_keys=True)
            fingerprints[name] = hashlib.sha256(canonical.encode()).hexdigest()
        return fingerprints

    def chaos_specs(self):
        """The parsed process-chaos injections (deferred import, like
        :meth:`ObsSpec.slo_specs`, to keep the spec layer standalone)."""
        from repro.faults.process import ProcessChaosSpec

        return tuple(
            ProcessChaosSpec.from_dict(dict(entry))
            for entry in self.process_chaos
        )

    def supervised(self) -> bool:
        """Should the pool run under a self-healing policy?  Explicitly
        configured supervision, or any chaos injection (an unsupervised
        chaos run would just crash)."""
        return self.supervisor is not None or bool(self.process_chaos)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe; tuples become lists), chosen so
        ``to_dict`` output compares equal to ``json.loads(to_json())``."""
        return json.loads(json.dumps(asdict(self)))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        _check_keys("scenario", data, cls.__dataclass_fields__)
        data = dict(data)
        data["cells"] = tuple(
            CellSpec.from_dict(cell) for cell in data.get("cells", ())
        )
        if "obs" in data:
            data["obs"] = ObsSpec.from_dict(data["obs"])
        if data.get("supervisor") is not None:
            data["supervisor"] = SupervisorSpec.from_dict(data["supervisor"])
        if "process_chaos" in data:
            data["process_chaos"] = tuple(
                dict(entry) for entry in data["process_chaos"]
            )
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # -- live objects -----------------------------------------------------------

    def build(self):
        """Materialize every coupling group as live objects.

        Returns ``List[BuiltGroup]`` (see :mod:`repro.scale.build`); the
        import is deferred so the spec layer stays dependency-free.
        """
        from repro.scale.build import build_groups

        return build_groups(self)

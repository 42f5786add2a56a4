"""Materialize a :class:`~repro.scale.spec.ScenarioSpec` into live objects.

One *coupling group* (cells sharing a ``group`` name) becomes one
:class:`~repro.sim.network_sim.FronthaulNetwork`: all the group's DUs and
RUs attach to it, and the member cells' chain stages concatenate (in cell
declaration order) into the group's middlebox chain.  Cross-cell
touchpoints — a shared RU, a DAS spanning cells — therefore execute at
full packet fidelity inside the group, which is exactly why the shard
planner treats groups as atomic.

Identifiers are derived deterministically from spec order alone (global
cell index -> du_id, global RU index -> ru_id, scenario seed -> per-cell
seeds), so the same spec builds byte-identical deployments regardless of
which worker builds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs as obs_module
from repro.conformance import WireValidator
from repro.faults import ImpairedLink, injector_from_spec
from repro.fronthaul.cplane import Direction
from repro.obs import DeadlineAccountant, Observability
from repro.phy.geometry import Position
from repro.ran.cell import CellConfig
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit, RuConfig
from repro.ran.mplane import RuCapabilities
from repro.ran.stacks import (
    VendorProfile,
    negotiate_compression,
    profile_by_name,
)
from repro.ran.traffic import ConstantBitrateFlow, PoissonFlow
from repro.scale.spec import CellSpec, ScenarioSpec, UeSpec
from repro.sim.network_sim import FronthaulNetwork


@dataclass
class BuiltCell:
    """Live objects of one cell: config, profile, DU, RUs by name."""

    spec: CellSpec
    config: CellConfig
    profile: VendorProfile
    du: DistributedUnit
    rus: Dict[str, Tuple[RadioUnit, Position]] = field(default_factory=dict)


@dataclass
class BuiltGroup:
    """One coupling group, ready to run."""

    name: str
    cells: List[BuiltCell]
    network: FronthaulNetwork
    obs: Observability
    accountant: Optional[DeadlineAccountant] = None
    #: Wire-level conformance validator observing RU/DU ingress (set
    #: when the spec's ``obs.conformance`` is on).
    validator: Optional[WireValidator] = None

    @property
    def middleboxes(self):
        return self.network.middleboxes


def _cell_config(cell: CellSpec) -> CellConfig:
    profile = profile_by_name(cell.profile)
    kwargs = dict(
        pci=cell.pci,
        bandwidth_hz=cell.bandwidth_hz,
        n_antennas=cell.n_antennas,
        max_dl_layers=cell.max_dl_layers,
        tdd=profile.tdd,
        # Per-stream codec negotiation: the spec's codec (or the stack's
        # preference) against the model RU's M-plane advertisement.
        compression=negotiate_compression(
            profile, cell.codec, RuCapabilities()
        ),
    )
    if cell.center_frequency_hz is not None:
        kwargs["center_frequency_hz"] = cell.center_frequency_hz
    return CellConfig(**kwargs)


def _attach_ues(du: DistributedUnit, ues: Tuple[UeSpec, ...]) -> None:
    for ue in ues:
        du.scheduler.add_ue(ue.ue_id, dl_layers=ue.dl_layers)
        du.scheduler.update_ue_quality(
            ue.ue_id, dl_aggregate_se=ue.dl_aggregate_se, ul_se=ue.ul_se
        )
        for flow in ue.flows:
            direction = (
                Direction.DOWNLINK if flow.direction == "dl"
                else Direction.UPLINK
            )
            name = flow.name or f"{flow.kind}-{flow.direction}"
            if flow.kind == "cbr":
                generator = ConstantBitrateFlow(flow.rate_mbps, name)
            else:
                generator = PoissonFlow(
                    flow.rate_mbps,
                    packet_bits=flow.packet_bits,
                    seed=flow.seed,
                    name=name,
                )
            du.attach_flow(ue.ue_id, generator, direction)


def build_cell(
    spec: ScenarioSpec,
    cell: CellSpec,
    du_id: int,
    ru_id_base: int,
) -> BuiltCell:
    """Build one cell's DU and RUs (no network wiring yet)."""
    config = _cell_config(cell)
    profile = profile_by_name(cell.profile)
    cell_seed = spec.cell_seed(cell)
    du = DistributedUnit(
        du_id=du_id,
        cell=config,
        profile=profile,
        symbols_per_slot=cell.symbols_per_slot,
        seed=cell_seed,
        compression=config.compression,
    )
    built = BuiltCell(spec=cell, config=config, profile=profile, du=du)
    _attach_ues(du, cell.ues)
    for offset, ru in enumerate(cell.rus):
        radio = RadioUnit(
            ru_id=ru_id_base + offset,
            config=RuConfig(
                num_prb=ru.num_prb or config.num_prb,
                center_frequency_hz=(
                    ru.center_frequency_hz
                    if ru.center_frequency_hz is not None
                    else config.center_frequency_hz
                ),
                n_antennas=ru.n_antennas,
                scs_hz=config.numerology.scs_hz,
                compression=config.compression,
            ),
            du_mac=du.mac,
            seed=ru.seed if ru.seed is not None else cell_seed + offset + 1,
        )
        x, y, floor, height = ru.position
        built.rus[ru.name] = (radio, Position(x, y, int(floor), height=height))
    # The DU addresses its cell's first RU; a chain stage may re-address.
    du.ru_mac = next(iter(built.rus.values()))[0].mac
    return built


def build_group(
    spec: ScenarioSpec, group_name: str, members: List[CellSpec]
) -> BuiltGroup:
    """Build one coupling group: cells, chain, network."""
    from repro.apps.security import FronthaulGuardMiddlebox
    from repro.scale.registry import StageBuildContext, build_stage

    obs = (
        Observability(enabled=True, sample_every=spec.obs.sample_every)
        if spec.obs.enabled
        else obs_module.DEFAULT_OBSERVABILITY
    )
    built_cells = [
        build_cell(
            spec,
            cell,
            du_id=spec.cell_index(cell.name) + 1,
            ru_id_base=spec.ru_id_base(cell.name),
        )
        for cell in members
    ]
    middleboxes = []
    for built in built_cells:
        ctx = StageBuildContext(
            group=group_name,
            cells=built_cells,
            current_cell=built,
            obs=obs,
        )
        for stage in built.spec.chain:
            middleboxes.append(build_stage(stage, ctx))
    # A guard admits every stage of its group's chain that sources frames
    # (a das re-sources the uplink), wherever it sits in the chain.
    stage_macs = {box.mac.to_int() for box in middleboxes if hasattr(box, "mac")}
    for box in middleboxes:
        if isinstance(box, FronthaulGuardMiddlebox):
            box.allowed |= stage_macs
    wires = [cell for cell in members if cell.wire is not None]
    if len(wires) > 1:
        raise ValueError(
            f"group {group_name!r} declares {len(wires)} wire specs; "
            "a group has one access wire"
        )
    wire = None
    if wires:
        wire_spec = dict(wires[0].wire)
        wire_spec.setdefault("seed", spec.cell_seed(wires[0]))
        injector = injector_from_spec(wire_spec)
        # The wire and its injector export on the group's handle.
        injector.obs = obs
        wire = ImpairedLink(injector)
    accountant = None
    if spec.obs.deadline_accounting:
        accountant = DeadlineAccountant(
            numerology=built_cells[0].config.numerology,
            budget_ns=spec.obs.deadline_budget_ns,
            obs=obs if spec.obs.enabled else None,
        )
    validator = None
    if spec.obs.conformance:
        # Mixed-profile groups skip the profile-specific checks (a single
        # udCompHdr expectation would false-positive on the other cells).
        profiles = {built.profile.name for built in built_cells}
        validator = WireValidator(
            name=group_name,
            profile=built_cells[0].profile if len(profiles) == 1 else None,
            carrier_num_prb=max(
                radio.config.num_prb
                for built in built_cells
                for radio, _ in built.rus.values()
            ),
            numerology=built_cells[0].config.numerology,
            obs=obs,
            # The negotiated wire configs of the member cells: in a
            # mixed-codec group every stream must still use one of them.
            allowed_compressions=frozenset(
                built.config.compression for built in built_cells
            ),
        )
    network = FronthaulNetwork(
        middleboxes=middleboxes,
        deadline_accountant=accountant,
        wire=wire,
        obs=obs,
        name=group_name,
        validator=validator,
    )
    for built in built_cells:
        network.add_du(built.du)
        for radio, position in built.rus.values():
            network.add_ru(radio, position)
    return BuiltGroup(
        name=group_name,
        cells=built_cells,
        network=network,
        obs=obs,
        accountant=accountant,
        validator=validator,
    )


def build_groups(
    spec: ScenarioSpec, names: Optional[List[str]] = None
) -> List[BuiltGroup]:
    """Build every coupling group (or the named subset, for one shard)."""
    grouped = spec.groups()
    if names is None:
        names = list(grouped)
    missing = [name for name in names if name not in grouped]
    if missing:
        raise KeyError(f"unknown groups: {missing}")
    return [build_group(spec, name, grouped[name]) for name in names]

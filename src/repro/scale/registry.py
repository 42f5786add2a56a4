"""The middlebox stage registry: scenario specs name stages, not classes.

Every ``repro.apps`` middlebox registers a factory here under its
``app_name``, so a :class:`~repro.scale.spec.StageSpec` like::

    {"stage": "das", "params": {"partial_merge": true}}

can be materialized without the spec ever holding a live object.  A
factory receives the stage's plain-data ``params`` and a
:class:`StageBuildContext` giving it the built topology of its coupling
group (DUs, RUs, cell configs, vendor profiles) plus the observability
handle, and returns a ready middlebox.

Factories resolve cells and RUs by their spec names; defaults fall back
to the cell the stage was declared on, so the common single-cell case
needs no parameters at all.  Custom stages register with
:func:`register_stage`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.apps.das import DasMiddlebox
from repro.apps.dmimo import DmimoMiddlebox, RuPortMap, SsbSchedule
from repro.apps.prb_monitor import PrbMonitorMiddlebox
from repro.apps.resilience import ResilienceMiddlebox
from repro.apps.ru_sharing import RuSharingMiddlebox, SharedDuConfig
from repro.apps.security import FronthaulGuardMiddlebox
from repro.apps.sensing import SpectrumSensorMiddlebox
from repro.core.middlebox import Middlebox
from repro.faults.middlebox import FaultInjectorMiddlebox
from repro.faults.registry import injector_from_spec

if TYPE_CHECKING:
    from repro.scale.build import BuiltCell
    from repro.scale.spec import StageSpec

#: stage name -> factory(params, ctx) -> Middlebox
STAGE_REGISTRY: Dict[str, Callable[..., Middlebox]] = {}


def register_stage(name: str):
    """Register a stage factory under ``name``; returns the target."""

    def decorator(factory: Callable[..., Middlebox]):
        if name in STAGE_REGISTRY:
            raise ValueError(f"stage {name!r} already registered")
        STAGE_REGISTRY[name] = factory
        return factory

    return decorator


def stage_names() -> List[str]:
    """All registered stage names, sorted."""
    return sorted(STAGE_REGISTRY)


class StageBuildContext:
    """What a stage factory may see: its group's built topology.

    ``current_cell`` is the cell the stage was declared on — the default
    target when params omit an explicit ``"cell"``.
    """

    def __init__(
        self,
        group: str,
        cells: "List[BuiltCell]",
        current_cell: "BuiltCell",
        obs=None,
    ):
        self.group = group
        self._cells = {built.spec.name: built for built in cells}
        self.current_cell = current_cell
        self.obs = obs

    def cell(self, name: Optional[str] = None) -> "BuiltCell":
        if name is None:
            return self.current_cell
        built = self._cells.get(name)
        if built is None:
            raise KeyError(
                f"stage references cell {name!r}, not in group "
                f"{self.group!r} ({sorted(self._cells)})"
            )
        return built

    def cells(self) -> "List[BuiltCell]":
        return list(self._cells.values())

    def ru(self, name: str):
        """The built (RadioUnit, Position) pair for a group-wide RU name."""
        for built in self._cells.values():
            if name in built.rus:
                return built.rus[name]
        raise KeyError(
            f"stage references RU {name!r}, not in group {self.group!r}"
        )

    def base_kwargs(self, stage: "StageSpec", cell: "BuiltCell") -> dict:
        """The normalized (name, obs, stack_profile) middlebox keywords."""
        return {
            "name": stage.name or "",
            "obs": self.obs,
            "stack_profile": cell.profile,
        }


def build_stage(stage: "StageSpec", ctx: StageBuildContext) -> Middlebox:
    """Materialize one chain stage through the registry."""
    factory = STAGE_REGISTRY.get(stage.stage)
    if factory is None:
        raise KeyError(
            f"unknown stage {stage.stage!r}; registered: {stage_names()}"
        )
    return factory(stage, ctx)


# -- built-in stages ----------------------------------------------------------


@register_stage("das")
def _build_das(stage: "StageSpec", ctx: StageBuildContext) -> Middlebox:
    """Params: ``cell`` (default: declaring cell), ``rus`` (names,
    default: all of the cell's RUs), ``partial_merge``."""
    params = dict(stage.params)
    cell = ctx.cell(params.pop("cell", None))
    ru_names = params.pop("rus", None) or [ru.name for ru in cell.spec.rus]
    return DasMiddlebox(
        du_mac=cell.du.mac,
        ru_macs=[ctx.ru(name)[0].mac for name in ru_names],
        **ctx.base_kwargs(stage, cell),
        **params,
    )


@register_stage("dmimo")
def _build_dmimo(stage: "StageSpec", ctx: StageBuildContext) -> Middlebox:
    """Params: ``cell``, ``rus`` (global-port order, default: the cell's
    RUs in spec order), ``ssb`` ({period_slots, symbols, prb_start,
    num_prb}, optional)."""
    params = dict(stage.params)
    cell = ctx.cell(params.pop("cell", None))
    ru_names = params.pop("rus", None) or [ru.name for ru in cell.spec.rus]
    groups = tuple(
        (ctx.ru(name)[0].mac, ctx.ru(name)[0].config.n_antennas)
        for name in ru_names
    )
    ssb_params = params.pop("ssb", None)
    ssb = None
    if ssb_params is not None:
        ssb = SsbSchedule(
            period_slots=ssb_params["period_slots"],
            symbols=tuple(ssb_params["symbols"]),
            prb_start=ssb_params["prb_start"],
            num_prb=ssb_params["num_prb"],
        )
    numerology = cell.config.numerology
    return DmimoMiddlebox(
        du_mac=cell.du.mac,
        port_map=RuPortMap(groups=groups),
        ssb=ssb,
        slots_per_frame=numerology.slots_per_frame,
        slots_per_subframe=numerology.slots_per_subframe,
        **ctx.base_kwargs(stage, cell),
        **params,
    )


@register_stage("ru_sharing")
def _build_ru_sharing(stage: "StageSpec", ctx: StageBuildContext) -> Middlebox:
    """Params: ``ru`` (the shared RU's name, default: the declaring
    cell's first RU), ``cells`` (DU cells muxed onto it, default: every
    cell in the group).  Each DU's spectrum slice is its cell grid, so
    shared cells set explicit ``center_frequency_hz`` slices."""
    params = dict(stage.params)
    host = ctx.cell(params.pop("cell", None))
    ru_name = params.pop("ru", None) or host.spec.rus[0].name
    ru, _ = ctx.ru(ru_name)
    cell_names = params.pop("cells", None) or [
        built.spec.name for built in ctx.cells()
    ]
    dus = []
    for cell_name in cell_names:
        built = ctx.cell(cell_name)
        dus.append(
            SharedDuConfig(
                du_id=built.du.du_id,
                mac=built.du.mac,
                grid=built.config.grid,
            )
        )
    sharing = RuSharingMiddlebox(
        ru_mac=ru.mac,
        ru_grid=ru.config.grid,
        dus=dus,
        **ctx.base_kwargs(stage, host),
        **params,
    )
    # The shared RU answers to the mux, not to any one DU.
    ru.du_mac = sharing.mac
    return sharing


@register_stage("prb_monitor")
def _build_prb_monitor(stage: "StageSpec", ctx: StageBuildContext) -> Middlebox:
    """Params: ``cell``, ``thr_dl``, ``thr_ul``, ``monitor_port``."""
    params = dict(stage.params)
    cell = ctx.cell(params.pop("cell", None))
    return PrbMonitorMiddlebox(
        carrier_num_prb=cell.config.num_prb,
        **ctx.base_kwargs(stage, cell),
        **params,
    )


@register_stage("resilience")
def _build_resilience(stage: "StageSpec", ctx: StageBuildContext) -> Middlebox:
    """Params: ``primary`` + ``standby`` (cell names; default: declaring
    cell and the group's next cell), ``ru``, ``silence_threshold_ns``."""
    params = dict(stage.params)
    primary = ctx.cell(params.pop("primary", None))
    standby_name = params.pop("standby", None)
    if standby_name is None:
        others = [
            built for built in ctx.cells()
            if built.spec.name != primary.spec.name
        ]
        if not others:
            raise KeyError(
                "resilience stage needs a 'standby' cell (no other cell "
                f"in group {ctx.group!r})"
            )
        standby = others[0]
    else:
        standby = ctx.cell(standby_name)
    ru_name = params.pop("ru", None) or primary.spec.rus[0].name
    return ResilienceMiddlebox(
        primary_du=primary.du.mac,
        standby_du=standby.du.mac,
        ru_mac=ctx.ru(ru_name)[0].mac,
        numerology=primary.config.numerology,
        **ctx.base_kwargs(stage, primary),
        **params,
    )


@register_stage("fronthaul_guard")
def _build_guard(stage: "StageSpec", ctx: StageBuildContext) -> Middlebox:
    """Params: ``cell``, ``max_slot_skew``.  The group's DUs and RUs are
    allowed sources, and so is every chain stage with a MAC of its own
    (added by :func:`~repro.scale.build.build_group` once the whole chain
    is built)."""
    params = dict(stage.params)
    cell = ctx.cell(params.pop("cell", None))
    allowed = [built.du.mac for built in ctx.cells()]
    for built in ctx.cells():
        allowed.extend(ru.mac for ru, _ in built.rus.values())
    return FronthaulGuardMiddlebox(
        allowed_sources=allowed,
        numerology=cell.config.numerology,
        **ctx.base_kwargs(stage, cell),
        **params,
    )


@register_stage("spectrum_sensor")
def _build_sensor(stage: "StageSpec", ctx: StageBuildContext) -> Middlebox:
    """Params: ``cell``, ``noise_exponent_threshold``."""
    params = dict(stage.params)
    cell = ctx.cell(params.pop("cell", None))
    return SpectrumSensorMiddlebox(
        carrier_num_prb=cell.config.num_prb,
        **ctx.base_kwargs(stage, cell),
        **params,
    )


@register_stage("passthrough")
def _build_passthrough(stage: "StageSpec", ctx: StageBuildContext) -> Middlebox:
    """A transparent stage (useful to measure chain overhead)."""
    cell = ctx.cell(dict(stage.params).pop("cell", None))
    return Middlebox(**ctx.base_kwargs(stage, cell))


@register_stage("impaired_wire")
def _build_impaired_wire(stage: "StageSpec", ctx: StageBuildContext) -> Middlebox:
    """Params: ``fault`` (a repro.faults.registry spec), ``cell``."""
    params = dict(stage.params)
    cell = ctx.cell(params.pop("cell", None))
    fault = params.pop("fault", None)
    if fault is None:
        raise KeyError("impaired_wire stage needs a 'fault' spec")
    base = ctx.base_kwargs(stage, cell)
    if not base["name"]:
        del base["name"]  # keep FaultInjectorMiddlebox's derived default
    return FaultInjectorMiddlebox(
        injector=injector_from_spec(fault), **base, **params
    )

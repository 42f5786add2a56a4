"""Hypothesis strategies for fronthaul wire objects and scenario specs.

The property/differential harness draws C/U-plane packets, IQ grids,
compression configs, and whole :class:`~repro.scale.spec.ScenarioSpec`
trees from these strategies.  Sample grids are derived from a drawn RNG
seed rather than element-by-element lists — orders of magnitude faster
to generate, still deterministic and shrinkable at the seed level.

Import is gated: the module raises a clear error when Hypothesis is not
installed (it is a test-only dependency), so the runtime packages can
import :mod:`repro.conformance` without it.
"""

from __future__ import annotations

import numpy as np

try:
    from hypothesis import strategies as st
except ImportError as exc:  # pragma: no cover - CI always installs it
    raise ImportError(
        "repro.conformance.generators requires the 'hypothesis' package "
        "(a test-only dependency)"
    ) from exc

from repro.fronthaul.compression import (
    BFP_COMP_METH,
    MOD_COMP_METH,
    NO_COMP_METH,
    SAMPLES_PER_PRB,
    CompressionConfig,
)
from repro.fronthaul.cplane import (
    CPlaneMessage,
    CPlaneSection,
    Direction,
    SectionType,
)
from repro.fronthaul.ecpri import EAxCId
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import FronthaulPacket, make_packet
from repro.fronthaul.timing import (
    MAX_FRAME_ID,
    SUBFRAMES_PER_FRAME,
    SYMBOLS_PER_SLOT,
    SymbolTime,
)
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.scale.spec import (
    CellSpec,
    FlowSpec,
    ObsSpec,
    RuSpec,
    ScenarioSpec,
    StageSpec,
    SupervisorSpec,
    UeSpec,
)
from repro.serve.delta import DeltaOp, SpecDelta

# -- wire-object strategies ---------------------------------------------------


def compression_configs() -> st.SearchStrategy[CompressionConfig]:
    """Every legal ``udCompHdr``: BFP widths 2..16, modcomp widths 1..14,
    plus uncompressed."""
    bfp = st.integers(min_value=2, max_value=16).map(
        lambda width: CompressionConfig(iq_width=width, comp_meth=BFP_COMP_METH)
    )
    modcomp = st.integers(min_value=1, max_value=14).map(
        lambda width: CompressionConfig(iq_width=width, comp_meth=MOD_COMP_METH)
    )
    raw = st.just(CompressionConfig(iq_width=16, comp_meth=NO_COMP_METH))
    return st.one_of(bfp, modcomp, raw)


def modcomp_configs() -> st.SearchStrategy[CompressionConfig]:
    """Modulation-compression configs over every legal width."""
    return st.integers(min_value=1, max_value=14).map(
        lambda width: CompressionConfig(iq_width=width, comp_meth=MOD_COMP_METH)
    )


@st.composite
def iq_samples(draw, min_prbs: int = 1, max_prbs: int = 16) -> np.ndarray:
    """An int16 IQ grid of shape (n_prbs, 24) derived from a drawn seed."""
    n_prbs = draw(st.integers(min_value=min_prbs, max_value=max_prbs))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    amplitude = draw(st.sampled_from([1, 40, 4000, 32767]))
    rng = np.random.default_rng(seed)
    grid = rng.integers(
        -amplitude - 1,
        amplitude + 1,
        size=(n_prbs, 2 * SAMPLES_PER_PRB),
        dtype=np.int64,
    )
    return np.clip(grid, -32768, 32767).astype(np.int16)


def symbol_times() -> st.SearchStrategy[SymbolTime]:
    return st.builds(
        SymbolTime,
        frame=st.integers(min_value=0, max_value=MAX_FRAME_ID - 1),
        subframe=st.integers(min_value=0, max_value=SUBFRAMES_PER_FRAME - 1),
        slot=st.integers(min_value=0, max_value=1),
        symbol=st.integers(min_value=0, max_value=SYMBOLS_PER_SLOT - 1),
    )


@st.composite
def uplane_sections(
    draw, compression: CompressionConfig = None, max_prbs: int = 16
) -> UPlaneSection:
    if compression is None:
        compression = draw(compression_configs())
    samples = draw(iq_samples(max_prbs=max_prbs))
    return UPlaneSection.from_samples(
        section_id=draw(st.integers(min_value=0, max_value=4095)),
        start_prb=draw(st.integers(min_value=0, max_value=1023 - max_prbs)),
        samples=samples,
        compression=compression,
    )


@st.composite
def uplane_messages(draw, max_sections: int = 3) -> UPlaneMessage:
    # One compression config per message keeps sections realistic (a DU
    # never mixes widths within a message), but it is drawn per message.
    compression = draw(compression_configs())
    sections = draw(
        st.lists(
            uplane_sections(compression=compression),
            min_size=1,
            max_size=max_sections,
        )
    )
    return UPlaneMessage(
        direction=draw(st.sampled_from(list(Direction))),
        time=draw(symbol_times()),
        sections=sections,
        filter_index=draw(st.sampled_from([0, 1])),
    )


@st.composite
def cplane_sections(draw, section_type: SectionType = SectionType.DATA):
    start = draw(st.integers(min_value=0, max_value=800))
    return CPlaneSection(
        section_id=draw(st.integers(min_value=0, max_value=4095)),
        start_prb=start,
        num_prb=draw(st.integers(min_value=1, max_value=200)),
        num_symbols=draw(st.integers(min_value=1, max_value=14)),
        re_mask=draw(st.integers(min_value=0, max_value=0xFFF)),
        beam_id=draw(st.integers(min_value=0, max_value=0x7FFF)),
        freq_offset=(
            draw(st.integers(min_value=-(1 << 22), max_value=(1 << 22) - 1))
            if section_type is SectionType.PRACH
            else None
        ),
    )


@st.composite
def cplane_messages(draw, max_sections: int = 3) -> CPlaneMessage:
    section_type = draw(st.sampled_from(list(SectionType)))
    message = CPlaneMessage(
        direction=draw(st.sampled_from(list(Direction))),
        time=draw(symbol_times()),
        section_type=section_type,
        compression=draw(compression_configs()),
        filter_index=draw(st.sampled_from([0, 1])),
    )
    if section_type is SectionType.PRACH:
        message.time_offset = draw(st.integers(min_value=0, max_value=0xFFFF))
        message.cp_length = draw(st.integers(min_value=0, max_value=0xFFFF))
    message.sections = draw(
        st.lists(
            cplane_sections(section_type=section_type),
            min_size=1,
            max_size=max_sections,
        )
    )
    return message


def mac_addresses() -> st.SearchStrategy[MacAddress]:
    return st.integers(min_value=0, max_value=(1 << 48) - 1).map(
        MacAddress.from_int
    )


def eaxc_ids() -> st.SearchStrategy[EAxCId]:
    return st.integers(min_value=0, max_value=(1 << 16) - 1).map(
        EAxCId.from_int
    )


@st.composite
def fronthaul_packets(draw) -> FronthaulPacket:
    message = draw(st.one_of(uplane_messages(), cplane_messages()))
    return make_packet(
        src=draw(mac_addresses()),
        dst=draw(mac_addresses()),
        message=message,
        seq_id=draw(st.integers(min_value=0, max_value=255)),
        eaxc=draw(eaxc_ids()),
    )


# -- scenario-spec strategies -------------------------------------------------

_NAMES = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
)
_SAFE_FLOATS = st.floats(
    min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False
)


def flow_specs() -> st.SearchStrategy[FlowSpec]:
    return st.builds(
        FlowSpec,
        kind=st.sampled_from(["cbr", "poisson"]),
        rate_mbps=_SAFE_FLOATS,
        direction=st.sampled_from(["dl", "ul"]),
        name=_NAMES,
        packet_bits=st.integers(min_value=1000, max_value=100_000),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )


def ue_specs() -> st.SearchStrategy[UeSpec]:
    return st.builds(
        UeSpec,
        ue_id=_NAMES,
        dl_layers=st.integers(min_value=1, max_value=4),
        dl_aggregate_se=_SAFE_FLOATS,
        ul_se=_SAFE_FLOATS,
        flows=st.lists(flow_specs(), max_size=3).map(tuple),
    )


def _ru_specs(name: str) -> st.SearchStrategy[RuSpec]:
    return st.builds(
        RuSpec,
        name=st.just(name),
        n_antennas=st.integers(min_value=1, max_value=8),
        num_prb=st.one_of(
            st.none(), st.integers(min_value=24, max_value=273)
        ),
        center_frequency_hz=st.one_of(
            st.none(), st.floats(min_value=1e9, max_value=6e9, allow_nan=False)
        ),
        position=st.tuples(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            st.integers(min_value=0, max_value=10),
            st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        ),
        seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**31 - 1)),
    )


def stage_specs() -> st.SearchStrategy[StageSpec]:
    return st.builds(
        StageSpec,
        stage=st.sampled_from(["prb_monitor", "das", "ru_sharing", "dmimo"]),
        params=st.dictionaries(
            _NAMES,
            st.one_of(
                st.integers(min_value=0, max_value=1000),
                _SAFE_FLOATS,
                st.booleans(),
                _NAMES,
            ),
            max_size=3,
        ),
        name=_NAMES,
    )


@st.composite
def cell_specs(draw, name: str = None, group=None) -> CellSpec:
    if name is None:
        name = draw(_NAMES)
    n_rus = draw(st.integers(min_value=1, max_value=3))
    rus = tuple(
        draw(_ru_specs(f"{name}-ru{index}")) for index in range(n_rus)
    )
    return CellSpec(
        name=name,
        pci=draw(st.integers(min_value=0, max_value=1007)),
        bandwidth_hz=draw(st.sampled_from([20_000_000, 40_000_000, 100_000_000])),
        center_frequency_hz=draw(
            st.one_of(
                st.none(),
                st.floats(min_value=1e9, max_value=6e9, allow_nan=False),
            )
        ),
        n_antennas=draw(st.integers(min_value=1, max_value=8)),
        max_dl_layers=draw(st.integers(min_value=1, max_value=4)),
        profile=draw(st.sampled_from(["srsRAN", "CapGemini", "Radisys"])),
        codec=draw(st.sampled_from([None, "bfp", "modcomp"])),
        symbols_per_slot=draw(st.integers(min_value=1, max_value=14)),
        seed=draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=2**31 - 1))
        ),
        group=group,
        deadline_flush=draw(st.booleans()),
        wire=draw(
            st.one_of(
                st.none(),
                st.just({"kind": "iid_loss", "rate": 0.01, "seed": 7}),
            )
        ),
        rus=rus,
        ues=tuple(draw(st.lists(ue_specs(), max_size=2))),
        chain=tuple(draw(st.lists(stage_specs(), max_size=2))),
    )


def _finite(lo: float, hi: float):
    return st.floats(
        min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
    )


@st.composite
def process_chaos_dicts(draw) -> dict:
    """Canonical process-chaos entries (the dict form a spec carries)."""
    from repro.faults.process import CHAOS_KINDS, ProcessChaosSpec

    if draw(st.booleans()):
        target = {"group": draw(st.sampled_from(["g0", "g1", "campus"]))}
    else:
        target = {"worker": draw(st.integers(min_value=0, max_value=7))}
    return ProcessChaosSpec(
        kind=draw(st.sampled_from(CHAOS_KINDS)),
        epoch=draw(st.integers(min_value=0, max_value=50)),
        rearm=draw(st.booleans()),
        stall_s=draw(_finite(0.001, 60.0)),
        name=draw(st.sampled_from(["", "inj-a", "inj-b"])),
        **target,
    ).to_dict()


@st.composite
def scenario_specs(draw, max_cells: int = 4) -> ScenarioSpec:
    n_cells = draw(st.integers(min_value=1, max_value=max_cells))
    group_names = draw(
        st.lists(
            st.one_of(st.none(), st.sampled_from(["g0", "g1"])),
            min_size=n_cells,
            max_size=n_cells,
        )
    )
    cells = tuple(
        draw(cell_specs(name=f"cell{index}", group=group_names[index]))
        for index in range(n_cells)
    )
    return ScenarioSpec(
        name=draw(_NAMES),
        cells=cells,
        slots=draw(st.integers(min_value=1, max_value=100)),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        epoch_slots=draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=20))
        ),
        obs=draw(
            st.builds(
                ObsSpec,
                enabled=st.booleans(),
                sample_every=st.integers(min_value=1, max_value=16),
                deadline_accounting=st.booleans(),
                conformance=st.booleans(),
            )
        ),
        supervisor=draw(
            st.one_of(
                st.none(),
                st.builds(
                    SupervisorSpec,
                    barrier_timeout_s=_finite(0.1, 120.0),
                    poll_interval_s=_finite(0.001, 1.0),
                    max_restarts_per_worker=st.integers(
                        min_value=0, max_value=8
                    ),
                    backoff_base_s=_finite(0.0, 2.0),
                    backoff_factor=_finite(1.0, 4.0),
                ),
            )
        ),
        process_chaos=tuple(
            draw(process_chaos_dicts())
            for _ in range(draw(st.integers(min_value=0, max_value=2)))
        ),
    )


# -- live-mutation (SpecDelta) strategies -------------------------------------

#: Stages any single cell can legally carry with default params — the
#: vocabulary deltas draw rechains and admitted-cell chains from.
SAFE_DELTA_STAGES = ("passthrough", "prb_monitor")

#: Deterministic, parameter-complete wire faults a delta may inject.
SAFE_DELTA_FAULTS = (
    {"kind": "iid_loss", "rate": 0.2, "seed": 3},
    {"kind": "duplicate", "rate": 0.5},
    {"kind": "reorder", "rate": 0.3, "seed": 5},
)


def _delta_group(cell: dict) -> str:
    return cell.get("group") or cell["name"]


@st.composite
def delta_cell_dicts(draw, name: str) -> dict:
    """A small, always-buildable tenant cell for ``add_cell`` ops."""
    return {
        "name": name,
        "pci": draw(st.integers(min_value=100, max_value=503)),
        "bandwidth_hz": 20_000_000,
        "rus": [{"name": f"{name}-ru1"}],
        "ues": [
            {
                "ue_id": f"{name}-ue",
                "flows": [
                    {
                        "kind": "cbr",
                        "rate_mbps": draw(st.sampled_from([5, 10, 15])),
                        "direction": draw(st.sampled_from(["dl", "ul"])),
                    }
                ],
            }
        ],
        "chain": [{"stage": draw(st.sampled_from(SAFE_DELTA_STAGES))}],
    }


@st.composite
def delta_chains(draw) -> tuple:
    """A replacement chain for ``rechain``: 0..2 safe stages."""
    stages = draw(
        st.lists(st.sampled_from(SAFE_DELTA_STAGES), min_size=0, max_size=2)
    )
    return tuple({"stage": stage} for stage in stages)


@st.composite
def spec_deltas(draw, spec: ScenarioSpec, max_ops: int = 4) -> SpecDelta:
    """An incrementally-valid :class:`~repro.serve.delta.SpecDelta`.

    The strategy tracks the evolving cell population while drawing, so
    every op in the batch is legal *at its position* — a delta may admit
    a cell and immediately rechain or impair it.  Two deliberate
    restrictions keep drawn deltas applicable to any base spec:
    ``remove_cell`` only targets cells the same delta added (the base
    deployment stays intact for oracle replays), and ``inject_fault``
    only targets cells whose coupling group carries no access wire (the
    one-wire-per-group build invariant).
    """
    cells = {cell["name"]: dict(cell) for cell in spec.to_dict()["cells"]}
    added: list = []
    ops: list = []
    for index in range(draw(st.integers(min_value=1, max_value=max_ops))):
        wired_groups = {
            _delta_group(cell)
            for cell in cells.values()
            if cell.get("wire") is not None
        }
        injectable = [
            name
            for name, cell in cells.items()
            if _delta_group(cell) not in wired_groups
        ]
        clearable = [
            name
            for name, cell in cells.items()
            if cell.get("wire") is not None
        ]
        choices = ["add_cell", "rechain"]
        if added:
            choices.append("remove_cell")
        if injectable:
            choices.append("inject_fault")
        if clearable:
            choices.append("clear_fault")
        kind = draw(st.sampled_from(choices))
        if kind == "add_cell":
            name = f"delta-{index}-{draw(st.integers(0, 999))}"
            while name in cells:  # pragma: no cover - pci space is huge
                name += "x"
            cell = draw(delta_cell_dicts(name=name))
            ops.append(DeltaOp(op="add_cell", cell=cell))
            cells[name] = cell
            added.append(name)
        elif kind == "remove_cell":
            target = draw(st.sampled_from(added))
            ops.append(DeltaOp(op="remove_cell", target=target))
            del cells[target]
            added.remove(target)
        elif kind == "rechain":
            target = draw(st.sampled_from(sorted(cells)))
            chain = draw(delta_chains())
            ops.append(DeltaOp(op="rechain", target=target, chain=chain))
            cells[target]["chain"] = [dict(stage) for stage in chain]
        elif kind == "inject_fault":
            target = draw(st.sampled_from(injectable))
            fault = dict(draw(st.sampled_from(SAFE_DELTA_FAULTS)))
            ops.append(DeltaOp(op="inject_fault", target=target, fault=fault))
            cells[target]["wire"] = fault
        else:
            target = draw(st.sampled_from(clearable))
            ops.append(DeltaOp(op="clear_fault", target=target))
            cells[target]["wire"] = None
    name = draw(st.sampled_from(["", "drawn-delta"]))
    return SpecDelta(ops=tuple(ops), name=name)

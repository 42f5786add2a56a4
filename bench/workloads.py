"""The six pinned workloads: ``ScenarioSpec`` generators plus liveness checks.

Every workload is a pure function of ``(seed, quick)``: the seed reaches
the program only through the generated spec (scenario seed -> per-cell IQ
noise, per-flow Poisson arrivals).  Traffic *volume* is seed-invariant on
purpose — every UE carries a 40 Mbps CBR downlink and a 40 Mbps Poisson
uplink, enough that every TDD uplink slot holds a grant under any seed —
so a timing compared across seeds compares the same amount of work.

All cells are *live*: each chain ends in a stage that addresses a real RU
(``das``/``dmimo``/``ru_sharing``).  A monitor-only chain leaves the DU
talking to a MAC no RU owns (see README "Known issues").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.scale import ScenarioResult, ScenarioSpec
from repro.serve import DeltaOp, SpecDelta

#: The seed whose digests ``expected.json`` pins.
DEFAULT_SEED = 1

MHZ = 1_000_000


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a spec, how to drive it, and why it exists."""

    name: str
    why: str
    spec: ScenarioSpec
    #: ``None`` runs inline (``Scenario.run(workers=1)``); otherwise the
    #: ``LiveRun`` worker count.
    live_workers: Optional[int] = None
    #: Pinned control script for live workloads: ``(at_slot, delta)``.
    script: Tuple[Tuple[int, SpecDelta], ...] = ()

    @property
    def live(self) -> bool:
        return self.live_workers is not None

    def final_spec(self) -> ScenarioSpec:
        """The spec after the whole script applied (rebase semantics make
        a from-scratch run of it the oracle for the live run)."""
        spec = self.spec
        for _, delta in self.script:
            spec = delta.apply(spec)
        return spec

    def spec_sha256(self) -> str:
        return hashlib.sha256(self.spec.to_json().encode()).hexdigest()


WHY = {
    "cells8_bfp": (
        "8-cell scale topology, every cell live, BFP: every datapath layer "
        "does real work; the baseline later headlines cite"
    ),
    "cells8_modcomp": (
        "same 8 cells on modcomp: denser wire and the scaler path, so a "
        "BFP-only speedup that costs modcomp shows"
    ),
    "dl_fullsymbol": (
        "2 cells x 40 MHz, 14 symbols per slot: downlink-heavy, "
        "ran.du generation + compress is the largest share"
    ),
    "ul_das_fanout": (
        "1 cell x 40 MHz x 8 RUs behind a DAS: uplink-heavy, ran.ru build "
        "and the core.chain merge dominate; replicate x8 is the copy path"
    ),
    "deep_chain": (
        "2 cells x 20 MHz through 12 stages: per-stage dispatch dominates "
        "and codec work is minimal, so a codec change must show no change"
    ),
    "live_churn": (
        "4 cells on LiveRun(workers=2) with obs stream + conformance and a "
        "pinned add/rechain/remove script: scale, obs and serve do the work"
    ),
}

WORKLOAD_NAMES = tuple(WHY)


def _stage(stage: str, **params: Any) -> Dict[str, Any]:
    # The stage name doubles as the middlebox name, so the
    # ``middlebox_wall_ns`` label identifies the app kind.
    return {"stage": stage, "params": params, "name": stage}


def _cell(
    name: str,
    pci: int,
    seed: int,
    chain: Sequence[Dict[str, Any]],
    n_rus: int = 1,
    bandwidth_mhz: int = 20,
    **extra: Any,
) -> Dict[str, Any]:
    cell = {
        "name": name,
        "pci": pci,
        "bandwidth_hz": bandwidth_mhz * MHZ,
        "rus": [
            {
                "name": f"{name}-ru{index + 1}",
                "n_antennas": 2,
                "position": (10.0 * index, 5.0 * pci, 0, 3.0),
            }
            for index in range(n_rus)
        ],
        "ues": [
            {
                "ue_id": f"{name}-ue1",
                "flows": [
                    {"kind": "cbr", "rate_mbps": 40.0, "direction": "dl"},
                    {
                        "kind": "poisson",
                        "rate_mbps": 40.0,
                        "direction": "ul",
                        "seed": seed * 1000 + pci,
                    },
                ],
            }
        ],
        "chain": list(chain),
    }
    cell.update(extra)
    return cell


def _spec(name: str, seed: int, slots: int, cells, **extra: Any) -> ScenarioSpec:
    return ScenarioSpec.from_dict(
        {"name": name, "slots": slots, "seed": seed, "cells": cells, **extra}
    )


def _cells8(seed: int, slots: int, codec: str) -> ScenarioSpec:
    """The scale topology of ``repro.eval.scale.bench_spec`` made live:
    monitor-only cells end in a single-RU ``das``, the guard cell becomes
    ``prb_monitor`` + ``spectrum_sensor`` + ``das``, and the coupled pair
    carries uplink too."""
    chains = [
        (2, [_stage("das", partial_merge=True)]),
        (1, [_stage("prb_monitor"), _stage("das")]),
        (2, [_stage("dmimo")]),
        (1, [_stage("prb_monitor"), _stage("spectrum_sensor"), _stage("das")]),
        (1, [_stage("spectrum_sensor"), _stage("das")]),
        (1, [_stage("passthrough"), _stage("das")]),
    ]
    cells = [
        _cell(f"cell{index + 1}", index + 1, seed, chain, n_rus, codec=codec)
        for index, (n_rus, chain) in enumerate(chains)
    ]
    # The coupled pair: cell7 hosts a wide RU, cell8's DU muxes onto it.
    shared = _cell(
        "cell7", 7, seed,
        [_stage("ru_sharing", ru="cell7-ru1", cells=["cell7", "cell8"])],
        codec=codec, group="campus", center_frequency_hz=3.45e9,
    )
    shared["rus"][0].update(num_prb=160, center_frequency_hz=3.46e9)
    cells.append(shared)
    cells.append(
        _cell(
            "cell8", 8, seed, [],
            codec=codec, group="campus", center_frequency_hz=3.47e9,
        )
    )
    return _spec(f"cells8-{codec}", seed, slots, cells)


def _dl_fullsymbol(seed: int, slots: int) -> ScenarioSpec:
    cells = [
        _cell(
            f"wide{index + 1}", index + 1, seed, [_stage("das")],
            bandwidth_mhz=40, symbols_per_slot=14,
        )
        for index in range(2)
    ]
    return _spec("dl-fullsymbol", seed, slots, cells)


def _ul_das_fanout(seed: int, slots: int) -> ScenarioSpec:
    chain = [
        _stage("prb_monitor"),
        _stage("spectrum_sensor"),
        _stage("das", partial_merge=True),
    ]
    cells = [_cell("venue", 1, seed, chain, n_rus=8, bandwidth_mhz=40)]
    return _spec("ul-das-fanout", seed, slots, cells)


def _deep_chain(seed: int, slots: int) -> ScenarioSpec:
    chain = (
        [_stage("prb_monitor"), _stage("spectrum_sensor")]
        + [_stage("passthrough") for _ in range(9)]
        + [_stage("das")]
    )
    cells = [
        _cell(f"deep{index + 1}", index + 1, seed, chain) for index in range(2)
    ]
    return _spec("deep-chain", seed, slots, cells)


_LIVE_CHAIN = [_stage("prb_monitor"), _stage("das")]
#: One TDD period (DDDSU), so every epoch of the live workload is the same
#: work and a delta-free epoch's wall is one population, not two.
EPOCH_SLOTS = 5


def _live_churn(seed: int, slots: int) -> ScenarioSpec:
    cells = [
        _cell(f"live{index + 1}", index + 1, seed, _LIVE_CHAIN)
        for index in range(4)
    ]
    return _spec(
        "live-churn", seed, slots, cells,
        epoch_slots=EPOCH_SLOTS,
        obs={"enabled": True, "stream": True, "conformance": True},
    )


def _churn_script(seed: int, slots: int) -> Tuple[Tuple[int, SpecDelta], ...]:
    """One tenancy cycle at pinned slots: admit a tenant cell at 1/4 of
    the horizon, rechain it at 1/2, evict it at 3/4.  Apply latency grows
    with the slots already confirmed (the rebuilt group replays them),
    which is why the schedule is pinned.  Every delta lands on an epoch
    boundary, and a delta-free epoch precedes each one."""
    tenant = _cell("tenant", 9, seed, _LIVE_CHAIN)
    rechained = (
        _stage("prb_monitor"), _stage("spectrum_sensor"), _stage("das")
    )
    cycle = (
        SpecDelta(ops=(DeltaOp(op="add_cell", cell=tenant),), name="admit"),
        SpecDelta(
            ops=(DeltaOp(op="rechain", target="tenant", chain=rechained),),
            name="rechain",
        ),
        SpecDelta(
            ops=(DeltaOp(op="remove_cell", target="tenant"),), name="evict"
        ),
    )
    step = slots // 4 // EPOCH_SLOTS * EPOCH_SLOTS
    return tuple(
        ((1 + position) * step, delta) for position, delta in enumerate(cycle)
    )


#: (full slots, quick slots) per workload.  Horizons are short on purpose:
#: a repetition is 0.4-1.1 s on the 2-vCPU reference host, so one
#: ``--seconds`` window holds 13-30 of them and every timed position has
#: that many samples to take its noise floor from.  Slot counts are
#: multiples of the 10-slot TDD period and include the SSB (slot 0) and
#: PRACH (slot 4) occasions.
SLOTS = {
    "cells8_bfp": (20, 10),
    "cells8_modcomp": (20, 10),
    "dl_fullsymbol": (20, 10),
    "ul_das_fanout": (30, 10),
    "deep_chain": (50, 10),
    "live_churn": (40, 30),
}


_GENERATORS = {
    "cells8_bfp": lambda seed, slots: _cells8(seed, slots, "bfp"),
    "cells8_modcomp": lambda seed, slots: _cells8(seed, slots, "modcomp"),
    "dl_fullsymbol": _dl_fullsymbol,
    "ul_das_fanout": _ul_das_fanout,
    "deep_chain": _deep_chain,
    "live_churn": _live_churn,
}


def build(name: str, seed: int = DEFAULT_SEED, quick: bool = False) -> Workload:
    """The named workload for ``seed`` (``quick`` shrinks the horizon)."""
    if name not in WHY:
        raise KeyError(f"unknown workload {name!r}; have {WORKLOAD_NAMES}")
    slots = SLOTS[name][1 if quick else 0]
    spec = _GENERATORS[name](seed, slots)
    if name == "live_churn":
        return Workload(
            name, WHY[name], spec,
            live_workers=2, script=_churn_script(seed, slots),
        )
    return Workload(name, WHY[name], spec)


# -- verified traffic ---------------------------------------------------------


class DeadTraffic(AssertionError):
    """A workload whose cells do not all carry the traffic it claims."""


def packet_counts(result: ScenarioResult) -> Dict[str, int]:
    """Delivered / failed packet totals from the run's ``SlotReport``s."""
    totals = {
        "dl_packets": 0, "ul_packets": 0, "undeliverable": 0,
        "malformed": 0, "wire_dropped": 0,
    }
    for group in result.groups.values():
        for report in group.reports:
            for key in totals:
                totals[key] += report[key]
    return totals


def assert_live(spec: ScenarioSpec, result: ScenarioResult) -> None:
    """Every cell delivers downlink, every cell with a UL flow delivers
    uplink, and nothing is undeliverable or malformed.

    Downlink delivery is per coupling group (RUs of a shared group serve
    several cells), checked together with each member DU having offered
    packets; uplink delivery is per DU.
    """
    problems: List[str] = []
    for group_name, members in spec.groups().items():
        group = result.groups[group_name]
        delivered = sum(report["dl_packets"] for report in group.reports)
        if delivered <= 0:
            problems.append(f"group {group_name}: dl_delivered == 0")
        for key in ("undeliverable", "malformed"):
            count = sum(report[key] for report in group.reports)
            if count:
                problems.append(f"group {group_name}: {key} == {count}")
        for cell in members:
            counters = group.cell_counters[cell.name]["du"]
            if counters["dl_packets"] <= 0:
                problems.append(f"cell {cell.name}: no downlink offered")
            has_ul = any(
                flow.direction == "ul" for ue in cell.ues for flow in ue.flows
            )
            if has_ul and counters["ul_packets"] <= 0:
                problems.append(f"cell {cell.name}: ul_delivered == 0")
    if problems:
        raise DeadTraffic("; ".join(problems))

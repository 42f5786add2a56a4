"""The experiment kit: what every packet-level figure is made of.

Three pieces, each existing once:

- **Spec fragments** — :func:`flow`, :func:`cell` and :func:`scenario`
  build the plain-data cell/UE/flow description every
  :class:`~repro.scale.spec.ScenarioSpec` of this package is written in;
  every packet-level figure builds its deployment from one through
  :func:`repro.scale.build.build_groups`.  Seeds are explicit in the
  fragment, so a figure's RNG streams are exactly what it asks for.
- **The record** — :func:`run_recorded` runs a network and returns every
  :class:`~repro.core.actions.ActionContext` one middlebox processed:
  the per-packet record Figures 15b and 16 are computed from.
- **The run-equality contract** lives with the results it compares:
  :func:`repro.scale.run_divergence`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.core.actions import ActionContext
from repro.core.middlebox import Middlebox
from repro.scale.spec import ScenarioSpec
from repro.sim.network_sim import FronthaulNetwork

# -- spec fragments -----------------------------------------------------------


def flow(
    direction: str, rate_mbps: float, kind: str = "cbr", **fields: Any
) -> Dict[str, Any]:
    """One traffic generator (a :class:`~repro.scale.spec.FlowSpec` dict)."""
    return {
        "kind": kind, "rate_mbps": rate_mbps, "direction": direction, **fields
    }


def radios(
    count: int, seed: int, n_antennas: int = 2
) -> List[Dict[str, Any]]:
    """``count`` identical RUs sharing one explicit noise seed (each RU's
    stream still differs: the radio mixes its id into the seed)."""
    return [
        {"name": f"ru{index}", "n_antennas": n_antennas, "seed": seed}
        for index in range(count)
    ]


def cell(
    name: str,
    pci: int,
    flows: Optional[Iterable[Dict[str, Any]]] = (),
    *,
    rus: Optional[Sequence[Dict[str, Any]]] = None,
    ue: Optional[Dict[str, Any]] = None,
    chain: Iterable[Dict[str, Any]] = (),
    bandwidth_hz: int = 20_000_000,
    **fields: Any,
) -> Dict[str, Any]:
    """One cell (a :class:`~repro.scale.spec.CellSpec` dict): a DU, its
    RUs (default: one, ``<name>-ru``), one UE carrying ``flows`` and the
    cell's chain.  ``ue`` overrides the UE's id or link quality;
    ``flows=None`` leaves the cell without a UE."""
    return {
        "name": name,
        "pci": pci,
        "bandwidth_hz": bandwidth_hz,
        **fields,
        "rus": list(rus) if rus else [{"name": f"{name}-ru"}],
        "ues": [] if flows is None else [
            {"ue_id": f"{name}-ue", "flows": list(flows), **(ue or {})}
        ],
        "chain": list(chain),
    }


def scenario(
    name: str,
    slots: int,
    seed: int,
    cells: Iterable[Dict[str, Any]],
    **fields: Any,
) -> ScenarioSpec:
    """A :class:`~repro.scale.spec.ScenarioSpec` over cell fragments;
    ``fields`` are its further top-level keys."""
    return ScenarioSpec.from_dict(
        {"name": name, "slots": slots, "seed": seed, "cells": list(cells),
         **fields}
    )


# -- the record ---------------------------------------------------------------


def run_recorded(
    net: FronthaulNetwork, middlebox: Middlebox, n_slots: int
) -> List[ActionContext]:
    """Run ``net`` for ``n_slots`` and return the context of every packet
    ``middlebox`` received, oldest first.

    A box keeps no record and builds a context only when asked: for the
    run, the instance's ``process_burst`` is wrapped to ask for one per
    packet (the chain looks it up per stage call), and the wrapper is
    removed afterwards.  Raises ``RuntimeError`` unless there is one
    context per packet the box received in this run (a handler raised on
    one): a figure must never be computed from a partial record.
    """
    contexts: List[ActionContext] = []
    process_burst = middlebox.process_burst
    received = middlebox.stats.rx_packets

    def recording(packets, sizes, *isolation):
        return process_burst(packets, sizes, *isolation, contexts=contexts)

    middlebox.process_burst = recording
    try:
        net.run(n_slots)
    finally:
        del middlebox.process_burst
    received = middlebox.stats.rx_packets - received
    if len(contexts) != received:
        raise RuntimeError(
            f"{middlebox.name}: {len(contexts)} contexts recorded for "
            f"{received} packets received"
        )
    return contexts

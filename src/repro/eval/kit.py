"""The experiment kit: what every gate and packet-level figure is made of.

Four pieces, each existing once:

- **Spec fragments** — :func:`flow`, :func:`cell` and :func:`scenario`
  build the plain-data cell/UE/flow description every canonical
  :class:`~repro.scale.spec.ScenarioSpec` of this package is written in.
- **The testbed** — :func:`endpoints` turns one cell fragment into a live
  DU (UE and flows attached) and its RUs through
  :func:`repro.scale.build.build_cell`, the only DU/RU wiring site in
  ``src/``; :func:`network` puts them behind a middlebox chain.  Seeds
  are explicit in the fragment, so a site's ids, MACs and RNG streams
  are exactly what it asks for.
- **The gate ledger** — :class:`Gate` is "named checks, recorded where
  they are computed", with the one ``assert_healthy`` and the one
  check-line formatter.
- **The run-equality contract** lives with the results it compares:
  :func:`repro.scale.run_divergence`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.middlebox import Middlebox
from repro.ran.du import DistributedUnit
from repro.ran.ru import RadioUnit
from repro.scale.build import build_cell
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
    stream: Optional[Dict[str, Any]] = None,
    **fields: Any,
) -> ScenarioSpec:
    """A :class:`~repro.scale.spec.ScenarioSpec` over cell fragments.
    ``stream`` (further :class:`~repro.scale.spec.ObsSpec` fields, maybe
    none) arms the observability plane and streams it every epoch."""
    if stream is not None:
        fields["obs"] = {"enabled": True, "stream": True, **stream}
    return ScenarioSpec.from_dict(
        {"name": name, "slots": slots, "seed": seed, "cells": list(cells),
         **fields}
    )


# -- the testbed --------------------------------------------------------------


def endpoints(
    fragment: Dict[str, Any], du_id: int = 1, ru_id_base: int = 0
) -> Tuple[DistributedUnit, List[RadioUnit]]:
    """One cell fragment as live objects: its DU (UE and flows attached)
    and its RUs, ids ``ru_id_base + offset``, uplink addressed to the DU.

    The fragment carries its own ``seed`` (cell and RUs), so nothing is
    derived from the throwaway one-cell scenario it is built under.
    """
    spec = scenario(fragment["name"], 1, 0, [fragment])
    built = build_cell(spec, spec.cells[0], du_id, ru_id_base)
    return built.du, [radio for radio, _ in built.rus.values()]


def network(
    dus: Sequence[DistributedUnit],
    rus: Sequence[RadioUnit],
    middleboxes: Sequence[Middlebox],
    **options: Any,
) -> FronthaulNetwork:
    """A :class:`~repro.sim.network_sim.FronthaulNetwork` with the DUs and
    RUs attached behind the chain; ``options`` are its own keywords."""
    net = FronthaulNetwork(middleboxes=middleboxes, **options)
    for du in dus:
        net.add_du(du)
    for radio in rus:
        net.add_ru(radio)
    return net


# -- the gate ledger ----------------------------------------------------------


@dataclass
class Gate:
    """What a gate asserts: named checks, recorded where the condition
    is computed, failed together by :meth:`assert_healthy`."""

    #: name -> (passed, detail), in the order recorded.
    checks: Dict[str, Tuple[bool, str]] = field(
        default_factory=dict, init=False, repr=False
    )

    def check(self, name: str, passed: Any, detail: str = "") -> None:
        """Record one named condition; ``detail`` explains a failure."""
        self.checks[name] = (bool(passed), detail)

    def expect(self, name: str, actual: Any, expected: Any) -> None:
        """Record ``actual == expected``; a failure shows both values."""
        self.check(
            name, actual == expected, f"expected {expected!r}, got {actual!r}"
        )

    def assert_healthy(self) -> None:
        failed = [
            f"{name} ({detail})" if detail else name
            for name, (passed, detail) in self.checks.items()
            if not passed
        ]
        if failed:
            raise AssertionError(
                f"{type(self).__name__} checks failed: " + "; ".join(failed)
            )

    def check_line(self) -> str:
        return ", ".join(
            f"{name}={'ok' if passed else 'FAIL'}"
            for name, (passed, _) in sorted(self.checks.items())
        )

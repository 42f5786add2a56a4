"""The 8-cell scale topology: the canonical benchmark fixture.

:func:`bench_spec` is the scenario the sharding contract, the golden
fixtures and the delivery ledger are pinned on (``tests/scale``), and
the one ``bench/run.py --legacy-probe`` measures.
"""

from __future__ import annotations

from typing import List

from repro.eval import kit
from repro.scale import ScenarioSpec

DEFAULT_SLOTS = 40


def bench_spec(slots: int = DEFAULT_SLOTS) -> ScenarioSpec:
    """The 8-cell benchmark topology (also the golden-fixture scenario).

    Cells 1..6 are independent singleton groups with the paper's
    middleboxes spread across them; cells 7+8 form one coupled group
    ("campus"): both DUs mux onto cell 7's wide shared RU, so the pair
    must land on one shard.
    """
    chains = [
        [{"stage": "das", "params": {"partial_merge": True}}],
        [{"stage": "prb_monitor"}],
        [{"stage": "dmimo"}],
        [{"stage": "fronthaul_guard"}],
        [{"stage": "spectrum_sensor"}],
        [{"stage": "passthrough"}],
    ]
    cells: List[dict] = []
    for index, chain in enumerate(chains):
        name = f"cell{index + 1}"
        n_rus = 2 if chain[0]["stage"] in ("das", "dmimo") else 1
        cells.append(
            kit.cell(
                name, index + 1,
                [kit.flow("dl", 40.0),
                 kit.flow("ul", 10.0, "poisson", seed=index)],
                rus=[
                    {
                        "name": f"{name}-ru{r + 1}",
                        "n_antennas": 2,
                        "position": (10.0 * r, 5.0 * index, 0, 3.0),
                    }
                    for r in range(n_rus)
                ],
                ue={"ue_id": f"{name}-ue1"},
                chain=chain,
            )
        )
    # The coupled pair: cell7 hosts a wide RU, cell8's DU muxes onto it.
    shared_ru = {
        "name": "cell7-shared-ru",
        "n_antennas": 2,
        "num_prb": 160,
        "center_frequency_hz": 3.46e9,
    }
    sharing = {
        "stage": "ru_sharing",
        "params": {"ru": "cell7-shared-ru", "cells": ["cell7", "cell8"]},
    }
    cells.append(
        kit.cell(
            "cell7", 7, [kit.flow("dl", 40.0)],
            rus=[shared_ru], ue={"ue_id": "cell7-ue1"}, chain=[sharing],
            center_frequency_hz=3.45e9, group="campus",
        )
    )
    cells.append(
        kit.cell(
            "cell8", 8, [kit.flow("dl", 30.0)],
            rus=[{"name": "cell8-ru1", "n_antennas": 2}],
            ue={"ue_id": "cell8-ue1"},
            center_frequency_hz=3.47e9, group="campus",
        )
    )
    return kit.scenario("scale-bench-8cell", slots, 4, cells)

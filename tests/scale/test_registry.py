"""Stage registry: every paper app constructible by name from a spec."""

import pytest

from repro.apps.das import DasMiddlebox
from repro.apps.dmimo import DmimoMiddlebox
from repro.apps.prb_monitor import PrbMonitorMiddlebox
from repro.apps.ru_sharing import RuSharingMiddlebox
from repro.scale import ScenarioSpec, register_stage, stage_names
from repro.scale.build import build_groups
from repro.scale.registry import STAGE_REGISTRY


def _spec(chain, extra_cells=(), **cell_overrides):
    cell = {
        "name": "main",
        "pci": 1,
        "bandwidth_hz": 20_000_000,
        "rus": [{"name": "ru1", "n_antennas": 2}, {"name": "ru2", "n_antennas": 2}],
        "chain": chain,
    }
    cell.update(cell_overrides)
    return ScenarioSpec.from_dict(
        {"name": "t", "slots": 1, "cells": [cell, *extra_cells]}
    )


def test_all_four_paper_apps_register():
    for name in ("das", "dmimo", "ru_sharing", "prb_monitor"):
        assert name in stage_names()


def test_das_builds_by_name_with_cell_defaults():
    groups = _spec([{"stage": "das", "params": {"partial_merge": True}}]).build()
    (box,) = groups[0].middleboxes
    assert isinstance(box, DasMiddlebox)
    assert box.partial_merge is True


@pytest.mark.parametrize(
    "stage, knob, value",
    [
        ("prb_monitor", "thr_dl", 99),
        ("prb_monitor", "thr_ul", -1),
        ("spectrum_sensor", "noise_exponent_threshold", -4),
        ("das", "partial_merge", "false"),
        ("resilience", "silence_threshold_ns", 0),
    ],
)
def test_out_of_range_stage_params_are_rejected_at_build(stage, knob, value):
    standby = {"name": "standby", "pci": 2, "bandwidth_hz": 20_000_000,
               "group": "pair", "rus": [{"name": "standby-ru"}], "chain": []}
    spec = _spec([{"stage": stage, "params": {knob: value}}],
                 extra_cells=[standby], group="pair")
    with pytest.raises(ValueError, match=knob):
        build_groups(spec)


def test_dmimo_builds_by_name():
    groups = _spec([{"stage": "dmimo"}]).build()
    (box,) = groups[0].middleboxes
    assert isinstance(box, DmimoMiddlebox)


def test_prb_monitor_builds_by_name():
    groups = _spec([{"stage": "prb_monitor", "params": {"thr_dl": 0.5}}]).build()
    (box,) = groups[0].middleboxes
    assert isinstance(box, PrbMonitorMiddlebox)


def test_ru_sharing_builds_by_name_and_rebinds_host_ru():
    guest = {
        "name": "guest",
        "pci": 2,
        "bandwidth_hz": 20_000_000,
        "center_frequency_hz": 3.47e9,
        "group": "pair",
        "rus": [{"name": "guest-ru"}],
        "chain": [],
    }
    spec = _spec(
        [{"stage": "ru_sharing", "params": {"ru": "ru1", "cells": ["main", "guest"]}}],
        extra_cells=[guest],
        center_frequency_hz=3.45e9,
        group="pair",
        rus=[{"name": "ru1", "n_antennas": 2, "num_prb": 160,
              "center_frequency_hz": 3.46e9}],
    )
    (group,) = spec.build()
    box = group.middleboxes[0]
    assert isinstance(box, RuSharingMiddlebox)
    host_ru = group.cells[0].rus["ru1"][0]
    # The shared RU answers to the mux middlebox, not its home DU.
    assert host_ru.du_mac == box.mac


def test_stage_receives_normalized_base_kwargs():
    groups = _spec(
        [{"stage": "prb_monitor", "name": "edge-monitor"}]
    ).build()
    (box,) = groups[0].middleboxes
    assert box.name == "edge-monitor"
    assert box.stack_profile is not None
    assert box.stack_profile.name == "srsRAN"


def test_unknown_stage_name_raises_with_catalog():
    with pytest.raises(KeyError, match="unknown stage"):
        _spec([{"stage": "warp_drive"}]).build()


def test_custom_stage_registration():
    from repro.core.middlebox import Middlebox

    @register_stage("test_noop")
    def _build(stage, ctx):
        return Middlebox(**ctx.base_kwargs(stage, ctx.cell()))

    try:
        groups = _spec([{"stage": "test_noop"}]).build()
        assert type(groups[0].middleboxes[0]) is Middlebox
        with pytest.raises(ValueError, match="already registered"):
            register_stage("test_noop")(_build)
    finally:
        STAGE_REGISTRY.pop("test_noop", None)

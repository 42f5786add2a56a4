"""Declarative fault specs: names and dicts resolve through the registry."""

import pytest

from repro.faults import (
    FaultInjector,
    fault_config_from_spec,
    fault_kinds,
    injector_from_spec,
)
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import symbol_time


def packet(src, dst):
    return make_packet(
        src, dst,
        CPlaneMessage(
            direction=Direction.DOWNLINK,
            time=symbol_time(0, 0, 0, 0),
            sections=[CPlaneSection(0, 0, 50)],
        ),
    )


def test_builtin_kinds_registered():
    kinds = fault_kinds()
    for kind in ("iid_loss", "gilbert_elliott", "corrupt", "jitter",
                 "duplicate", "reorder", "truncate", "chaos"):
        assert kind in kinds


def test_string_spec_uses_defaults():
    config = fault_config_from_spec("duplicate")
    assert config.duplicate_rate > 0


def test_dict_spec_sets_params():
    config = fault_config_from_spec({"kind": "iid_loss", "rate": 0.25})
    assert config.loss_rate == 0.25


def test_unknown_kind_rejected():
    with pytest.raises(KeyError, match="unknown fault kind"):
        fault_config_from_spec("gremlins")


def test_unknown_param_rejected():
    with pytest.raises((KeyError, TypeError)):
        fault_config_from_spec({"kind": "iid_loss", "bogus": 1})


def test_injector_from_spec_seeded_and_scoped():
    injector = injector_from_spec(
        {"kind": "iid_loss", "rate": 1.0, "seed": 3,
         "scope": {"direction": "dl"}}
    )
    assert isinstance(injector, FaultInjector)
    again = injector_from_spec(
        {"kind": "iid_loss", "rate": 1.0, "seed": 3,
         "scope": {"direction": "dl"}}
    )
    src, dst = MacAddress.from_int(1), MacAddress.from_int(2)
    survivors = [len(injector.apply([packet(src, dst)])) for _ in range(8)]
    replayed = [len(again.apply([packet(src, dst)])) for _ in range(8)]
    assert survivors == replayed
    assert injector.stats.absorbed == again.stats.absorbed

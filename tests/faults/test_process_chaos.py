"""Process-level chaos specs: validation, determinism, targeting.

Also home to what the chaos-scale sweep (``benchmarks/test_chaos_scale.py``)
runs: its 6-cell topology and its seeded sweep generator.
"""

import random

import pytest

from repro.eval import kit
from repro.faults.process import (
    CHAOS_KINDS,
    ProcessChaosAgent,
    ProcessChaosSpec,
    corrupt_bulk,
)


def seeded_chaos_sweep(seed, epochs, groups):
    """A deterministic injection per failure class: seeded kill points.

    For each kind the seeded RNG picks a barrier epoch in
    ``[0, epochs)`` and a target coupling group, so a fixed seed sweeps
    the same (kind, epoch, group) points every run.
    """
    if epochs < 1:
        raise ValueError("need at least one epoch to inject into")
    if not groups:
        raise ValueError("need at least one target group")
    rng = random.Random(seed)
    return [
        ProcessChaosSpec(
            kind=kind,
            epoch=rng.randrange(epochs),
            group=rng.choice(list(groups)),
            name=f"sweep-{kind}",
        )
        for kind in CHAOS_KINDS
    ]


def chaos_scale_spec(slots=8):
    """A 6-cell topology with real coupling: one 3-cell DAS campus, one
    shared-spectrum pair, two singletons — enough groups that 4 workers
    get a meaningful placement, with the full obs plane streaming."""
    def cell(name, pci, group=None, chain=(), rus=None):
        return kit.cell(
            name, pci,
            [kit.flow("dl", 25), kit.flow("ul", 8, "poisson", seed=pci)],
            rus=rus, chain=chain, group=group,
        )

    monitor = [{"stage": "prb_monitor"}]
    cells = [
        cell(
            "campus0", 1, group="campus",
            rus=[{"name": "campus0-ru1"}, {"name": "campus0-ru2"}],
            chain=[{"stage": "das", "params": {"partial_merge": True}}],
        ),
        cell("campus1", 2, group="campus"),
        cell("campus2", 3, group="campus"),
        cell("pair0", 4, group="pair", chain=monitor),
        cell("pair1", 5, group="pair"),
        cell("solo0", 6, chain=monitor),
        cell("solo1", 7),
    ]
    return kit.scenario(
        "chaos-scale", slots, 17, cells,
        obs={"enabled": True, "stream": True, "deadline_accounting": True},
        epoch_slots=2,
    )


def test_spec_round_trip():
    spec = ProcessChaosSpec(
        kind="stall", epoch=3, group="campus", stall_s=7.5, name="nap"
    )
    assert ProcessChaosSpec.from_dict(spec.to_dict()) == spec


def test_spec_rejects_unknown_keys():
    with pytest.raises(KeyError):
        ProcessChaosSpec.from_dict(
            {"kind": "kill", "epoch": 0, "group": "g", "surprise": 1}
        )


@pytest.mark.parametrize(
    "bad",
    [
        {"kind": "meteor", "epoch": 0, "group": "g"},
        {"kind": "kill", "epoch": -1, "group": "g"},
        {"kind": "kill", "epoch": 0},  # no target
        {"kind": "kill", "epoch": 0, "group": "g", "worker": 1},  # both
        {"kind": "stall", "epoch": 0, "group": "g", "stall_s": 0.0},
    ],
)
def test_spec_validation(bad):
    with pytest.raises(ValueError):
        ProcessChaosSpec(**bad)


def test_targeting_by_group_and_worker():
    by_group = ProcessChaosSpec(kind="kill", epoch=0, group="campus")
    assert by_group.targets(0, ["campus", "solo"])
    assert not by_group.targets(0, ["solo"])
    by_worker = ProcessChaosSpec(kind="kill", epoch=0, worker=2)
    assert by_worker.targets(2, [])
    assert not by_worker.targets(1, ["anything"])


def test_agent_fires_each_injection_once():
    specs = [
        ProcessChaosSpec(kind="kill", epoch=1, group="a"),
        ProcessChaosSpec(kind="stall", epoch=1, group="b"),
    ]
    agent = ProcessChaosAgent(specs, worker=0, group_names=["a", "b"])
    first = agent.take(1)
    second = agent.take(1)
    assert {first.kind, second.kind} == {"kill", "stall"}
    assert agent.take(1) is None
    assert agent.take(0) is None


def test_disarmed_agent_keeps_only_rearm_injections():
    specs = [
        ProcessChaosSpec(kind="kill", epoch=0, group="a"),
        ProcessChaosSpec(kind="kill", epoch=1, group="a", rearm=True),
    ]
    agent = ProcessChaosAgent(specs, worker=0, group_names=["a"], armed=False)
    assert [spec.epoch for spec in agent.pending] == [1]


def test_seeded_sweep_is_deterministic_and_covers_kinds():
    groups = ["campus", "pair", "solo"]
    first = seeded_chaos_sweep(99, epochs=4, groups=groups)
    second = seeded_chaos_sweep(99, epochs=4, groups=groups)
    assert first == second
    assert [spec.kind for spec in first] == list(CHAOS_KINDS)
    assert all(0 <= spec.epoch < 4 for spec in first)
    assert all(spec.group in groups for spec in first)
    assert seeded_chaos_sweep(100, epochs=4, groups=groups) != first


def test_seeded_sweep_validates_inputs():
    with pytest.raises(ValueError):
        seeded_chaos_sweep(0, epochs=0, groups=["g"])
    with pytest.raises(ValueError):
        seeded_chaos_sweep(0, epochs=2, groups=[])


def test_corrupt_bulk_mangles_real_and_empty_bulk():
    real = [{"group": "left", "shard": 0}, {"group": "right", "shard": 0}]
    corrupted = corrupt_bulk(real)
    # One payload no plan row can own; the rest ship untouched.
    assert corrupted[0]["shard"] < 0 and corrupted[0]["group"] is None
    assert corrupted[1:] == real[1:]
    assert real[0] == {"group": "left", "shard": 0}  # input not mutated
    assert corrupt_bulk(None) == corrupted[:1]

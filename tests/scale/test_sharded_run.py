"""The sharding contract: any worker count, byte-identical results."""

import os

import pytest

from repro.eval.scale import bench_spec
from repro.scale import (
    Scenario,
    ScenarioSpec,
    WorkerPool,
    plan_shards,
    run,
    run_divergence,
)

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "bench_8cell.json"
)


def _smoke_spec(slots=3, epoch_slots=None):
    return ScenarioSpec.from_dict(
        {
            "name": "smoke",
            "slots": slots,
            "seed": 9,
            "epoch_slots": epoch_slots,
            "cells": [
                {
                    "name": "left",
                    "pci": 1,
                    "bandwidth_hz": 20_000_000,
                    "rus": [{"name": "left-ru1"}, {"name": "left-ru2"}],
                    "ues": [
                        {
                            "ue_id": "u1",
                            "flows": [
                                {"kind": "cbr", "rate_mbps": 30,
                                 "direction": "dl"}
                            ],
                        }
                    ],
                    "chain": [
                        {"stage": "das", "params": {"partial_merge": True}}
                    ],
                },
                {
                    "name": "right",
                    "pci": 2,
                    "bandwidth_hz": 20_000_000,
                    "rus": [{"name": "right-ru1"}],
                    "ues": [
                        {
                            "ue_id": "u2",
                            "flows": [
                                {"kind": "poisson", "rate_mbps": 10,
                                 "direction": "ul", "seed": 4}
                            ],
                        }
                    ],
                    "chain": [{"stage": "prb_monitor"}],
                },
            ],
        }
    )


def test_two_worker_run_matches_single_process():
    scenario = Scenario(_smoke_spec())
    single = scenario.run(workers=1)
    sharded = scenario.run(workers=2)
    assert sharded.workers == 2
    assert sharded.digest == single.digest
    assert sharded.timeline() == single.timeline()
    for name, group in single.groups.items():
        assert sharded.groups[name].digest == group.digest
        assert sharded.groups[name].reports == group.reports
        assert sharded.groups[name].cell_counters == group.cell_counters


def test_batch_barrier_does_not_change_results():
    free_run = Scenario(_smoke_spec()).run(workers=2)
    batched = Scenario(_smoke_spec(epoch_slots=1)).run(workers=2)
    assert batched.digest == free_run.digest


def test_run_accepts_dict_and_json():
    spec = _smoke_spec(slots=1)
    from_dict = run(spec.to_dict())
    from_json = run(spec.to_json())
    assert from_dict.digest == from_json.digest


def test_timeline_is_merge_order_deterministic():
    result = Scenario(_smoke_spec()).run(workers=2)
    timeline = result.timeline()
    assert timeline == sorted(timeline, key=lambda e: (e[0], e[1], e[2]))
    labels = {entry[3] for entry in timeline}
    assert "left/slot0" in labels and "right/slot2" in labels


def test_merged_metrics_match_single_process_counts():
    spec = _smoke_spec()
    obs_spec = ScenarioSpec.from_dict(
        {**spec.to_dict(), "obs": {"enabled": True}}
    )
    single = Scenario(obs_spec).run(workers=1)
    sharded = Scenario(obs_spec).run(workers=2)
    snap_single = single.metrics().snapshot()
    snap_sharded = sharded.metrics().snapshot()
    assert snap_single.keys() == snap_sharded.keys()
    # Deterministic families must merge to the exact same series; only
    # wall-clock histograms may differ between runs.
    for name in ("middlebox_packets_total", "chain_packets_total"):
        assert snap_sharded[name] == snap_single[name]


def test_worker_failure_propagates():
    spec = _smoke_spec(slots=2)
    broken = spec.to_dict()
    # An RU-sharing stage whose guest spectrum cannot fit raises in the
    # worker's build; the coordinator must surface it, not hang.
    broken["cells"][1]["chain"] = [
        {"stage": "resilience", "params": {"standby": "missing"}}
    ]
    with pytest.raises((RuntimeError, KeyError)):
        run(broken, workers=2)


def test_plan_never_splits_coupling_groups():
    data = _smoke_spec().to_dict()
    data["cells"][0]["group"] = "pair"
    data["cells"][1]["group"] = "pair"
    spec = ScenarioSpec.from_dict(data)
    plan = plan_shards(spec, workers=4)
    assert plan.workers == 1  # one atomic group -> one shard
    assert plan.touchpoints == {"pair": ["left", "right"]}


def test_epoch_slots_does_not_change_results():
    reference = Scenario(_smoke_spec(slots=5)).run(workers=2)
    for epoch_slots in (1, 2, 5):
        data = {**_smoke_spec(slots=5).to_dict(), "epoch_slots": epoch_slots}
        result = Scenario(ScenarioSpec.from_dict(data)).run(workers=2)
        assert result.digest == reference.digest
        assert result.transport["epoch_slots"] == epoch_slots


def test_epoch_slots_round_trips_json():
    data = {**_smoke_spec().to_dict(), "epoch_slots": 7}
    spec = ScenarioSpec.from_dict(data)
    rebuilt = ScenarioSpec.from_json(spec.to_json())
    assert rebuilt.epoch_slots == 7
    assert rebuilt.to_dict() == spec.to_dict()
    assert rebuilt.effective_epoch_slots() == 7
    # A retired knob is an unknown key, not a silently ignored one.
    with pytest.raises(KeyError, match="arena_bytes_per_worker"):
        ScenarioSpec.from_dict({**data, "arena_bytes_per_worker": 65536})


def test_golden_fixture_digest_identical_at_all_worker_counts():
    """The PR 4 oracle on the 8-cell bench topology: sharded executions
    at every benchmarked worker count reproduce the single-process run
    byte for byte, under the default coarse epoch."""
    scenario = Scenario.from_file(FIXTURE)
    single = scenario.run(workers=1)
    # The timeline is a derived view: slot k of group g starts k slot
    # durations in (500 us at 30 kHz), ordered by time, group, slot.
    slots = scenario.spec.slots
    closed_form = sorted(
        (k * 500_000, group, k, f"{group}/slot{k}")
        for group in scenario.spec.groups()
        for k in range(slots)
    )
    assert single.timeline() == closed_form
    assert all(g.events == g.slots == slots for g in single.groups.values())
    for workers in (2, 4, 8):
        sharded = scenario.run(workers=workers)
        assert sharded.digest == single.digest, (
            f"digest diverged at workers={workers}"
        )
        assert sharded.timeline() == closed_form
        # Coarse default epoch: the whole horizon in one barrier.
        assert sharded.transport["epochs"] == 1
        assert sharded.transport["epoch_slots"] == scenario.spec.slots


def scale_sweep(slots):
    """The scale-out sweep over the 8-cell topology: the single-process
    run, then one :class:`WorkerPool` per worker count run twice — cold
    (fork, build, run) and warm (reset, run).  Every run is asserted to
    be the single-process run, which must leave no packet undelivered.
    Returns the single-process result and the warm result per worker
    count (``benchmarks/test_scale_floor.py`` times them)."""
    spec = bench_spec(slots)
    reference = Scenario(spec).run(workers=1)
    undelivered = {
        name: ledger["undeliverable"]
        for name, ledger in reference.delivery().items()
        if ledger["undeliverable"]
    }
    assert undelivered == {}
    warm = {}
    for workers in (2, 4, 8):
        with WorkerPool(spec, workers) as pool:
            cold = pool.run()
            warm[workers] = pool.run()
        assert run_divergence(cold, reference) == [], f"{workers} cold"
        assert run_divergence(warm[workers], reference) == [], f"{workers} warm"
    return reference, warm


def test_scale_smoke_cold_and_warm_pools_are_the_single_process_run():
    scale_sweep(6)


def test_plan_is_deterministic_lpt():
    spec = Scenario(_smoke_spec()).spec
    first = plan_shards(spec, 2)
    second = plan_shards(spec, 2)
    assert first.shards == second.shards
    assert {name for shard in first.shards for name in shard} == {
        "left", "right",
    }

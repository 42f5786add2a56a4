"""SLO engine: objectives, sliding windows, edge-triggered burn alerts."""

import pytest

from repro.obs.sketch import QuantileSketch
from repro.obs.slo import (
    EpochSample,
    SloEngine,
    SloSpec,
    default_slos,
)


def miss_spec(**overrides):
    params = dict(
        name="miss-rate",
        objective="deadline_miss_rate",
        threshold=0.1,
        window_epochs=2,
    )
    params.update(overrides)
    return SloSpec(**params)


def sample(epoch, checks=10, misses=0, **extra):
    return EpochSample(
        epoch=epoch, deadline_checks=checks, deadline_misses=misses, **extra
    )


class TestSloSpec:
    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError, match="objective"):
            SloSpec(name="x", objective="availability", threshold=0.1)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("threshold", 0.0),
            ("window_epochs", 0),
            ("max_burn_rate", 0.0),
            ("min_samples", 0),
        ],
    )
    def test_rejects_out_of_range_fields(self, field, value):
        with pytest.raises(ValueError):
            miss_spec(**{field: value})

    def test_dict_round_trip(self):
        spec = miss_spec(max_burn_rate=2.0, min_samples=5)
        assert SloSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        data = miss_spec().to_dict()
        data["severity"] = "page"
        with pytest.raises(KeyError, match="unknown keys"):
            SloSpec.from_dict(data)

    def test_default_slos_cover_every_objective(self):
        objectives = {spec.objective for spec in default_slos()}
        assert objectives == {
            "deadline_miss_rate",
            "p99_slot_latency_ns",
            "conformance_violation_rate",
            "breaker_opens",
        }


class TestEdgeTriggering:
    def test_alerts_keep_the_newest(self, events_kept):
        engine = SloEngine([miss_spec(window_epochs=1)])
        edges = []
        for epoch in range(events_kept + 3):
            edges += engine.observe_epoch(
                sample(epoch, misses=5 if epoch % 2 == 0 else 0)
            )
        assert len(edges) == events_kept + 3  # one edge an epoch
        assert len(engine.alerts) == events_kept
        assert list(engine.alerts) == edges[-events_kept:]

    def test_fires_once_then_resolves_once(self):
        engine = SloEngine([miss_spec()])
        assert engine.observe_epoch(sample(0, misses=0)) == []
        burn_edges = engine.observe_epoch(sample(1, misses=5))
        assert [a.state for a in burn_edges] == ["firing"]
        # Still burning: no duplicate edge while the state holds.
        assert engine.observe_epoch(sample(2, misses=5)) == []
        assert engine.firing() == ["miss-rate"]
        # The 2-epoch window forgets the misses: one resolved edge.
        assert engine.observe_epoch(sample(3, misses=0)) == []
        resolved = engine.observe_epoch(sample(4, misses=0))
        assert [a.state for a in resolved] == ["resolved"]
        assert engine.firing() == []
        assert [a.state for a in engine.alerts] == ["firing", "resolved"]

    def test_min_samples_suppresses_startup_blips(self):
        engine = SloEngine([miss_spec(min_samples=50)])
        # 100% miss rate but only 10 underlying checks: stay quiet.
        assert engine.observe_epoch(sample(0, checks=10, misses=10)) == []
        edges = engine.observe_epoch(sample(1, checks=45, misses=45))
        assert [a.state for a in edges] == ["firing"]

    def test_burn_rate_is_value_over_threshold(self):
        engine = SloEngine([miss_spec(window_epochs=1)])
        (alert,) = engine.observe_epoch(sample(0, checks=10, misses=5))
        assert alert.value == pytest.approx(0.5)
        assert alert.burn_rate == pytest.approx(5.0)
        assert "5.00x" in alert.render()

    def test_duplicate_slo_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SloEngine([miss_spec(), miss_spec()])


class TestObjectives:
    def test_p99_latency_measured_over_merged_window_sketch(self):
        spec = SloSpec(
            name="p99",
            objective="p99_slot_latency_ns",
            threshold=1000.0,
            window_epochs=2,
        )
        engine = SloEngine([spec])
        low = QuantileSketch()
        for _ in range(50):
            low.observe(100.0)
        assert engine.observe_epoch(
            EpochSample(epoch=0, slot_sketch=low.sample())
        ) == []
        high = QuantileSketch()
        for _ in range(50):
            high.observe(5000.0)
        (alert,) = engine.observe_epoch(
            EpochSample(epoch=1, slot_sketch=high.sample())
        )
        assert alert.state == "firing"
        assert alert.value > 1000.0

    def test_conformance_rate_objective(self):
        spec = SloSpec(
            name="conf",
            objective="conformance_violation_rate",
            threshold=0.01,
            window_epochs=1,
        )
        engine = SloEngine([spec])
        assert engine.observe_epoch(
            EpochSample(epoch=0, frames_checked=100)
        ) == []
        (alert,) = engine.observe_epoch(
            EpochSample(epoch=1, frames_checked=100,
                        conformance_violations=3)
        )
        assert alert.value == pytest.approx(0.03)

    def test_breaker_opens_objective_counts_absolutely(self):
        spec = SloSpec(
            name="breaker",
            objective="breaker_opens",
            threshold=1.0,
            window_epochs=4,
        )
        engine = SloEngine([spec])
        assert engine.observe_epoch(EpochSample(epoch=0)) == []
        (alert,) = engine.observe_epoch(
            EpochSample(epoch=1, breaker_opens=1)
        )
        assert alert.state == "firing"
        assert alert.value == 1.0

    def test_unmeasurable_window_stays_silent(self):
        engine = SloEngine([miss_spec()])
        assert engine.observe_epoch(EpochSample(epoch=0)) == []
        assert engine.firing() == []


class TestBusAndStatus:
    def test_status_rows_expose_live_burn(self):
        engine = SloEngine([miss_spec(window_epochs=1)])
        engine.observe_epoch(sample(0, checks=10, misses=2))
        (row,) = engine.status()
        assert row["slo"] == "miss-rate"
        assert row["value"] == pytest.approx(0.2)
        assert row["burn_rate"] == pytest.approx(2.0)
        assert row["events"] == 10
        assert row["firing"] is True

    def test_status_before_any_epoch_is_unmeasured(self):
        engine = SloEngine([miss_spec()])
        (row,) = engine.status()
        assert row["value"] is None
        assert row["burn_rate"] is None
        assert row["firing"] is False

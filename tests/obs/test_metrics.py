"""Metrics registry: counters, gauges, histograms, labels, snapshots."""

import pytest

from repro.obs import MetricsRegistry


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("packets_total", "packets")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counters_only_go_up(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labelled_children_are_independent(self):
        family = MetricsRegistry().counter(
            "bytes_total", "bytes", labels=("port", "direction")
        )
        family.labels("du", "tx").inc(100)
        family.labels("du", "rx").inc(7)
        assert family.labels("du", "tx").value == 100
        assert family.labels("du", "rx").value == 7

    def test_labels_by_keyword(self):
        family = MetricsRegistry().counter(
            "bytes_total", labels=("port", "direction")
        )
        family.labels(direction="tx", port="du").inc()
        assert family.labels("du", "tx").value == 1

    def test_label_arity_enforced(self):
        family = MetricsRegistry().counter("x_total", labels=("port",))
        with pytest.raises(ValueError):
            family.labels("du", "extra")

    def test_unlabelled_access_on_labelled_family_rejected(self):
        family = MetricsRegistry().counter("x_total", labels=("port",))
        with pytest.raises(ValueError):
            family.inc()


class TestGauge:
    def test_set_inc(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(2)
        assert gauge.value == 12


class TestHistogram:
    def test_cumulative_buckets(self):
        hist = MetricsRegistry().histogram("ns", buckets=(100.0, 1000.0))
        for value in (50, 800, 5200):
            hist.observe(value)
        child = hist._require_default()
        assert child.count == 3
        assert child.sum == 6050
        assert child.cumulative_buckets() == [
            (100.0, 1), (1000.0, 2), (float("inf"), 3),
        ]

    def test_boundary_lands_in_its_bucket(self):
        hist = MetricsRegistry().histogram("ns", buckets=(100.0, 1000.0))
        hist.observe(100.0)  # le="100" includes the bound itself
        child = hist._require_default()
        assert child.cumulative_buckets()[0] == (100.0, 1)

    def test_mean(self):
        hist = MetricsRegistry().histogram("ns", buckets=(10.0,))
        hist.observe(2)
        hist.observe(4)
        assert hist._require_default().mean() == 3


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help", labels=("a",))
        second = registry.counter("x_total", "different help", labels=("a",))
        assert first is second

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_label_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", labels=("b",))

    def test_invalid_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("pk_total", "pk", labels=("port",)).labels("du").inc(2)
        registry.gauge("depth", "d").set(3)
        registry.histogram("ns", "h", buckets=(10.0,)).observe(4)
        snap = registry.snapshot()
        assert list(snap) == ["depth", "ns", "pk_total"]  # name-sorted
        assert snap["pk_total"]["type"] == "counter"
        assert snap["pk_total"]["labels"] == ["port"]
        assert snap["pk_total"]["series"] == {"du": 2}
        assert snap["depth"]["series"] == {"": 3}
        assert snap["ns"]["series"][""] == {
            "count": 1, "sum": 4.0, "buckets": {"10.0": 1, "inf": 1},
        }

    def test_clear(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        registry.counter("b_total")
        assert len(registry) == 2
        registry.clear()
        assert len(registry) == 0

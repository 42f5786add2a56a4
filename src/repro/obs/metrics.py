"""Metrics registry: Counters, Gauges and Histograms with label sets.

The registry is the numeric half of the fronthaul flight recorder: every
instrumented component (middleboxes, chains, the reference apps)
registers its series here, and the exposition module
(:mod:`repro.obs.exposition`) renders an atomic snapshot as Prometheus
text, JSON, or a plain-text dashboard.

Design constraints, in order:

1. **Cheap on the hot path.**  ``labels()`` resolves to a child object in
   one dict lookup; ``inc``/``observe`` are a couple of float ops.  The
   datapath only calls these behind the module-level enable switch
   (:class:`repro.obs.Observability`), so disabled runs pay nothing.
2. **Atomic snapshots.**  ``MetricsRegistry.snapshot()`` holds the
   registry lock while it copies every series, so a reader never sees a
   half-updated histogram (bucket counts that disagree with ``count``).
3. **Deterministic exposition.**  Families and label sets are rendered in
   sorted order so golden tests can pin the exact output bytes.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.sketch import (
    DEFAULT_RELATIVE_ACCURACY,
    Sketch,
    SketchMergeError,
)

LabelValues = Tuple[str, ...]


class MetricMergeError(ValueError):
    """A snapshot cannot be folded into this registry without mis-merging.

    Raised by :meth:`MetricsRegistry.merge_snapshot` when an incoming
    series is structurally incompatible with the live family — histogram
    bucket bounds that disagree, sketch accuracies that disagree, or a
    family re-registered as a different kind.  The registry is left
    exactly as it was before the offending *sample*; callers should
    treat the whole snapshot as poisoned.
    """

#: Default histogram buckets in nanoseconds: spans the ~50 ns forward
#: action up through multi-symbol deadline misses.
DEFAULT_NS_BUCKETS: Tuple[float, ...] = (
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    1_000_000.0,
)


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name {name!r}")


class Counter:
    """A monotonically increasing series (one child per label set)."""

    metric_type = "counter"

    def __init__(self, parent: "MetricFamily", label_values: LabelValues):
        self._parent = parent
        self.label_values = label_values
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def sample(self) -> float:
        return self.value


class Gauge:
    """A series that can go up and down (queue depths, occupancies)."""

    metric_type = "gauge"

    def __init__(self, parent: "MetricFamily", label_values: LabelValues):
        self._parent = parent
        self.label_values = label_values
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def sample(self) -> float:
        return self.value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; the
    implicit ``+Inf`` bucket equals ``count``.
    """

    metric_type = "histogram"

    def __init__(
        self,
        parent: "MetricFamily",
        label_values: LabelValues,
        bounds: Sequence[float],
    ):
        self._parent = parent
        self.label_values = label_values
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.bucket_counts: List[int] = [0] * len(self.bounds)
        self.count: int = 0
        self.sum: float = 0.0

    def observe(self, value: float, count: int = 1) -> None:
        """Observe ``value`` (``count`` times: one update for a burst)."""
        self.count += count
        self.sum += value * count
        index = bisect_left(self.bounds, value)
        if index < len(self.bucket_counts):
            self.bucket_counts[index] += count

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, +Inf last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def sample(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {
                str(bound): cumulative
                for bound, cumulative in self.cumulative_buckets()
            },
        }


def _merge_histogram_sample(child: "Histogram", sample: Dict[str, Any]) -> None:
    """Add one snapshot histogram sample into a live histogram child.

    Bucket-bound compatibility is validated *before* any count moves: a
    sample whose bounds are not exactly the child's — extra bounds,
    missing bounds, even all-zero buckets over different bounds — raises
    :class:`MetricMergeError` instead of silently folding counts into
    the wrong buckets.
    """
    by_bound = {
        float(key): cumulative
        for key, cumulative in sample["buckets"].items()
        if key != "inf"
    }
    sample_bounds = tuple(sorted(by_bound))
    if sample_bounds != child.bounds:
        raise MetricMergeError(
            f"histogram merge: {child._parent.name} sample bounds "
            f"{sample_bounds} do not match registered bounds "
            f"{child.bounds}"
        )
    child.count += sample["count"]
    child.sum += sample["sum"]
    previous = 0
    for position, bound in enumerate(sample_bounds):
        cumulative = by_bound[bound]
        per_bucket = cumulative - previous
        previous = cumulative
        if per_bucket:
            child.bucket_counts[position] += per_bucket


class MetricFamily:
    """One named metric: a help string, label names, and labelled children."""

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        label_names: Tuple[str, ...],
        metric_cls,
        **child_kwargs,
    ):
        _validate_name(name)
        self.registry = registry
        self.name = name
        self.help_text = help_text
        self.label_names = label_names
        self.metric_cls = metric_cls
        self.metric_type = metric_cls.metric_type
        self._child_kwargs = child_kwargs
        self._children: Dict[LabelValues, Any] = {}
        # The unlabelled family doubles as its own single child so callers
        # can write ``registry.counter("x").inc()`` without a labels() hop.
        if not label_names:
            self._default = self._make_child(())
        else:
            self._default = None

    def _make_child(self, values: LabelValues):
        child = self.metric_cls(self, values, **self._child_kwargs)
        self._children[values] = child
        return child

    def labels(self, *values: str, **kv: str):
        """Resolve (creating on first use) the child for one label set."""
        if not kv:
            # Fast path: all-string positional values hit the child dict
            # directly.  Instrumentation sites run this per packet, so the
            # str() normalization below only runs for the first resolution
            # of a label set (or for non-string values, which normalize to
            # the same child through the slow path).
            child = self._children.get(values)
            if child is not None:
                return child
        if kv:
            if values:
                raise ValueError("pass labels positionally or by name, not both")
            try:
                values = tuple(str(kv[name]) for name in self.label_names)
            except KeyError as exc:
                raise ValueError(f"missing label {exc} for {self.name}") from exc
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, got {values}"
            )
        child = self._children.get(values)
        if child is None:
            with self.registry._lock:
                child = self._children.get(values) or self._make_child(values)
        return child

    def children(self) -> Dict[LabelValues, Any]:
        return dict(self._children)

    # -- unlabelled convenience passthroughs --------------------------------

    def _require_default(self):
        if self._default is None:
            raise ValueError(
                f"{self.name} has labels {self.label_names}; use .labels()"
            )
        return self._default

    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    def set(self, value: float) -> None:
        self._require_default().set(value)

    def observe(self, value: float) -> None:
        self._require_default().observe(value)

    @property
    def value(self) -> float:
        return self._require_default().value


def declare(
    kind: str, name: str, help_text: str, labels: Sequence[str] = (), **options
):
    """Declare one metric family, once, in the module that updates it.

    ``kind`` names the :class:`MetricsRegistry` factory (``"counter"``,
    ``"gauge"``, ...).  Returns ``resolve(registry, *label_values)``,
    which registers the family on first use — never at declaration —
    and is meant to be called through
    :meth:`repro.obs.Observability.children`.
    """
    labels = tuple(labels)

    def resolve(registry: "MetricsRegistry", *values: str):
        family = getattr(registry, kind)(name, help_text, labels, **options)
        return family.labels(*values)

    return resolve


class MetricsRegistry:
    """Get-or-create metric families plus an atomic snapshot."""

    def __init__(self):
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()
        #: Replaced whenever families are dropped: a child resolved under
        #: an older token may belong to a family no longer registered
        #: (see :meth:`repro.obs.Observability.children`).
        self.epoch = object()

    def _get_or_create(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str],
        metric_cls,
        **child_kwargs,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.metric_cls is not metric_cls:
                raise ValueError(
                    f"{name} already registered as {family.metric_type}"
                )
            if family.label_names != tuple(labels):
                raise ValueError(
                    f"{name} already registered with labels {family.label_names}"
                )
            return family
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(
                    self, name, help_text, tuple(labels), metric_cls,
                    **child_kwargs,
                )
                self._families[name] = family
        return family

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._get_or_create(name, help_text, labels, Counter)

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._get_or_create(name, help_text, labels, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_NS_BUCKETS,
    ) -> MetricFamily:
        return self._get_or_create(
            name, help_text, labels, Histogram, bounds=tuple(buckets)
        )

    def sketch(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
    ) -> MetricFamily:
        """A mergeable quantile sketch family (see :mod:`repro.obs.sketch`).

        Use where a percentile must survive cross-shard merging without
        shipping raw arrays — P99 slot latency, failover-time CDFs.
        """
        return self._get_or_create(
            name, help_text, labels, Sketch,
            relative_accuracy=relative_accuracy,
        )

    def families(self) -> List[MetricFamily]:
        """All families, name-sorted (the exposition order)."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Consistent point-in-time copy of every series.

        ``{name: {"type", "help", "labels", "series": {label_tuple_key:
        sample}}}`` where counter/gauge samples are floats and histogram
        samples are ``{count, sum, buckets}`` dicts.
        """
        with self._lock:
            out: Dict[str, Dict[str, Any]] = {}
            for name in sorted(self._families):
                family = self._families[name]
                series: Dict[str, Any] = {}
                for values in sorted(family._children):
                    series[",".join(values)] = family._children[values].sample()
                out[name] = {
                    "type": family.metric_type,
                    "help": family.help_text,
                    "labels": list(family.label_names),
                    "series": series,
                }
            return out

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        """Fold a :meth:`snapshot` into this registry (cross-shard merge).

        Counters and histograms are additive: counts, sums and per-bucket
        tallies add up, so merging N worker snapshots yields the same
        series a single process would have produced.  Gauges are also
        summed — every gauge the datapath exports (queue depths, cache
        occupancy, breaker states per distinctly-labelled chain) is either
        naturally additive across disjoint shards or disjointly labelled,
        in which case the sum degenerates to the single contributing
        value.  Histogram bucket bounds are reconstructed from the
        snapshot, so a fresh registry can absorb any worker's series.
        """
        for name, family_snap in snapshot.items():
            labels = tuple(family_snap["labels"])
            kind = family_snap["type"]
            series = family_snap["series"]
            try:
                if kind == "counter":
                    family = self.counter(name, family_snap["help"], labels)
                elif kind == "gauge":
                    family = self.gauge(name, family_snap["help"], labels)
                elif kind == "histogram":
                    bounds = sorted(
                        float(key)
                        for sample in series.values()
                        for key in sample["buckets"]
                        if key != "inf"
                    )
                    family = self.histogram(
                        name, family_snap["help"], labels,
                        buckets=tuple(dict.fromkeys(bounds)),
                    )
                elif kind == "sketch":
                    accuracies = {
                        sample["accuracy"] for sample in series.values()
                    }
                    family = self.sketch(
                        name, family_snap["help"], labels,
                        relative_accuracy=(
                            next(iter(accuracies))
                            if len(accuracies) == 1
                            else DEFAULT_RELATIVE_ACCURACY
                        ),
                    )
                else:
                    raise MetricMergeError(f"unknown metric type {kind!r}")
            except ValueError as exc:
                # A family already registered as another kind / label set.
                raise MetricMergeError(str(exc)) from None
            for key, sample in series.items():
                values = tuple(key.split(",")) if key else ()
                child = family.labels(*values)
                if kind in ("counter", "gauge"):
                    child.inc(sample)
                elif kind == "histogram":
                    _merge_histogram_sample(child, sample)
                else:
                    try:
                        child.sketch.merge_sample(sample)
                    except SketchMergeError as exc:
                        raise MetricMergeError(
                            f"sketch merge: {name}: {exc}"
                        ) from None

    def clear(self) -> None:
        with self._lock:
            self._families.clear()
            self.epoch = object()

    def __len__(self) -> int:
        return len(self._families)

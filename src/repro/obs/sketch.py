"""Mergeable quantile sketches: cross-shard percentiles without raw arrays.

A :class:`QuantileSketch` is a DDSketch-style relative-error sketch
(Masson, Rim & Lee, VLDB 2019): values land in logarithmically spaced
buckets ``index = ceil(log_gamma(value))`` with
``gamma = (1 + alpha) / (1 - alpha)``, so any quantile read back from the
sketch is within a factor ``alpha`` of the true value — regardless of
how many observations were folded in or on how many shards they were
collected.  That guarantee is exactly what the streaming telemetry plane
needs: every worker keeps a small dict of bucket counts, ships it at
every epoch, and the coordinator's fold answers "cross-shard P99 slot latency
vs the 30 us budget" without a single raw latency array crossing a pipe.

Algebraic contract (pinned by Hypothesis property tests):

- ``merge`` is associative and commutative: any fold order over any
  sharding of the observations yields the *same* sketch state.
- ``quantile(q)`` is within ``relative_accuracy`` of the exact sample
  quantile for every q in [0, 1] (zero and the min/max are exact).
- ``sample()``/``from_sample`` round-trip exactly through JSON.

Only non-negative values are accepted: every series this repo sketches
(latencies, slot budgets, failover times) is a duration.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Tuple

#: Default relative accuracy: quantiles within 1% of the true value.
DEFAULT_RELATIVE_ACCURACY = 0.01

#: Values below this are counted in the exact zero bucket rather than a
#: log bucket (log of a denormal underflows long before this).
MIN_TRACKABLE = 1e-9


class SketchMergeError(ValueError):
    """Two sketches with incompatible accuracies cannot be merged."""


class QuantileSketch:
    """A mergeable relative-error quantile sketch over non-negative values."""

    __slots__ = (
        "relative_accuracy",
        "_gamma",
        "_log_gamma",
        "buckets",
        "zeros",
        "count",
        "sum",
        "min",
        "max",
    )

    def __init__(self, relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY):
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}"
            )
        self.relative_accuracy = relative_accuracy
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        #: log-bucket index -> observation count.
        self.buckets: Dict[int, int] = {}
        #: Exact count of observations below :data:`MIN_TRACKABLE`.
        self.zeros: int = 0
        self.count: int = 0
        self.sum: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf

    # -- observation ---------------------------------------------------------

    def bucket_index(self, value: float) -> int:
        """The log-bucket a (trackable) value lands in."""
        return math.ceil(math.log(value) / self._log_gamma)

    def bucket_value(self, index: int) -> float:
        """The representative midpoint of one bucket: within
        ``relative_accuracy`` of every value mapped to it."""
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def observe(self, value: float, weight: int = 1) -> None:
        if value < 0:
            raise ValueError(f"sketch values must be non-negative, got {value}")
        if weight < 1:
            raise ValueError("observation weight must be >= 1")
        if value < MIN_TRACKABLE:
            self.zeros += weight
        else:
            index = self.bucket_index(value)
            self.buckets[index] = self.buckets.get(index, 0) + weight
        self.count += weight
        self.sum += value * weight
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    # -- reads ---------------------------------------------------------------

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile (q in [0, 1]); 0.0 for an empty sketch.

        Exact at the extremes (tracked min/max), within the configured
        relative accuracy everywhere else.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = q * (self.count - 1)
        seen = self.zeros
        if rank < seen:
            return 0.0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if rank < seen:
                # Clamp into the exact envelope so p~1 never exceeds max.
                return min(max(self.bucket_value(index), self.min), self.max)
        return self.max

    def percentile(self, p: float) -> float:
        """Convenience: :meth:`quantile` taking 0-100 instead of 0-1."""
        return self.quantile(p / 100.0)

    # -- algebra -------------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold another sketch in; both must share one accuracy."""
        if other.relative_accuracy != self.relative_accuracy:
            raise SketchMergeError(
                f"cannot merge sketches of relative accuracy "
                f"{other.relative_accuracy} into {self.relative_accuracy}"
            )
        for index, bucket_count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + bucket_count
        self.zeros += other.zeros
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    # -- plain-data form -----------------------------------------------------

    def sample(self) -> Dict[str, Any]:
        """JSON-safe snapshot (the registry/stream wire form)."""
        return {
            "accuracy": self.relative_accuracy,
            "count": self.count,
            "sum": self.sum,
            "zeros": self.zeros,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {
                str(index): self.buckets[index]
                for index in sorted(self.buckets)
            },
        }

    @classmethod
    def from_sample(cls, sample: Dict[str, Any]) -> "QuantileSketch":
        sketch = cls(relative_accuracy=sample["accuracy"])
        return sketch.merge_sample(sample)

    def merge_sample(self, sample: Dict[str, Any]) -> "QuantileSketch":
        """Fold one :meth:`sample` dict in (cross-shard snapshot merge)."""
        if sample["accuracy"] != self.relative_accuracy:
            raise SketchMergeError(
                f"cannot merge sketch sample of relative accuracy "
                f"{sample['accuracy']} into {self.relative_accuracy}"
            )
        for key, bucket_count in sample["buckets"].items():
            if bucket_count:
                index = int(key)
                self.buckets[index] = self.buckets.get(index, 0) + bucket_count
        self.zeros += sample["zeros"]
        self.count += sample["count"]
        self.sum += sample["sum"]
        if sample["min"] is not None:
            self.min = min(self.min, sample["min"])
        if sample["max"] is not None:
            self.max = max(self.max, sample["max"])
        return self

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileSketch(accuracy={self.relative_accuracy}, "
            f"count={self.count}, p50={self.quantile(0.5):.1f}, "
            f"p99={self.quantile(0.99):.1f})"
        )


class Sketch:
    """The registry metric kind wrapping one labelled QuantileSketch.

    Registered next to Counter/Gauge/Histogram via
    :meth:`repro.obs.metrics.MetricsRegistry.sketch`; ``sample()`` is the
    snapshot form, which :meth:`~repro.obs.metrics.MetricsRegistry.
    merge_snapshot` folds additively like histogram buckets.
    """

    metric_type = "sketch"

    def __init__(
        self,
        parent,
        label_values: Tuple[str, ...],
    ):
        self._parent = parent
        self.label_values = label_values
        self.sketch = QuantileSketch()

    def observe(self, value: float) -> None:
        self.sketch.observe(value)

    def quantile(self, q: float) -> float:
        return self.sketch.quantile(q)

    def mean(self) -> float:
        return self.sketch.mean()

    @property
    def count(self) -> int:
        return self.sketch.count

    @property
    def sum(self) -> float:
        return self.sketch.sum

    def sample(self) -> Dict[str, Any]:
        return self.sketch.sample()


__all__ = [
    "DEFAULT_RELATIVE_ACCURACY",
    "MIN_TRACKABLE",
    "QuantileSketch",
    "Sketch",
    "SketchMergeError",
]

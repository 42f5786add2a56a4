"""Property tests: the quantile sketch's algebraic contract.

Hypothesis pins the three guarantees the streaming telemetry plane
leans on (see the :mod:`repro.obs.sketch` docstring): merge is
associative and commutative, every quantile is within the configured
relative accuracy of the exact sample quantile, and the plain-data
sample form round-trips losslessly through JSON.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.sketch import (
    DEFAULT_RELATIVE_ACCURACY,
    MIN_TRACKABLE,
    QuantileSketch,
    SketchMergeError,
)

values_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    max_size=60,
)
nonempty_values = st.lists(
    st.floats(min_value=0.0, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


def sketch_of(values, accuracy=DEFAULT_RELATIVE_ACCURACY):
    sketch = QuantileSketch(relative_accuracy=accuracy)
    for value in values:
        sketch.observe(value)
    return sketch


def discrete_state(sketch):
    """Everything float-summation order cannot perturb."""
    return (
        dict(sketch.buckets), sketch.zeros, sketch.count,
        sketch.min, sketch.max,
    )


class TestMergeAlgebra:
    @given(a=values_lists, b=values_lists)
    @settings(max_examples=80, deadline=None)
    def test_merge_is_commutative(self, a, b):
        ab = sketch_of(a).merge(sketch_of(b))
        ba = sketch_of(b).merge(sketch_of(a))
        assert discrete_state(ab) == discrete_state(ba)
        assert ab.sum == pytest.approx(ba.sum, rel=1e-12, abs=1e-9)

    @given(a=values_lists, b=values_lists, c=values_lists)
    @settings(max_examples=80, deadline=None)
    def test_merge_is_associative(self, a, b, c):
        left = sketch_of(a).merge(sketch_of(b)).merge(sketch_of(c))
        right = sketch_of(a).merge(
            sketch_of(b).merge(sketch_of(c))
        )
        assert discrete_state(left) == discrete_state(right)
        assert left.sum == pytest.approx(right.sum, rel=1e-12, abs=1e-9)

    @given(a=values_lists, b=values_lists)
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_observing_the_concatenation(self, a, b):
        merged = sketch_of(a).merge(sketch_of(b))
        direct = sketch_of(a + b)
        assert discrete_state(merged) == discrete_state(direct)

    def test_merge_rejects_mismatched_accuracy(self):
        with pytest.raises(SketchMergeError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))
        with pytest.raises(SketchMergeError):
            QuantileSketch(0.01).merge_sample(QuantileSketch(0.02).sample())


class TestQuantileAccuracy:
    @given(
        values=nonempty_values,
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_quantile_within_relative_accuracy(self, values, q):
        sketch = sketch_of(values)
        estimate = sketch.quantile(q)
        ordered = sorted(values)
        exact = ordered[math.floor(q * (len(ordered) - 1))]
        if exact < MIN_TRACKABLE:
            # Sub-trackable values live in the exact zeros bucket; the
            # estimate is either exactly 0 or clamped to the tracked min.
            assert estimate <= sketch.min + 1e-9
        else:
            alpha = sketch.relative_accuracy
            assert abs(estimate - exact) <= alpha * exact * (1 + 1e-9) + 1e-9

    @given(values=nonempty_values)
    @settings(max_examples=60, deadline=None)
    def test_extremes_are_exact(self, values):
        sketch = sketch_of(values)
        assert sketch.quantile(0.0) == min(values)
        assert sketch.quantile(1.0) == max(values)

    def test_empty_sketch_reads_zero(self):
        assert QuantileSketch().quantile(0.5) == 0.0
        assert QuantileSketch().percentile(99) == 0.0

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch().observe(-1.0)


class TestWireForms:
    @given(values=values_lists)
    @settings(max_examples=60, deadline=None)
    def test_sample_round_trips_through_json(self, values):
        sketch = sketch_of(values)
        wire = json.loads(json.dumps(sketch.sample()))
        assert QuantileSketch.from_sample(wire).sample() == sketch.sample()

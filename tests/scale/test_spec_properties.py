"""Property tests: ScenarioSpec serialization is a lossless bijection.

Hypothesis drives random scenario trees (cells, RUs, UEs, flows, chains,
wire impairments, obs settings) through ``to_dict``/``from_dict`` and
``to_json``/``from_json``, asserting exact equality — the guarantee the
sharded runner leans on when it ships per-group specs to workers.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings

from tests.conformance.generators import scenario_specs
from repro.scale.spec import ScenarioSpec


@given(spec=scenario_specs())
@settings(max_examples=60, deadline=None)
def test_dict_round_trip_is_identity(spec):
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


@given(spec=scenario_specs())
@settings(max_examples=60, deadline=None)
def test_json_round_trip_is_identity(spec):
    assert ScenarioSpec.from_json(spec.to_json()) == spec


@given(spec=scenario_specs())
@settings(max_examples=60, deadline=None)
def test_to_dict_is_pure_json(spec):
    # Whatever to_dict emits must survive a JSON encode/decode untouched
    # (no tuples-vs-lists drift, no non-string keys, no NaN).
    data = spec.to_dict()
    assert json.loads(json.dumps(data)) == json.loads(json.dumps(data))
    assert ScenarioSpec.from_dict(json.loads(json.dumps(data))) == spec


@given(spec=scenario_specs())
@settings(max_examples=30, deadline=None)
def test_unknown_top_level_key_rejected(spec):
    data = spec.to_dict()
    data["surprise"] = 1
    with pytest.raises(KeyError, match="unknown keys"):
        ScenarioSpec.from_dict(data)


@given(spec=scenario_specs())
@settings(max_examples=30, deadline=None)
def test_unknown_nested_key_rejected(spec):
    data = spec.to_dict()
    data["cells"][0]["firmware"] = "v2"
    with pytest.raises(KeyError, match="unknown keys"):
        ScenarioSpec.from_dict(data)


@given(spec=scenario_specs())
@settings(max_examples=30, deadline=None)
def test_round_trip_preserves_conformance_flag(spec):
    # The obs.conformance toggle added for the validator must ship to
    # workers like every other field.
    again = ScenarioSpec.from_dict(spec.to_dict())
    assert again.obs.conformance == spec.obs.conformance
    flipped = dataclasses.replace(
        spec, obs=dataclasses.replace(spec.obs, conformance=not spec.obs.conformance)
    )
    assert ScenarioSpec.from_dict(flipped.to_dict()).obs.conformance == (
        not spec.obs.conformance
    )

"""SpecDelta: typed validation, lossless wire form, pure application.

The delta layer is the control plane's input boundary — everything a
remote client can do to a running scenario arrives as one of these.  So
the suite pins three things hard: malformed deltas raise typed
:class:`~repro.serve.delta.DeltaError` before any state exists to
corrupt, the wire form round-trips losslessly (Hypothesis-driven, using
the same generators the oracle suite replays), and ``apply`` is a pure
function of (spec, delta).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.generators import spec_deltas
from repro.scale.spec import ScenarioSpec
from repro.serve.delta import (
    DELTA_OPS,
    DeltaError,
    DeltaOp,
    SpecDelta,
)
from tests.serve.builders import make_spec, tenant_dict


def admit(cell=None) -> SpecDelta:
    return SpecDelta(ops=(DeltaOp(op="add_cell", cell=cell or tenant_dict()),))


class TestOpValidation:
    def test_unknown_op_rejected(self):
        with pytest.raises(DeltaError, match="op must be one of"):
            DeltaOp(op="reboot", target="anchor-a")

    def test_add_cell_needs_a_named_cell_dict(self):
        with pytest.raises(DeltaError, match="cell.*spec dict"):
            DeltaOp(op="add_cell")
        with pytest.raises(DeltaError, match="name"):
            DeltaOp(op="add_cell", cell={"pci": 9})

    def test_add_cell_refuses_target(self):
        with pytest.raises(DeltaError, match="not 'target'"):
            DeltaOp(op="add_cell", cell=tenant_dict(), target="anchor-a")

    def test_targeted_ops_need_a_target(self):
        for op in ("remove_cell", "rechain", "inject_fault", "clear_fault"):
            with pytest.raises(DeltaError, match="target"):
                DeltaOp(op=op)

    def test_operand_cross_contamination_rejected(self):
        with pytest.raises(DeltaError, match="does not take a 'cell'"):
            DeltaOp(op="remove_cell", target="x", cell=tenant_dict())
        with pytest.raises(DeltaError, match="does not take a 'chain'"):
            DeltaOp(op="remove_cell", target="x", chain=())
        with pytest.raises(DeltaError, match="does not take a 'fault'"):
            DeltaOp(op="rechain", target="x", chain=(), fault={"kind": "x"})

    def test_rechain_needs_chain_inject_needs_fault(self):
        with pytest.raises(DeltaError, match="chain"):
            DeltaOp(op="rechain", target="x")
        with pytest.raises(DeltaError, match="fault"):
            DeltaOp(op="inject_fault", target="x")

    def test_unknown_keys_rejected_on_decode(self):
        with pytest.raises(DeltaError, match="unknown keys"):
            DeltaOp.from_dict({"op": "remove_cell", "target": "x", "hmm": 1})
        with pytest.raises(DeltaError, match="unknown keys"):
            SpecDelta.from_dict({"ops": [], "version": 2})

    def test_empty_delta_rejected(self):
        with pytest.raises(DeltaError, match="at least one op"):
            SpecDelta(ops=())
        with pytest.raises(DeltaError, match="'ops' list"):
            SpecDelta.from_dict({"name": "empty"})


class TestApply:
    def test_add_cell_appends_without_touching_existing(self):
        spec = make_spec()
        mutated = admit().apply(spec)
        assert [c.name for c in mutated.cells] == [
            "anchor-a", "anchor-b", "tenant",
        ]
        assert mutated.cells[:2] == spec.cells

    def test_apply_is_pure_and_deterministic(self):
        spec = make_spec()
        before = spec.to_dict()
        delta = admit()
        assert delta.apply(spec) == delta.apply(spec)
        assert spec.to_dict() == before

    def test_duplicate_admission_rejected(self):
        spec = make_spec()
        delta = SpecDelta(ops=(
            DeltaOp(op="add_cell", cell=tenant_dict()),
            DeltaOp(op="add_cell", cell=tenant_dict()),
        ))
        with pytest.raises(DeltaError, match="already exists"):
            delta.apply(spec)

    def test_remove_unknown_cell_rejected(self):
        with pytest.raises(DeltaError, match="unknown cell 'ghost'"):
            SpecDelta(ops=(DeltaOp(op="remove_cell", target="ghost"),)).apply(
                make_spec()
            )

    def test_cannot_remove_the_last_cell(self):
        spec = make_spec(cells=[tenant_dict()])
        with pytest.raises(DeltaError, match="last cell"):
            SpecDelta(
                ops=(DeltaOp(op="remove_cell", target="tenant"),)
            ).apply(spec)

    def test_rechain_checks_the_stage_registry(self):
        delta = SpecDelta(ops=(
            DeltaOp(op="rechain", target="anchor-a",
                    chain=({"stage": "warp_drive"},)),
        ))
        with pytest.raises(DeltaError, match="unknown stage 'warp_drive'"):
            delta.apply(make_spec())

    def test_inject_checks_the_fault_registry(self):
        delta = SpecDelta(ops=(
            DeltaOp(op="inject_fault", target="anchor-a",
                    fault={"kind": "emp"}),
        ))
        with pytest.raises(DeltaError, match="unknown fault kind"):
            delta.apply(make_spec())

    def test_clear_without_wire_rejected(self):
        delta = SpecDelta(
            ops=(DeltaOp(op="clear_fault", target="anchor-a"),)
        )
        with pytest.raises(DeltaError, match="no fault to clear"):
            delta.apply(make_spec())

    def test_second_wire_in_one_group_rejected(self):
        from tests.serve.builders import cell_dict

        spec = make_spec(cells=[
            cell_dict("c1", pci=1, group="campus",
                      wire={"kind": "iid_loss", "rate": 0.1, "seed": 1}),
            cell_dict("c2", pci=2, group="campus"),
        ])
        delta = SpecDelta(ops=(
            DeltaOp(op="inject_fault", target="c2",
                    fault={"kind": "duplicate", "rate": 0.5}),
        ))
        with pytest.raises(DeltaError, match="access wires"):
            delta.apply(spec)

    def test_ops_apply_in_order(self):
        """A delta may admit a cell and immediately rechain it."""
        spec = make_spec()
        delta = SpecDelta(ops=(
            DeltaOp(op="add_cell", cell=tenant_dict()),
            DeltaOp(op="rechain", target="tenant",
                    chain=({"stage": "prb_monitor"},)),
        ))
        mutated = delta.apply(spec)
        tenant = next(c for c in mutated.cells if c.name == "tenant")
        assert [s.stage for s in tenant.chain] == ["prb_monitor"]

    def test_invalid_mutated_spec_wrapped_as_delta_error(self):
        bad = tenant_dict()
        bad["rus"] = []
        with pytest.raises(DeltaError, match="mutated spec is invalid"):
            admit(bad).apply(make_spec())


# -- drawn deltas (the generators the oracle suite replays) -------------------


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_drawn_delta_wire_form_round_trips(data):
    spec = make_spec()
    delta = data.draw(spec_deltas(spec))
    assert SpecDelta.from_dict(delta.to_dict()) == delta
    assert SpecDelta.from_json(delta.to_json()) == delta


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_drawn_delta_applies_to_a_valid_spec(data):
    spec = make_spec()
    delta = data.draw(spec_deltas(spec))
    mutated = delta.apply(spec)
    # The mutated spec is a first-class spec: serializable, losslessly.
    assert ScenarioSpec.from_dict(mutated.to_dict()) == mutated
    assert all(op.op in DELTA_OPS for op in delta.ops)

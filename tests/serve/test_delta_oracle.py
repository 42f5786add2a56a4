"""The mutation oracle: live ``apply`` == from-scratch run of the spec.

Rebase semantics in one property: take a running pool, apply a *drawn*
delta at an epoch barrier, drive to the horizon — the collected digest
must be byte-identical to a batch run of the mutated spec that never
saw a mutation at all.  Hypothesis draws the deltas from the same
generators the wire-form suite uses, so every op kind (admission,
eviction, rechain, fault inject/clear) and every op *ordering* gets
replayed through the real worker-pool machinery, not a model of it —
over both transports: the in-process shard (``workers=0``, what the
from-scratch reference itself runs on) and a forked worker.

The oracle holds at *every* barrier, not only the last: after each
``advance_epoch`` the pool's ``collect()`` — digest, timeline, live
telemetry fold — is the from-scratch run of the spec the pool is on,
truncated to the slots done (:func:`~repro.scale.run_divergence`).

Each example spawns real worker processes; the horizon is kept tiny and
``max_examples`` low — digest equality over 9 slots proves exactly as
much as over 9000.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.generators import spec_deltas
from repro.scale.pool import WorkerPool
from repro.scale.runner import run_divergence, run_scenario
from repro.serve.delta import DeltaOp, SpecDelta
from tests.serve.builders import make_spec, tenant_dict

SLOTS = 9
EPOCH = 3


def advance_epoch(pool):
    """One barrier, then the every-barrier oracle: what the operator
    sees now is a from-scratch run of the current spec, this far."""
    finished = pool.advance_epoch()
    scratch = run_scenario(replace(pool.spec, slots=pool.done))
    assert run_divergence(pool.collect(), scratch) == [], (
        f"slot {pool.done}"
    )
    return finished


def mutate_mid_run(spec, delta, workers=1, mutate_after=1):
    """Drive ``spec``, apply ``delta`` after ``mutate_after`` epochs,
    finish, and return (final digest, mutation outcome)."""
    mutated = delta.apply(spec)
    pool = WorkerPool(spec, workers=workers)
    try:
        pool.begin()
        for _ in range(mutate_after):
            advance_epoch(pool)
        outcome = pool.mutate(mutated)
        while not advance_epoch(pool):
            pass
        result = pool.collect()
    finally:
        pool.close()
    return result.digest, outcome, mutated


@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_drawn_delta_digest_equals_from_scratch_run(data):
    spec = make_spec(slots=SLOTS, epoch_slots=EPOCH, obs=True)
    delta = data.draw(spec_deltas(spec, max_ops=3))
    reference = run_scenario(delta.apply(spec), workers=1)
    for workers in (0, 1):
        digest, outcome, _ = mutate_mid_run(spec, delta, workers=workers)
        assert digest == reference.digest, f"workers={workers}"
        if outcome["rebuilt"]:
            assert outcome["replayed_slots"] == EPOCH


def test_admission_oracle_across_worker_counts():
    """The same mutation lands identically at any pool width."""
    spec = make_spec(slots=SLOTS, epoch_slots=EPOCH, obs=True)
    delta = SpecDelta(ops=(
        DeltaOp(op="add_cell", cell=tenant_dict()),
        DeltaOp(op="inject_fault", target="tenant",
                fault={"kind": "duplicate", "rate": 0.5}),
    ))
    digest_0, _, _ = mutate_mid_run(spec, delta, workers=0)
    digest_1, outcome, mutated = mutate_mid_run(spec, delta, workers=1)
    digest_2, _, _ = mutate_mid_run(spec, delta, workers=2)
    reference = run_scenario(mutated, workers=1)
    assert digest_0 == reference.digest
    assert digest_1 == reference.digest
    assert digest_2 == reference.digest
    assert outcome["rebuilt"] == ["tenant"]
    assert outcome["removed"] == []


def test_eviction_nets_out_to_the_base_digest():
    """Admit then evict: the run ends byte-identical to one that never
    hosted the tenant (the fingerprint diff rebuilds nothing extra)."""
    spec = make_spec(slots=SLOTS, epoch_slots=EPOCH, obs=True)
    admit = SpecDelta(ops=(DeltaOp(op="add_cell", cell=tenant_dict()),))
    evict = SpecDelta(ops=(DeltaOp(op="remove_cell", target="tenant"),))
    pool = WorkerPool(spec, workers=2)
    try:
        pool.begin()
        advance_epoch(pool)
        with_tenant = admit.apply(spec)
        pool.mutate(with_tenant)
        advance_epoch(pool)
        assert evict.apply(with_tenant) == spec
        pool.mutate(spec)
        while not advance_epoch(pool):
            pass
        digest = pool.collect().digest
    finally:
        pool.close()
    assert digest == run_scenario(spec, workers=1).digest

"""One epoch driver: every transport, policy and drive style agrees.

``WorkerPool`` is the only coordinator; what varies is where the shard
engines live (in-process, one process, two processes), what a worker
failure means (fail-fast or supervised), and who turns the crank
(``run()`` or the incremental ``begin``/``advance_epoch``/``collect``).
None of that may show in the results.
"""

import pytest

from repro.scale import ScenarioSpec, WorkerPool, run_divergence

from tests.scale.test_supervisor import FAST_SUPERVISOR, _spec_dict


def _spec(supervised):
    return ScenarioSpec.from_dict(
        _spec_dict(supervisor=FAST_SUPERVISOR if supervised else None)
    )


@pytest.fixture(scope="module")
def reference():
    with WorkerPool(_spec(supervised=False), workers=0) as pool:
        return pool.run()


@pytest.mark.parametrize("incremental", [False, True], ids=["run", "stepped"])
@pytest.mark.parametrize(
    "supervised", [False, True], ids=["failfast", "supervised"]
)
@pytest.mark.parametrize("workers", [0, 1, 2], ids=["inproc", "1proc", "2proc"])
def test_every_driver_yields_the_same_run(
    reference, workers, supervised, incremental
):
    spec = _spec(supervised)
    with WorkerPool(spec, workers=workers) as pool:
        assert (pool.supervisor is not None) == supervised
        assert len(pool._processes) == workers
        if incremental:
            pool.begin()
            epochs = 0
            while not pool.advance_epoch():
                epochs += 1
            assert epochs + 1 == -(-spec.slots // spec.epoch_slots)
            result = pool.collect()
        else:
            result = pool.run()
    assert run_divergence(result, reference) == []
    assert result.transport["epochs"] == reference.transport["epochs"]
    assert result.recovery.get("total_restarts", 0) == 0


def test_run_divergence_names_exactly_what_differs(reference):
    """The contract itself: one perturbation, one name; none, ``[]``."""
    with WorkerPool(_spec(supervised=False), workers=2) as pool:
        outcome = pool.run()
    assert run_divergence(outcome, reference) == []

    group = next(iter(outcome.groups.values()))
    counter = next(
        family for family in group.metrics.values()
        if family["type"] == "counter" and family["series"]
    )
    series = next(iter(counter["series"]))

    def digest():
        group.digest = group.digest[::-1]

    def timeline():
        # The view is derived: what can move it is a group's slot count.
        group.slots -= 1

    def exposition():
        # The *reference* stream moves: the outcome's live fold and its
        # collect still agree with each other.
        reference.telemetry.registry.counter(
            "perturbed_total", "not in the outcome"
        ).inc()

    def live_vs_collect():
        counter["series"][series] += 1

    def ghost_groups():
        outcome.telemetry.spans_dropped["evicted"] = 1

    perturbations = (
        digest, timeline, exposition, live_vs_collect, ghost_groups
    )
    try:
        seen = []
        for perturb in perturbations:
            perturb()
            seen.append(perturb.__name__)
            assert run_divergence(outcome, reference) == seen
    finally:
        reference.telemetry.registry.unregister("perturbed_total")

"""One epoch driver: every transport, policy and drive style agrees.

``WorkerPool`` is the only coordinator; what varies is where the shard
engines live (in-process, one process, two processes), what a worker
failure means (fail-fast or supervised), and who turns the crank
(``run()`` or the incremental ``begin``/``advance_epoch``/``collect``).
None of that may show in the results.
"""

import pytest

from repro.scale import ScenarioSpec, WorkerPool

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
    assert result.digest == reference.digest
    assert result.timeline() == reference.timeline()
    assert result.telemetry.live_snapshot() == result.metrics().snapshot()
    assert result.transport["epochs"] == reference.transport["epochs"]
    assert result.recovery.get("total_restarts", 0) == 0

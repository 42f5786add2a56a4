"""Scale-out floor: the warm worker pool pays for itself, same bytes.

The 8-cell benchmark topology at its full 40-slot horizon through the
scale-out sweep of ``tests/scale/test_sharded_run.py`` (cold and warm
pools at 2, 4 and 8 workers, every run the single-process run), then the
floor: the warm 8-worker pool simulates at least 3x the single-process
cell-slots per second.

The floor only means something where the workers can run in parallel,
so it is asserted on hosts with at least 4 cpus and skipped elsewhere,
with the cpu count in the reason.  ``REPRO_SCALE_REQUIRE_FLOOR=1`` (the
multicore CI job sets it) turns that skip into a failure, so the floor
is never waved through silently.
"""

import os

import pytest

from tests.scale.test_sharded_run import scale_sweep

SLOTS = 40
SPEEDUP_FLOOR = 3.0
FLOOR_WORKERS = 8
#: Minimum schedulable cores for the speedup floor to be meaningful.
FLOOR_MIN_CPUS = 4


def test_warm_pool_meets_the_speedup_floor():
    cpus = os.cpu_count() or 1
    enforceable = cpus >= FLOOR_MIN_CPUS
    reason = (
        f"the floor cannot be enforced here: the host has {cpus} cpus, "
        f"it needs {FLOOR_MIN_CPUS}"
    )
    if os.environ.get("REPRO_SCALE_REQUIRE_FLOOR") and not enforceable:
        pytest.fail(f"REPRO_SCALE_REQUIRE_FLOOR is set but {reason}")
    reference, warm = scale_sweep(SLOTS)
    speedup = (
        warm[FLOOR_WORKERS].cell_slots_per_second
        / reference.cell_slots_per_second
    )
    print(f"\nwarm speedup at {FLOOR_WORKERS} workers: {speedup:.2f}x "
          f"({cpus} cpus)")
    if not enforceable:
        pytest.skip(reason)
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm {FLOOR_WORKERS}-worker speedup {speedup:.2f}x below the "
        f"{SPEEDUP_FLOOR:.0f}x floor"
    )

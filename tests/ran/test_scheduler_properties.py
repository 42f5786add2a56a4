"""Property-based tests of MAC scheduler invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fronthaul.cplane import Direction
from repro.ran.cell import CellConfig
from repro.ran.scheduler import MacScheduler
from repro.ran.stacks import SRSRAN

CELL = CellConfig(pci=1, bandwidth_hz=40_000_000, n_antennas=2,
                  max_dl_layers=2)


@st.composite
def workloads(draw):
    n_ues = draw(st.integers(min_value=1, max_value=6))
    queues = [
        (
            draw(st.integers(min_value=0, max_value=2_000_000)),  # dl bits
            draw(st.integers(min_value=0, max_value=500_000)),  # ul bits
        )
        for _ in range(n_ues)
    ]
    slots = draw(st.integers(min_value=1, max_value=10))
    return queues, slots


@settings(max_examples=60, deadline=None)
@given(workloads())
def test_allocations_never_overlap_and_fit_carrier(workload):
    queues, slots = workload
    scheduler = MacScheduler(CELL, SRSRAN)
    for index, (dl, ul) in enumerate(queues):
        scheduler.add_ue(f"ue{index}")
        scheduler.enqueue_dl(f"ue{index}", dl)
        scheduler.enqueue_ul(f"ue{index}", ul)
    for slot in range(slots):
        allocations = scheduler.schedule_slot(slot)
        for direction in (Direction.DOWNLINK, Direction.UPLINK):
            ranges = sorted(
                a.prb_range for a in allocations if a.direction is direction
            )
            for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
                assert e1 <= s2, "overlapping allocations"
            for start, end in ranges:
                assert 0 <= start < end <= CELL.num_prb


@settings(max_examples=60, deadline=None)
@given(workloads())
def test_bits_conservation(workload):
    """Scheduled bits never exceed what was enqueued."""
    queues, slots = workload
    scheduler = MacScheduler(CELL, SRSRAN)
    total_dl_in = total_ul_in = 0
    for index, (dl, ul) in enumerate(queues):
        scheduler.add_ue(f"ue{index}")
        scheduler.enqueue_dl(f"ue{index}", dl)
        scheduler.enqueue_ul(f"ue{index}", ul)
        total_dl_in += dl
        total_ul_in += ul
    dl_out = ul_out = 0
    for slot in range(slots):
        for allocation in scheduler.schedule_slot(slot):
            assert allocation.bits >= 0
            if allocation.direction is Direction.DOWNLINK:
                dl_out += allocation.bits
            else:
                ul_out += allocation.bits
    assert dl_out <= total_dl_in
    assert ul_out <= total_ul_in
    # Remaining queues account for the difference.
    dl_left = sum(c.dl_queue_bits for c in scheduler.ues.values())
    ul_left = sum(c.ul_queue_bits for c in scheduler.ues.values())
    assert dl_out + dl_left == total_dl_in
    assert ul_out + ul_left == total_ul_in


@settings(max_examples=40, deadline=None)
@given(workloads())
def test_mac_log_utilization_bounded(workload):
    queues, slots = workload
    scheduler = MacScheduler(CELL, SRSRAN)
    for index, (dl, ul) in enumerate(queues):
        scheduler.add_ue(f"ue{index}")
        scheduler.enqueue_dl(f"ue{index}", dl)
        scheduler.enqueue_ul(f"ue{index}", ul)
    for slot in range(slots):
        allocations = scheduler.schedule_slot(slot)
        for direction in Direction:
            used = sum(a.num_prb for a in allocations if a.direction is direction)
            assert 0 <= used <= CELL.num_prb
    for direction, count in scheduler.scheduled_slots.items():
        assert 0.0 <= scheduler.utilization_sum[direction] <= count

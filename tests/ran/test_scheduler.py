"""MAC scheduler tests."""

import pytest

from repro.fronthaul.cplane import Direction
from repro.ran.scheduler import MacScheduler
from repro.ran.stacks import SRSRAN


@pytest.fixture
def scheduler(cell_40mhz):
    return MacScheduler(cell_40mhz, SRSRAN)


class TestUeManagement:
    def test_add_registers_the_ue(self, scheduler):
        scheduler.add_ue("a")
        assert "a" in scheduler.ues

    def test_duplicate_add_rejected(self, scheduler):
        scheduler.add_ue("a")
        with pytest.raises(ValueError):
            scheduler.add_ue("a")

    def test_quality_clamped_by_profile(self, scheduler):
        context = scheduler.add_ue("a", dl_layers=2)
        scheduler.update_ue_quality("a", dl_aggregate_se=100.0, ul_se=100.0)
        assert context.dl_aggregate_se == pytest.approx(2 * SRSRAN.dl_max_se)
        assert context.ul_se == SRSRAN.ul_max_se


class TestScheduling:
    def test_no_queue_no_allocation(self, scheduler):
        scheduler.add_ue("a")
        assert scheduler.schedule_slot(0) == []

    def test_downlink_allocation_on_dl_slot(self, scheduler):
        scheduler.add_ue("a")
        scheduler.enqueue_dl("a", 50_000)
        allocations = scheduler.schedule_slot(0)  # slot 0 is D in DDDSU
        assert len(allocations) == 1
        allocation = allocations[0]
        assert allocation.direction is Direction.DOWNLINK
        assert allocation.num_prb > 0
        assert allocation.bits > 0

    def test_no_downlink_on_uplink_slot(self, scheduler):
        scheduler.add_ue("a")
        scheduler.enqueue_dl("a", 50_000)
        allocations = scheduler.schedule_slot(4)  # U slot in DDDSU
        assert all(a.direction is not Direction.DOWNLINK for a in allocations)

    def test_uplink_allocation_on_u_slot(self, scheduler):
        scheduler.add_ue("a")
        scheduler.enqueue_ul("a", 20_000)
        allocations = scheduler.schedule_slot(4)
        assert len(allocations) == 1
        assert allocations[0].direction is Direction.UPLINK

    def test_queue_drains(self, scheduler):
        scheduler.add_ue("a")
        scheduler.enqueue_dl("a", 10_000)
        scheduler.schedule_slot(0)
        assert scheduler.ues["a"].dl_queue_bits == 0

    def test_allocations_do_not_overlap(self, scheduler):
        for name in ("a", "b", "c"):
            scheduler.add_ue(name)
            scheduler.enqueue_dl(name, 80_000)
        allocations = [
            a for a in scheduler.schedule_slot(0)
            if a.direction is Direction.DOWNLINK
        ]
        ranges = sorted(a.prb_range for a in allocations)
        for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
            assert e1 <= s2

    def test_budget_capped_by_cell_size(self, scheduler):
        scheduler.add_ue("a")
        scheduler.enqueue_dl("a", 10**9)
        allocations = scheduler.schedule_slot(0)
        assert allocations[0].num_prb <= scheduler.cell.num_prb

    def test_big_queue_saturates_budget(self, scheduler):
        scheduler.add_ue("a")
        scheduler.enqueue_dl("a", 10**9)
        allocations = scheduler.schedule_slot(0)
        budget = int(scheduler.cell.num_prb * SRSRAN.scheduler_efficiency)
        assert allocations[0].num_prb == budget

    def test_round_robin_rotates_order(self, scheduler):
        for name in ("a", "b"):
            scheduler.add_ue(name)
        first_ue_per_slot = []
        for slot in range(4):
            for name in ("a", "b"):
                scheduler.enqueue_dl(name, 10**9)
            allocations = [
                a for a in scheduler.schedule_slot(slot)
                if a.direction is Direction.DOWNLINK
            ]
            if allocations:
                first_ue_per_slot.append(allocations[0].ue_id)
            # drain leftovers so next slot starts fresh
            for context in scheduler.ues.values():
                context.dl_queue_bits = 0
        assert len(set(first_ue_per_slot)) == 2

    def test_bits_never_exceed_queue(self, scheduler):
        scheduler.add_ue("a")
        scheduler.enqueue_dl("a", 777)
        allocations = scheduler.schedule_slot(0)
        assert allocations[0].bits == 777


class TestMacLog:
    def test_ground_truth_utilization(self, scheduler):
        scheduler.add_ue("a")
        for slot in range(10):
            scheduler.enqueue_dl("a", 10**9)
            scheduler.schedule_slot(slot)
            scheduler.ues["a"].dl_queue_bits = 0
        utilization = scheduler.average_utilization(Direction.DOWNLINK)
        assert utilization == pytest.approx(SRSRAN.scheduler_efficiency, abs=0.01)

    def test_idle_cell_zero_utilization(self, scheduler):
        scheduler.add_ue("a")
        for slot in range(10):
            scheduler.schedule_slot(slot)
        assert scheduler.average_utilization(Direction.DOWNLINK) == 0.0

    def test_log_has_entry_per_direction_capable_slot(self, scheduler):
        scheduler.add_ue("a")
        for slot in range(5):  # one DDDSU period
            scheduler.schedule_slot(slot)
        # 3 D slots + S (both) + U slot: 4 DL slots, 2 UL slots.
        assert scheduler.scheduled_slots == {
            Direction.DOWNLINK: 4, Direction.UPLINK: 2
        }

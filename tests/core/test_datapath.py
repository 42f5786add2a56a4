"""DPDK/XDP datapath model and latency cost model tests."""

import pytest

from repro.core.actions import ActionContext, ActionKind, PacketCache
from repro.core.datapath import (
    DpdkDatapath,
    XdpDatapath,
    cores_required,
)
from repro.core.latency import DEFAULT_COST_MODEL


def context_of(wire_bytes, *kinds_costs):
    ctx = ActionContext(PacketCache())
    ctx.wire_bytes = wire_bytes
    for kind, cost in kinds_costs:
        ctx.record(kind, cost)
    return ctx


def kernel_work(wire_bytes=1000):
    return context_of(
        wire_bytes,
        (ActionKind.ROUTE, 50.0),
        (ActionKind.HEADER_MODIFY, 60.0),
    )


def userspace_work(wire_bytes=3000):
    return context_of(
        wire_bytes,
        (ActionKind.CACHE_PUT, 180.0),
        (ActionKind.IQ_MERGE, 5000.0),
    )


class TestCostModel:
    def test_merge_cost_calibration(self):
        """Figure 15b: merges take ~4 us at 2 operands, ~6 us at 4."""
        cost = DEFAULT_COST_MODEL
        assert 3_000 < cost.merge_cost(273, 2) < 4_500
        assert 5_000 < cost.merge_cost(273, 4) < 7_000

    def test_merge_cost_monotonic(self):
        cost = DEFAULT_COST_MODEL
        values = [cost.merge_cost(273, n) for n in range(1, 7)]
        assert values == sorted(values)

    def test_merge_requires_operand(self):
        with pytest.raises(ValueError):
            DEFAULT_COST_MODEL.merge_cost(273, 0)

    def test_per_slot_das_budget_calibration(self):
        """Section 6.4.1: four 4x4 100 MHz RUs -> ~26 us per slot."""
        cost = DEFAULT_COST_MODEL
        per_slot = (
            12 * cost.cache_ns
            + 4 * cost.cache_lookup_ns
            + 4 * cost.merge_cost(273, 4)
        )
        assert 24_000 < per_slot < 28_000

    def test_misaligned_copy_pays_codec(self):
        cost = DEFAULT_COST_MODEL
        assert cost.prb_copy_cost(106, aligned=False) > (
            cost.prb_copy_cost(106, aligned=True)
            + cost.decompress_cost(106)
        )

    def test_forwarding_under_300ns(self):
        """Figure 15b: DL forwarding paths stay under 300 ns."""
        cost = DEFAULT_COST_MODEL
        das_dl_4rus = 3 * cost.replicate_ns_per_copy + 4 * cost.forward_ns
        assert das_dl_4rus < 300


class TestDpdk:
    def test_packet_time_is_trace_sum(self):
        assert DpdkDatapath().packet_time_ns(kernel_work()) == 110.0

    def test_utilization_always_full(self):
        datapath = DpdkDatapath()
        assert datapath.cpu_utilization([], 1e9) == 1.0
        assert datapath.cpu_utilization([kernel_work()], 1e9) == 1.0

    def test_requires_core(self):
        with pytest.raises(ValueError):
            DpdkDatapath().cpu_utilization([], 1e9, cores=0)


class TestXdp:
    def test_kernel_only_cheaper_than_userspace(self):
        datapath = XdpDatapath()
        assert datapath.packet_time_ns(kernel_work()) < datapath.packet_time_ns(
            userspace_work()
        )

    def test_userspace_pays_af_xdp(self):
        datapath = XdpDatapath()
        o = datapath.overheads
        time_ns = datapath.packet_time_ns(userspace_work())
        assert time_ns >= (
            o.interrupt_ns + o.af_xdp_redirect_ns + o.wakeup_syscall_ns
        )

    def test_jumbo_penalty(self):
        datapath = XdpDatapath()
        small = datapath.packet_time_ns(kernel_work(wire_bytes=1000))
        jumbo = datapath.packet_time_ns(kernel_work(wire_bytes=8000))
        assert jumbo > small

    def test_jumbo_frames_unsupported(self):
        """Section 6.4.1: the XDP build only handles smaller bandwidths —
        100 MHz frames exceed the supported size."""
        datapath = XdpDatapath()
        assert datapath.supports_frame(3_000)
        assert not datapath.supports_frame(7_700)

    def test_utilization_scales_with_traffic(self):
        datapath = XdpDatapath()
        idle = datapath.cpu_utilization([kernel_work()] * 5, 1e9)
        busy = datapath.cpu_utilization([kernel_work()] * 5000, 1e9)
        assert idle < busy <= 1.0

    def test_utilization_capped(self):
        datapath = XdpDatapath()
        assert datapath.cpu_utilization([userspace_work()] * 10**6, 1e6) == 1.0


class TestDeadlines:
    def test_cores_required_fig15a(self):
        """One core up to ~30 us; two beyond (Figure 15a)."""
        assert cores_required(26_000) == 1
        assert cores_required(31_000) == 2
        assert cores_required(65_000) == 3

    def test_zero_work_one_core(self):
        assert cores_required(0) == 1

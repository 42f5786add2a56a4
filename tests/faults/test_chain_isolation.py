"""Chain fault isolation: raising stages become drops, breakers trip."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import chain as chain_module
from repro.core import middlebox as middlebox_module
from repro.core.actions import ActionContext
from repro.core.chain import BreakerState, CircuitBreaker, MiddleboxChain
from repro.core.middlebox import Middlebox
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import Numerology, SymbolTime
from repro.obs import Observability
from tests.faults.builders import FaultyMiddlebox

SRC = MacAddress.from_int(0x71)
DST = MacAddress.from_int(0x72)


def packet(slot=0):
    time = SymbolTime.from_absolute_slot(slot, Numerology(mu=1))
    return make_packet(
        SRC, DST,
        CPlaneMessage(direction=Direction.DOWNLINK, time=time,
                      sections=[CPlaneSection(0, 0, 106)]),
    )


class Counter(Middlebox):
    app_name = "counter"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.seen = 0

    def _count(self, ctx, pkt):
        self.seen += 1
        ctx.forward(pkt)

    on_cplane = _count
    on_uplane = _count


class Scripted(Middlebox):
    """Raises on the packets its script marks ``True`` (in arrival order);
    forwards the rest."""

    app_name = "scripted"

    def __init__(self, faults, **kwargs):
        super().__init__(**kwargs)
        self.faults = iter(faults)

    def _maybe_raise(self, ctx, pkt):
        if next(self.faults, False):
            raise RuntimeError("scripted fault")
        ctx.forward(pkt)

    on_cplane = _maybe_raise
    on_uplane = _maybe_raise


def _always_consulted(middlebox, packets, sizes, chain, direction):
    """The stage loop with the breaker asked about every packet (admit
    before, record_success after), each admitted packet a one-packet
    burst of the unisolated loop — the reference for the fast path."""
    stage = middlebox.chain_stage
    breaker = chain.breakers[stage]
    out, out_sizes = [], []
    for pkt, size in zip(packets, sizes):
        if not breaker.admit():
            chain.stage_bypassed[stage] += 1
            out.append(pkt)
            out_sizes.append(size)
            continue
        try:
            emitted, emitted_sizes = type(middlebox).process_burst(
                middlebox, [pkt], [size]
            )
        except Exception as exc:  # noqa: BLE001 — mirrors the chain
            breaker.record_failure()
            chain.stage_faults[stage] += 1
            chain.fault_log.append((stage, middlebox.name, repr(exc)))
            continue
        breaker.record_success()
        out += emitted
        out_sizes += emitted_sizes
    return out, out_sizes


def _per_packet_stage(middlebox, packets, sizes, chain, direction):
    """The per-packet stage loop the burst loop replaced, kept as its
    oracle: one context and one ``wire_size`` read on each side per
    packet, the stats, counters and clock touched per packet, the sizes
    column ignored (``tests/faults/test_burst_dispatch.py``)."""
    stage = middlebox.chain_stage
    label = chain._stage_labels[stage]
    breaker = chain.breakers[stage]
    obs = chain.obs
    out = []
    for pkt in packets:
        guarded = (
            breaker.state is not BreakerState.CLOSED
            or breaker.consecutive_failures
        )
        if guarded and not breaker.admit():
            chain.stage_bypassed[stage] += 1
            if obs.enabled:
                obs.children(
                    chain_module._STAGE_BYPASSED, chain.name, label
                ).inc()
            out.append(pkt)
            continue
        try:
            ctx = _per_packet_process(middlebox, pkt)
        except Exception as exc:  # noqa: BLE001 — mirrors the chain
            breaker.record_failure()
            chain.stage_faults[stage] += 1
            chain.fault_log.append((stage, middlebox.name, repr(exc)))
            if obs.enabled:
                obs.children(
                    chain_module._STAGE_FAULTS, chain.name, label, direction
                ).inc()
            continue
        if guarded:
            breaker.record_success()
        out.extend(ctx.emissions)
    return out, [pkt.wire_size for pkt in out]


def _per_packet_process(box, pkt):
    """The per-packet ``Middlebox.process`` of the oracle loop."""
    obs = box.obs
    recording = obs.enabled
    start_ns = obs.clock() if recording else 0
    stats = box.stats
    ctx = ActionContext(box.cache, box.cost_model)
    ctx.wire_bytes = pkt.wire_size
    stats.rx_packets += 1
    stats.rx_bytes += ctx.wire_bytes
    cplane = pkt.is_cplane
    if cplane:
        box.on_cplane(ctx, pkt)
    else:
        box.on_uplane(ctx, pkt)
    ctx.traffic_class = middlebox_module._TRAFFIC_CLASSES[
        pkt.direction is Direction.DOWNLINK
    ][cplane]
    tx_bytes = sum(emitted.wire_size for emitted in ctx.emissions)
    if ctx.emissions:
        stats.tx_packets += len(ctx.emissions)
        stats.tx_bytes += tx_bytes
    else:
        stats.dropped_packets += 1
    modeled_ns = ctx.total_ns()
    stats.processing_ns_total += modeled_ns
    if recording:
        wall_ns = obs.clock() - start_ns
        name, traffic_class = box.name, ctx.traffic_class
        registry = obs.registry
        emitted = bool(ctx.emissions)
        middlebox_module._PACKETS(registry, name, traffic_class).inc()
        middlebox_module._BYTES(registry, name, "rx").inc(ctx.wire_bytes)
        if emitted:
            middlebox_module._BYTES(registry, name, "tx").inc(tx_bytes)
        else:
            middlebox_module._DROPS(registry, name).inc()
        middlebox_module._MODELED_NS(registry, name, traffic_class).observe(
            modeled_ns
        )
        middlebox_module._WALL_NS(registry, name, traffic_class).observe(
            wall_ns
        )
        if obs.should_sample():
            time = pkt.time
            obs.recorder.record((
                pkt.ecpri.eaxc.to_int(), time.frame, time.subframe,
                time.slot, time.symbol,
                "DL" if pkt.direction is Direction.DOWNLINK else "UL",
                pkt.ecpri.seq_id, name, traffic_class, modeled_ns,
                float(wall_ns), start_ns, ctx.events, len(ctx.emissions),
                not emitted, box.chain_stage,
            ))
    return ctx


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, probation_packets=2)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_probation_then_half_open_then_recovery(self):
        breaker = CircuitBreaker(failure_threshold=1, probation_packets=3)
        breaker.record_failure()
        assert [breaker.admit() for _ in range(3)] == [False] * 3
        assert breaker.admit() is True  # the half-open probe
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.recoveries == 1

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, probation_packets=1)
        breaker.record_failure()
        breaker.admit()
        breaker.admit()
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2
        assert breaker.recoveries == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(probation_packets=-1)


class TestStageIsolation:
    def test_raising_stage_is_a_counted_drop_not_a_crash(self):
        faulty = FaultyMiddlebox(fail_every=2)
        tail = Counter()
        chain = MiddleboxChain([faulty, tail], breaker_threshold=100)
        out = chain.process_downlink([packet(slot) for slot in range(6)])
        # Every second packet died at the faulty stage; the rest flowed on.
        assert len(out) == 3
        assert tail.seen == 3
        assert chain.stage_faults == [3, 0]
        assert sum(chain.stage_faults) == 3
        assert len(chain.fault_log) == 3
        stage, name, exc = chain.fault_log[0]
        assert stage == 0 and name == "faulty" and "InjectedFault" in exc

    def test_empty_chain_still_rejected(self):
        with pytest.raises(ValueError):
            MiddleboxChain([])


class TestChainBreaker:
    def test_breaker_opens_bypasses_and_recovers_exactly(self):
        faulty = FaultyMiddlebox(fail_range=(3, 6))  # packets 3,4,5 raise
        tail = Counter()
        chain = MiddleboxChain(
            [faulty, tail], breaker_threshold=3, breaker_probation=4
        )
        packets = [packet(slot % 8) for slot in range(15)]
        out = chain.process_downlink(packets)
        breaker = chain.breakers[0]
        # 2 pass, 3 fault (opens), 4 bypass, probe passes (recovery),
        # remaining 5 pass: 15 in, 3 dropped.
        assert chain.stage_faults == [3, 0]
        assert chain.stage_bypassed == [4, 0]
        assert breaker.opens == 1
        assert breaker.recoveries == 1
        assert breaker.state is BreakerState.CLOSED
        assert len(out) == 12
        # Bypassed packets really skipped the stage...
        assert faulty.seen == 15 - 4
        # ...but still reached the next one.
        assert tail.seen == 12
        assert list(chain.breaker_events) == [
            (0, "closed", "open"),
            (0, "open", "half_open"),
            (0, "half_open", "closed"),
        ]

    def test_obs_counters_match_python_truth(self):
        obs = Observability(enabled=True, sample_every=1 << 30)
        faulty = FaultyMiddlebox(fail_range=(1, 3), obs=obs)
        chain = MiddleboxChain(
            [faulty], name="c", obs=obs,
            breaker_threshold=2, breaker_probation=2,
        )
        chain.process_downlink([packet(slot % 8) for slot in range(8)])
        snapshot = obs.registry.snapshot()
        faults = snapshot["chain_stage_faults_total"]["series"]
        assert sum(faults.values()) == sum(chain.stage_faults) == 2
        bypassed = snapshot["chain_stage_bypassed_total"]["series"]
        assert sum(bypassed.values()) == sum(chain.stage_bypassed) == 2
        transitions = snapshot["chain_breaker_transitions_total"]["series"]
        assert transitions["c,0:faulty,open"] == 1
        assert transitions["c,0:faulty,closed"] == 1
        state = snapshot["chain_breaker_state"]["series"]
        assert state["c,0:faulty"] == 0  # closed again

    def test_a_success_between_fault_runs_keeps_the_breaker_closed(self):
        """threshold-1 faults, one success, threshold-1 faults: the pending
        failures must be reset even though a closed breaker is otherwise
        not consulted — and one more fault then opens it."""
        threshold = 3
        faults = [True] * (threshold - 1) + [False] + [True] * (threshold - 1)
        box = Scripted(faults + [True])
        chain = MiddleboxChain([box], breaker_threshold=threshold)
        out = chain.process_downlink([packet(slot) for slot in range(len(faults))])
        breaker = chain.breakers[0]
        assert len(out) == 1
        assert breaker.state is BreakerState.CLOSED and breaker.opens == 0
        assert breaker.consecutive_failures == threshold - 1
        assert list(chain.breaker_events) == []
        chain.process_downlink([packet()])
        assert breaker.state is BreakerState.OPEN
        assert list(chain.breaker_events) == [(0, "closed", "open")]

    def test_breaker_events_stay_bounded_under_flapping(self):
        """1,000 open/probe/close cycles keep the newest 64 transitions,
        like ``fault_log``: a flapping stage cannot grow the chain."""
        box = Scripted([True, False] * 1000)
        chain = MiddleboxChain(
            [box], breaker_threshold=1, breaker_probation=0
        )
        for _ in range(1000):
            chain.process_downlink([packet(), packet()])
        breaker = chain.breakers[0]
        assert breaker.opens == breaker.recoveries == 1000
        assert len(chain.breaker_events) == 64
        assert list(chain.breaker_events)[-3:] == [
            (0, "closed", "open"),
            (0, "open", "half_open"),
            (0, "half_open", "closed"),
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.booleans(), max_size=48),
        st.integers(1, 4),
        st.integers(0, 5),
        st.integers(1, 9),
    )
    def test_stage_loop_matches_a_breaker_consulted_every_packet(
        self, faults, threshold, probation, burst
    ):
        """Skipping admit()/record_success() on a quiet closed breaker
        changes no transition, bypass, fault or emitted packet."""
        runs = []
        for reference in (False, True):
            box = Scripted(faults)
            chain = MiddleboxChain(
                [box], breaker_threshold=threshold,
                breaker_probation=probation,
            )
            if reference:
                box.process_burst = functools.partial(_always_consulted, box)
            packets = [packet(slot % 8) for slot in range(len(faults))]
            ordinal = {id(pkt): index for index, pkt in enumerate(packets)}
            out = []
            for start in range(0, len(packets), burst):
                out += chain.process_downlink(packets[start:start + burst])
            breaker = chain.breakers[0]
            runs.append((
                [ordinal[id(pkt)] for pkt in out], chain.stage_faults,
                chain.stage_bypassed, list(chain.breaker_events), breaker.state,
                breaker.opens, breaker.recoveries,
                breaker.consecutive_failures,
            ))
        assert runs[0] == runs[1]

    def test_uplink_direction_also_isolated(self):
        faulty = FaultyMiddlebox(fail_every=1)
        chain = MiddleboxChain(
            [Counter(), faulty], breaker_threshold=100
        )
        out = chain.process_uplink([packet()])
        assert out == []
        assert chain.stage_faults == [0, 1]

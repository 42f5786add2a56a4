"""FaultInjector behaviors: determinism, loss models, scope, damage."""

import numpy as np
import pytest

from repro.faults import (
    FaultConfig,
    FaultInjector,
    FaultScope,
    GilbertElliottConfig,
)
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import Numerology, SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection

from tests.conftest import random_prb_samples

SRC = MacAddress.from_int(0x11)
DST = MacAddress.from_int(0x22)
OTHER = MacAddress.from_int(0x33)


def cplane(slot=0, src=SRC, seq=0):
    time = SymbolTime.from_absolute_slot(slot, Numerology(mu=1))
    return make_packet(
        src, DST,
        CPlaneMessage(direction=Direction.DOWNLINK, time=time,
                      sections=[CPlaneSection(0, 0, 106)]),
        seq_id=seq,
    )


def uplane(rng, slot=0, src=SRC, seq=0, n_prbs=4):
    time = SymbolTime.from_absolute_slot(slot, Numerology(mu=1), symbol=3)
    section = UPlaneSection.from_samples(0, 0, random_prb_samples(rng, n_prbs))
    return make_packet(
        src, DST,
        UPlaneMessage(direction=Direction.UPLINK, time=time,
                      sections=[section]),
        seq_id=seq,
    )


def burst(rng, n=50):
    return [uplane(rng, slot=i % 8, seq=i % 256) for i in range(n)]


class TestDeterminism:
    def test_same_seed_same_trace_and_survivors(self, rng):
        config = FaultConfig(
            loss_rate=0.2, duplicate_rate=0.1, reorder_rate=0.1,
            corrupt_rate=0.1, truncate_rate=0.05, jitter_ns=100.0,
        )
        packets = burst(rng, 80)
        runs = []
        for _ in range(2):
            injector = FaultInjector(config, seed=42)
            survivors = injector.apply([p.clone() for p in packets])
            survivors += injector.flush_held()
            runs.append((injector.trace_bytes(),
                         [s.pack() for s in survivors]))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert runs[0][0]  # something actually happened

    def test_different_seed_diverges(self, rng):
        config = FaultConfig(loss_rate=0.3)
        packets = burst(rng, 60)
        traces = set()
        for seed in (1, 2):
            injector = FaultInjector(config, seed=seed)
            injector.apply([p.clone() for p in packets])
            traces.add(injector.trace_bytes())
        assert len(traces) == 2


class TestLossModels:
    def test_iid_loss_rate_roughly_honored(self, rng):
        injector = FaultInjector(FaultConfig(loss_rate=0.2), seed=3)
        n = 500
        survivors = injector.apply(burst(rng, n))
        assert injector.stats.lost_iid == n - len(survivors)
        assert 0.1 < injector.stats.lost_iid / n < 0.3

    def test_zero_config_passes_everything_untouched(self, rng):
        injector = FaultInjector(seed=1)
        packets = burst(rng, 20)
        survivors = injector.apply(packets)
        assert survivors == packets
        stats = injector.stats
        assert stats.absorbed == stats.duplicated == stats.reordered == 0
        assert stats.corrupted_delivered == stats.truncated_delivered == 0
        assert injector.trace == []

    def test_gilbert_elliott_losses_cluster(self, rng):
        ge = GilbertElliottConfig(
            p_enter_burst=0.05, p_exit_burst=0.3, loss_burst=1.0
        )
        injector = FaultInjector(FaultConfig(burst=ge), seed=5)
        n = 400
        packets = burst(rng, n)
        lost_ordinals = []
        for ordinal, packet in enumerate(packets):
            before = injector.stats.lost_burst
            injector.apply_one(packet)
            if injector.stats.lost_burst > before:
                lost_ordinals.append(ordinal)
        assert injector.stats.lost_burst > 0
        # Bursty loss means consecutive losses are far more common than
        # i.i.d. loss at the same average rate would produce.
        consecutive = sum(
            1 for a, b in zip(lost_ordinals, lost_ordinals[1:]) if b == a + 1
        )
        assert consecutive >= len(lost_ordinals) // 3


class TestScope:
    def test_out_of_scope_packets_pass_and_consume_no_randomness(self, rng):
        scope = FaultScope(src=(SRC.to_int(),))
        config = FaultConfig(loss_rate=0.5, scope=scope)
        in_scope = burst(rng, 40)
        noise = [uplane(rng, slot=i % 8, src=OTHER) for i in range(40)]

        plain = FaultInjector(config, seed=9)
        for packet in in_scope:
            plain.apply_one(packet.clone())

        interleaved = FaultInjector(config, seed=9)
        for packet, extra in zip(in_scope, noise):
            interleaved.apply_one(extra)  # out of scope: no RNG draw
            interleaved.apply_one(packet.clone())

        assert interleaved.stats.silenced == 0
        assert plain.stats.lost_iid == interleaved.stats.lost_iid
        # The loss *pattern* is identical, not just the count.
        assert [t.split(":")[1] for t in plain.trace] == [
            t.split(":")[1] for t in interleaved.trace
        ]

    def test_direction_scope(self, rng):
        config = FaultConfig(
            loss_rate=1.0, scope=FaultScope(direction=Direction.UPLINK)
        )
        injector = FaultInjector(config, seed=1)
        assert injector.apply_one(cplane()) != []  # DL passes
        assert injector.apply_one(uplane(rng)) == []  # UL dies


class TestSilence:
    def test_window_kills_only_matching_source_and_slots(self, rng):
        injector = FaultInjector(seed=0)
        numerology = Numerology(mu=1)
        injector.silence(
            SRC,
            SymbolTime.from_absolute_slot(4, numerology).slot_key(),
            SymbolTime.from_absolute_slot(6, numerology).slot_key(),
        )
        for slot in range(8):
            for src, expect_dead in ((SRC, 4 <= slot < 6), (OTHER, False)):
                survivors = injector.apply_one(uplane(rng, slot=slot, src=src))
                assert (survivors == []) == expect_dead
        assert injector.stats.silenced == 2

    def test_open_ended_window_is_forever(self, rng):
        injector = FaultInjector(seed=0)
        numerology = Numerology(mu=1)
        injector.silence(
            SRC, SymbolTime.from_absolute_slot(2, numerology).slot_key()
        )
        alive = [
            injector.apply_one(uplane(rng, slot=slot)) != []
            for slot in range(6)
        ]
        assert alive == [True, True, False, False, False, False]


class TestDamage:
    def test_corrupted_survivors_reparse_or_die_on_the_wire(self, rng):
        injector = FaultInjector(
            FaultConfig(corrupt_rate=1.0, corrupt_bits=4), seed=11
        )
        n = 60
        survivors = injector.apply(burst(rng, n))
        stats = injector.stats
        assert stats.corrupted_delivered + stats.corrupt_dropped == n
        assert len(survivors) == stats.corrupted_delivered
        # Survivors are genuinely damaged but parseable packets.
        for packet in survivors:
            assert packet.pack()  # still serializable

    def test_corruption_never_touches_the_macs(self, rng):
        injector = FaultInjector(
            FaultConfig(corrupt_rate=1.0, corrupt_bits=8), seed=2
        )
        for packet in injector.apply(burst(rng, 40)):
            assert packet.eth.dst == DST
            assert packet.eth.src == SRC

    def test_truncation_yields_runts_or_wire_drops(self, rng):
        injector = FaultInjector(FaultConfig(truncate_rate=1.0), seed=4)
        n = 60
        survivors = injector.apply(burst(rng, n))
        stats = injector.stats
        assert stats.truncated_delivered + stats.truncate_dropped == n
        assert len(survivors) == stats.truncated_delivered


class TestDuplicationAndReorder:
    def test_duplicates_are_clones(self, rng):
        injector = FaultInjector(FaultConfig(duplicate_rate=1.0), seed=1)
        packet = uplane(rng)
        survivors = injector.apply_one(packet)
        assert len(survivors) == 2
        assert survivors[0].pack() == survivors[1].pack()
        assert survivors[1] is not packet

    def test_reordered_packets_release_one_burst_late(self, rng):
        injector = FaultInjector(FaultConfig(reorder_rate=1.0), seed=1)
        first, second = uplane(rng, slot=0), uplane(rng, slot=1)
        assert injector.apply([first]) == []
        out = injector.apply([second])
        # second is held too; first rides out with this burst.
        assert out == [first]
        assert injector.flush_held() == [second]
        assert injector.stats.reordered == 2
        assert injector.stats.delivered == 2

    def test_jitter_accumulates(self, rng):
        injector = FaultInjector(FaultConfig(jitter_ns=500.0), seed=1)
        injector.apply(burst(rng, 10))
        assert 0 < injector.stats.jitter_ns_total < 5000


class TestValidation:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(loss_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(corrupt_bits=0)
        with pytest.raises(ValueError):
            GilbertElliottConfig(p_enter_burst=-0.1)

    def test_stats_accounting_balances(self, rng):
        config = FaultConfig(
            loss_rate=0.2, duplicate_rate=0.2, reorder_rate=0.2,
            corrupt_rate=0.2, truncate_rate=0.1,
        )
        injector = FaultInjector(config, seed=8)
        n = 200
        survivors = injector.apply(burst(rng, n))
        survivors += injector.flush_held()
        stats = injector.stats
        assert stats.offered == n
        assert len(survivors) == stats.delivered
        assert stats.delivered == n - stats.absorbed + stats.duplicated


def test_obs_counters_mirror_trace(rng):
    from repro.obs import Observability

    obs = Observability(enabled=True)
    injector = FaultInjector(
        FaultConfig(loss_rate=0.5), seed=6, name="w", obs=obs
    )
    injector.apply(burst(np.random.default_rng(1), 100))
    snapshot = obs.registry.snapshot()
    series = snapshot["fault_injected_total"]["series"]
    assert series.get("w,loss.iid") == injector.stats.lost_iid
    assert injector.stats.lost_iid == len(injector.trace)

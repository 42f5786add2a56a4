"""Datapath instrumentation: middlebox, chain, sampling switch."""

import numpy as np
import pytest

from repro.apps.das import DasMiddlebox
from repro.core.chain import MiddleboxChain
from repro.core.middlebox import Middlebox
from repro.fronthaul.cplane import CPlaneMessage, CPlaneSection, Direction
from repro.fronthaul.ethernet import MacAddress
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import SymbolTime
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.obs import Observability


def packet(seq=0):
    return make_packet(
        MacAddress.from_int(1),
        MacAddress.from_int(2),
        CPlaneMessage(
            direction=Direction.DOWNLINK,
            time=SymbolTime(0, 0, 0, 0),
            sections=[CPlaneSection(0, 0, 50)],
        ),
        seq_id=seq,
    )


class Absorber(Middlebox):
    """Drops everything (no emissions)."""

    app_name = "absorber"

    def on_cplane(self, ctx, pkt):
        pass

    on_uplane = on_cplane


class TestSamplingSwitch:
    def test_every_packet_sampled_by_default(self):
        obs = Observability(enabled=True)
        assert [obs.should_sample() for _ in range(4)] == [True] * 4

    def test_decimation(self):
        obs = Observability(enabled=True, sample_every=4)
        decisions = [obs.should_sample() for _ in range(8)]
        assert decisions.count(True) == 2

    def test_sample_every_validated(self):
        with pytest.raises(ValueError):
            Observability(sample_every=0)

    def test_reset_drops_everything(self):
        obs = Observability(enabled=True)
        box = Middlebox(obs=obs)
        box.process(packet())
        obs.reset()
        assert obs.registry.snapshot() == {}
        assert len(obs.recorder) == 0
        # ... and nothing stale survives it: the next packet is exported.
        box.process(packet())
        assert _series(obs, "middlebox_packets_total") == {
            "passthrough,DL C-Plane": 1
        }


def _series(obs, family):
    return obs.registry.snapshot().get(family, {}).get("series", {})


class TestChildrenOutliveNoFamily:
    """Cached metric children are dropped with the family they belong to
    (reset / clear / a swapped registry), so the datapath
    keeps exporting afterwards instead of counting into the void."""

    @pytest.mark.parametrize(
        "drop",
        [
            lambda obs: obs.reset(),
            lambda obs: obs.registry.clear(),
            lambda obs: setattr(obs, "registry", type(obs.registry)()),
        ],
        ids=["reset", "clear", "swap"],
    )
    def test_middlebox_counts_after_families_dropped(self, drop):
        obs = Observability(enabled=True)
        box = Middlebox(obs=obs)
        box.process(packet())
        drop(obs)
        box.process(packet())
        box.process(packet())
        assert _series(obs, "middlebox_packets_total") == {
            "passthrough,DL C-Plane": 2
        }

    def test_das_merge_counts_after_reset(self):
        obs = Observability(enabled=True)
        du_mac, ru_mac = MacAddress.from_int(1), MacAddress.from_int(2)
        das = DasMiddlebox(du_mac=du_mac, ru_macs=[ru_mac], obs=obs)

        def uplink(symbol):
            section = UPlaneSection.from_samples(
                0, 0, np.zeros((4, 24), dtype=np.int16)
            )
            return make_packet(
                ru_mac, du_mac,
                UPlaneMessage(
                    direction=Direction.UPLINK,
                    time=SymbolTime(0, 0, 0, symbol),
                    sections=[section],
                ),
                seq_id=symbol,
            )

        das.process(uplink(0))
        assert _series(obs, "das_merged_symbols_total") == {"das": 1}
        obs.reset()
        das.process(uplink(1))
        assert _series(obs, "das_merged_symbols_total") == {"das": 1}


class TestMiddleboxInstrumentation:
    def test_disabled_obs_writes_nothing(self):
        obs = Observability(enabled=False)
        box = Middlebox(obs=obs)
        box.process(packet())
        assert obs.registry.snapshot() == {}
        assert len(obs.recorder) == 0
        # Plain stats counters still work without observability.
        assert box.stats.rx_packets == 1 and box.stats.tx_packets == 1

    def test_account_rx_counts_wire_bytes(self):
        box = Middlebox()
        frame = packet()
        assert box.process(frame).wire_bytes == frame.wire_size
        assert box.stats.rx_packets == 1
        assert box.stats.rx_bytes == frame.wire_size

    def test_enabled_obs_counts_packets_and_bytes(self):
        obs = Observability(enabled=True)
        box = Middlebox(name="wire", obs=obs)
        frame = packet()
        box.process(frame)
        snap = obs.registry.snapshot()
        assert snap["middlebox_packets_total"]["series"][
            "wire,DL C-Plane"
        ] == 1
        assert snap["middlebox_bytes_total"]["series"][
            "wire,rx"
        ] == frame.wire_size
        assert snap["middlebox_bytes_total"]["series"][
            "wire,tx"
        ] == frame.wire_size
        assert snap["middlebox_modeled_ns"]["series"][
            "wire,DL C-Plane"
        ]["count"] == 1
        assert len(obs.recorder) == 1

    def test_drops_counted(self):
        obs = Observability(enabled=True)
        box = Absorber(obs=obs)
        box.process(packet())
        snap = obs.registry.snapshot()
        assert snap["middlebox_drops_total"]["series"]["absorber"] == 1
        assert "absorber,tx" not in snap["middlebox_bytes_total"]["series"]
        span = obs.recorder.spans()[0]
        assert span.dropped and span.emitted == 0

    def test_span_sampling_decimates_recorder_not_metrics(self):
        obs = Observability(enabled=True, sample_every=4)
        box = Middlebox(name="wire", obs=obs)
        for seq in range(8):
            box.process(packet(seq))
        snap = obs.registry.snapshot()
        assert snap["middlebox_packets_total"]["series"][
            "wire,DL C-Plane"
        ] == 8
        assert len(obs.recorder) == 2


class TestChainInstrumentation:
    def test_stage_metrics_per_direction(self):
        obs = Observability(enabled=True)
        chain = MiddleboxChain(
            [Middlebox(name="a"), Middlebox(name="b")],
            name="duo", obs=obs,
        )
        chain.process_downlink([packet(0), packet(1)])
        chain.process_uplink([packet(2)])
        snap = obs.registry.snapshot()
        assert snap["chain_packets_total"]["series"]["duo,DL"] == 2
        assert snap["chain_packets_total"]["series"]["duo,UL"] == 1
        stages = snap["chain_stage_burst_ns"]["series"]
        assert stages["duo,0:a,DL"]["count"] == 1
        assert stages["duo,1:b,UL"]["count"] == 1
        # Cumulative latency through stage 2 >= latency of stage 2 alone.
        cumulative = snap["chain_cumulative_burst_ns"]["series"]
        assert cumulative["duo,1:b,DL"]["sum"] >= stages["duo,1:b,DL"]["sum"]

    def test_chain_stages_assigned(self):
        boxes = [Middlebox(name="a"), Middlebox(name="b")]
        MiddleboxChain(boxes)
        assert [box.chain_stage for box in boxes] == [0, 1]

    def test_disabled_chain_is_silent(self):
        obs = Observability(enabled=False)
        chain = MiddleboxChain([Middlebox()], obs=obs)
        out = chain.process_downlink([packet()])
        assert len(out) == 1
        assert obs.registry.snapshot() == {}

"""Time-translation invariance: a run started at slot 5,080 is the run
started at 0.

Everything a middlebox knows about time is the stamp and the 8-bit
``seq_id`` on the packets it sees, and the network owns the one slot
counter — so replacing that counter with one born at ``S`` must change
nothing but the stamps.  ``S`` = 5,080 is a whole number of frames (254),
TDD periods and 40-slot SSB/PRACH periods, 40 slots short of the 8-bit
frame wrap at slot 5,120: the 300-slot window crosses the wrap, and
every stream's ``seq_id`` wraps inside its chain at least twice.  What
this does *not* see is state left over from 256 frames earlier (PR 20's
bug) — that needs the 5,400-slot ``benchmarks/test_long_horizon.py``.

The four apps each run in their own coupling group (the shared-RU pair
of the long-horizon benchmark, a DAS behind the PRB monitor, a dMIMO
cell, a guarded DAS): cells are coupled only where a stage couples them.
"""

import dataclasses
import hashlib
from collections import defaultdict

import pytest

from repro.eval import kit
from repro.fronthaul.ecpri import ECPRI_HEADER_SIZE
from repro.fronthaul.timing import MAX_FRAME_ID, SlotClock

START = 5_080
SLOTS = 300
#: The offset at which every per-slot holder is sized in both runs.
SIZED_AT = 295
#: Every DAS's own source MAC (``DasMiddlebox``'s default).
DAS_MAC = 0x02_00_00_00_30_01


def _flows(pci):
    return [kit.flow("dl", 40.0),
            kit.flow("ul", 40.0, "poisson", seed=1000 + pci)]


def _stage(kind, name=None, **params):
    return {"stage": kind, "params": params, "name": name or kind}


def _radios(cell, count=2):
    return [{"name": f"{cell}-ru{i}", "n_antennas": 2} for i in range(count)]


def _campus_pair():
    """cell7 hosts a wide RU, cell8's DU muxes onto it — the pair of
    ``benchmarks/test_long_horizon.py`` and ``bench/workloads.py``."""
    host = kit.cell(
        "cell7", 7, _flows(7), rus=_radios("cell7", 1), group="campus",
        center_frequency_hz=3.45e9,
        chain=[_stage("ru_sharing", ru="cell7-ru0", cells=["cell7", "cell8"])],
    )
    host["rus"][0].update(num_prb=160, center_frequency_hz=3.46e9)
    guest = kit.cell(
        "cell8", 8, _flows(8), rus=_radios("cell8", 1), group="campus",
        center_frequency_hz=3.47e9,
    )
    return [host, guest]


def _spec():
    return kit.scenario(
        "translation", SLOTS, 1,
        _campus_pair() + [
            kit.cell(
                "das", 1, _flows(1), rus=_radios("das"), deadline_flush=True,
                chain=[_stage("prb_monitor"),
                       _stage("das", partial_merge=True)],
            ),
            kit.cell(
                "dmimo", 2, _flows(2), rus=_radios("dmimo"),
                chain=[_stage("dmimo")],
            ),
            kit.cell(
                "guarded", 3, _flows(3), rus=_radios("guarded"),
                chain=[_stage("fronthaul_guard"),
                       _stage("das", name="guarded-das")],
            ),
        ],
        obs={"conformance": True},
    )


class _ChainProbe:
    """Records what enters and leaves one network's chain, per slot
    offset, by replacing the two burst methods on the chain *instance*
    (the way ``bench/trace.py`` does)."""

    def __init__(self, network, start):
        self.offset = 0
        self._frame0 = start // network.clock.numerology.slots_per_frame
        #: (offset, lane) -> [(eaxc, symbol, frames since start, digest)]
        self.egress = defaultdict(list)
        #: (lane, source MAC, eaxc) -> seq_ids in emission order
        self.seqs = defaultdict(list)
        #: frames stamped on chain egress, in order of first appearance
        self.frames = []
        chain = network.chain
        for attr, lane in (("process_downlink", "dl"), ("process_uplink", "ul")):
            setattr(chain, attr, self._wrap(getattr(chain, attr), lane))

    def _wrap(self, inner, lane):
        def burst(packets, **kwargs):
            if "source" not in kwargs:  # a deadline flush re-enters mid-chain
                self._emitted(f"{lane}-in", packets)
            out = inner(packets, **kwargs)
            self._emitted(f"{lane}-out", out)
            for packet in out:
                self._delivered(lane, packet)
            return out

        return burst

    def _emitted(self, lane, packets):
        for packet in packets:
            stream = (lane, packet.eth.src.to_int(), packet.eaxc.to_int())
            self.seqs[stream].append(packet.ecpri.seq_id)

    def _delivered(self, lane, packet):
        """The frame as the endpoint's NIC would see it: every wire byte
        but the frame number, which is kept as frames-since-start."""
        wire = packet.pack()
        at = packet.eth.size + ECPRI_HEADER_SIZE + 1
        frame = packet.time.frame
        assert wire[at] == frame
        if not self.frames or self.frames[-1] != frame:
            self.frames.append(frame)
        self.egress[self.offset, lane].append((
            packet.eaxc.to_int(),
            packet.time.symbol,
            (frame - self._frame0) % MAX_FRAME_ID,
            hashlib.sha256(wire[:at] + wire[at + 1:]).digest(),
        ))


def _holder_sizes(network):
    return {
        "cache": [len(box.cache) for box in network.middleboxes],
        "slot_state": [len(box.slot_state) for box in network.middleboxes],
        "guard_flows": [
            len(box._flows) for box in network.middleboxes
            if hasattr(box, "_flows")
        ],
        "du_log": [len(du.uplink_receptions) for du in network.dus],
        "pending_ul": [len(du._pending_ul) for du in network.dus],
        "tx_grids": [len(radio._tx_grids) for radio in network.rus],
        "dl_windows": [len(radio._dl_windows) for radio in network.rus],
    }


def _run_from(start):
    """Drive every group ``SLOTS`` slots from absolute slot ``start``."""
    groups = _spec().build()
    probes = {}
    for group in groups:
        network = group.network
        network.clock = SlotClock(network.clock.numerology, start_slot=start)
        probes[group.name] = _ChainProbe(network, start)
    per_slot, sizes = [], {}
    for offset in range(SLOTS):
        row = {}
        for group in groups:
            network, probe = group.network, probes[group.name]
            probe.offset = offset
            report = dataclasses.asdict(network.run_slot())
            assert report.pop("absolute_slot") == start + offset
            row[group.name] = {
                "report": report,
                "du": [dataclasses.asdict(du.counters) for du in network.dus],
                "ru": [dataclasses.asdict(ru.counters) for ru in network.rus],
                "stats": [
                    dataclasses.asdict(box.stats) for box in network.middleboxes
                ],
                "dl": probe.egress.pop((offset, "dl"), []),
                "ul": probe.egress.pop((offset, "ul"), []),
            }
            if offset == SIZED_AT:
                sizes[group.name] = _holder_sizes(network)
        per_slot.append(row)
    return groups, probes, per_slot, sizes


@pytest.fixture(scope="module")
def runs():
    return {start: _run_from(start) for start in (0, START)}


def test_the_translated_run_is_the_run_from_zero(runs):
    (_, _, origin, origin_sizes) = runs[0]
    (_, _, moved, moved_sizes) = runs[START]
    for offset, (here, there) in enumerate(zip(origin, moved)):
        for group in here:
            for part in here[group]:
                assert here[group][part] == there[group][part], (
                    f"{group} {part} differs at slot offset {offset} "
                    f"(slot {START + offset} vs {offset})"
                )
    assert origin_sizes == moved_sizes


@pytest.mark.parametrize("start", [0, START])
def test_both_runs_carry_traffic_and_are_clean(runs, start):
    groups, _, per_slot, _ = runs[start]
    for group in groups:
        verdict = group.validator.report
        assert verdict.frames_checked > 0
        if group.name == "campus":
            # The pair's PRACH never crosses the mux (the strict xfail
            # below): one sequence hole per 40-slot occasion, in both runs.
            assert verdict.counts == {"seq_gap": -(-(SLOTS - 4) // 40)}
        else:
            assert verdict.ok, verdict.format()
        reports = [row[group.name]["report"] for row in per_slot]
        assert sum(r["dl_packets"] for r in reports) > 0
        assert sum(r["ul_packets"] for r in reports) > 0
        assert not sum(r["undeliverable"] + r["malformed"] for r in reports)
        for du in group.network.dus:
            assert du.counters.ul_packets > 0, (group.name, du.du_id)


@pytest.mark.xfail(
    strict=True,
    reason="fixture truth (ROADMAP item 1): the shared-RU pair's carriers "
    "sit 10 MHz from the RU's, not a multiple of SCS/2, so "
    "translate_freq_offset raises on every PRACH request — a contained "
    "stage fault, a dropped C-plane frame and a seq_gap at RU ingress",
)
def test_the_shared_ru_pair_carries_its_prach_occasion():
    """The smallest failing spec: the pair, through its first PRACH slot."""
    spec = kit.scenario(
        "campus-prach", 5, 1, _campus_pair(), obs={"conformance": True}
    )
    (group,) = spec.build()
    group.network.run(spec.slots)
    assert group.validator.report.ok, group.validator.report.format()
    assert not any(group.network.chain.stage_faults)
    assert all(du.counters.prach_detections for du in group.network.dus)


def _wrapped(seqs):
    return any(a == 255 and b == 0 for a, b in zip(seqs, seqs[1:]))


@pytest.mark.parametrize("start", [0, START])
def test_every_stream_wraps_its_seq_id_inside_the_chain(runs, start):
    groups, probes, _, _ = runs[start]
    for group in groups:
        seqs = probes[group.name].seqs
        wrapped = {stream for stream, ids in seqs.items() if _wrapped(ids)}
        # Every stream long enough to wrap did, and stepped by one: the
        # wrap is an increment, never a reset.
        for stream, ids in seqs.items():
            if stream[0].endswith("-in") and len(ids) > 256:
                assert stream in wrapped, stream
                assert all(
                    (b - a) % 256 == 1 for a, b in zip(ids, ids[1:])
                ), stream
        sources = {(lane, src) for lane, src, _ in wrapped}
        for du in group.network.dus:
            assert ("dl-in", du.mac.to_int()) in sources, (group.name, du.du_id)
        for radio in group.network.rus:
            if radio.counters.uplane_sent:  # the guest's own RU stands idle
                assert ("ul-in", radio.mac.to_int()) in sources, radio.ru_id
        if any(box.app_name == "das" for box in group.network.middleboxes):
            assert ("ul-out", DAS_MAC) in sources, group.name


def test_the_translated_window_crosses_the_frame_wrap(runs):
    groups, probes, _, _ = runs[START]
    for group in groups:
        frames = probes[group.name].frames
        assert frames[0] == START // 20 == 254
        at = frames.index(255)
        assert frames[at:at + 2] == [255, 0], group.name
        assert frames == [(254 + k) % 256 for k in range(len(frames))]
    # ... while the run from zero never leaves the first 15 frames.
    for probe in runs[0][1].values():
        assert probe.frames == list(range(SLOTS // 20))

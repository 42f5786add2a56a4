"""The traced run: per-layer numbers measured from outside the program.

``install(tracer, group)`` replaces six bound methods *on the built
instances* with timing proxies and wraps ``FronthaulNetwork.run_slot``
itself, so a real ``run_slot()`` call is the parent span and the layer
calls are its children.  A span's *self* time is its duration minus its
direct children; ``run_slot``'s self time is the ``sim`` layer.  Spans
stay in memory (one small list each) and are written only when the run
ends.  End-to-end metrics are never taken from a traced run; the traced
wall over the untraced wall is reported as the tracing overhead.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.fronthaul.compression import clear_codec_memo, codec_for
from repro.fronthaul.packet import FronthaulPacket, parse_packet
from repro.obs.stream import GroupStreamSource, TelemetryStream
from repro.scale import ScenarioSpec, plan_shards
from repro.serve import RoutingTable

#: U-plane packets kept per direction for the codec/packet kernels.
CAPTURE_LIMIT = 8
#: Timed calls per kernel per captured packet.
KERNEL_ROUNDS = 5

# span record layout: [name, start, end, parent index, count_a, count_b]
_NAME, _START, _END, _PARENT, _A, _B = range(6)

RUN_SLOT = "sim.network.run_slot"
DU_ADVANCE = "ran.du.advance_slot"
DU_RECEIVE = "ran.du.receive"
RU_RECEIVE = "ran.ru.receive"
RU_BUILD = "ran.ru.build_uplink"
CHAIN_DL = "core.chain.process_downlink"
CHAIN_UL = "core.chain.process_uplink"


@dataclass
class SpanTotals:
    """All spans of one name, summed."""

    calls: int = 0
    wall_s: float = 0.0
    self_s: float = 0.0
    count_a: int = 0
    count_b: int = 0


class Tracer:
    """In-memory span store with a parent stack (one driving thread)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: First U-plane packets seen leaving the DUs ("dl") / RUs ("ul").
        self.captured: Dict[str, List[FronthaulPacket]] = {"dl": [], "ul": []}

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        counts: Optional[Callable[[tuple, Any], tuple]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a proxy recording one span per call.

        ``counts(args, result)`` runs after the span closed, so counting
        is charged to the parent's self time, never to the layer.
        """
        inner = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def proxy(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            record[_START] = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()
            if counts is not None:
                record[_A], record[_B] = counts(args, result)
            return result

        setattr(owner, attr, proxy)

    def capture(self, lane: str, packets: Sequence[FronthaulPacket]) -> None:
        kept = self.captured[lane]
        if len(kept) >= CAPTURE_LIMIT:
            return
        for packet in packets:
            if packet.is_uplane and len(kept) < CAPTURE_LIMIT:
                kept.append(packet)

    def totals(self) -> Dict[str, SpanTotals]:
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_s[span[_PARENT]] += span[_END] - span[_START]
        totals: Dict[str, SpanTotals] = defaultdict(SpanTotals)
        for index, span in enumerate(self.spans):
            entry = totals[span[_NAME]]
            duration = span[_END] - span[_START]
            entry.calls += 1
            entry.wall_s += duration
            entry.self_s += duration - child_s[index]
            entry.count_a += span[_A]
            entry.count_b += span[_B]
        return totals

    def write(self, handle, run: str) -> None:
        """One JSON line per span: run, id, name, start, end, parent (the
        id of the calling span in the same run, -1 for none), counts."""
        for index, span in enumerate(self.spans):
            handle.write(
                json.dumps(
                    {
                        "run": run, "id": index, "name": span[_NAME],
                        "start_s": span[_START], "end_s": span[_END],
                        "parent": span[_PARENT],
                        "counts": [span[_A], span[_B]],
                    }
                )
                + "\n"
            )


def install(tracer: Tracer, group) -> None:
    """Proxy one built group's layer boundaries (instances, not classes)."""
    network = group.network

    def dl_counts(args, packets):
        tracer.capture("dl", packets)
        prbs = sum(
            packet.message.total_prbs()
            for packet in packets
            if packet.is_uplane
        )
        return len(packets), prbs

    def ul_counts(args, packets):
        tracer.capture("ul", packets)
        return 1, len(packets)

    def burst_counts(args, result):
        return len(args[0]), len(result)

    for du in network.dus:
        tracer.wrap(du, "advance_slot", DU_ADVANCE, dl_counts)
        tracer.wrap(du, "receive", DU_RECEIVE)
    for ru in network.rus:
        tracer.wrap(ru, "receive", RU_RECEIVE)
        tracer.wrap(ru, "build_uplink", RU_BUILD, ul_counts)
    if network.chain is not None:
        tracer.wrap(network.chain, "process_downlink", CHAIN_DL, burst_counts)
        tracer.wrap(network.chain, "process_uplink", CHAIN_UL, burst_counts)
    tracer.wrap(network, "run_slot", RUN_SLOT)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def datapath_metrics(tracer: Tracer) -> Dict[str, float]:
    """The ``ran`` / ``core.chain`` / ``sim.network`` metrics of one
    traced inline repetition; shares are self time over run_slot wall."""
    totals = tracer.totals()
    run = totals[RUN_SLOT]
    advance, du_rx = totals[DU_ADVANCE], totals[DU_RECEIVE]
    ru_rx, build = totals[RU_RECEIVE], totals[RU_BUILD]
    chain_dl, chain_ul = totals[CHAIN_DL], totals[CHAIN_UL]
    return {
        "ran.du.advance_slot_ms_per_slot": _ratio(
            advance.wall_s * 1e3, advance.calls
        ),
        "ran.du.share": _ratio(advance.self_s + du_rx.self_s, run.wall_s),
        "ran.du.dl_pkts_per_slot": _ratio(advance.count_a, advance.calls),
        "ran.du.dl_prbs_per_slot": _ratio(advance.count_b, advance.calls),
        "ran.du.receive_us_per_pkt": _ratio(du_rx.wall_s * 1e6, du_rx.calls),
        "ran.ru.build_uplink_us_per_pkt": _ratio(
            build.wall_s * 1e6, build.count_b
        ),
        "ran.ru.receive_us_per_pkt": _ratio(ru_rx.wall_s * 1e6, ru_rx.calls),
        "ran.ru.ul_pkts_per_slot": _ratio(build.count_b, run.calls),
        "ran.ru.share": _ratio(ru_rx.self_s + build.self_s, run.wall_s),
        "core.chain.downlink_us_per_pkt": _ratio(
            chain_dl.wall_s * 1e6, chain_dl.count_a
        ),
        "core.chain.uplink_us_per_pkt": _ratio(
            chain_ul.wall_s * 1e6, chain_ul.count_a
        ),
        "core.chain.share": _ratio(
            chain_dl.self_s + chain_ul.self_s, run.wall_s
        ),
        "core.chain.fanout_ratio": _ratio(chain_dl.count_b, chain_dl.count_a),
        "core.chain.merge_ratio": _ratio(chain_ul.count_a, chain_ul.count_b),
        "sim.network.self_share": _ratio(run.self_s, run.wall_s),
    }


APP_KINDS = (
    "das", "dmimo", "ru_sharing", "prb_monitor", "spectrum_sensor",
    "passthrough",
)


def app_metrics(metrics_snapshot: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """``apps.<kind>.us_per_pkt`` from the program's own
    ``middlebox_wall_ns`` histogram (workloads name each stage after its
    kind, so the ``middlebox`` label is the app)."""
    wall_ns: Dict[str, float] = defaultdict(float)
    packets: Dict[str, int] = defaultdict(int)
    family = metrics_snapshot.get("middlebox_wall_ns", {})
    for labels, series in family.get("series", {}).items():
        kind = labels.split(",", 1)[0]
        wall_ns[kind] += series["sum"]
        packets[kind] += series["count"]
    return {
        f"apps.{kind}.us_per_pkt": _ratio(wall_ns[kind] / 1e3, packets[kind])
        for kind in APP_KINDS
    }


def _median_us(samples: List[float]) -> float:
    return statistics.median(samples) * 1e6 if samples else 0.0


def fronthaul_kernels(packets: Sequence[FronthaulPacket]) -> Dict[str, float]:
    """Codec and packet kernels timed on U-plane packets captured from
    the workload's own first slots (so sizes and codec are the
    workload's).  The codec memo is cleared before each codec call: the
    kernel cost is the miss cost."""
    clock = time.perf_counter
    compress, decompress = [], []
    pack, parse, wire_size, clone = [], [], [], []
    for packet in packets:
        section = packet.message.sections[0]
        codec = codec_for(section.compression)
        samples = section.iq_samples()
        payload = section.payload_bytes()
        wire = packet.pack()
        carrier = packet.message.total_prbs()
        for _ in range(KERNEL_ROUNDS):
            clear_codec_memo()
            started = clock()
            codec.compress(samples)
            compress.append((clock() - started) / section.num_prb)
            clear_codec_memo()
            started = clock()
            codec.decompress(payload, section.num_prb)
            decompress.append((clock() - started) / section.num_prb)
            started = clock()
            packet.pack()
            pack.append(clock() - started)
            started = clock()
            parse_packet(wire, carrier)
            parse.append(clock() - started)
            started = clock()
            packet.wire_size
            wire_size.append(clock() - started)
            started = clock()
            packet.clone()
            clone.append(clock() - started)
    return {
        "fronthaul.compress_us_per_prb": _median_us(compress),
        "fronthaul.decompress_us_per_prb": _median_us(decompress),
        "fronthaul.pack_us_per_pkt": _median_us(pack),
        "fronthaul.parse_us_per_pkt": _median_us(parse),
        "fronthaul.wire_size_us_per_pkt": _median_us(wire_size),
        "fronthaul.clone_us_per_pkt": _median_us(clone),
    }


@contextmanager
def stream_probes(sink: Dict[str, List[float]]) -> Iterator[None]:
    """Time ``GroupStreamSource.epoch_payload`` and
    ``TelemetryStream.fold_epoch`` for the length of one inline
    repetition.  The runner creates those objects itself, so this one
    probe sits on the classes and is removed on exit."""
    clock = time.perf_counter
    originals = (GroupStreamSource.epoch_payload, TelemetryStream.fold_epoch)

    def timed(inner, key):
        def proxy(*args, **kwargs):
            started = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                sink[key].append(clock() - started)

        return proxy

    GroupStreamSource.epoch_payload = timed(originals[0], "payload")
    TelemetryStream.fold_epoch = timed(originals[1], "fold")
    try:
        yield
    finally:
        GroupStreamSource.epoch_payload, TelemetryStream.fold_epoch = originals


def serve_kernels(
    spec: ScenarioSpec, script: Sequence[tuple], workers: int
) -> Dict[str, float]:
    """Coordinator-side pieces of ``LiveRun.apply`` timed standalone:
    ``SpecDelta.apply`` (validation, pure) and ``RoutingTable.from_spec``."""
    clock = time.perf_counter
    validate, routes = [], []
    for _ in range(KERNEL_ROUNDS):
        current = spec
        for _, delta in script:
            started = clock()
            current = delta.apply(current)
            validate.append(clock() - started)
            plan = plan_shards(current, workers)
            started = clock()
            RoutingTable.from_spec(current, plan)
            routes.append(clock() - started)
    return {
        "serve.validate_us_per_delta": _median_us(validate),
        "serve.routes_rebuild_us": _median_us(routes),
    }


__all__ = [
    "APP_KINDS",
    "Tracer",
    "app_metrics",
    "datapath_metrics",
    "fronthaul_kernels",
    "install",
    "serve_kernels",
    "stream_probes",
]

"""Burst dispatch equals per-packet dispatch.

The chain hands each stage its whole burst in one
``Middlebox.process_burst`` call.  This module runs the same live cell
twice — once through that loop, once with every stage's
``process_burst`` replaced by the per-packet loop it replaced
(``_per_packet_stage`` in ``test_chain_isolation``) — and holds
everything observable to be equal: the packets each chain call emits,
every box's stats (``processing_ns_total`` bit for bit), the chain's
fault and breaker record, the deterministic metric exposition, and the
span rows minus their wall fields.
"""

import functools
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.middlebox import FAILURE_THRESHOLD
from repro.eval import kit
from repro.obs import Observability, deterministic_exposition
from repro.scale.build import build_cell
from repro.scale.registry import StageBuildContext, build_stage
from repro.scale.spec import StageSpec

from tests.faults.builders import FaultyMiddlebox
from tests import testbed
from tests.faults.test_chain_isolation import Scripted, _per_packet_stage

#: Registered stages that run on one cell with two RUs.
STAGES = (
    "das", "dmimo", "fronthaul_guard", "passthrough", "prb_monitor",
    "spectrum_sensor",
)
#: Span-row fields that hold wall-clock time.
_WALL_FIELDS = (7, 8)


def _network(plan, sample_every, per_packet):
    obs = (
        Observability(enabled=True, sample_every=sample_every)
        if sample_every else Observability()
    )
    spec = kit.scenario("burst", 1, 0, [kit.cell(
        "burst", 1, [kit.flow("dl", 60.0), kit.flow("ul", 20.0)],
        rus=kit.radios(2, seed=5), seed=5,
    )])
    built = build_cell(spec, spec.cells[0], 1, 0)
    context = StageBuildContext("burst", [built], built, obs=obs)
    boxes = [
        build_stage(StageSpec(stage=name, name=f"{name}{index}"), context)
        for index, name in enumerate(plan["stages"])
    ]
    faulty = [
        Scripted(plan["script"], name="scripted", obs=obs),
        FaultyMiddlebox(fail_every=plan["fail_every"], obs=obs),
    ]
    for box, position in zip(faulty, plan["positions"]):
        boxes.insert(position % (len(boxes) + 1), box)
    net = testbed.network(
        [built.du], [radio for radio, _ in built.rus.values()], boxes,
        obs=obs,
    )
    if per_packet:
        for box in boxes:
            box.process_burst = functools.partial(_per_packet_stage, box)
    return net, built.du, obs


def _split(run, cuts, calls):
    """``run`` over the burst cut into pieces of ``cuts`` (cycled),
    logging what each piece emitted: an input's index, or the wire
    bytes of a packet the chain made."""

    def split(packets, **options):
        packets = list(packets)
        ordinal = {id(packet): index for index, packet in enumerate(packets)}
        out, start = [], 0
        for size in itertools.cycle(cuts):
            if start >= len(packets):
                break
            emitted = run(packets[start:start + size], **options)
            start += size
            calls.append([
                ordinal[id(packet)] if id(packet) in ordinal else packet.pack()
                for packet in emitted
            ])
            out += emitted
        return out

    return split


def _outcome(plan, sample_every, per_packet):
    net, du, obs = _network(plan, sample_every, per_packet)
    chain = net.chain
    calls = []
    chain.process_downlink = _split(chain.process_downlink, plan["cuts"], calls)
    chain.process_uplink = _split(chain.process_uplink, plan["cuts"], calls)
    net.run(plan["slots"])
    rows = [
        tuple(field for index, field in enumerate(row)
              if index not in _WALL_FIELDS)
        for row in obs.recorder.drain()[0]
    ]
    return {
        "calls": calls,
        "stats": [(box.name, box.stats) for box in chain.middleboxes],
        "faults": chain.stage_faults,
        "bypassed": chain.stage_bypassed,
        "fault_log": list(chain.fault_log),
        "breaker_events": list(chain.breaker_events),
        "breakers": [
            (b.state, b.opens, b.recoveries, b.consecutive_failures)
            for b in chain.breakers
        ],
        "exposition": deterministic_exposition(obs.registry),
        "rows": rows,
        "uplink": du.uplink_sha256(),
    }


plans = st.fixed_dictionaries({
    "stages": st.lists(st.sampled_from(STAGES), min_size=1, max_size=4),
    # Fault runs long enough to open a breaker, and clean gaps.
    "script": st.lists(
        st.lists(st.just(True), min_size=1, max_size=FAILURE_THRESHOLD + 1)
        | st.lists(st.just(False), min_size=1, max_size=4),
        max_size=8,
    ).map(lambda runs: [fault for run in runs for fault in run]),
    "fail_every": st.integers(2, 9),
    "positions": st.tuples(st.integers(0, 5), st.integers(0, 5)),
    "cuts": st.lists(st.integers(1, 9), min_size=1, max_size=4),
    "slots": st.integers(1, 6),
})


@settings(max_examples=30, deadline=None)
@given(plans)
def test_burst_loop_matches_the_per_packet_loop(plan):
    """Obs off, and on with every packet or every third one sampled."""
    for sample_every in (0, 1, 3):
        burst = _outcome(plan, sample_every, per_packet=False)
        reference = _outcome(plan, sample_every, per_packet=True)
        assert burst["calls"] == reference["calls"]
        assert burst == reference
        assert burst["calls"]

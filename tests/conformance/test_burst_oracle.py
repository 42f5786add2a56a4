"""The burst validator against the per-packet oracle.

``WireValidator.observe(packets)`` checks a whole ingress burst per call
and reads a riding section's parse instead of its bytes;
:class:`tests.conformance.oracle.PacketValidator` is the validator as it
was, one packet per call, every parameter read from packed bytes.  On
the same frames both must leave the same report (records, counts, frame
total) and the same ``conformance_*`` and ``seq_*`` counters, whether
the bursts are single packets or whole slots."""

import numpy as np
import pytest

from repro.apps.das import DasMiddlebox
from repro.conformance import ViolationClass, WireValidator
from repro.eval import kit
from repro.faults import FaultConfig, FaultInjector
from repro.fronthaul.cplane import Direction
from repro.fronthaul.packet import make_packet
from repro.fronthaul.timing import symbol_time
from repro.fronthaul.uplane import UPlaneMessage, UPlaneSection
from repro.obs import Observability
from repro.ran.stacks import profile_by_name
from tests import testbed
from tests.conformance.builders import (
    DST,
    EAXC,
    SRC,
    SRS_COMPRESSION,
    cplane_packet,
)
from tests.conformance.oracle import PacketValidator
from tests.conformance.test_validator import SEEDED, SEEDED_VALIDATOR


def _pair(**kwargs):
    """(burst validator, oracle), configured alike, each on its own obs."""
    kwargs.setdefault("profile", profile_by_name("srsRAN"))
    kwargs.setdefault("carrier_num_prb", 106)
    return tuple(
        cls(name="oracle-test", obs=Observability(enabled=True), **kwargs)
        for cls in (WireValidator, PacketValidator)
    )


def _bursts(frames, whole):
    """Frames as the burst validator is fed them: raw bytes alone, parsed
    packets one per burst or, with ``whole``, consecutive ones together."""
    bursts, run = [], []
    for frame in frames:
        if isinstance(frame, bytes) or not whole:
            if run:
                bursts.append(run)
                run = []
            bursts.append(frame if isinstance(frame, bytes) else [frame])
        else:
            run.append(frame)
    return bursts + ([run] if run else [])


def _feed(validator, oracle, bursts, tap=""):
    for burst in bursts:
        if isinstance(burst, bytes):
            assert validator.observe_bytes(burst, tap) == (
                oracle.observe_bytes(burst, tap)
            )
            continue
        expected = []
        for packet in burst:
            expected += oracle.observe(packet, tap)
        assert validator.observe(burst, tap) == expected


def _counters(validator):
    snapshot = validator.obs.registry.snapshot()
    return {
        name: family for name, family in snapshot.items()
        if name.startswith(("conformance_", "seq_"))
    }


def _assert_same(validator, oracle):
    assert validator.report.to_dict() == oracle.report.to_dict()
    assert _counters(validator) == _counters(oracle)


@pytest.mark.parametrize("whole", [False, True], ids=["burst1", "whole"])
@pytest.mark.parametrize("expected", list(SEEDED), ids=lambda c: c.value)
def test_seeded_scenarios_match_the_oracle(expected, whole):
    validator, oracle = _pair(**SEEDED_VALIDATOR.get(expected, {}))
    _feed(validator, oracle, _bursts(SEEDED[expected](), whole))
    assert validator.report.count(expected) >= 1
    _assert_same(validator, oracle)


@pytest.mark.parametrize("whole", [False, True], ids=["burst1", "whole"])
def test_one_encode_pass_with_an_illegal_section_matches_the_oracle(whole):
    """Riding sections of one encode pass, the second from a source wider
    than int16: its second PRB's shift (13) is beyond width-9 BFP's legal
    7, so the pass maximum is illegal while the first section is legal."""
    wide = np.full((2, 24), 7, dtype=np.int32)
    wide[1] = 1 << 20
    legal, illegal = UPlaneSection.from_ranges(
        [(1, 0, np.full((2, 24), 7, dtype=np.int16)), (2, 2, wide)],
        SRS_COMPRESSION,
    )
    frames = [cplane_packet(0, 4, seq=0)] + [
        make_packet(
            src=SRC, dst=DST, seq_id=seq, eaxc=EAXC,
            message=UPlaneMessage(
                direction=Direction.DOWNLINK, time=symbol_time(0, 0, 0, 0),
                sections=[section],
            ),
        )
        for seq, section in ((1, legal), (2, illegal))
    ]
    validator, oracle = _pair()
    _feed(validator, oracle, _bursts(frames, whole))
    assert validator.report.counts == {
        ViolationClass.ILLEGAL_BFP_EXPONENT.value: 1
    }
    _assert_same(validator, oracle)


class _Capture:
    """A network validator stand-in: keeps every ingress burst it is
    handed, with its tap."""

    def __init__(self):
        self.bursts = []

    def observe(self, packets, tap):
        self.bursts.append((list(packets), tap))


def _ingress_bursts(codec, slots=10):
    """One DAS cell's RU- and DU-ingress bursts over a TDD period."""
    du, rus = testbed.endpoints(kit.cell(
        f"oracle-{codec}", 1, [kit.flow("dl", 60.0), kit.flow("ul", 30.0)],
        rus=kit.radios(2, 1), codec=codec,
    ))
    das = DasMiddlebox(du_mac=du.mac, ru_macs=[ru.mac for ru in rus])
    capture = _Capture()
    net = testbed.network([du], rus, [das], validator=capture)
    net.run(slots)
    return capture.bursts, du.cell


IMPAIRMENTS = {
    "clean": FaultConfig(),
    "loss": FaultConfig(loss_rate=0.2),
    "duplicate": FaultConfig(duplicate_rate=0.2),
    "reorder": FaultConfig(reorder_rate=0.2),
    "corrupt": FaultConfig(corrupt_rate=0.3, corrupt_bits=6),
}


@pytest.mark.parametrize("whole", [False, True], ids=["burst1", "whole"])
@pytest.mark.parametrize("impairment", list(IMPAIRMENTS))
@pytest.mark.parametrize("codec", ["bfp", "modcomp"])
def test_impaired_streams_match_the_oracle(codec, impairment, whole):
    bursts, cell = _ingress_bursts(codec)
    injector = FaultInjector(
        IMPAIRMENTS[impairment], seed=17, carrier_num_prb=cell.num_prb
    )
    validator, oracle = _pair(
        profile=None, carrier_num_prb=cell.num_prb,
        numerology=cell.numerology,
        allowed_compressions=(cell.compression,),
    )
    for packets, tap in bursts:
        survivors = injector.apply(packets)
        if whole:
            _feed(validator, oracle, [survivors], tap)
        else:
            _feed(validator, oracle, [[packet] for packet in survivors], tap)
    assert validator.report.frames_checked > 0
    if impairment != "clean":
        assert not validator.report.ok
    _assert_same(validator, oracle)

"""Spectrum sensing / interference detection (Section 8.1, "Sensing").

RANBooster's access to raw uplink IQ samples (action A4) enables sensing
applications without sniffing hardware.  This middlebox watches the
uplink noise floor per PRB: energy that appears on PRBs the C-plane never
scheduled — or persistent energy far above the expected noise floor —
indicates an external interferer (e.g. a jammer or a rogue transmitter),
which is reported through the telemetry interface, in the spirit of the
interference-detection application of [18].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

import numpy as np

from repro.core.actions import ActionContext, ExecLocation
from repro.core.middlebox import Middlebox
from repro.fronthaul.cplane import Direction
from repro.fronthaul.packet import FronthaulPacket
from repro.fronthaul.timing import Numerology, SymbolTime

TELEMETRY_TOPIC = "interference_alerts"


@dataclass(frozen=True)
class InterferenceAlert:
    """Unscheduled energy detected on the uplink."""

    time: SymbolTime
    ru_port: int
    prbs: Tuple[int, ...]
    max_exponent: int


class SpectrumSensorMiddlebox(Middlebox):
    """Passive uplink interference detector.

    Tracks which PRBs the DUs scheduled (from UL C-plane sections, A4
    inspection) and flags uplink U-plane PRBs whose BFP exponent exceeds
    the noise threshold *outside* every scheduled range.  Forwarding is
    always transparent.
    """

    app_name = "spectrum_sensor"
    #: Exponent scans and header reads run in the kernel (like Table 1's
    #: PRB monitor).
    nominal_xdp_location = ExecLocation.KERNEL

    def __init__(
        self,
        carrier_num_prb: int,
        noise_exponent_threshold: int = 2,
        numerology: Numerology = Numerology(mu=1),
        name: str = "",
        obs=None,
        stack_profile=None,
        **kwargs,
    ):
        super().__init__(
            name=name, obs=obs, stack_profile=stack_profile, **kwargs
        )
        self.carrier_num_prb = carrier_num_prb
        self.numerology = numerology
        self.management.declare(
            "noise_exponent_threshold", noise_exponent_threshold,
            validator=lambda v: 0 <= v <= 15,
        )
        self.alerts: List[InterferenceAlert] = []

    # -- handlers -------------------------------------------------------------

    def on_cplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        if packet.direction is Direction.UPLINK:
            ctx.inspect(packet)
            # Scheduled UL PRB ranges: {(slot_key, port): [(start, end)]}.
            key = (packet.time.slot_key(), packet.eaxc.ru_port)
            ranges = self.slot_state.setdefault(key, [])
            for section in packet.message.sections:
                ranges.append(section.prb_range)
        ctx.forward(packet)

    def on_uplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        if (
            packet.direction is Direction.UPLINK
            and packet.message.filter_index == 0
        ):
            self._scan(ctx, packet)
        ctx.forward(packet)

    # -- detection ---------------------------------------------------------------

    def _scan(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        key = (packet.time.slot_key(), packet.eaxc.ru_port)
        scheduled = self.slot_state.get(key, [])
        threshold = self.management.get("noise_exponent_threshold")
        suspicious: Set[int] = set()
        max_exponent = 0
        for section in packet.message.sections:
            exponents = ctx.read_exponents(section)
            for index in np.flatnonzero(exponents > threshold).tolist():
                prb = section.start_prb + index
                if prb >= self.carrier_num_prb:
                    continue
                if any(start <= prb < end for start, end in scheduled):
                    continue
                suspicious.add(prb)
                max_exponent = max(max_exponent, int(exponents[index]))
        if not suspicious:
            return
        alert = InterferenceAlert(
            time=packet.time,
            ru_port=packet.eaxc.ru_port,
            prbs=tuple(sorted(suspicious)),
            max_exponent=max_exponent,
        )
        self.alerts.append(alert)
        self.telemetry.publish(
            TELEMETRY_TOPIC,
            alert,
            timestamp_ns=packet.time.ns(self.numerology),
            source=self.name,
        )

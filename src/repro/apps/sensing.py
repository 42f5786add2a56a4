"""Spectrum sensing / interference detection (Section 8.1, "Sensing").

RANBooster's access to raw uplink IQ samples (action A4) enables sensing
applications without sniffing hardware.  This middlebox watches the
uplink noise floor per PRB: energy that appears on PRBs the C-plane never
scheduled — or persistent energy far above the expected noise floor —
indicates an external interferer (e.g. a jammer or a rogue transmitter),
which is appended to the sensor's :attr:`SpectrumSensorMiddlebox.alerts`
ring, in the spirit of the interference-detection application of [18].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, Set, Tuple

import numpy as np

from repro.core.actions import ActionContext, ExecLocation
from repro.core.middlebox import Middlebox
from repro.fronthaul.cplane import Direction
from repro.fronthaul.packet import FronthaulPacket
from repro.fronthaul.timing import slot_id
from repro.obs.recorder import event_ring

#: A BFP exponent above this on an unscheduled uplink PRB is energy that
#: is not noise.
_NOISE_EXPONENT_THRESHOLD = 2


@dataclass(frozen=True)
class InterferenceAlert:
    """Unscheduled energy detected on the uplink."""

    time: int
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
        name: str = "",
        obs=None,
        stack_profile=None,
        **kwargs,
    ):
        super().__init__(
            name=name, obs=obs, stack_profile=stack_profile, **kwargs
        )
        self.carrier_num_prb = carrier_num_prb
        self.alerts: Deque[InterferenceAlert] = event_ring()

    # -- handlers -------------------------------------------------------------

    def on_cplane(self, ctx: ActionContext, packet: FronthaulPacket) -> None:
        if packet.direction is Direction.UPLINK:
            ctx.inspect(packet)
            # Scheduled UL PRB ranges: {(slot id, port): [(start, end)]}.
            key = (slot_id(packet.time), packet.eaxc.ru_port)
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
        key = (slot_id(packet.time), packet.eaxc.ru_port)
        scheduled = self.slot_state.get(key, [])
        threshold = _NOISE_EXPONENT_THRESHOLD
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

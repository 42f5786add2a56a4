"""Shared fixtures for the test suite."""

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.fronthaul.ethernet import MacAddress
from repro.ran.cell import CellConfig

# CI runs the property suites derandomized so a red build is always
# reproducible locally; select with HYPOTHESIS_PROFILE=ci.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@pytest.fixture
def events_kept(monkeypatch):
    """Every event ring built from now on keeps 3: the one constant,
    ``repro.obs.recorder._EVENTS_KEPT``, patched small."""
    from repro.obs import recorder

    monkeypatch.setattr(recorder, "_EVENTS_KEPT", 3)
    return 3


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def du_mac():
    return MacAddress.from_string("02:00:00:00:00:01")


@pytest.fixture
def ru_mac():
    return MacAddress.from_string("02:00:00:00:10:01")


@pytest.fixture
def cell_40mhz():
    return CellConfig(pci=1, bandwidth_hz=40_000_000, n_antennas=2,
                      max_dl_layers=2)


@pytest.fixture
def cell_100mhz():
    return CellConfig(pci=2)


def random_prb_samples(rng, n_prbs: int, amplitude: int = 4000) -> np.ndarray:
    """Random int16 IQ samples shaped (n_prbs, 24)."""
    return rng.integers(-amplitude, amplitude, size=(n_prbs, 24)).astype(
        np.int16
    )


def action_kinds(ctx) -> list:
    """The actions a context recorded, in order, as ``ActionKind``s."""
    from repro.core.actions import ActionKind

    return [ActionKind(event.kind) for event in ctx.events]


def compress_ranges(codec, ranges) -> list:
    """The wire payloads of ``codec.encode_ranges(ranges)``, read at once."""
    return [wire.read() for _, wire in codec.encode_ranges(ranges)]


def wire_shifts(codec, samples) -> np.ndarray:
    """Per-PRB shifts (BFP exponents or modcomp scalers) of ``samples``,
    read off the wire bytes ``codec`` packs them into."""
    return codec.read_exponents(codec.compress(samples), len(samples))

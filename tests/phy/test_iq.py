"""QAM and fixed-point conversion tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.fronthaul.compression import SAMPLES_PER_PRB
from repro.phy.iq import (
    INT16_SCALE,
    QamModulator,
    int16_to_iq,
    iq_to_int16,
)


class TestQamModulator:
    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_roundtrip_noiseless(self, order, rng):
        modulator = QamModulator(order)
        symbols = rng.integers(0, order, 500)
        assert (modulator.demodulate(modulator.modulate(symbols)) == symbols).all()

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_unit_average_energy(self, order):
        modulator = QamModulator(order)
        points = modulator.modulate(np.arange(order))
        assert float(np.mean(np.abs(points) ** 2)) == pytest.approx(1.0)

    def test_constellation_distinct(self):
        modulator = QamModulator(16)
        points = modulator.modulate(np.arange(16))
        assert len(set(np.round(points, 9))) == 16

    def test_roundtrip_with_mild_noise(self, rng):
        modulator = QamModulator(16)
        symbols = rng.integers(0, 16, 2000)
        noisy = modulator.modulate(symbols) + 0.05 * (
            rng.normal(size=2000) + 1j * rng.normal(size=2000)
        )
        errors = (modulator.demodulate(noisy) != symbols).sum()
        assert errors == 0

    def test_heavy_noise_causes_errors(self, rng):
        modulator = QamModulator(256)
        symbols = rng.integers(0, 256, 2000)
        noisy = modulator.modulate(symbols) + 0.5 * (
            rng.normal(size=2000) + 1j * rng.normal(size=2000)
        )
        errors = (modulator.demodulate(noisy) != symbols).sum()
        assert errors > 0

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            QamModulator(32)

    def test_rejects_out_of_range_symbols(self):
        with pytest.raises(ValueError):
            QamModulator(4).modulate(np.array([4]))

    def test_gray_mapping_adjacent_levels_differ_one_bit(self):
        modulator = QamModulator(16)
        # Adjacent I-levels at fixed Q must differ in exactly one bit of
        # the I half (Gray property).
        for left, right in zip(modulator._gray[:-1], modulator._gray[1:]):
            assert bin(int(left) ^ int(right)).count("1") == 1


class TestFixedPoint:
    def test_roundtrip_error_small(self, rng):
        grid = (rng.normal(size=48) + 1j * rng.normal(size=48)) * 0.3
        restored = int16_to_iq(iq_to_int16(grid))
        assert np.abs(restored - grid).max() < 1e-3

    def test_shape_conversion(self, rng):
        grid = rng.normal(size=(2, 120)) + 1j * rng.normal(size=(2, 120))
        fixed = iq_to_int16(grid * 0.1)
        assert fixed.shape == (2, 10, 24)
        assert int16_to_iq(fixed).shape == (2, 120)

    def test_interleaving_order(self):
        grid = np.array([1 + 2j] + [0] * 11) * 0.01
        fixed = iq_to_int16(grid)
        assert fixed.shape == (1, 24)
        assert fixed[0, 0] > 0  # I0
        assert fixed[0, 1] == 2 * fixed[0, 0]  # Q0 = 2 * I0

    def test_clipping_at_full_scale(self):
        grid = np.full(12, 100.0 + 100.0j)
        fixed = iq_to_int16(grid)
        assert fixed.max() == 32767

    def test_rejects_partial_prb(self, rng):
        with pytest.raises(ValueError):
            iq_to_int16(rng.normal(size=13) + 0j)

    @settings(max_examples=30, deadline=None)
    @given(backoff=st.floats(min_value=0.05, max_value=0.9))
    def test_backoff_roundtrip_property(self, backoff, ):
        rng = np.random.default_rng(0)
        grid = (rng.normal(size=24) + 1j * rng.normal(size=24)) * 0.2
        restored = int16_to_iq(iq_to_int16(grid, backoff), backoff)
        assert np.abs(restored - grid).max() < 1e-2


def interleaving_iq_to_int16(samples, backoff=0.25):
    """``iq_to_int16`` as it stood through PR 18 — an ``interleaved``
    float buffer filled by two strided stores — kept as the oracle of the
    in-place float64-view formulation."""
    complex_grid = np.asarray(samples)
    n_prbs = complex_grid.shape[-1] // SAMPLES_PER_PRB
    scaled = complex_grid * (INT16_SCALE * backoff)
    interleaved = np.empty(complex_grid.shape[:-1] + (n_prbs, 2 * SAMPLES_PER_PRB))
    reshaped = scaled.reshape(complex_grid.shape[:-1] + (n_prbs, SAMPLES_PER_PRB))
    interleaved[..., 0::2] = reshaped.real
    interleaved[..., 1::2] = reshaped.imag
    return np.clip(np.round(interleaved), -32768, 32767).astype(np.int16)


#: Finite components where rounding and saturation go wrong first: signed
#: zeros, ties (k + 0.5 at backoff 1.0), the int16 edges, subnormals, and
#: magnitudes whose product overflows to inf.
_COMPONENTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1.5, max_value=1.5),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
    st.integers(-70000, 70000).map(lambda k: (k + 0.5) / INT16_SCALE),
    st.integers(-3, 3).map(lambda k: (32767.5 + k / 2) / INT16_SCALE),
)


class TestInPlaceConversionIsTheOldOne:
    @settings(max_examples=200, deadline=None)
    @given(
        real=hnp.arrays(np.float64, st.sampled_from([(12,), (36,), (2, 24), (3, 1, 12)]),
                        elements=_COMPONENTS),
        imag_seed=st.integers(0, 2**32 - 1),
        backoff=st.sampled_from([0.25, 0.7, 1.0, 4.0, 1e-3]),
    )
    def test_bit_identical_to_the_interleaving_formulation(
        self, real, imag_seed, backoff
    ):
        imag = np.random.default_rng(imag_seed).permutation(real.ravel())
        grid = real + 1j * imag.reshape(real.shape)
        before = grid.copy()
        with np.errstate(over="ignore"):
            expected = interleaving_iq_to_int16(grid, backoff)
            converted = iq_to_int16(grid, backoff)
        assert converted.dtype == np.int16 and converted.shape == expected.shape
        assert converted.tolist() == expected.tolist()
        assert (grid == before).all()  # the caller's grid is never the buffer

    def test_other_input_layouts_and_dtypes(self, rng):
        grid = rng.normal(size=(4, 24)) + 1j * rng.normal(size=(4, 24))
        for variant in (
            np.asfortranarray(grid), grid[::2], grid.astype(np.complex64),
            grid.real, grid.tolist(),
        ):
            assert iq_to_int16(variant).tolist() == (
                interleaving_iq_to_int16(variant).tolist()
            )

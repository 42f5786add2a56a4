"""PRACH frequency-offset translation tests (Appendix A.1.2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fronthaul.prach import (
    freq_offset_to_hz,
    hz_to_freq_offset,
    translate_freq_offset,
    translate_freq_offset_via_re0,
)
from repro.fronthaul.spectrum import PrbGrid, split_ru_spectrum


class TestUnitConversion:
    def test_half_subcarrier_units(self):
        # Equation (5): units of 0.5 * SCS.
        assert freq_offset_to_hz(2, 30_000) == 30_000
        assert freq_offset_to_hz(-4, 30_000) == -60_000

    def test_hz_roundtrip(self):
        assert hz_to_freq_offset(freq_offset_to_hz(123, 30_000), 30_000) == 123

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            hz_to_freq_offset(10_000, 30_000)


class TestTranslation:
    def test_identity_when_centers_match(self):
        assert translate_freq_offset(100, 3.46e9, 3.46e9, 30_000) == 100

    def test_shift_direction(self):
        # RU center above DU center -> offset grows (PRACH sits further
        # below the RU's center).
        result = translate_freq_offset(0, 3.43e9, 3.46e9, 30_000)
        assert result == int(0.03e9 / 15_000)

    def test_two_derivations_agree_paper_example(self):
        ru = PrbGrid(3.46e9, 273)
        for du_grid in split_ru_spectrum(ru, [106, 106]):
            for du_offset in (-600, 0, 333, 1272):
                direct = translate_freq_offset(
                    du_offset, du_grid.center_frequency_hz,
                    ru.center_frequency_hz, 30_000,
                )
                via_re0 = translate_freq_offset_via_re0(
                    du_offset, du_grid.center_frequency_hz,
                    ru.center_frequency_hz, 30_000,
                )
                assert direct == via_re0

    def test_rejects_unrepresentable_shift(self):
        with pytest.raises(ValueError):
            translate_freq_offset(0, 3.46e9, 3.46e9 + 7_000, 30_000)

    @given(
        du_offset=st.integers(min_value=-4000, max_value=4000),
        prb_shift=st.integers(min_value=-150, max_value=150),
    )
    def test_equations_agree_property(self, du_offset, prb_shift):
        """Eq. (11) and the eq. (5)-(10) derivation always agree."""
        scs = 30_000
        du_center = 3.45e9
        ru_center = du_center + prb_shift * 12 * scs
        assert translate_freq_offset(
            du_offset, du_center, ru_center, scs
        ) == translate_freq_offset_via_re0(du_offset, du_center, ru_center, scs)

    @given(prb_shift=st.integers(min_value=-100, max_value=100))
    def test_translation_preserves_absolute_frequency(self, prb_shift):
        """The PRACH region's absolute frequency is invariant under
        translation — the whole point of the rewrite."""
        scs = 30_000
        du_center = 3.45e9
        ru_center = du_center + prb_shift * 12 * scs
        translated = translate_freq_offset(144, du_center, ru_center, scs)
        assert du_center - freq_offset_to_hz(144, scs) == pytest.approx(
            ru_center - freq_offset_to_hz(translated, scs)
        )


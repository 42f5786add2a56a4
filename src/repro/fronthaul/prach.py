"""PRACH frequency-offset translation for RU sharing.

UEs attach by sending random-access preambles on the PRACH, signalled on
the fronthaul by C-plane section type 3 messages whose ``freqOffset`` field
locates the PRACH region within the DU's spectrum in half-subcarrier units.
When a DU shares an RU whose center frequency differs, the RU-sharing
middlebox must translate this offset into the RU's spectrum (Appendix
A.1.2, equations (5)-(11)), otherwise the RU returns the wrong subcarriers
and UE attach attempts fail.
"""

from __future__ import annotations


def freq_offset_to_hz(freq_offset: int, scs_hz: int) -> float:
    """Equation (5): freqOffset is in units of half a subcarrier spacing."""
    return freq_offset * 0.5 * scs_hz


def hz_to_freq_offset(frequency_offset_hz: float, scs_hz: int) -> int:
    """Inverse of :func:`freq_offset_to_hz` (exact for valid inputs)."""
    value = frequency_offset_hz / (0.5 * scs_hz)
    rounded = round(value)
    if abs(value - rounded) > 1e-6:
        raise ValueError(
            f"frequency offset {frequency_offset_hz} Hz is not a multiple of "
            f"half the subcarrier spacing ({scs_hz / 2} Hz)"
        )
    return rounded


def translate_freq_offset(
    freq_offset_du: int,
    du_center_frequency_hz: float,
    ru_center_frequency_hz: float,
    scs_hz: int,
) -> int:
    """Equation (11): translate a DU PRACH freqOffset to the RU spectrum.

    freqOffset_RU = freqOffset_DU +
        (RU_center_frequency - DU_center_frequency) / (0.5 * SCS)
    """
    delta = (ru_center_frequency_hz - du_center_frequency_hz) / (0.5 * scs_hz)
    rounded = round(delta)
    if abs(delta - rounded) > 1e-6:
        raise ValueError(
            "center frequency difference is not a multiple of half the "
            "subcarrier spacing; PRACH offsets cannot be translated exactly"
        )
    return freq_offset_du + rounded


def translate_freq_offset_via_re0(
    freq_offset_du: int,
    du_center_frequency_hz: float,
    ru_center_frequency_hz: float,
    scs_hz: int,
) -> int:
    """Equations (5)-(10): the long-form derivation via the frequency of
    the first resource element.  Kept as an independently-derived check of
    :func:`translate_freq_offset` (they must agree; property-tested).

    Note the paper's sign convention: a positive freqOffset places the
    PRACH region *below* the center frequency.
    """
    frequency_offset_du_hz = freq_offset_to_hz(freq_offset_du, scs_hz)  # eq. 5
    frequency_re0rb0_hz = du_center_frequency_hz - frequency_offset_du_hz  # eq. 6-7
    frequency_offset_ru_hz = ru_center_frequency_hz - frequency_re0rb0_hz  # eq. 8-9
    return hz_to_freq_offset(frequency_offset_ru_hz, scs_hz)  # eq. 10


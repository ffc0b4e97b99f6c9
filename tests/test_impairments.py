import numpy as np
import pytest
from hypothesis import given, strategies as st

from flexsic.impairments import (
    PAPolynomial,
    apply_iq_freq,
    apply_iq_time,
    apply_pa,
    default_measured_pa,
    irr_to_b,
)
from flexsic.ofdm import dft, idft, mirror_index


# ---------------------------------------------------------------- IQ imbalance


def test_irr_to_b_magnitude_and_phase():
    b = irr_to_b(25.0, phase=0.3)
    assert isinstance(b, complex)
    assert abs(b) == pytest.approx(10 ** (-25 / 20))
    assert np.angle(b) == pytest.approx(0.3)
    # the image rejection ratio 1/|b|^2 comes back as 25 dB
    assert -20.0 * np.log10(abs(b)) == pytest.approx(25.0)
    with pytest.raises(ValueError, match="positive"):
        irr_to_b(0.0)


@given(st.integers(min_value=2, max_value=64), st.integers(0, 2**32 - 1))
def test_iq_time_and_freq_pictures_agree(p, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    b = 0.05 * np.exp(0.7j)
    via_time = dft(apply_iq_time(idft(values), b))
    via_freq = apply_iq_freq(values, b)
    assert np.allclose(via_time, via_freq, atol=1e-9)
    # spot-check the mirror formula on one subcarrier
    q = p // 3
    expected = values[q] + b * np.conj(values[mirror_index(q, p)])
    assert via_freq[q] == pytest.approx(expected)


def test_iq_zero_coefficient_is_identity():
    x = np.array([1 + 2j, -3j, 0.5])
    out = apply_iq_time(x, 0.0)
    assert np.array_equal(out, x)


# ---------------------------------------------------------------- PA polynomial


def test_pa_validation():
    with pytest.raises(ValueError, match="odd"):
        PAPolynomial(coeffs={2: 1.0})
    with pytest.raises(ValueError, match="a_1"):
        PAPolynomial(coeffs={3: 1.0})
    pa = PAPolynomial(coeffs={1: 2.0, 5: 0.1})
    assert pa.k_max == 2
    assert pa.coeff(3) == 0
    assert [pa.coeff(o) for o in (1, 3, 5)] == [2.0, 0.0, 0.1]


def test_pa_evaluate_matches_direct_polynomial():
    pa = PAPolynomial(coeffs={1: 2.0, 3: -0.5j, 5: 0.01})
    x = np.array([0.3 + 0.4j, -1.2, 2j])
    out = pa.evaluate(x)
    mag2 = np.abs(x) ** 2
    direct = 2.0 * x - 0.5j * mag2 * x + 0.01 * mag2**2 * x
    assert np.allclose(out, direct, rtol=1e-14)


def test_default_measured_pa_values():
    pa = default_measured_pa()
    assert pa.coeffs == {1: 35.89 + 0j, 3: -2.24 + 0j, 5: 0.0015 + 0j}
    assert pa.k_max == 2
    # unit-magnitude drive: 35.89 - 2.24 + 0.0015
    assert pa.evaluate(np.array([1.0]))[0] == pytest.approx(33.6515)


def test_impairments_act_row_by_row_on_stacks():
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((3, 12)) + 1j * rng.standard_normal((3, 12))
    b = 0.05 * np.exp(0.7j)
    pa = default_measured_pa()
    for apply, model in ((apply_iq_time, b), (apply_iq_freq, b), (apply_pa, pa)):
        out = apply(stack, model)
        assert out.shape == stack.shape
        for row, x in zip(out, stack):
            assert np.array_equal(row, apply(x, model))


@given(st.floats(min_value=0.01, max_value=1.5), st.floats(0, 2 * np.pi))
def test_pa_is_phase_invariant(r, theta):
    # AM/AM and AM/PM of a memoryless polynomial depend only on |x|
    pa = default_measured_pa()
    base = pa.evaluate(np.array([r]))[0]
    rotated = pa.evaluate(np.array([r * np.exp(1j * theta)]))[0]
    assert rotated == pytest.approx(base * np.exp(1j * theta), rel=1e-12)

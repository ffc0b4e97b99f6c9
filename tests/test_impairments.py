import numpy as np
import pytest
from hypothesis import given, strategies as st

from flexsic.impairments import (
    apply_iq_time,
    apply_pa,
    default_measured_pa,
    irr_to_b,
)
from flexsic.ofdm import dft, idft
from oracles import apply_iq_freq


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
    expected = values[q] + b * np.conj(values[(p - q) % p])
    assert via_freq[q] == pytest.approx(expected)


def test_iq_zero_coefficient_is_identity():
    x = np.array([1 + 2j, -3j, 0.5])
    out = apply_iq_time(x, 0.0)
    assert np.array_equal(out, x)


# ---------------------------------------------------------------- PA polynomial


def test_pa_evaluate_matches_direct_polynomial():
    a = np.array([2.0, -0.5j, 0.01])
    x = np.array([0.3 + 0.4j, -1.2, 2j])
    out = apply_pa(x, a)
    mag2 = np.abs(x) ** 2
    direct = 2.0 * x - 0.5j * mag2 * x + 0.01 * mag2**2 * x
    # atol=0, so that the relative bound is the one that binds
    assert np.allclose(out, direct, rtol=1e-14, atol=0)
    # a linear amplifier alone, and four orders with the middle one zero
    assert np.allclose(apply_pa(x, np.array([1.5 - 0.5j])), (1.5 - 0.5j) * x, rtol=1e-14, atol=0)
    a = np.array([2.0 + 0.5j, -0.1j, 0.0, 0.003 - 0.001j])
    direct = sum(a_k * mag2**k * x for k, a_k in enumerate(a))
    assert np.allclose(apply_pa(x, a), direct, rtol=1e-14, atol=0)


def test_default_measured_pa_values():
    a = default_measured_pa()
    assert a.dtype == np.complex128
    assert np.array_equal(a, [35.89, -2.24, 0.0015])
    # unit-magnitude drive: 35.89 - 2.24 + 0.0015
    assert apply_pa(np.array([1.0]), a)[0] == pytest.approx(33.6515)


def test_impairments_act_row_by_row_on_stacks():
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((3, 12)) + 1j * rng.standard_normal((3, 12))
    b = 0.05 * np.exp(0.7j)
    a = default_measured_pa()
    for apply, model in ((apply_iq_time, b), (apply_iq_freq, b), (apply_pa, a)):
        out = apply(stack, model)
        assert out.shape == stack.shape
        for row, x in zip(out, stack):
            assert np.array_equal(row, apply(x, model))
    # numpy's temporary elision reorders a product's operands from 256 KiB on,
    # with a Python complex weight as the scenario passes it; the image's
    # product must keep its order at every size
    b = irr_to_b(25.0, 0.7)
    for shape in ((16, 1024), (14, 4096)):
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = apply_iq_time(stack, b)
        assert all(np.array_equal(row, apply_iq_time(x, b)) for row, x in zip(out, stack))


@given(st.floats(min_value=0.01, max_value=1.5), st.floats(0, 2 * np.pi))
def test_pa_is_phase_invariant(r, theta):
    # AM/AM and AM/PM of a memoryless polynomial depend only on |x|
    a = default_measured_pa()
    base = apply_pa(np.array([r]), a)[0]
    rotated = apply_pa(np.array([r * np.exp(1j * theta)]), a)[0]
    assert rotated == pytest.approx(base * np.exp(1j * theta), rel=1e-12)

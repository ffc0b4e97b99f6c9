import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flexsic.imd import (
    basis_chain,
    impulse_pilot,
    lambda_dl,
    mu_tables,
    pilot_profile,
    predict_si_power,
    q_size,
)
from flexsic.impairments import default_measured_pa, irr_to_b
from flexsic.ofdm import SubcarrierGrid, gen_qam_symbols
from flexsic.scenario import DUPLEX_PRESETS, ScenarioSpec
from flexsic.sic import select_basis
from oracles import (
    apply_iq_freq,
    basis_recursion,
    brute_lambda,
    brute_q_size,
    exact_mu_gauss,
    exact_mu_tiny,
    impulse_pilot_basis,
    mc_mu,
    mu_tables_conv,
    q_size_recursion,
    tuple_basis,
    whole_grid_chain,
)


def tiny_grid():
    return SubcarrierGrid(8, 15e3, 2, (2, 4), (2, 4))


def mid_grid():
    return SubcarrierGrid(32, 15e3, 8, (4, 17), (22, 29))


def desk_grid():
    return SubcarrierGrid(256, 120e3, 32, (28, 228), (28, 228))


# ---------------------------------------------------------------- combinatorics


def test_lambda_dl_matches_enumeration_and_triangle():
    for g in (tiny_grid(), mid_grid()):
        lam = lambda_dl(g)
        assert np.array_equal(lam, brute_lambda(g))
        assert lam.sum() == g.dl_size**2
        s, e = g.dl_set
        support = np.nonzero(lam)[0]
        assert support.min() == 2 * s and support.max() == 2 * e
        for t in support:
            assert lam[t] == min(t - 2 * s, 2 * e - t) + 1


@pytest.mark.parametrize("k", [1, 2])
def test_q_size_matches_brute_enumeration(k):
    for g in (tiny_grid(), mid_grid()):
        rows = q_size(g, k)
        assert np.array_equal(rows[k].astype(np.int64), brute_q_size(g, k))


@given(
    st.integers(min_value=6, max_value=24),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=8),
)
def test_q_size_counting_identity(p, start, width):
    end = min(start + width, p - 1)
    g = SubcarrierGrid(p, 15e3, 2, (start, end), (start, end))
    rows = q_size(g, 3)
    for k in range(4):
        assert int(rows[k].sum()) == g.dl_size ** (2 * k + 1)
        assert np.all(rows[k] >= 0)


def test_q_size_switches_to_exact_big_integers():
    g = SubcarrierGrid(2048, 120e3, 144, (224, 1824), (224, 1824))
    rows = q_size(g, 3)
    assert rows.dtype == object  # |DL|^7 overflows int64
    assert int(rows[3].sum()) == g.dl_size**7


def test_q_size_closed_form_matches_recursion():
    # every preset at P <= 1024, and from P = 1024 on |DL|^7 passes int64, so
    # the reference recursion runs in Python ints; plus a one-subcarrier and a
    # full downlink, and sums that wrap past P
    grids = [
        ScenarioSpec(num_subcarriers=p, duplex=preset).build_grid()
        for p in (64, 256, 1024)
        for preset in DUPLEX_PRESETS
    ]
    grids += [
        tiny_grid(),
        mid_grid(),
        SubcarrierGrid(16, 15e3, 2, (9, 9), (0, 15)),
        SubcarrierGrid(16, 15e3, 2, (0, 15), (0, 15)),
        SubcarrierGrid(24, 15e3, 2, (13, 23), (0, 5)),
    ]
    for g in grids:
        ref = q_size_recursion(g, 3)
        rows = q_size(g, 3)
        assert rows.dtype == object
        assert [[int(v) for v in row] for row in rows] == [[int(v) for v in row] for row in ref]


# ---------------------------------------------------------------- basis recursion


@pytest.mark.parametrize("k", [1, 2])
def test_basis_direct_matches_tuple_sum(k):
    g = tiny_grid()
    b_iq = 0.06 * np.exp(0.4j)
    rng = np.random.default_rng(3)
    values = np.zeros(8, dtype=complex)
    values[g.dl_indices] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    x_iq = apply_iq_freq(values, b_iq)
    direct = whole_grid_chain(x_iq, k)[k]
    literal = tuple_basis(x_iq, k)
    assert np.allclose(direct, literal, atol=1e-12)


def test_basis_chain_matches_direct():
    g = mid_grid()
    b_iq = irr_to_b(25.0, 0.3)
    syms = gen_qam_symbols(g, 16, amplitude=1.0, count=3, seed=7)
    sym = syms[0]
    x_iq = apply_iq_freq(sym, b_iq)

    chain = whole_grid_chain(x_iq, k_max=3)
    assert chain.shape == (4, 32)
    assert np.array_equal(chain[0], x_iq)
    recursion = basis_recursion(x_iq, k_max=3)
    for k in range(1, 4):
        scale = np.abs(recursion[k]).max()
        assert np.abs(chain[k] - recursion[k]).max() / scale < 1e-10
    # a stack of symbols gives one chain per row, bit for bit
    stacked = whole_grid_chain(apply_iq_freq(syms, b_iq), k_max=3)
    assert stacked.shape == (3, 4, 32)
    for row, x in zip(stacked, syms):
        assert np.array_equal(row, whole_grid_chain(apply_iq_freq(x, b_iq), k_max=3))


def test_basis_chain_on_a_band_from_given_samples_is_the_band_of_the_chain():
    # given x_iq's samples, the chain skips its IFFT and keeps the band of
    # each order: bit for bit the band of the whole-grid chain
    g = mid_grid()
    syms = gen_qam_symbols(g, 16, amplitude=1.0, count=3, seed=8)
    x_iq = apply_iq_freq(syms, irr_to_b(25.0, 0.3))
    band = slice(5, 20)
    whole = whole_grid_chain(x_iq, k_max=3)
    samples = np.fft.ifft(x_iq, axis=-1)
    out = np.empty((3, 4, 15), dtype=complex)
    got = basis_chain(x_iq[..., band], 3, samples=samples.copy(), band=band, out=out)
    assert got is out and np.array_equal(got, whole[..., band])
    # order 0 alone reads no samples
    assert np.array_equal(basis_chain(x_iq[..., band], 0, band=band), whole[..., :1, band])
    # the orders above it need the samples, on a band or on the whole grid
    for values, kwargs in ((x_iq[..., band], {"band": band}), (x_iq, {})):
        with pytest.raises(ValueError, match="needs the samples"):
            basis_chain(values, 2, **kwargs)


# ---------------------------------------------------------------- power prediction


def test_mu_first_order_row_is_exact():
    # with b = 0 the order-1 row and the exact second moment agree to rounding
    g = mid_grid()
    mu = mu_tables(g, 0.0, a_digi=1.3, k_max=2)
    exact = exact_mu_gauss(g, 0.0, 0, a_digi=1.3)
    assert np.allclose(mu[0], exact, rtol=1e-12, atol=1e-12)
    assert np.allclose(mu[0, g.dl_indices], 1.3**2)


def test_mu_third_order_matches_exact_moments_without_imbalance():
    g = mid_grid()
    mu = mu_tables(g, 0.0, a_digi=1.0, k_max=1)
    exact = exact_mu_gauss(g, 0.0, 1)
    support = exact > 1e-300
    assert np.allclose(mu[1, support], exact[support], rtol=1e-9)


def test_mu_fifth_order_is_a_close_but_inexact_prediction():
    # the k = 2 recursion overcounts some index tuples; the gap stays small
    g = mid_grid()
    mu = mu_tables(g, 0.0, a_digi=1.0, k_max=2)
    exact = exact_mu_gauss(g, 0.0, 2)
    support = exact > 1e-12 * exact.max()
    rel = np.abs(mu[2, support] - exact[support]) / exact[support]
    assert 0.001 < rel.max() < 0.30
    assert np.median(rel) < 0.12


def test_exact_oracles_agree_with_each_other():
    g = tiny_grid()
    for k in (1, 2):
        tiny = exact_mu_tiny(g, k)
        gauss = exact_mu_gauss(g, 0.0, k)
        assert np.allclose(tiny, gauss, rtol=1e-9, atol=1e-12)


def test_mu_against_short_monte_carlo():
    g = mid_grid()
    mu = mu_tables(g, 0.0, a_digi=1.0, k_max=1)
    mean, se = mc_mu(g, 0.0, n_sym=20000, seed=5, k_max=1)
    support = mu[1] > 0
    dev = np.abs(mean[1, support] - mu[1, support])
    assert np.all(dev <= np.maximum(0.05 * mu[1, support], 4 * se[1, support]))


def test_mu_tables_match_convolution_reference():
    # the FFT correlation against the O(P^2) convolution it replaced: round-off
    # only, never negative, exact zeros kept, and the same retained orders
    grids = [
        ScenarioSpec(num_subcarriers=p, duplex=preset).build_grid()
        for p in (64, 256, 1024, 4096)
        for preset in DUPLEX_PRESETS
    ]
    grids += [
        SubcarrierGrid(4096, 60e3, 32, (100, 684), (800, 900)),  # |DL| = 585
        SubcarrierGrid(1024, 60e3, 32, (100, 400), (500, 600)),
        SubcarrierGrid(4096, 60e3, 32, (3990, 4095), (10, 200)),
        SubcarrierGrid(64, 60e3, 16, (10, 10), (5, 30)),
    ]
    pa = default_measured_pa()
    rng = np.random.default_rng(8)
    for g in grids:
        a_digi = ScenarioSpec().drive_amplitude(g)
        re, im = rng.standard_normal((2, g.num_subcarriers))
        h = 0.05 * (re + 1j * im)
        for b_iq in (0.0, irr_to_b(25.0, 0.3)):
            for k_max in (1, 2, 3):
                ref = mu_tables_conv(g, b_iq, a_digi, k_max)
                mu = mu_tables(g, b_iq, a_digi, k_max)
                scale = ref.max(axis=1, keepdims=True)
                assert np.all(np.abs(mu - ref) <= 1e-12 * scale)
                assert np.all(mu >= 0)
                assert np.all(mu[ref == 0] == 0)
                a_hat = np.array([pa[k] if k < len(pa) else 0.0 for k in range(k_max + 1)])
                power = predict_si_power(a_hat, ref, h)[1:, g.ul_indices]
                for gamma in 1.01 * np.geomspace(power[power > 0].min(), power.max(), 13):
                    assert np.array_equal(
                        select_basis(a_hat, mu, h[g.ul_band], gamma, k_max, g),
                        select_basis(a_hat, ref, h[g.ul_band], gamma, k_max, g),
                    )


def test_mu_scales_with_drive_and_imbalance():
    g = mid_grid()
    base = mu_tables(g, 0.0, a_digi=1.0, k_max=2)
    louder = mu_tables(g, 0.0, a_digi=2.0, k_max=2)
    # mu_k scales as a^(2(2k+1))
    for k in range(3):
        assert np.allclose(louder[k], base[k] * 4.0 ** (2 * k + 1), rtol=1e-12)
    b_iq = irr_to_b(25.0, 0.0)
    tilted = mu_tables(g, b_iq, a_digi=1.0, k_max=2)
    factor = (1 + abs(b_iq) ** 2) ** 2
    assert np.allclose(tilted[0], base[0] * np.sqrt(factor), rtol=1e-12)
    assert np.allclose(tilted[1], base[1] * factor**1.5, rtol=1e-12)


def test_mu_tables_of_several_image_weights_stack_their_single_tables():
    # one recursion serves a sequence of weights, one table each
    g = mid_grid()
    weights = [irr_to_b(25.0, 0.3), 0.0]
    both = mu_tables(g, weights, a_digi=1.7, k_max=2)
    assert both.shape == (2, 3, g.num_subcarriers)
    for mu, b in zip(both, weights):
        assert np.array_equal(mu, mu_tables(g, b, a_digi=1.7, k_max=2))


def test_mu_moment_mode_validation_and_gap():
    # mu_tables weights both terms by B^2 ("biq"); the oracle keeps the
    # a_digi^4 weighting of the second term ("a4") for comparison
    g = mid_grid()
    with pytest.raises(ValueError, match="moment_mode"):
        mu_tables_conv(g, 0.0, 1.0, 1, moment_mode="exact")
    b_iq = irr_to_b(25.0, 0.0)
    biq = mu_tables_conv(g, b_iq, 1.0, 1, moment_mode="biq")
    a4 = mu_tables_conv(g, b_iq, 1.0, 1, moment_mode="a4")
    # the modes differ only in the self-term, which lives on the downlink set
    assert np.all(biq[1] >= a4[1])
    assert np.all(biq[1, g.dl_indices] > a4[1, g.dl_indices])
    # at b = 0, B^2 = a_digi^4, so the modes agree
    plain = mu_tables_conv(g, 0.0, 1.0, 1, moment_mode="a4")
    assert np.allclose(plain, mu_tables_conv(g, 0.0, 1.0, 1), rtol=1e-15)
    assert np.allclose(plain, mu_tables(g, 0.0, 1.0, 1), rtol=1e-12, atol=0)


# ---------------------------------------------------------------- impulse pilots


def test_impulse_pilot_peak_position_and_height():
    g = desk_grid()
    pilot = impulse_pilot(g, a_digi=1.0)
    mags = np.abs(np.fft.ifft(pilot))
    peak = int(np.argmax(mags))
    assert peak == g.cp_length
    assert mags[peak] == pytest.approx(g.dl_size / g.num_subcarriers)
    # the pre-peak body sits well below the peak
    assert 20.0 * np.log10(mags[peak] / mags[:peak].max()) > 10.0


def test_impulse_pilot_rejects_nonpositive_amplitude():
    g = desk_grid()
    with pytest.raises(ValueError, match="positive"):
        impulse_pilot(g, 0.0)
    with pytest.raises(ValueError, match="positive"):
        impulse_pilot(g, np.array([1.0, 0.0]))


@pytest.mark.parametrize(
    "duplex, p_total",
    [(preset, p) for preset in DUPLEX_PRESETS for p in (64, 256, 1024, 4096)] + [("custom", 256)],
)
def test_pilot_profile_matches_the_pilot_waveform(duplex, p_total):
    # the closed-form profile is the pilot's body divided by its peak, at every sample;
    # the custom grid has a five-subcarrier downlink
    spans = dict(dl_span=(100, 104), ul_span=(10, 50)) if duplex == "custom" else {}
    grid = ScenarioSpec(duplex=duplex, num_subcarriers=p_total, **spans).build_grid()
    body = np.fft.ifft(impulse_pilot(grid, 1.0))
    ref = body / body[grid.cp_length]
    profile = pilot_profile(grid, np.arange(grid.num_subcarriers))
    assert np.max(np.abs(profile - ref)) <= 1e-12
    assert profile[grid.cp_length] == 1.0


@pytest.mark.parametrize("k", [0, 1, 2])
def test_pilot_basis_closed_form_matches_direct(k):
    # mirror-closed downlink set, so the closed form holds with b != 0
    g = desk_grid()
    assert g.dl_start + g.dl_end == g.num_subcarriers
    b_iq = irr_to_b(25.0, 0.3)
    a = 0.8
    pilot = impulse_pilot(g, a)
    closed = impulse_pilot_basis(g, b_iq, a, k=k)
    direct = whole_grid_chain(apply_iq_freq(pilot, b_iq), k)[k]
    scale = np.abs(direct).max()
    assert np.abs(closed - direct).max() / scale < 1e-12
    # an amplitude sweep gives one pilot per row, and each row keeps the closed form
    pilots = impulse_pilot(g, np.array([0.6, a, 1.3]))
    assert pilots.shape == (3, 256) and np.array_equal(pilots[1], pilot)
    direct = whole_grid_chain(apply_iq_freq(pilots, b_iq), k)[2, k]
    closed = impulse_pilot_basis(g, b_iq, 1.3, k=k)
    assert np.abs(closed - direct).max() / np.abs(direct).max() < 1e-12


def test_pilot_basis_closed_form_without_imbalance_any_set():
    g = mid_grid()  # not mirror-closed
    closed = impulse_pilot_basis(g, 0.0, 1.1, k=2)
    direct = whole_grid_chain(impulse_pilot(g, 1.1), 2)[2]
    assert np.abs(closed - direct).max() / np.abs(direct).max() < 1e-12


def test_pilot_basis_validation():
    g = mid_grid()
    with pytest.raises(ValueError, match="mirror-closed"):
        impulse_pilot_basis(g, irr_to_b(25.0), 1.0, k=1)


# ---------------------------------------------------------------- power forecast


def test_predict_si_power_shapes_and_values():
    g = mid_grid()
    mu = mu_tables(g, 0.0, 1.0, 1)
    a_hat = np.array([2.0, 0.5j])
    h = np.full(32, 3.0 + 0j)
    out = predict_si_power(a_hat, mu, h)
    assert out.shape == (2, 32)
    assert np.allclose(out[0], 4.0 * mu[0] * 9.0)
    assert np.allclose(out[1], 0.25 * mu[1] * 9.0)
    with pytest.raises(ValueError, match="orders"):
        predict_si_power(np.ones(3), mu, h)
    with pytest.raises(ValueError, match="subcarrier count"):
        predict_si_power(a_hat, mu, h[:10])

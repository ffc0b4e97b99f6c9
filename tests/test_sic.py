import re

import numpy as np
import pytest

import flexsic.sic as sic
from flexsic.counters import OpCounter, fft_adds, fft_mults, ls_costs
from flexsic.imd import (
    impulse_pilot,
    mu_tables,
    predict_si_power,
)
from flexsic.impairments import apply_pa, default_measured_pa, irr_to_b
from flexsic.ofdm import SubcarrierGrid, gen_qam_symbols
from flexsic.scenario import DUPLEX_PRESETS, ScenarioSpec, run_scenario
from flexsic.sic import (
    SingularSystemError,
    TrainingBuffer,
    _ls_solve_stack,
    baseline_full_ls,
    baseline_linear,
    basis_stack,
    estimate_channel,
    estimate_iq,
    estimate_linear_channel,
    estimate_pa,
    ls_solve,
    precombine,
    run_full_ls,
    run_sic,
    select_basis,
)
from oracles import (
    apply_iq_freq,
    baseline_full_ls_loop,
    estimate_channel_loop,
    estimate_iq_loop,
    ls_solve_ref,
    ls_solve_stack_qr,
    mirror_values,
    run_sic_loop,
    select_basis_loop,
    whole_grid_chain,
)


def ibfd_grid():
    # mirror-closed downlink set: dl_start + dl_end == P
    return SubcarrierGrid(64, 120e3, 8, (8, 56), (8, 56))


def sbfd_grid():
    return SubcarrierGrid(64, 120e3, 8, (8, 40), (46, 62))


def flat_channel(grid, gain=0.02 + 0.005j):
    return np.full(grid.num_subcarriers, gain, dtype=np.complex128)


def tapped_channel(grid, seed=0, n_taps=5):
    rng = np.random.default_rng(seed)
    taps = 0.02 * (rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps))
    taps[0] += 0.05  # keep a dominant first tap
    return np.fft.fft(taps, grid.num_subcarriers)


def forward_spectrum(values, pa, b_iq, chan_freq, rng=None, sigma=0.0):
    """Received spectrum in the circular picture: IQ image, PA, channel, body noise."""
    xiq = values + b_iq * np.conj(mirror_values(values))
    t = np.fft.ifft(xiq)
    y = np.fft.fft(apply_pa(t, pa)) * chan_freq
    if rng is not None and sigma > 0:
        noise = rng.standard_normal(len(y)) + 1j * rng.standard_normal(len(y))
        y = y + np.fft.fft((sigma / np.sqrt(2.0)) * noise)
    return y


def make_buffer(grid, pa, b_iq, chan_freq, seed=0, a_digi=1.0, sigma=0.0, n_train=14):
    # four impulse pilots swept over peak amplitudes 0.6..2.0, then data symbols
    rng = np.random.default_rng(seed + 1000) if sigma > 0 else None
    scale = grid.num_subcarriers / grid.dl_size
    pilots = impulse_pilot(grid, np.linspace(0.6, 2.0, 4) * scale)
    n_data = n_train - len(pilots)
    tx = np.concatenate([pilots, gen_qam_symbols(grid, 16, a_digi, n_data, seed)])
    rx = np.array([forward_spectrum(x, pa, b_iq, chan_freq, rng, sigma) for x in tx])
    return TrainingBuffer(grid=grid, tx=tx, rx=rx, n_impulse=len(pilots))


def retained_mask(grid, k_max, basis_sets, unestimated=()):
    """(k_max + 1, |UL|) retained-order mask from the kept-order sets K_p of grid subcarriers p."""
    lo = grid.ul_set[0]
    mask = np.zeros((k_max + 1, grid.ul_size), dtype=bool)
    mask[0] = True
    for p, kset in basis_sets.items():
        for k in kset:
            mask[k, p - lo] = True
    mask[:, [p - lo for p in unestimated]] = False
    return mask


def every_order(grid, k_max):
    """Retained-order mask that keeps orders 0..k_max at every uplink subcarrier."""
    return np.ones((k_max + 1, grid.ul_size), dtype=bool)


def assert_stack_matches_rows(run, xs, grid):
    """run(x, counter) on a (B, P) stack equals run on each row alone and charges B rows."""
    counter = OpCounter()
    est = run(xs, counter)
    assert est.shape == (len(xs), grid.ul_size)
    for row, x in zip(est, xs):
        one = OpCounter()
        ref = run(x, one)
        assert np.max(np.abs(row - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert counter.rows() == [(stage, kind, len(xs) * value) for stage, kind, value in one.rows()]


K_MAX = 2


# ---------------------------------------------------------------- ls_solve


def test_ls_solve_single_column_ratio():
    phi = np.array([1 + 1j, 2.0, -3j, 0.5])
    c = ls_solve(phi[:, None], 2.0 * phi)
    assert c[0] == pytest.approx(2.0)


def test_ls_solve_orthonormal_projects():
    a = np.eye(4, 2, dtype=complex)
    y = np.array([1.0, 2j, 5.0, -1.0])
    c = ls_solve(a, y)
    assert np.allclose(c, a.conj().T @ y)


def test_ls_solve_recovers_random_system():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
    truth = np.array([1.5, -0.2j, 0.03 + 0.4j])
    c = ls_solve(a, a @ truth)
    assert np.allclose(c, truth, rtol=1e-9)


def test_ls_solve_singular_names_column():
    a = np.zeros((4, 2), dtype=complex)
    a[:, 0] = [1, 2, 3, 4]
    with pytest.raises(SingularSystemError, match="column") as err:
        ls_solve(a, np.ones(4, dtype=complex))
    assert err.value.column == 1
    with pytest.raises(SingularSystemError, match="all zero"):
        ls_solve(np.zeros((3, 1), dtype=complex), np.ones(3, dtype=complex))


def test_ls_solve_shape_guards():
    with pytest.raises(ValueError, match="underdetermined"):
        ls_solve(np.ones((2, 3), dtype=complex), np.ones(2, dtype=complex))
    with pytest.raises(ValueError, match="2-D"):
        ls_solve(np.ones(3, dtype=complex), np.ones(3, dtype=complex))
    with pytest.raises(ValueError, match="row count"):
        ls_solve(np.ones((3, 1), dtype=complex), np.ones(4, dtype=complex))


def test_ls_solve_auto_ridge_on_bad_conditioning():
    base = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)
    a = np.stack([base, base + 1e-9 * np.arange(4)], axis=1)
    c = ls_solve(a, base)  # must not raise, must stay finite
    assert np.all(np.isfinite(c))


def test_ls_solve_explicit_ridge_shrinks():
    # an explicit ridge reaches only the stacked solver, whose full_ls refit passes one
    rng = np.random.default_rng(2)
    a = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
    y = a @ np.array([3.0, -2.0])
    plain = ls_solve(a, y)
    shrunk, solved = _ls_solve_stack(a[:, :, None], y[:, None], 1e3, None, "s")
    assert solved[0] and np.linalg.norm(shrunk[:, 0]) < np.linalg.norm(plain)


def test_ls_solve_charges_counter():
    counter = OpCounter()
    a = np.eye(4, 2, dtype=complex)
    ls_solve(a, np.ones(4, dtype=complex), counter=counter, stage="here")
    assert counter.mults("here") == 4 * 4 + 2 * 4 + 8


def test_ls_solve_and_a_stack_of_one_follow_one_rule():
    rng = np.random.default_rng(7)

    def system(m, k):
        return rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))

    base = np.ones(6, dtype=complex)
    ill = np.stack([base, base + 1e-9 * np.arange(6), system(6, 1)[:, 0]], axis=1)
    deficient = system(6, 3)
    deficient[:, 2] = 2.0 * deficient[:, 0] - deficient[:, 1]
    cases = [system(4, 3), system(128, 8), ill, deficient, np.zeros((5, 2), dtype=complex)]
    # the |R_kk| ratio of the ill-conditioned system puts it on the auto ridge
    diag = np.abs(np.diagonal(np.linalg.qr(ill, mode="r")))
    assert diag.max() > 1e8 * diag.min() > 1e-4 * diag.max()
    solvable = 0
    for a in cases:
        y = system(len(a), 1)[:, 0]
        got_counter, stack_counter = OpCounter(), OpCounter()
        stacked, solved = _ls_solve_stack(a[:, :, None], y[:, None], 0.0, stack_counter, "ls")
        if not solved[0]:
            # refused exactly where the stack leaves the system unsolved
            with pytest.raises(SingularSystemError):
                ls_solve(a, y, counter=got_counter)
        else:
            solvable += 1
            # two back-substitutions of one rule: equal to a backward-stable solve's rounding
            bound = ridged_lstsq(a[None], y[None], auto_ridge(a[None]))[1]
            assert_within(ls_solve(a, y, counter=got_counter)[None], stacked.T, bound)
        assert got_counter.rows() == stack_counter.rows()
    assert solvable == 3
    # the rank-deficient and the all-zero systems are refused, each with its column
    with pytest.raises(SingularSystemError, match="column 2"):
        ls_solve(deficient, base)
    with pytest.raises(SingularSystemError, match="all zero"):
        ls_solve(cases[-1], base[:5])


def band_last(a, y):
    """(n, M, K) systems and (n, M) observations in _ls_solve_stack's (M, K, n), (M, n) layout."""
    return a.transpose(1, 2, 0), y.T


def auto_ridge(a):
    """ls_solve's ridge of each stacked system: (top / 1e8)^2 when its |R_kk| ratio exceeds 1e8."""
    diag = np.abs(np.diagonal(np.linalg.qr(a, mode="r"), axis1=1, axis2=2))
    top, low = diag.max(axis=1), diag.min(axis=1)
    return np.where(top > 1e8 * low, (top / 1e8) ** 2, 0.0)


def ridged_lstsq(a, y, ridge):
    """np.linalg.lstsq of [A; sqrt(ridge) I] against [y; 0] for each of (n, M, K) systems.

    Returns the (n, K) coefficients c and the (n,) bound on the 2-norm
    distance of a solve with backward error (M + K) eps from them:
    (M + K) eps kappa (2 ||c|| + (kappa + 1) ||r|| / ||B||), B = [A; sqrt(ridge) I],
    kappa its condition number and r its residual, the first-order
    perturbation bound of least squares (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Theorem 20.1).
    """
    n, m, k = a.shape
    lifted = np.concatenate([a, np.sqrt(ridge)[:, None, None] * np.eye(k)], axis=1)
    rhs = np.concatenate([y, np.zeros((n, k))], axis=1)
    coeffs = np.array([np.linalg.lstsq(s, t, rcond=None)[0] for s, t in zip(lifted, rhs)])
    coeffs = coeffs.reshape(n, k)
    resid = np.linalg.norm(rhs - (lifted @ coeffs[:, :, None])[:, :, 0], axis=1)
    kappa = np.linalg.cond(lifted)
    scale = np.linalg.norm(lifted, 2, axis=(1, 2))
    spread = 2 * np.linalg.norm(coeffs, axis=1) + (kappa + 1) * resid / scale
    return coeffs, (m + k) * np.finfo(float).eps * kappa * spread


def assert_within(coeffs, ref, bound):
    """Each row of coeffs lies within its bound of ref's row, in the 2-norm."""
    error = np.linalg.norm(coeffs - ref, axis=1)
    assert (error <= bound).all(), (error / bound).max()


def test_ls_solve_matches_an_independent_least_squares_reference():
    # the five systems of test_ls_solve_and_a_stack_of_one_follow_one_rule,
    # drawn alike; that test holds ls_solve and the stack to each other, which
    # shared arithmetic would pass even if both were wrong, so here each
    # solvable system meets np.linalg.lstsq of its ridge's own problem
    rng = np.random.default_rng(7)

    def system(m, k):
        return rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))

    base = np.ones(6, dtype=complex)
    ill = np.stack([base, base + 1e-9 * np.arange(6), system(6, 1)[:, 0]], axis=1)
    deficient = system(6, 3)
    deficient[:, 2] = 2.0 * deficient[:, 0] - deficient[:, 1]
    cases = [system(4, 3), system(128, 8), ill, deficient, np.zeros((5, 2), dtype=complex)]
    solvable = 0
    for a in cases:
        y = system(len(a), 1)[:, 0]
        if not qr_ratio(a[None])[0] < 1e12:
            with pytest.raises(SingularSystemError):
                ls_solve(a, y)
            continue
        solvable += 1
        ridge = auto_ridge(a[None])
        assert (ridge[0] > 0) == (a is ill)
        assert_within(ls_solve(a, y)[None], *ridged_lstsq(a[None], y[None], ridge))
    assert solvable == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no 0 / 0 on a zero column
def test_ls_solve_stack_matches_per_system_reference():
    # degenerate systems amid 600 healthy ones
    rng = np.random.default_rng(5)
    n, m, k = 600, 6, 3
    a = rng.standard_normal((n, m, k)) + 1j * rng.standard_normal((n, m, k))
    y = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    a[100, 0, 0] = 0.0  # the first reflector's leading entry is 0: its phase is 1
    a[200, :, 1] = 1j * rng.standard_normal(m)  # purely imaginary column
    a[250, :, 1] = 0.0  # zero middle column: |R_11| = 0
    a[300] = 0.0  # all zero
    a[400, :, 2] = 2j * a[400, :, 0]  # rank deficient
    a[500, :, 1] = a[500, :, 0] * (1.0 + 1e-10 * rng.standard_normal(m))  # auto ridge
    ridge = np.where(np.arange(n) % 2 == 0, 0.0, 0.5)  # explicit ridge on odd systems
    for regularization in (0.0, 0.5, ridge):
        counter, ref_counter = OpCounter(), OpCounter()
        coeffs, solved = _ls_solve_stack(*band_last(a, y), regularization, counter, "s")
        assert coeffs.shape == (k, n)
        per_system = np.broadcast_to(regularization, (n,))
        for i in range(n):
            try:
                ref = ls_solve_ref(a[i], y[i], per_system[i], ref_counter, "s")
            except SingularSystemError:
                assert not solved[i] and np.all(coeffs[:, i] == 0)
                continue
            assert solved[i]
            if i == 500 and per_system[i] == 0.0:
                # the auto-ridged system: both sides solve [A; sqrt(ridge) I] c ~= [y; 0]
                bound = ridged_lstsq(a[i : i + 1], y[i : i + 1], auto_ridge(a[i : i + 1]))[1]
                assert_within(coeffs[:, i : i + 1].T, ref[None], bound)
            else:
                # the ridged zero column's coefficient is 0, the reference's round-off
                atol = 1e-15 if i == 250 else 0.0
                np.testing.assert_allclose(coeffs[:, i], ref, rtol=1e-10, atol=atol)
        assert counter.rows() == ref_counter.rows()
    assert not solved[[250, 300, 400]].any()
    counter = OpCounter()
    _ls_solve_stack(*band_last(a[[250, 300, 400]], y[[250, 300, 400]]), 0.0, counter, "s")
    assert counter.rows() == []  # nothing solved, nothing charged


def graded_systems(rng, ratios, m=8, k=3):
    """Systems A = Q diag(d) T whose |R_kk| fall geometrically from 1 to 1/ratio.

    Q has orthonormal columns and T is unit upper triangular with random
    couplings, so R = diag(d) T up to phases and the |R_kk| ratio of each
    system is set exactly.
    """
    n = len(ratios)
    z = rng.standard_normal((n, m, k)) + 1j * rng.standard_normal((n, m, k))
    q = np.linalg.qr(z)[0]
    t = np.triu(rng.standard_normal((n, k, k)) + 1j * rng.standard_normal((n, k, k)), 1)
    t = t + np.eye(k)
    d = np.asarray(ratios, dtype=float)[:, None] ** -np.linspace(0.0, 1.0, k)
    return q @ (d[:, :, None] * t)


def hidden_dependence(rng, n, m=8, gap=1e-3, noise=0.0):
    """(n, m, 3) systems whose third column is (a_1 - a_0) / gap, plus noise.

    a_0 has unit norm and a_1 = a_0 + gap v with v a unit vector orthogonal
    to a_0, so every column has a norm near 1 while the third is dependent
    (or, with noise, nearly so) through coefficients of size 1 / gap, which
    the column norms alone cannot see.
    """
    z = rng.standard_normal((n, m, 3)) + 1j * rng.standard_normal((n, m, 3))
    q = np.linalg.qr(z[:, :, :2])[0]
    a = np.empty_like(z)
    a[:, :, 0] = q[:, :, 0]
    a[:, :, 1] = q[:, :, 0] + gap * q[:, :, 1]
    a[:, :, 2] = (a[:, :, 1] - a[:, :, 0]) / gap + noise * z[:, :, 2]
    return a


def qr_ratio(a):
    """max |R_kk| / min |R_kk| of each stacked system, by the QR rule's own diagonal."""
    diag = np.abs(np.diagonal(np.linalg.qr(a, mode="r"), axis1=1, axis2=2))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(diag.min(axis=1) > 0, diag.max(axis=1) / diag.min(axis=1), np.inf)


def test_ls_solve_stack_judges_every_system_by_the_qr_rule():
    # systems whose |R_kk| ratios run from 1 to 1e13, across the 1e8
    # auto-ridge and the 1e12 rank limit, with an all-zero and an exactly
    # dependent system among them, each judged on its own
    rng = np.random.default_rng(13)
    levels = np.array([1, 10, 1e3, 1e5, 3e5, 3e6, 1e7, 3e7, 3e8, 1e9, 1e11, 3e11, 3e12, 1e13])
    n, m, k = 612, 8, 3
    a = graded_systems(rng, levels[np.arange(n) % len(levels)], m, k)
    y = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    a[300] = 0.0
    a[301, :, 2] = (0.5 - 2j) * a[301, :, 0]
    ridge = np.where(np.arange(n) % 5 == 0, 1e-3, 0.0)  # explicit ridge on every fifth system

    def check(a, y, regularization):
        """Solved mask, charges and coefficients of one stack by the QR rule; returns the mask."""
        counter = OpCounter()
        coeffs, solved = _ls_solve_stack(*band_last(a, y), regularization, counter, "s")
        given = np.broadcast_to(regularization, (len(a),))
        assert np.array_equal(solved, (given > 0) | (qr_ratio(a) < 1e12))
        mults, adds = ls_costs(*a.shape[1:])
        count = np.count_nonzero(solved)
        assert (counter.mults("s"), counter.adds("s")) == (count * mults, count * adds)
        assert not coeffs[:, ~solved].any()
        # every solved system solves its ridge's own problem, the ridge 0,
        # automatic or given, to the rounding of a backward-stable solve
        ridges = np.where(given > 0, given, auto_ridge(a))[solved]
        assert_within(coeffs.T[solved], *ridged_lstsq(a[solved], y[solved], ridges))
        return solved

    for regularization in (0.0, 1e-3, ridge):
        check(a, y, regularization)
    # with no ridge every system under the rank limit is solved, and none at
    # or above it. The old rule, the Gram solve, lost six of them: their
    # auto-ridge (top / 1e8)^2 sits at the rounding level of their Gram
    # matrix, so gram + ridge I rounded to an exactly singular matrix. Each
    # QR factor of [A; sqrt(ridge) I] solves them, and they are charged.
    ratios = qr_ratio(a)
    coeffs, solved = _ls_solve_stack(*band_last(a, y), 0.0, None, "s")
    assert np.array_equal(solved, ratios < 1e12)
    lost = np.flatnonzero(~ls_solve_stack_qr(a, y, 0.0, None, "s")[1] & (ratios < 1e12))
    assert len(lost) == 6 and (ratios[lost] > 1e8).all()
    assert_within(coeffs.T[lost], *ridged_lstsq(a[lost], y[lost], auto_ridge(a[lost])))
    counter = OpCounter()
    _ls_solve_stack(*band_last(a[lost], y[lost]), 0.0, counter, "s")
    assert counter.mults("s") == len(lost) * ls_costs(m, k)[0]

    # dependence behind large coefficients, one system per stack: a column
    # 1e3 times another, exactly and with 1e-9 relative noise, and a unit
    # column that is 1e3 times the gap of two nearly parallel ones. The
    # stack leaves a system unsolved exactly where ls_solve refuses it.
    z = rng.standard_normal((8, m, 3)) + 1j * rng.standard_normal((8, m, 3))
    scaled = z.copy()
    scaled[:, :, 2] = 1e3 * z[:, :, 0]
    noisy = z.copy()
    noisy[:, :, 2] = 1e3 * z[:, :, 0] * (1.0 + 1e-9 * rng.standard_normal((8, m)))
    hidden = hidden_dependence(rng, 8)
    for system in np.concatenate([scaled, noisy, hidden, hidden_dependence(rng, 8, noise=1e-7)]):
        solved = check(system[None], y[:1], 0.0)[0]
        try:
            ls_solve(system, y[0])
        except SingularSystemError:
            assert not solved
        else:
            assert solved
    for system in np.concatenate([scaled, hidden]):
        with pytest.raises(SingularSystemError):
            ls_solve(system, y[0])


def test_ls_solve_stack_on_a_sub_stack_matches_the_whole_band():
    rng = np.random.default_rng(17)
    levels = np.array([1, 10, 1e3, 1e5, 3e6, 1e9, 3e12])
    n, m = 2 * sic._QR_BLOCK + 452, 6  # two whole blocks of the band factor and a part
    a = graded_systems(rng, levels[rng.integers(len(levels), size=n)], m)
    y = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    a[7] = 0.0
    coeffs, solved = _ls_solve_stack(*band_last(a, y), 0.0, None, "s")
    for size in (1, 37, 250, 1500):
        part = np.sort(rng.choice(n, size=size, replace=False))
        sub, sub_solved = _ls_solve_stack(*band_last(a[part], y[part]), 0.0, None, "s")
        assert np.array_equal(sub_solved, solved[part])
        assert np.abs(sub - coeffs[:, part]).max() <= 1e-13 * np.abs(coeffs).max()


def test_ls_solve_stack_takes_one_column_and_an_empty_band():
    rng = np.random.default_rng(19)
    n, m = 40, 5
    a = rng.standard_normal((n, m, 1)) + 1j * rng.standard_normal((n, m, 1))
    y = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    a[3] = 0.0
    counter, ref_counter = OpCounter(), OpCounter()
    coeffs, solved = _ls_solve_stack(*band_last(a, y), 0.0, counter, "s")
    ref_coeffs, ref_solved = ls_solve_stack_qr(a, y, 0.0, ref_counter, "s")
    assert coeffs.shape == (1, n) and np.array_equal(solved, ref_solved) and not solved[3]
    np.testing.assert_allclose(coeffs.T, ref_coeffs, rtol=1e-13, atol=0)
    assert counter.rows() == ref_counter.rows()

    counter = OpCounter()
    coeffs, solved = _ls_solve_stack(
        np.zeros((m, 3, 0), dtype=complex), np.zeros((m, 0), dtype=complex), 0.0, counter, "s"
    )
    assert coeffs.shape == (3, 0) and solved.shape == (0,) and counter.rows() == []


def test_ls_solve_stack_with_positive_ridges_never_factors_the_band(monkeypatch):
    rng = np.random.default_rng(23)
    n, m, k = 30, 6, 3
    a = rng.standard_normal((n, m, k)) + 1j * rng.standard_normal((n, m, k))
    y = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    ridge = rng.uniform(0.1, 1.0, n)

    def refused(*args):
        raise AssertionError("the band factor was computed")

    monkeypatch.setattr(sic, "_band_qr", refused)
    coeffs, solved = _ls_solve_stack(*band_last(a, y), ridge, None, "s")
    assert solved.all()
    assert_within(coeffs.T, *ridged_lstsq(a, y, ridge))


def test_qr_rule_factors_a_system_given_a_ridge_over_its_lift_alone(monkeypatch):
    # a ridged system is solved from the QR of [A y] over [sqrt(ridge) I 0]
    # alone, so a stack given its ridges takes one QR and never factors the band
    rng = np.random.default_rng(31)
    n, m, k = 25, 7, 3
    a = rng.standard_normal((n, m, k)) + 1j * rng.standard_normal((n, m, k))
    y = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    ridge = rng.uniform(0.1, 1.0, n)
    calls = []
    qr = np.linalg.qr

    def counted(x, mode="reduced"):
        calls.append(np.shape(x))
        return qr(x, mode=mode)

    def refused(*args):
        raise AssertionError("the band factor was computed")

    monkeypatch.setattr(np.linalg, "qr", counted)
    monkeypatch.setattr(sic, "_band_qr", refused)
    coeffs, solved = _ls_solve_stack(*band_last(a, y), ridge, None, "s")
    assert calls == [(n, m + k, k + 1)]
    monkeypatch.undo()
    assert solved.all()
    assert_within(coeffs.T, *ridged_lstsq(a, y, ridge))


def test_back_sweep_reads_nothing_below_the_diagonal():
    # _r_rows leaves the reflectors below the diagonal, so NaN there changes no bit
    rng = np.random.default_rng(37)
    for n, k in ((5, 1), (40, 3), (9, 8), (0, 2)):
        r = rng.standard_normal((n, k, k + 1)) + 1j * rng.standard_normal((n, k, k + 1))
        r += 2.0 * np.eye(k, k + 1)
        dirty = np.where(np.tri(k, k + 1, -1, dtype=bool), np.nan, r)
        swept = sic._back_sweep(r.transpose(1, 2, 0))
        assert swept.shape == (k, n) and np.isfinite(swept).all()
        assert np.array_equal(sic._back_sweep(dirty.transpose(1, 2, 0)), swept)
        # and each system solves as _back_solve solves it alone, to round-off
        alone = np.array([sic._back_solve(rows) for rows in dirty.tolist()]).reshape(n, k)
        np.testing.assert_allclose(swept.T, alone, rtol=1e-13, atol=0)


def test_ls_solve_square_systems_with_and_without_the_auto_ridge():
    # M = K: the QR of [A y] has K rows, R and z = Q^H y with no residual row
    rng = np.random.default_rng(29)
    n, k = 40, 3
    stiff = np.arange(n) % 2 == 1
    a = graded_systems(rng, np.where(stiff, 1e10, 10.0), m=k, k=k)
    y = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    ridge = auto_ridge(a)
    assert np.array_equal(ridge > 0, stiff)
    ref, bound = ridged_lstsq(a, y, ridge)
    assert_within(np.array([ls_solve(a[i], y[i]) for i in range(n)]), ref, bound)
    counter = OpCounter()
    coeffs, solved = _ls_solve_stack(*band_last(a, y), 0.0, counter, "s")
    assert solved.all() and counter.mults("s") == n * ls_costs(k, k)[0]
    # the healthy systems are solved from the band's QR factor, the stiff
    # ones with their ridge by the QR rule, each to the QR's rounding
    assert_within(coeffs.T, ref, bound)


def test_ls_solve_rejects_negative_ridge():
    # a negative ridge has no real sqrt(ridge) I to lift the system with
    a = np.eye(4, 2, dtype=complex)[:, :, None]
    with pytest.raises(ValueError, match="nonnegative"):
        _ls_solve_stack(a, np.ones((4, 1), dtype=complex), -1.0, None, "s")


# ---------------------------------------------------------------- stacked estimators


def mirrored_grid(p_total):
    # the ibfd preset's band: dl_start + dl_end == P, uplink on the same span
    start = round(0.109 * p_total)
    return SubcarrierGrid(p_total, 120e3, 8, (start, p_total - start), (start, p_total - start))


@pytest.mark.parametrize("p_total", [64, 1024])
def test_estimate_iq_matches_loop_reference(p_total):
    g = mirrored_grid(p_total)
    pa = default_measured_pa()
    b = 0.05 * np.exp(0.4j)
    chan = tapped_channel(g, seed=31)
    a_digi = 0.5 * p_total / np.sqrt(g.dl_size)
    buf = make_buffer(g, pa, b, chan, seed=31, a_digi=a_digi)
    pairs = [p for p in g.dl_indices if p_total - p != p]
    late, ridged = pairs[3 * len(pairs) // 4], pairs[len(pairs) // 8]
    rng = np.random.default_rng(32)
    tx, rx = buf.tx.copy(), buf.rx.copy()
    for i in range(buf.n_impulse, len(tx)):
        tx[i, p_total - late] = 0.0  # zero mirror: both pairs of late are singular
        wobble = 1.0 + 1e-10 * rng.standard_normal()
        tx[i, p_total - ridged] = np.conj(0.5 * tx[i, ridged] * wobble)  # near collinear
        rx[i] = forward_spectrum(tx[i], pa, b, chan)
    buf = TrainingBuffer(grid=g, tx=tx, rx=rx, n_impulse=buf.n_impulse)
    tx = tx[buf.n_impulse:]
    pair_cond = np.linalg.cond(np.stack([tx[:, ridged], np.conj(tx[:, p_total - ridged])], axis=1))
    assert 1e8 < pair_cond < 1e12  # auto ridge, not rank deficient

    counter, ref_counter = OpCounter(), OpCounter()
    b_hat = estimate_iq(buf, counter=counter)
    b_ref = estimate_iq_loop(buf, counter=ref_counter)
    assert abs(b_hat - b_ref) <= 1e-12 * abs(b_ref)
    assert counter.rows() == ref_counter.rows()


@pytest.mark.parametrize(
    "grid, b",
    [
        (mirrored_grid(64), irr_to_b(25.0, 0.3)),
        (mirrored_grid(1024), irr_to_b(25.0, 0.3)),
        (sbfd_grid(), irr_to_b(25.0, 0.3)),
        # without an image the linear column is zero on uplink 777..904,
        # so the ridge refit covers both blocks of the 305-subcarrier stack
        (SubcarrierGrid(1024, 120e3, 8, (112, 776), (600, 904)), 0.0),
    ],
    ids=["ibfd-64", "ibfd-1024", "sbfd-fallback", "overlap-1024-fallback"],
)
def test_full_ls_matches_loop_reference(grid, b):
    pa = default_measured_pa()
    chan = tapped_channel(grid, seed=33)
    buf = make_buffer(grid, pa, b, chan, seed=33, a_digi=0.5 * 8 / np.sqrt(grid.dl_size))
    counter, ref_counter = OpCounter(), OpCounter()
    chain = basis_stack(buf.tx, b, K_MAX, grid)
    coeffs = baseline_full_ls(buf, chain, counter=counter)
    ref = baseline_full_ls_loop(buf, grid, K_MAX, b, 0.0, counter=ref_counter)[:, grid.ul_band]
    size = np.linalg.norm(ref, axis=0)
    assert np.all(size > 0)
    # relative to each subcarrier's coefficient vector: the stacked A^H y
    # rounds differently from a matrix-vector product, and a high-order
    # coefficient can sit orders of magnitude below the linear one
    assert np.all(np.linalg.norm(coeffs - ref, axis=0) <= 1e-10 * size)
    assert np.array_equal(coeffs != 0, ref != 0)
    assert counter.rows() == ref_counter.rows()


def test_full_ls_ridges_every_sbfd_system_and_no_other(monkeypatch):
    # at P = 256 with the default image weight, the overlap and ibfd uplinks
    # see a nonzero linear column b conj(X[-p]), so no full_ls system is
    # ridged there; the sbfd uplink sees none, and every system is ridged
    lifted = []
    lift = sic._lifted

    def counted(ay, ridge):
        lifted.append(len(ay) if ay.ndim == 3 else 1)
        return lift(ay, ridge)

    monkeypatch.setattr(sic, "_lifted", counted)
    for duplex, expected in (("ibfd", 0), ("overlap", 0), ("sbfd", 24)):
        lifted.clear()
        spec = ScenarioSpec(num_subcarriers=256, duplex=duplex, cancellers=("full_ls",))
        run_scenario(spec)
        assert sum(lifted) == expected
    assert spec.build_grid().ul_size == 24


A_HAT = np.array([35.0 + 0.2j, -2.3 + 0.01j, 0.002])


@pytest.mark.parametrize(
    "grid, b, a_hat",
    [
        (mirrored_grid(64), irr_to_b(25.0, 0.3), A_HAT),
        (mirrored_grid(1024), irr_to_b(25.0, 0.3), A_HAT),
        # narrow downlink: the upper uplink subcarriers see no regressor at all
        (SubcarrierGrid(64, 120e3, 8, (4, 10), (12, 30)), 0.0, A_HAT),
        # split allocation fitted with the linear order alone, as iq_only is:
        # only the IQ image reaches the uplink band, 11 of its 17 subcarriers
        (sbfd_grid(), irr_to_b(25.0, 0.3), A_HAT[:1]),
    ],
    ids=["ibfd-64", "ibfd-1024", "unreachable-64", "sbfd-iq-only-64"],
)
def test_estimate_channel_matches_loop_reference(grid, b, a_hat):
    pa = default_measured_pa()
    chan = tapped_channel(grid, seed=34)
    a_digi = 0.5 * grid.num_subcarriers / np.sqrt(grid.dl_size)
    buf = make_buffer(grid, pa, b, chan, seed=34, a_digi=a_digi, sigma=1e-6)
    counter, ref_counter = OpCounter(), OpCounter()
    chain = basis_stack(buf.tx[buf.n_impulse:], b, K_MAX, grid)
    h_hat = estimate_channel(buf, chain, a_hat, counter=counter)
    h_ref = estimate_channel_loop(buf, a_hat, b, K_MAX, counter=ref_counter)[grid.ul_band]
    # the estimated subcarriers are those with a nonzero channel estimate
    assert np.array_equal(h_hat != 0, h_ref != 0)
    assert np.all(np.abs(h_hat - h_ref) <= 1e-12 * np.abs(h_ref))
    assert counter.rows() == ref_counter.rows()


# ---------------------------------------------------------------- buffers


def test_training_buffer_ordering_and_shapes():
    g = ibfd_grid()
    zeros = np.zeros((3, 64), dtype=complex)
    rx = np.arange(3 * 64).reshape(3, 64).astype(complex)
    buf = TrainingBuffer(grid=g, tx=zeros, rx=rx, n_impulse=1)
    assert np.array_equal(buf.rx, rx) and buf.rx.dtype == np.complex128
    for n_impulse in (-1, 4):
        with pytest.raises(ValueError, match="n_impulse"):
            TrainingBuffer(grid=g, tx=zeros, rx=zeros, n_impulse=n_impulse)
    with pytest.raises(ValueError, match=r"tx has shape \(3, 32\), expected \(M, 64\)"):
        TrainingBuffer(grid=g, tx=zeros[:, :32], rx=zeros[:, :32], n_impulse=1)
    with pytest.raises(ValueError, match="expected"):
        TrainingBuffer(grid=g, tx=zeros[0], rx=zeros[0], n_impulse=0)
    # a received symbol that still carries its prefix is refused
    with pytest.raises(ValueError, match="rx has shape"):
        TrainingBuffer(grid=g, tx=zeros, rx=np.zeros((3, 72), dtype=complex), n_impulse=1)


def test_precombine_zeroes_the_orders_it_does_not_keep():
    g = ibfd_grid()
    unestimated = 10 - g.ul_set[0]  # band column of subcarrier 10
    h = flat_channel(g)[g.ul_band]
    h[unestimated] = 0.0
    mask = retained_mask(g, 2, {12: {2}, 20: {1, 2}})
    mask[:, unestimated] = True  # every order marked where h_hat = 0
    counter = OpCounter()
    weights = precombine(h, [2.0, 0.0, 0.5], mask, g, counter=counter)
    assert weights.shape == (3, g.ul_size) and weights.dtype == np.complex128
    assert counter.mults("coeff_combine") == 3 * g.ul_size
    assert not weights[:, unestimated].any()
    assert not weights[1].any()  # a_hat[1] = 0, though order 1 is marked at 20
    kept = mask.copy()
    kept[:, unestimated] = False
    kept[1] = False
    assert np.array_equal(weights != 0, kept)
    assert np.array_equal(weights[kept], (np.array([2.0, 0.0, 0.5])[:, None] * h)[kept])
    # the running canceller charges the nonzero weights alone
    x = gen_qam_symbols(g, 16, 1.0, 2, seed=3)
    counter = OpCounter()
    run_sic(basis_stack(x, 0.0, 2, g), weights, g, counter=counter)
    assert counter.mults("run") == 2 * np.count_nonzero(weights)
    assert counter.adds("run") == 2 * (np.count_nonzero(weights[1:]) + g.ul_size)
    with pytest.raises(ValueError, match=r"h_hat has shape \(32,\), expected \(49,\)"):
        precombine(h[:32], [1.0], every_order(g, 0), g)
    with pytest.raises(ValueError, match=r"retained has shape \(3, 49\), expected \(2, 49\)"):
        precombine(h, [1.0, 1.0], every_order(g, 2), g)
    # an estimate or a mask over the whole grid, off-band subcarriers included, is refused
    with pytest.raises(ValueError, match=r"h_hat has shape \(64,\), expected \(49,\)"):
        precombine(flat_channel(g), [1.0], every_order(g, 0), g)
    with pytest.raises(ValueError, match=r"retained has shape \(1, 64\), expected \(1, 49\)"):
        precombine(h, [1.0], np.ones((1, 64), dtype=bool), g)


# ---------------------------------------------------------------- IQ estimation


def test_estimate_iq_exact_with_linear_pa():
    g = ibfd_grid()
    pa = [2.0]
    b = 0.05 * np.exp(0.4j)
    buf = make_buffer(g, pa, b, flat_channel(g), seed=3)
    b_hat = estimate_iq(buf)
    assert abs(b_hat - b) < 1e-12


def test_estimate_iq_zero_imbalance_estimates_zero():
    g = ibfd_grid()
    buf = make_buffer(g, [2.0], 0.0, flat_channel(g), seed=4)
    assert abs(estimate_iq(buf)) < 1e-12


def test_estimate_iq_tolerates_nonlinear_pa():
    g = ibfd_grid()
    b = 0.05 * np.exp(0.4j)
    buf = make_buffer(g, default_measured_pa(), b, flat_channel(g), seed=5,
                      a_digi=0.5 * 8 / np.sqrt(49))
    b_hat = estimate_iq(buf)
    assert abs(b_hat - b) / abs(b) < 0.05


def test_estimate_iq_needs_data_and_mirror_pairs():
    g = ibfd_grid()
    buf = make_buffer(g, [1.0], 0.0, flat_channel(g), n_train=5)  # one data row
    with pytest.raises(ValueError, match="at least 2 data"):
        estimate_iq(buf)

    g2 = SubcarrierGrid(16, 120e3, 4, (2, 6), (10, 14))  # mirrors fall outside the band
    buf2 = make_buffer(g2, [1.0], 0.0, flat_channel(g2))
    with pytest.raises(ValueError, match="unidentifiable"):
        estimate_iq(buf2)


def test_estimate_iq_reports_zero_mirror_content():
    g = ibfd_grid()
    values = np.zeros(64, dtype=complex)
    values[10] = 1.0  # mirror subcarrier 54 stays empty in every symbol
    y = forward_spectrum(values, [1.0], 0.0, flat_channel(g))
    buf = TrainingBuffer(grid=g, tx=np.tile(values, (3, 1)), rx=np.tile(y, (3, 1)), n_impulse=0)
    with pytest.raises(ValueError, match="mirror content"):
        estimate_iq(buf)


# ---------------------------------------------------------------- PA estimation


def test_estimate_pa_recovers_polynomial_exactly():
    g = ibfd_grid()
    pa = default_measured_pa()
    b = irr_to_b(25.0, 0.3)
    gain = 0.02 + 0.005j
    buf = make_buffer(g, pa, b, flat_channel(g, gain), seed=6)
    a_hat = estimate_pa(buf, b, K_MAX)
    assert a_hat.shape == (K_MAX + 1,)
    # the fit carries the direct path's gain
    for k, truth in enumerate(pa):
        assert abs(a_hat[k] - gain * truth) / abs(gain * truth) < 1e-9


def test_estimate_pa_linear_amplifier_yields_no_false_nonlinearity():
    g = ibfd_grid()
    pa = [10.0]
    gain = 0.02 + 0.005j
    buf = make_buffer(g, pa, 0.0, flat_channel(g, gain), seed=7)
    a_hat = estimate_pa(buf, 0.0, K_MAX)
    assert abs(a_hat[0] - gain * 10.0) < 1e-9
    assert abs(a_hat[1]) < 1e-8
    assert abs(a_hat[2]) < 1e-8


def test_estimate_pa_validation():
    g = ibfd_grid()
    buf = make_buffer(g, default_measured_pa(), 0.0, flat_channel(g))
    keep = np.r_[0:2, buf.n_impulse:len(buf.tx)]  # two impulse rows, every data row
    short = TrainingBuffer(grid=g, tx=buf.tx[keep], rx=buf.rx[keep], n_impulse=2)
    with pytest.raises(ValueError, match="cannot identify"):
        estimate_pa(short, 0.0, K_MAX)


def test_estimate_pa_coefficients_transfer_across_channels():
    # pilot training against one channel; the polynomial stays valid on another
    g = ibfd_grid()
    pa = default_measured_pa()
    b = irr_to_b(25.0, 0.3)
    los = 0.02 + 0.005j
    buf_a = make_buffer(g, pa, b, flat_channel(g, los), seed=8)
    a_hat = estimate_pa(buf_a, b, K_MAX)

    chan_b = tapped_channel(g, seed=9)
    buf_b = make_buffer(g, pa, b, chan_b, seed=9)
    h_hat = estimate_channel(buf_b, basis_stack(buf_b.tx[buf_b.n_impulse:], b, K_MAX, g), a_hat)
    assert h_hat.shape == (g.ul_size,) and h_hat.all()
    ul = g.ul_band
    # a_hat carries channel A's gain los, which h_hat absorbs
    rel = np.abs(los * h_hat - chan_b[ul]) / np.abs(chan_b[ul])
    assert rel.max() < 1e-8


# ---------------------------------------------------------------- channel estimation


def test_estimate_channel_noiseless_recovery():
    g = ibfd_grid()
    pa = default_measured_pa()
    b = irr_to_b(25.0, 0.3)
    chan = tapped_channel(g, seed=10)
    buf = make_buffer(g, pa, b, chan, seed=10)
    h_hat = estimate_channel(buf, basis_stack(buf.tx[buf.n_impulse:], b, K_MAX, g), pa)
    # one estimate per uplink subcarrier, every one of them solved
    assert h_hat.shape == (g.ul_size,) and h_hat.all()
    ul = g.ul_band
    rel = np.abs(h_hat - chan[ul]) / np.abs(chan[ul])
    assert rel.max() < 1e-8


def test_estimate_channel_marks_unreachable_subcarriers():
    # narrow downlink (4..10): fifth-order products reach at most subcarrier
    # 3*10 - 2*4 = 22, so the upper uplink subcarriers see no regressor at all
    g = SubcarrierGrid(64, 120e3, 8, (4, 10), (12, 30))
    pa = default_measured_pa()
    chan = tapped_channel(g, seed=11)
    buf = make_buffer(g, pa, 0.0, chan, seed=11)
    h_hat = estimate_channel(buf, basis_stack(buf.tx[buf.n_impulse:], 0.0, K_MAX, g), pa)
    lo = g.ul_set[0]
    assert h_hat.shape == (g.ul_size,)
    unest = frozenset(int(p) for p in g.ul_indices[h_hat == 0])
    # everything past the support edge must be flagged; the last few inside
    # the support may fall below the relative power cut as well
    assert frozenset(range(23, 31)) <= unest <= frozenset(range(17, 31))
    good = sorted(set(int(p) for p in g.ul_indices) - unest)
    rel = np.abs(h_hat[np.subtract(good, lo)] - chan[good]) / np.abs(chan[good])
    assert rel.max() < 1e-6


def test_estimate_channel_counter_charge_is_linear_in_band():
    g = ibfd_grid()
    pa = default_measured_pa()
    buf = make_buffer(g, pa, 0.0, flat_channel(g), seed=12)
    counter = OpCounter()
    chain = basis_stack(buf.tx[buf.n_impulse:], 0.0, K_MAX, g)
    estimate_channel(buf, chain, pa, counter=counter)
    n_ul = g.ul_size
    m = len(buf.tx) - buf.n_impulse
    assert counter.mults("estimate_channel") == m * n_ul * (K_MAX + 3) + n_ul


# ---------------------------------------------------------------- basis selection


def test_select_basis_threshold_walk():
    g = ibfd_grid()
    a_hat = default_measured_pa()
    mu = mu_tables(g, 0.0, 0.6, 2)
    h = flat_channel(g, 0.05)[g.ul_band]
    full = select_basis(a_hat, mu, h, 1e-30, 2, g)
    assert full.shape == (3, g.ul_size)
    assert full.all() and full.sum() == 3 * g.ul_size
    empty = select_basis(a_hat, mu, h, 1e30, 2, g)
    assert empty[0].all() and not empty[1:].any()

    gammas = np.logspace(-30, 10, 9)
    prev = None
    for gamma in gammas:
        total = int(select_basis(a_hat, mu, h, float(gamma), 2, g)[1:].sum())
        if prev is not None:
            assert total <= prev
        prev = total


def test_select_basis_validation():
    g = ibfd_grid()
    mu = mu_tables(g, 0.0, 1.0, 2)
    h = flat_channel(g)[g.ul_band]
    with pytest.raises(ValueError, match="nonnegative"):
        select_basis([1.0], mu, h, -1.0, 2, g)
    with pytest.raises(ValueError, match="cover"):
        select_basis([1.0], mu[:1], h, 1.0, 2, g)
    # h_hat is estimate_channel's band estimate, not a channel over the grid
    for wrong in (flat_channel(g), h[:-1], h[None]):
        pattern = r"h_hat has shape " + re.escape(str(wrong.shape)) + r", expected \(49,\)"
        with pytest.raises(ValueError, match=pattern):
            select_basis([1.0], mu, wrong, 1.0, 2, g)


@pytest.mark.parametrize("k_max", [2, 3])
def test_select_basis_matches_loop_reference(k_max):
    g = sbfd_grid()
    ul = g.ul_indices
    rng = np.random.default_rng(30 + k_max)
    a_hat = np.array([complex(*rng.standard_normal(2)) for k in range(k_max + 1)])
    mu = mu_tables(g, irr_to_b(25.0, 0.3), 1.0, k_max) * rng.uniform(0.1, 10.0, (k_max + 1, 64))
    h = 0.01 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    unestimated = rng.choice(ul, 4, replace=False)
    h[unestimated] = 0.0
    power = predict_si_power(a_hat, mu, h)[1:, ul]
    for gamma in [0.0, *np.quantile(power[power > 0], [0.15, 0.5, 0.85])]:
        counter = OpCounter()
        ref_counter = OpCounter()
        retained = select_basis(a_hat, mu, h[g.ul_band], float(gamma), k_max, g, counter=counter)
        sets = select_basis_loop(a_hat, mu, h, float(gamma), k_max, g, counter=ref_counter)
        assert retained.shape == (k_max + 1, g.ul_size)
        assert np.array_equal(ul[retained[0]], np.setdiff1d(ul, unestimated))
        for i, p in enumerate(ul):
            assert frozenset(int(k) + 1 for k in np.flatnonzero(retained[1:, i])) == sets[int(p)]
        assert counter.mults("select_basis") == ref_counter.mults("select_basis")


@pytest.mark.parametrize("k_max", [2, 3])
def test_run_sic_matches_loop_reference(k_max):
    # random K_p, not downward closed, with unestimated subcarriers
    g = ibfd_grid()
    ul = g.ul_indices
    rng = np.random.default_rng(40 + k_max)
    a_hat = np.array([complex(*rng.standard_normal(2)) / 10**k for k in range(k_max + 1)])
    b = 0.05 * np.exp(0.4j)
    h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    for trial in range(6):
        sets = {
            int(p): frozenset(int(k) + 1 for k in np.flatnonzero(rng.random(k_max) < 0.5))
            for p in ul
        } if trial else {}
        unestimated = frozenset(int(p) for p in rng.choice(ul, 5, replace=False))
        mask = retained_mask(g, k_max, sets, unestimated)
        weights = precombine(h[g.ul_band], a_hat, mask, g)
        assert np.count_nonzero(weights) == mask.sum()
        x = gen_qam_symbols(g, 16, 1.0, 1, seed=trial)[0]
        counter = OpCounter()
        ref_counter = OpCounter()
        est = run_sic(basis_stack(x, b, k_max, g), weights, g, counter=counter)
        xiq = x + b * np.conj(mirror_values(x))
        chain = whole_grid_chain(xiq, k_max)
        on_grid = np.zeros((k_max + 1, 64), dtype=complex)  # the oracle reads W on the grid
        on_grid[:, g.ul_band] = weights
        ref = run_sic_loop(xiq, chain, on_grid, g, sets, unestimated, ref_counter)[g.ul_band]
        assert np.max(np.abs(est - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert counter.mults("run") == ref_counter.mults("run")
        assert counter.adds("run") == ref_counter.adds("run")
        stack = np.concatenate([x[None], gen_qam_symbols(g, 16, 1.0, 3, seed=10 + trial)])
        assert_stack_matches_rows(
            lambda xs, c: run_sic(basis_stack(xs, b, k_max, g), weights, g, counter=c),
            stack,
            g,
        )


# ---------------------------------------------------------------- running canceller


def test_run_sic_with_perfect_weights_cancels_everything():
    g = ibfd_grid()
    pa = default_measured_pa()
    b = irr_to_b(25.0, 0.3)
    chan = tapped_channel(g, seed=13)
    weights = precombine(chan[g.ul_band], pa, every_order(g, K_MAX), g)

    x = gen_qam_symbols(g, 16, 0.8, 1, seed=13)[0]
    y = forward_spectrum(x, pa, b, chan)[g.ul_band]
    counter = OpCounter()
    out = y - run_sic(basis_stack(x, b, K_MAX, g), weights, g, counter=counter)
    si_scale = np.abs(y).max()
    assert np.abs(out).max() < 1e-9 * si_scale
    # running cost: one multiply for the linear term plus one per retained order
    assert counter.mults("run") == g.ul_size * 3


def test_run_basis_at_k_max_zero_charges_the_iq_image_alone():
    # basis_chain runs no transform at k_max = 0, so only the image's multiply and
    # add per downlink subcarrier is charged; from k_max = 1 it adds one IFFT and
    # one squared magnitude, then one product and one FFT per order
    g = sbfd_grid()
    b = 0.05 * np.exp(0.4j)
    x = gen_qam_symbols(g, 16, 1.0, 3, seed=5)
    counter = OpCounter()
    linear = precombine(flat_channel(g)[g.ul_band], [2.0], every_order(g, 0), g)
    run_sic(basis_stack(x, b, 0, g), linear, g, counter=counter)
    assert counter.mults("run_basis") == 3 * g.dl_size
    assert counter.adds("run_basis") == 3 * g.dl_size
    counter = OpCounter()
    cubic = precombine(flat_channel(g)[g.ul_band], [2.0, 0.1], every_order(g, 1), g)
    run_sic(basis_stack(x, b, 1, g), cubic, g, counter=counter)
    p_total = g.num_subcarriers
    assert counter.mults("run_basis") == 3 * (g.dl_size + 2 * fft_mults(p_total) + 2 * p_total)
    assert counter.adds("run_basis") == 3 * (g.dl_size + 2 * fft_adds(p_total))


def test_run_sic_leaves_unestimated_subcarriers_untouched():
    g = sbfd_grid()
    pa = default_measured_pa()
    chan = tapped_channel(g, seed=14)
    skip = 2  # band column of uplink subcarrier 48
    retained = every_order(g, K_MAX)
    retained[:, skip] = False
    weights = precombine(chan[g.ul_band], pa, retained, g)
    x = gen_qam_symbols(g, 16, 0.8, 1, seed=14)[0]
    y = forward_spectrum(x, pa, 0.0, chan)[g.ul_band]
    out = y - run_sic(basis_stack(x, 0.0, K_MAX, g), weights, g)
    assert out[skip] == y[skip]


@pytest.mark.parametrize("preset", DUPLEX_PRESETS)
@pytest.mark.parametrize("b", [0.0, 0.05 * np.exp(0.4j)])
def test_basis_stack_from_shared_samples_matches_the_basis_chain(preset, b):
    # the image enters the orders above 0 in time, t + b conj(t) with
    # t = idft(x), so they match the chain of the spectral image to
    # round-off, and row 0, the image on the band, bit for bit; samples
    # the caller shares, as the run window does, give the same stack
    g = ScenarioSpec(num_subcarriers=256, duplex=preset).build_grid()
    x = gen_qam_symbols(g, 16, 1.0, 5, seed=25)
    for k_max in (0, 1, 3):
        ref = whole_grid_chain(apply_iq_freq(x, b), k_max)[..., g.ul_band]
        own = basis_stack(x, b, k_max, g)
        assert own.shape == (5, k_max + 1, g.ul_size)
        out = np.empty((5, k_max + 1, g.ul_size), dtype=complex)
        samples = np.fft.ifft(x, axis=-1)
        stack = basis_stack(x, b, k_max, g, samples=samples, out=out)
        assert stack is out
        assert np.array_equal(samples, np.fft.ifft(x, axis=-1)), "the shared samples changed"
        assert np.array_equal(stack, own)
        assert np.array_equal(stack[:, 0], ref[:, 0])
        for k in range(1, k_max + 1):
            assert np.max(np.abs(stack[:, k] - ref[:, k])) <= 1e-13 * np.max(np.abs(ref[:, k]))


def test_basis_stack_rejects_energy_outside_downlink():
    g = sbfd_grid()
    bad = np.zeros(64, dtype=complex)
    bad[g.ul_set[0]] = 1.0  # uplink subcarrier carries transmit energy
    with pytest.raises(ValueError, match="allocation mismatch"):
        basis_stack(bad, 0.0, 0, g)
    with pytest.raises(ValueError, match="length"):
        basis_stack(np.zeros(32, dtype=complex), 0.0, 0, g)
    # the checks hold for every row of a stack, on both sides of the downlink
    below = np.zeros(64, dtype=complex)
    below[g.dl_start - 1] = 1.0
    for off in (bad, below):
        with pytest.raises(ValueError, match="allocation mismatch"):
            basis_stack(np.stack([np.zeros(64, dtype=complex), off]), 0.0, 2, g)
    with pytest.raises(ValueError, match="length"):
        basis_stack(np.zeros((2, 32), dtype=complex), 0.0, 0, g)


def test_running_cancellers_reject_a_stack_short_of_their_orders():
    g = sbfd_grid()
    weights = precombine(flat_channel(g)[g.ul_band], [1.0, 0.1], every_order(g, 1), g)
    x = gen_qam_symbols(g, 16, 1.0, 2, seed=6)
    with pytest.raises(ValueError, match="orders up to k = 0, expected k = 1"):
        run_sic(basis_stack(x, 0.0, 0, g), weights, g)
    with pytest.raises(ValueError, match="orders up to k = 1, expected k = 2"):
        run_full_ls(basis_stack(x, 0.0, 1, g), np.ones((3, g.ul_size), dtype=complex), g)
    with pytest.raises(ValueError, match=r"expected \(\.\.\., k\+1, 17\)"):
        run_sic(basis_stack(x, 0.0, 1, g)[..., :8], weights, g)
    buf = make_buffer(g, default_measured_pa(), 0.0, flat_channel(g))
    with pytest.raises(ValueError, match="training window"):
        estimate_channel(buf, basis_stack(buf.tx, 0.0, K_MAX, g), [1.0])
    with pytest.raises(ValueError, match="training window"):
        baseline_full_ls(buf, basis_stack(buf.tx[0], 0.0, K_MAX, g))


def test_running_cancellers_reject_weights_that_are_not_k_plus_1_by_ul():
    g = sbfd_grid()
    chain = basis_stack(gen_qam_symbols(g, 16, 1.0, 2, seed=7), 0.0, 2, g)
    # (3, 64) is a weight array over the whole grid
    for shape in [(3, 32), (3, 64), (17,), (0, 17), (1, 3, 17)]:
        weights = np.ones(shape, dtype=complex)
        pattern = "weights have shape " + re.escape(str(shape)) + r", expected \(k\+1, 17\)"
        for run in (run_sic, run_full_ls):
            with pytest.raises(ValueError, match=pattern):
                run(chain, weights, g)


def test_precombine_matches_manual_product():
    g = ibfd_grid()
    chan = tapped_channel(g, seed=15)
    counter = OpCounter()
    ul = g.ul_band
    combined = precombine(chan[ul], [2.0, -0.5, 0.01], every_order(g, 2), g, counter=counter)
    assert np.allclose(combined[0], 2.0 * chan[ul])
    assert np.allclose(combined[2], 0.01 * chan[ul])
    assert counter.mults("coeff_combine") == 3 * g.ul_size


# ---------------------------------------------------------------- end-to-end estimate


def test_estimated_canceller_reaches_noise_floor():
    g = ibfd_grid()
    pa = default_measured_pa()
    b = irr_to_b(25.0, 0.3)
    chan = tapped_channel(g, seed=16)
    a_digi = 0.5 * 8 / np.sqrt(g.dl_size)
    sigma = 1e-5
    buf = make_buffer(g, pa, b, chan, seed=16, a_digi=a_digi, sigma=sigma)

    b_hat = estimate_iq(buf)
    a_hat = estimate_pa(buf, b_hat, K_MAX)
    h_hat = estimate_channel(buf, basis_stack(buf.tx[buf.n_impulse:], b_hat, K_MAX, g), a_hat)
    mu = mu_tables(g, b_hat, a_digi, K_MAX)
    retained = select_basis(a_hat, mu, h_hat, 1e-14, K_MAX, g)
    weights = precombine(h_hat, a_hat, retained, g)

    rng = np.random.default_rng(99)
    x = gen_qam_symbols(g, 16, a_digi, 1, seed=17)[0]
    y = forward_spectrum(x, pa, b, chan, rng, sigma)[g.ul_band]
    out = y - run_sic(basis_stack(x, b_hat, K_MAX, g), weights, g)
    noise_power = 64 * sigma**2  # per-subcarrier spectrum power of the time noise
    resid = np.abs(out) ** 2
    raw = np.abs(y) ** 2
    assert np.mean(resid) < 10 * noise_power
    assert np.mean(resid) < 1e-3 * np.mean(raw)


# ---------------------------------------------------------------- baselines


def test_linear_baseline_cancels_only_the_linear_part():
    g = ibfd_grid()
    pa = default_measured_pa()
    chan = tapped_channel(g, seed=18)
    a_digi = 0.5 * 8 / np.sqrt(g.dl_size)
    buf = make_buffer(g, pa, 0.0, chan, seed=18, a_digi=a_digi)
    h_lin = estimate_linear_channel(buf)
    x = gen_qam_symbols(g, 16, a_digi, 1, seed=19)[0]
    y = forward_spectrum(x, pa, 0.0, chan)[g.ul_band]
    out = y - baseline_linear(x, h_lin, g)
    raw = np.mean(np.abs(y) ** 2)
    resid = np.mean(np.abs(out) ** 2)
    assert resid < raw  # removes the dominant linear term
    assert resid > 1e-8 * raw  # but the distortion floor remains
    stack = gen_qam_symbols(g, 16, a_digi, 3, seed=119)
    assert_stack_matches_rows(lambda xs, c: baseline_linear(xs, h_lin, g, counter=c), stack, g)


def test_linear_baseline_is_inert_off_the_downlink_band():
    g = sbfd_grid()
    pa = default_measured_pa()
    chan = tapped_channel(g, seed=20)
    buf = make_buffer(g, pa, 0.0, chan, seed=20)
    h_lin = estimate_linear_channel(buf)
    assert h_lin.shape == (g.ul_size,) and np.all(h_lin == 0)
    x = gen_qam_symbols(g, 16, 1.0, 1, seed=21)[0]
    y = forward_spectrum(x, pa, 0.0, chan)[g.ul_band]
    out = y - baseline_linear(x, h_lin, g)
    assert np.array_equal(out, y)
    stack = gen_qam_symbols(g, 16, 1.0, 3, seed=121)
    assert not baseline_linear(stack, h_lin, g).any()


def test_full_ls_baseline_handles_split_allocation():
    # off the downlink band the linear regressor column is identically zero;
    # the per-subcarrier solve must fall back to a ridge and still cancel
    g = sbfd_grid()
    pa = default_measured_pa()
    b = irr_to_b(25.0, 0.3)
    chan = tapped_channel(g, seed=22)
    a_digi = 0.5 * 8 / np.sqrt(g.dl_size)
    buf = make_buffer(g, pa, b, chan, seed=22, a_digi=a_digi)
    coeffs = baseline_full_ls(buf, basis_stack(buf.tx, b, K_MAX, g))
    assert coeffs.shape == (3, g.ul_size)
    assert np.all(np.isfinite(coeffs))
    x = gen_qam_symbols(g, 16, a_digi, 1, seed=23)[0]
    y = forward_spectrum(x, pa, b, chan)[g.ul_band]
    out = y - run_full_ls(basis_stack(x, b, K_MAX, g), coeffs, g)
    raw = np.mean(np.abs(y) ** 2)
    resid = np.mean(np.abs(out) ** 2)
    assert resid < 1e-6 * raw
    stack = gen_qam_symbols(g, 16, a_digi, 3, seed=123)
    assert_stack_matches_rows(
        lambda xs, c: run_full_ls(basis_stack(xs, b, K_MAX, g), coeffs, g, counter=c), stack, g
    )


def test_full_ls_needs_enough_symbols():
    g = ibfd_grid()
    buf = make_buffer(g, default_measured_pa(), 0.0, flat_channel(g))
    short = TrainingBuffer(grid=g, tx=buf.tx[:2], rx=buf.rx[:2], n_impulse=2)
    with pytest.raises(ValueError, match="cannot fit"):
        baseline_full_ls(short, basis_stack(short.tx, 0.0, K_MAX, g))

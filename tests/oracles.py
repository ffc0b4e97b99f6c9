"""Independent reference computations for the test suite.

Everything here recomputes a quantity the package produces through a
deliberately different route: literal tuple enumeration instead of
convolution recursions, Gaussian moment identities instead of closed
forms, batched Monte Carlo instead of predictions. Slow and simple on
purpose; none of this is used by the package itself.
"""

from __future__ import annotations

import itertools

import numpy as np

from flexsic.counters import OpCounter, fft_adds, fft_mults, ls_costs
from flexsic.imd import basis_chain, q_size
from flexsic.ofdm import SubcarrierGrid
from flexsic.sic import (
    _AUTO_RIDGE_COND,
    _RANK_TOL,
    SingularSystemError,
    TrainingBuffer,
)


def whole_grid_chain(X_iq_values, k_max: int) -> np.ndarray:
    """flexsic.imd.basis_chain on the whole grid, from the inverse FFT of X_iq_values taken here."""
    x = np.asarray(X_iq_values)
    return basis_chain(x, k_max, samples=np.fft.ifft(x, axis=-1))


def dft_ref(samples: np.ndarray) -> np.ndarray:
    """O(P^2) literal forward transform, values[p] = sum_n x[n] e^{-j2pi pn/P}."""
    n = len(samples)
    grid_n = np.arange(n)
    phases = np.exp(-2j * np.pi * np.outer(grid_n, grid_n) / n)
    return phases @ np.asarray(samples, dtype=np.complex128)


def idft_ref(values: np.ndarray) -> np.ndarray:
    """O(P^2) literal inverse transform with the 1/P on this side."""
    n = len(values)
    grid_n = np.arange(n)
    phases = np.exp(2j * np.pi * np.outer(grid_n, grid_n) / n)
    return (phases @ np.asarray(values, dtype=np.complex128)) / n


def mirror_values(values: np.ndarray) -> np.ndarray:
    """Reindex the last axis by the mirror map: out[..., p] = values[..., (P - p) mod P]."""
    return np.roll(values[..., ::-1], 1, axis=-1)


def apply_iq_freq(X: np.ndarray, b_iq: complex) -> np.ndarray:
    """IQ image on the whole grid, along the last axis: out[p] = X[p] + b * conj(X[(P - p) mod P]).

    The frequency-domain picture of flexsic.impairments.apply_iq_time, which
    flexsic.sic.basis_stack takes on the uplink band alone.
    """
    return X + b_iq * np.conj(mirror_values(X))


def impulse_pilot_basis(
    grid: SubcarrierGrid, b_iq: complex, a_digi: float, k: int = 0
) -> np.ndarray:
    """Closed-form nonlinear basis of flexsic.imd.impulse_pilot, O(1) per subcarrier.

        Phi_{2k+1}[p] = (|Q^{2k+1}_p| / P^{2k}) * a^{2k+1}
                        * |1 + b|^{2k} * (1 + b) * exp(-j 2 pi cp_length p / P)

    Exact when every tuple term carries the same per-subcarrier factor.
    The peak sits on the integer sample cp_length, so that holds when
    b = 0 or the downlink set is mirror-closed; b != 0 on any other set
    raises.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if b_iq != 0 and not np.array_equal(mirror_values(grid.dl_mask), grid.dl_mask):
        raise ValueError(
            "closed-form pilot basis with b != 0 requires a mirror-closed "
            "downlink set (dl_start + dl_end = P)"
        )
    p = grid.num_subcarriers
    one_b = 1.0 + b_iq
    scale = a_digi ** (2 * k + 1) * abs(one_b) ** (2 * k) * one_b / p ** (2 * k)
    ramp = np.exp(-2j * np.pi * grid.cp_length * np.arange(p) / p)
    return q_size(grid, k)[k].astype(np.float64) * scale * ramp


def brute_q_size(grid: SubcarrierGrid, k: int) -> np.ndarray:
    """Count tuples (q_1..q_{2k+1}) in DL^{2k+1} by literal enumeration.

    A tuple lands on subcarrier p when its signed sum, the first k+1
    indices positive and the last k negative, is congruent to p mod P.
    Vectorised mixed-radix enumeration: every tuple is materialised as
    its signed sum, so this shares no machinery with the package's
    convolution recursion.
    """
    p_total = grid.num_subcarriers
    dl = np.asarray(grid.dl_indices, dtype=np.int64)
    base = len(dl)
    n = 2 * k + 1
    total = base**n
    counts = np.zeros(p_total, dtype=np.int64)
    chunk = 4_000_000
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        sums = np.zeros(len(idx), dtype=np.int64)
        for pos in range(n):
            digit = (idx // base**pos) % base
            sign = 1 if pos < k + 1 else -1
            sums += sign * dl[digit]
        counts += np.bincount(sums % p_total, minlength=p_total)
    return counts


def brute_lambda(grid: SubcarrierGrid) -> np.ndarray:
    """Pair count over plain sums s = q1 + q2, literal double loop."""
    out = np.zeros(2 * grid.num_subcarriers - 1, dtype=np.int64)
    dl = list(grid.dl_indices)
    for q1 in dl:
        for q2 in dl:
            out[q1 + q2] += 1
    return out


def tuple_basis(values_iq: np.ndarray, k: int) -> np.ndarray:
    """Order-(2k+1) basis by literal tuple summation (tiny grids only).

    Phi[p] = (1/P^{2k}) sum over tuples with signed sum = p (mod P) of
    the product of k+1 spectrum values and k conjugated values. The
    tuple indices range over the support of the composed spectrum.
    """
    values = np.asarray(values_iq, dtype=np.complex128)
    p_total = len(values)
    support = [int(q) for q in np.nonzero(np.abs(values) > 0)[0]]
    out = np.zeros(p_total, dtype=np.complex128)
    for tup in itertools.product(support, repeat=2 * k + 1):
        s = sum(tup[: k + 1]) - sum(tup[k + 1 :])
        prod = 1.0 + 0.0j
        for q in tup[: k + 1]:
            prod *= values[q]
        for q in tup[k + 1 :]:
            prod *= np.conj(values[q])
        out[s % p_total] += prod
    return out / p_total ** (2 * k)


def basis_recursion(X_iq_values: np.ndarray, k_max: int) -> np.ndarray:
    """All bases Phi_1 .. Phi_{2k_max+1} by the paper's IMD recursion.

    Implements

        Phi_{2k+1}[p] = (1/P^2) * sum_{q1, q2} X_iq[q1] X_iq[q2]
                                  * conj(Phi_{2k-1}[(q1 + q2 - p) mod P])

    through FFTs of the subcarrier sequences, reusing the squared spectrum
    across orders: a frequency-domain route to the bases that
    flexsic.imd.basis_chain computes from the time-domain definition.
    Shape (..., P) in, (..., k_max+1, P) out; leading axes index symbols.
    """
    x = np.asarray(X_iq_values)
    p = x.shape[-1]
    out = np.empty(x.shape[:-1] + (k_max + 1, p), dtype=np.complex128)
    out[..., 0, :] = x
    if k_max == 0:
        return out
    fx2 = np.fft.fft(x, axis=-1)
    fx2 *= fx2
    for k in range(1, k_max + 1):
        term = np.fft.fft(out[..., k - 1, :], axis=-1)
        np.conjugate(term, out=term)
        np.multiply(fx2, term, out=term)
        term = np.fft.ifft(term, axis=-1)
        term /= p**2
        out[..., k, :] = term
    return out


def mc_mu(
    grid: SubcarrierGrid,
    b: complex,
    n_sym: int,
    seed: int,
    k_max: int = 2,
    constellation: str = "gauss",
    a_digi: float = 1.0,
    chunk: int = 2000,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimate of E|Phi_{2k+1}[p]|^2 with its standard error.

    Draws downlink spectra (unit average power per subcarrier, scaled by
    a_digi), composes the image with weight b, runs the direct
    time-domain basis computation in batches, and accumulates the first
    two moments of |Phi|^2. Returns (mean, se), both (k_max+1, P).
    """
    p_total = grid.num_subcarriers
    dl = grid.dl_indices
    rng = np.random.default_rng(seed)
    qam_levels = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)
    s1 = np.zeros((k_max + 1, p_total))
    s2 = np.zeros((k_max + 1, p_total))
    done = 0
    while done < n_sym:
        m = min(chunk, n_sym - done)
        x_f = np.zeros((m, p_total), dtype=np.complex128)
        if constellation == "gauss":
            x_f[:, dl] = (
                rng.standard_normal((m, dl.size)) + 1j * rng.standard_normal((m, dl.size))
            ) / np.sqrt(2.0)
        elif constellation == "qam16":
            x_f[:, dl] = rng.choice(qam_levels, (m, dl.size)) + 1j * rng.choice(
                qam_levels, (m, dl.size)
            )
        else:
            raise ValueError(f"unknown constellation {constellation!r}")
        x_f *= a_digi
        mirror = np.roll(x_f[:, ::-1], 1, axis=1)
        x_iq = x_f + b * np.conj(mirror)
        t = np.fft.ifft(x_iq, axis=1)
        for k in range(1, k_max + 1):
            phi = np.fft.fft((np.abs(t) ** (2 * k)) * t, axis=1)
            power = np.abs(phi) ** 2
            s1[k] += power.sum(axis=0)
            s2[k] += (power**2).sum(axis=0)
        done += m
    mean = s1 / n_sym
    var = np.maximum(s2 / n_sym - mean**2, 0.0)
    return mean, np.sqrt(var / n_sym)


def _matchings(items: list[int]):
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1 :]
        for m in _matchings(rest):
            yield [(first, items[i])] + m


def exact_mu_gauss(
    grid: SubcarrierGrid, b: complex, k: int, a_digi: float = 1.0
) -> np.ndarray:
    """Exact E|Phi_{2k+1}[p]|^2 for Gaussian downlink symbols, any b.

    The composed time signal is stationary zero-mean complex Gaussian
    with autocorrelation r(d) and pseudo-autocorrelation c(d) fixed by
    the downlink band and the image weight. The (4k+2)-order moment
    E[g[n+d] conj(g[n])] with g = |x|^{2k} x is then the sum over all
    perfect matchings of the 4k+2 factors (945 of them at k=2), each a
    product of two-point functions, and one final transform over the
    lag d gives the expected basis power. No sampling noise; this is
    the ground truth the closed-form prediction approximates.
    """
    p_total = grid.num_subcarriers
    dl_mask = np.zeros(p_total)
    dl_mask[grid.dl_indices] = 1.0
    mirror_mask = np.roll(dl_mask[::-1], 1)
    spectrum = (a_digi**2) * (dl_mask + abs(b) ** 2 * mirror_mask)
    pseudo = b * (a_digi**2) * (dl_mask + mirror_mask)
    r = np.fft.ifft(spectrum) / p_total
    c = np.fft.ifft(pseudo) / p_total

    # factor list for g[n+d] * conj(g[n]); time tag 'a' is n+d, 'b' is n
    items = (
        [(False, "a")] * (k + 1)
        + [(False, "b")] * k
        + [(True, "a")] * k
        + [(True, "b")] * (k + 1)
    )
    offset = {"a": 1, "b": 0}
    d = np.arange(p_total)
    corr = np.zeros(p_total, dtype=np.complex128)
    for pairing in _matchings(list(range(len(items)))):
        term = np.ones(p_total, dtype=np.complex128)
        for i, j in pairing:
            conj_i, tag_i = items[i]
            conj_j, tag_j = items[j]
            delta = ((offset[tag_i] - offset[tag_j]) * d) % p_total
            if not conj_i and not conj_j:
                term = term * c[delta]
            elif conj_i and conj_j:
                term = term * np.conj(c[(p_total - delta) % p_total])
            else:
                if conj_i:
                    delta = ((offset[tag_j] - offset[tag_i]) * d) % p_total
                term = term * r[delta]
        corr += term
    return (p_total * np.fft.fft(corr)).real


def _permanent01(mat: np.ndarray) -> int:
    if mat.shape[0] == 0:
        return 1
    total = 0
    for j in range(mat.shape[1]):
        if mat[0, j]:
            total += _permanent01(np.delete(mat[1:], j, axis=1))
    return total


def exact_mu_tiny(grid: SubcarrierGrid, k: int) -> np.ndarray:
    """Exact E|Phi_{2k+1}[p]|^2 at b=0 by permanent enumeration (tiny P).

    Enumerates every tuple pair and counts the Gaussian moment matchings
    as the permanent of the index-coincidence matrix. Exponential cost;
    only usable for |DL| <= 2 and P <= 8, where it cross-checks
    exact_mu_gauss through completely different combinatorics.
    """
    p_total = grid.num_subcarriers
    dl = list(grid.dl_indices)
    n_unc = k + 1
    out = np.zeros(p_total)
    tuples_by_p: dict[int, list[tuple[int, ...]]] = {}
    for tup in itertools.product(dl, repeat=2 * k + 1):
        s = (sum(tup[:n_unc]) - sum(tup[n_unc:])) % p_total
        tuples_by_p.setdefault(s, []).append(tup)
    for p, tuples in tuples_by_p.items():
        total = 0
        for q in tuples:
            for rr in tuples:
                u = list(q[:n_unc]) + list(rr[n_unc:])
                v = list(q[n_unc:]) + list(rr[:n_unc])
                mat = np.array([[1 if a == bb else 0 for bb in v] for a in u], dtype=np.int64)
                total += _permanent01(mat)
        out[p] = total / p_total ** (4 * k)
    return out


def _lambda_conv(grid: SubcarrierGrid) -> np.ndarray:
    """Pair count Lambda[s] as the self-convolution of the downlink indicator."""
    ind = np.zeros(grid.num_subcarriers, dtype=np.int64)
    ind[grid.dl_indices] = 1
    return np.convolve(ind, ind)


def _fold_mod_p(arr: np.ndarray, p: int) -> np.ndarray:
    """Fold an extended-index array onto [0, P) by alias summation."""
    out = np.zeros(p, dtype=arr.dtype)
    for start in range(0, len(arr), p):
        chunk = arr[start:start + p]
        out[: len(chunk)] += chunk
    return out


def _circ_corr_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Circular correlation T[p] = sum_rho a[(p + rho) mod P] b[rho], O(P^2)."""
    p = len(a)
    flipped = np.roll(b[::-1], 1)  # flipped[u] = b[(-u) mod P]
    lin = np.convolve(a, flipped)
    return _fold_mod_p(lin, p)


def mu_tables_conv(
    grid: SubcarrierGrid,
    b_iq: complex,
    a_digi: float,
    k_max: int,
    moment_mode: str = "biq",
) -> np.ndarray:
    """Predicted basis powers by the mu_tables recursion, through direct convolutions.

    The same recursion as flexsic.imd.mu_tables, with every correlation an
    O(P^2) np.convolve: a sum of nonnegative terms, so it has no round-off
    sign error and is exactly 0 wherever no term is nonzero.
    """
    if moment_mode not in ("biq", "a4"):
        raise ValueError(f"moment_mode must be 'biq' or 'a4', got {moment_mode!r}")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    p = grid.num_subcarriers
    b_mag2 = abs(b_iq) ** 2
    big_b = (1.0 + b_mag2) * a_digi**2
    f1 = big_b**2
    f2 = big_b**2 if moment_mode == "biq" else a_digi**4
    lam_fold = _fold_mod_p(_lambda_conv(grid), p).astype(np.float64)
    mu = np.zeros((k_max + 1, p), dtype=np.float64)
    mu[0, grid.dl_indices] = big_b
    for k in range(1, k_max + 1):
        conv = _circ_corr_conv(lam_fold, mu[k - 1])
        mu[k] = (2 * k * (2 * k - 1) * f1 / p**4) * conv + (
            (k + 1) ** 2 * f2 / p**4
        ) * grid.dl_size**2 * mu[k - 1]
    if np.any(mu < 0):
        raise AssertionError("mu table contains negative entries")
    return mu


def q_size_recursion(grid: SubcarrierGrid, k_max: int) -> np.ndarray:
    """IMD set sizes by the exact integer recursion, through direct convolutions.

    Row 0 is the downlink indicator and row k is the circular correlation
    sum_rho Lambda_fold[(p + rho) mod P] row_{k-1}[rho], each an O(P^2)
    np.convolve; Python-int object arrays once |DL|^{2k_max+1} could pass
    int64, so the counts stay exact.
    """
    p = grid.num_subcarriers
    dtype = object if grid.dl_size ** (2 * k_max + 1) >= 2**62 else np.int64
    lam_fold = _fold_mod_p(_lambda_conv(grid).astype(dtype), p)
    rows = np.zeros((k_max + 1, p), dtype=dtype)
    rows[0, grid.dl_indices] = 1
    for k in range(1, k_max + 1):
        rows[k] = _circ_corr_conv(lam_fold, rows[k - 1])
    return rows


def select_basis_loop(
    a_hat: np.ndarray,
    mu: np.ndarray,
    h_hat: np.ndarray,
    gamma: float,
    k_max: int,
    grid: SubcarrierGrid,
    counter: OpCounter | None = None,
) -> dict[int, frozenset[int]]:
    """Basis selection one uplink subcarrier and one order at a time.

    Keeps k = 1, 2, ... while |a_hat[k]|^2 mu[k, p] |h[p]|^2 > gamma (an
    order past the end of a_hat counts as zero) and stops at the first
    order below; charges three multiplies per order looked at. Returns K_p
    for every uplink subcarrier.
    """
    sets: dict[int, frozenset[int]] = {}
    evals = 0
    for p in grid.ul_indices:
        kept = []
        h2 = abs(h_hat[p]) ** 2
        for k in range(1, k_max + 1):
            a = a_hat[k] if k < len(a_hat) else 0.0
            evals += 1
            if abs(a) ** 2 * mu[k, p] * h2 > gamma:
                kept.append(k)
            else:
                break
        sets[int(p)] = frozenset(kept)
    if counter is not None:
        counter.charge("select_basis", mults=3 * evals, adds=0)
    return sets


def run_sic_loop(
    xiq: np.ndarray,
    chain: np.ndarray,
    combined: np.ndarray,
    grid: SubcarrierGrid,
    basis_sets: dict[int, frozenset[int]],
    unestimated: frozenset[int],
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Running canceller's SI estimate one uplink subcarrier at a time.

    At each estimated uplink subcarrier p, accumulates
    combined[0, p] xiq[p] + sum_{k in K_p} combined[k, p] chain[k, p];
    elsewhere the estimate is zero. Charges one multiply per term, one
    add per kept order and one add per uplink subcarrier for the
    subtraction from the received spectrum.
    """
    est = np.zeros(grid.num_subcarriers, dtype=np.complex128)
    mults = 0
    adds = 0
    for p in grid.ul_indices:
        if p in unestimated:
            continue
        acc = combined[0, p] * xiq[p]
        mults += 1
        for k in sorted(basis_sets.get(int(p), ())):
            acc += combined[k, p] * chain[k, p]
            mults += 1
            adds += 1
        est[p] = acc
    adds += grid.ul_size
    if counter is not None:
        counter.charge("run", mults=mults, adds=adds)
    return est


def ls_solve_ref(
    regressors: np.ndarray,
    observations: np.ndarray,
    regularization: float = 0.0,
    counter: OpCounter | None = None,
    stage: str = "ls",
) -> np.ndarray:
    """One least-squares system with guard rails, each solve by its definition.

    With regularization == 0: SingularSystemError when the smallest |R_kk|
    of the QR factor is at most 1e-12 of the largest (or all are zero),
    and the ridge (top / 1e8)^2 when their ratio exceeds 1e8. With
    regularization > 0 the ridge is applied as given. A system without a
    ridge is solved through the normal equations; a ridged one is the
    least-squares problem [A; sqrt(ridge) I] c ~= [y; 0], solved by
    np.linalg.lstsq. Charges one solve.
    """
    a = np.asarray(regressors, dtype=np.complex128)
    y = np.asarray(observations, dtype=np.complex128)
    m, k = a.shape
    reg = float(regularization)
    if reg == 0.0:
        diag = np.abs(np.diag(np.linalg.qr(a, mode="r")))
        top = diag.max() if diag.size else 0.0
        if top == 0.0:
            raise SingularSystemError(0, "least-squares system is all zero")
        worst = int(np.argmin(diag))
        if diag[worst] <= 1e-12 * top:
            raise SingularSystemError(worst)
        if top / diag[worst] > 1e8:
            reg = (top / 1e8) ** 2

    if counter is not None:
        counter.charge(stage, *ls_costs(m, k))
    if reg > 0.0:
        lifted = np.concatenate([a, np.sqrt(reg) * np.eye(k)])
        return np.linalg.lstsq(lifted, np.concatenate([y, np.zeros(k)]), rcond=None)[0]
    return np.linalg.solve(a.conj().T @ a, a.conj().T @ y)


# The stacked solver as it stood before its Cholesky screen, kept verbatim:
# a QR of every zero-ridge system decides rank deficiency and the ridge.
# Its systems are stacked on axis 0 and worked through in blocks of this
# many, the block size the package's solver had then.
_LS_BLOCK = 256


def _r_diagonal(a: np.ndarray) -> np.ndarray:
    """|R_kk| of the QR factor of each stacked (M, K) system: shape (n, K)."""
    return np.abs(np.diagonal(np.linalg.qr(a, mode="r"), axis1=1, axis2=2))


def ls_solve_stack_qr(
    a: np.ndarray,
    y: np.ndarray,
    regularization,
    counter: OpCounter | None,
    stage: str,
) -> tuple[np.ndarray, np.ndarray]:
    """ls_solve over n independent systems stacked on axis 0.

    a has shape (n, M, K) and y shape (n, M); regularization is one ridge
    for all systems or one per system. Each system gets ls_solve's guard
    rails: with a zero ridge, a system whose smallest |R_kk| is at most
    1e-12 of its largest is rank deficient, and one whose condition
    estimate exceeds 1e8 is solved with the ridge (top / 1e8)^2. Returns
    (coefficients of shape (n, K), boolean solved mask of shape (n,)). A
    rank-deficient system, or one whose gram + ridge I rounds to an exactly
    singular matrix, stays unsolved, with zero coefficients, and is not
    charged; every solved one is charged one M-row, K-column solve.

    The stack is worked through in blocks of _LS_BLOCK systems read as
    slices, so the temporaries stay a fixed size however wide the band.
    """
    n, m, k = a.shape
    ridge_all = np.broadcast_to(np.asarray(regularization, dtype=np.float64), (n,))
    if np.any(ridge_all < 0):
        raise ValueError("regularization must be nonnegative")
    coeffs = np.zeros((n, k), dtype=np.complex128)
    solved = np.zeros(n, dtype=bool)
    eye = np.eye(k)
    for start in range(0, n, _LS_BLOCK):
        block = a[start : start + _LS_BLOCK]
        ridge = ridge_all[start : start + _LS_BLOCK].copy()
        ok = np.ones(len(block), dtype=bool)
        checked = ridge == 0.0
        if checked.any():
            diag = _r_diagonal(block)
            top = diag.max(axis=1)
            low = diag.min(axis=1)
            ok = ~checked | (low > _RANK_TOL * top)
            cond = top / np.where(checked & ok, low, 1.0)
            auto = checked & ok & (cond > _AUTO_RIDGE_COND)
            ridge[auto] = (top[auto] / _AUTO_RIDGE_COND) ** 2
        if not ok.any():
            continue
        ah = block.conj().transpose(0, 2, 1)
        gram = ah @ block + ridge[:, None, None] * eye
        rhs = ah @ y[start : start + _LS_BLOCK, :, None]
        try:
            coeffs[start : start + _LS_BLOCK][ok] = np.linalg.solve(gram[ok], rhs[ok])[:, :, 0]
        except np.linalg.LinAlgError:
            # one at a time; an exactly singular gram + ridge I stays unsolved
            for i in np.flatnonzero(ok):
                try:
                    coeffs[start + i] = np.linalg.solve(gram[i], rhs[i])[:, 0]
                except np.linalg.LinAlgError:
                    ok[i] = False
        solved[start : start + _LS_BLOCK] = ok
    count = int(solved.sum())
    if counter is not None and count:
        mults, adds = ls_costs(m, k)
        counter.charge(stage, mults=count * mults, adds=count * adds)
    return coeffs, solved


def estimate_iq_loop(
    buffer: TrainingBuffer,
    grid: SubcarrierGrid | None = None,
    counter: OpCounter | None = None,
) -> complex:
    """IQ image weight estimate with one ls_solve per mirror pair.

    Regresses the received value at each downlink subcarrier p whose
    mirror is also in the band on (X[p], conj(X[-p])), skips singular
    pairs and pairs with a zero first coefficient, and combines the
    ratios c[1] / c[0] with weights |c[0]|^2 sum |X[-p]|^2. Charges each
    solve, plus m + 3 multiplies and m adds per pair used.
    """
    if grid is None:
        grid = buffer.grid
    p_total = grid.num_subcarriers
    tx_rows = buffer.tx[buffer.n_impulse:]
    rx_rows = buffer.rx[buffer.n_impulse:]
    if len(tx_rows) < 2:
        raise ValueError("estimate_iq needs at least 2 data training symbols")

    dl_start, dl_end = grid.dl_set
    pairs = [
        p
        for p in grid.dl_indices
        if dl_start <= (p_total - p) % p_total <= dl_end and (p_total - p) % p_total != p
    ]
    if not pairs:
        raise ValueError(
            "IQ image weight is unidentifiable: no downlink subcarrier has its mirror in the band"
        )

    tx = np.stack(list(tx_rows))
    rx = np.stack(list(rx_rows))
    m = len(tx_rows)

    num = 0.0 + 0.0j
    den = 0.0
    for p in pairs:
        mp = (p_total - p) % p_total
        a = np.stack([tx[:, p], np.conj(tx[:, mp])], axis=1)
        try:
            c = ls_solve_ref(a, rx[:, p], counter=counter, stage="estimate_iq")
        except SingularSystemError:
            continue
        if abs(c[0]) == 0.0:
            continue
        weight = abs(c[0]) ** 2 * float(np.sum(np.abs(tx[:, mp]) ** 2))
        num += weight * (c[1] / c[0])
        den += weight
        if counter is not None:
            counter.charge("estimate_iq", mults=m + 3, adds=m)
    if den == 0.0:
        raise ValueError("IQ image weight is unidentifiable: mirror content is all zero")
    return complex(num / den)


def symbol_bases(
    tx: np.ndarray,
    b_hat: complex,
    k_max: int,
    grid: SubcarrierGrid,
    counter: OpCounter | None,
    stage: str,
) -> np.ndarray:
    """Bases of one transmit spectrum, charging stage as the package's convention says.

    The IQ image costs one multiply and one add per downlink subcarrier;
    from k_max = 1 on, one IFFT plus one squared magnitude, then one
    product and one FFT per order (1 + k_max transforms and
    (1 + k_max) P products in all).
    """
    if counter is not None:
        p_total = grid.num_subcarriers
        mults, adds = grid.dl_size, grid.dl_size
        if k_max >= 1:
            mults += (1 + k_max) * (fft_mults(p_total) + p_total)
            adds += (1 + k_max) * fft_adds(p_total)
        counter.charge(stage, mults=mults, adds=adds)
    return whole_grid_chain(apply_iq_freq(tx, b_hat), k_max)


def baseline_full_ls_loop(
    buffer: TrainingBuffer,
    grid: SubcarrierGrid,
    k_max: int,
    b_hat: complex = 0.0,
    regularization: float = 0.0,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Joint full-LS coefficients with one ls_solve per uplink subcarrier.

    A subcarrier whose system is singular is refit at ridge 0 over the
    orders with nonzero power at that subcarrier, the others keeping
    coefficient 0; one that is still singular, or all zero, keeps zero
    coefficients.
    """
    m = len(buffer.tx)
    if m < k_max + 1:
        raise ValueError(
            f"{m} training symbols cannot fit {k_max + 1} coefficients per subcarrier"
        )
    p_total = grid.num_subcarriers
    ul = grid.ul_indices

    chains = np.empty((m, k_max + 1, p_total), dtype=np.complex128)
    for i, tx in enumerate(buffer.tx):
        chains[i] = symbol_bases(tx, b_hat, k_max, grid, counter, "full_ls_basis")
    rx = buffer.rx

    coeffs = np.zeros((k_max + 1, p_total), dtype=np.complex128)
    for p in ul:
        a = chains[:, :, p]
        y = rx[:, p]
        try:
            coeffs[:, p] = ls_solve_ref(a, y, regularization, counter=counter, stage="full_ls_est")
        except SingularSystemError:
            cols = [k for k in range(k_max + 1) if np.sum(np.abs(a[:, k]) ** 2) > 0.0]
            try:
                coeffs[cols, p] = ls_solve_ref(a[:, cols], y, counter=counter, stage="full_ls_est")
            except SingularSystemError:
                pass
    return coeffs


def estimate_channel_loop(
    buffer: TrainingBuffer,
    a_hat: np.ndarray,
    b_hat: complex,
    k_max: int,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Channel estimate accumulated one data training symbol at a time.

    At each uplink subcarrier, sums conj(r) y and |r|^2 over the data
    symbols, with r = sum_k a_hat[k] Phi_{2k+1} the composite regressor of
    the symbol (orders past the end of a_hat count as zero), and divides
    where the regressor power exceeds 1e-12 of the largest; every other
    subcarrier stays zero. Charges the basis build, (k_max + 3) multiplies
    per uplink subcarrier and symbol, and one division per solved uplink
    subcarrier.
    """
    tx_rows = buffer.tx[buffer.n_impulse:]
    rx_rows = buffer.rx[buffer.n_impulse:]
    if not len(tx_rows):
        raise ValueError("estimate_channel needs at least one data training symbol")
    grid = buffer.grid
    p_total = grid.num_subcarriers
    ul = grid.ul_indices
    a_vec = np.array(
        [a_hat[k] if k < len(a_hat) else 0.0 for k in range(k_max + 1)], dtype=np.complex128
    )

    num = np.zeros(len(ul), dtype=np.complex128)
    den = np.zeros(len(ul), dtype=np.float64)
    for tx, rx in zip(tx_rows, rx_rows):
        chain = symbol_bases(tx, b_hat, k_max, grid, counter, "train_basis")
        regressor = (a_vec[:, None] * chain[:, ul]).sum(axis=0)
        num += np.conj(regressor) * rx[ul]
        den += np.abs(regressor) ** 2
        if counter is not None:
            counter.charge(
                "estimate_channel",
                mults=len(ul) * (k_max + 1) + 2 * len(ul),
                adds=len(ul) * k_max + 2 * len(ul),
            )

    h_hat = np.zeros(p_total, dtype=np.complex128)
    top = den.max() if den.size else 0.0
    for i, p in enumerate(ul):
        if top > 0 and den[i] > 1e-12 * top:
            h_hat[p] = num[i] / den[i]
            if counter is not None:
                counter.charge("estimate_channel", mults=1, adds=0)
    return h_hat


def rx_body_loop(
    tx: np.ndarray,
    b_iq: complex,
    pa_eval,
    taps: np.ndarray,
    cp_length: int,
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Noisy received bodies of a window of symbols, one symbol at a time.

    For each row: inverse FFT, time-domain IQ image, the amplifier
    polynomial pa_eval, cyclic prefix, truncated causal convolution with
    the channel taps, prefix removal, then P real and P imaginary standard
    normal draws scaled to variance sigma^2.
    """
    out = []
    for spectrum in tx:
        t = np.fft.ifft(spectrum)
        t = pa_eval(t + b_iq * np.conj(t))
        prefixed = np.concatenate([t[len(t) - cp_length:], t])
        body = np.convolve(prefixed, taps)[: len(prefixed)][cp_length:]
        p = len(body)
        noise = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        out.append(body + (sigma / np.sqrt(2.0)) * noise)
    return np.array(out)

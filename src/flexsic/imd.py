"""Frequency-domain intermodulation (IMD) analysis for flexible duplex.

Let X be a downlink OFDM spectrum, b the IQ mirror coefficient, and

    X_iq[q] = X[q] + b * conj(X[(P - q) mod P]).

With x_iq = idft(X_iq) (1/P scaling), the odd-order nonlinear basis is

    phi_{2k+1}[n] = |x_iq[n]|^{2k} * x_iq[n],
    Phi_{2k+1}    = dft(phi_{2k+1}).

Expanding the transforms turns Phi into a sum over index tuples
(q_1, ..., q_{2k+1}) whose signed sum q_1 + ... + q_{k+1} - q_{k+2} - ...
- q_{2k+1} is congruent to p modulo P:

    Phi_{2k+1}[p] = (1/P^{2k}) * sum over tuples of
                    X_iq[q_1] ... X_iq[q_{k+1}] conj(X_iq[q_{k+2}]) ... conj(X_iq[q_{2k+1}]).

The IMD set Q^{2k+1}_p collects the downlink tuples landing on p; its size
obeys an exact integer recursion through the pair-count function Lambda
(the self-convolution of the downlink indicator), and the basis itself obeys
a recursion that needs only one squared spectrum and one FFT per order.
Everything in this module is per-allocation and symbol-independent except
the basis operators themselves, which act on the last axis of plain complex
arrays: one (P,) spectrum or an (M, P) stack of them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .impairments import apply_iq_freq
from .ofdm import SubcarrierGrid, mirror_index

_INT64_SAFE = 2**62


@dataclass(frozen=True)
class IMDTables:
    """Per-allocation IMD combinatorics and basis-power expectations.

    q_size[k, p] is the exact integer |Q^{2k+1}_p|; row 0 is the downlink
    indicator.  mu[k, p] is the predicted E|Phi_{2k+1}[p]|^2 for random
    downlink symbols of per-subcarrier power a_digi^2.  lambda_dl[s] counts
    downlink pairs with q1 + q2 = s (plain integer s, no wrap).
    """

    grid: SubcarrierGrid
    k_max: int
    q_size: np.ndarray
    mu: np.ndarray
    lambda_dl: np.ndarray
    b_iq: complex
    a_digi: float
    moment_mode: str


def lambda_dl(grid: SubcarrierGrid) -> np.ndarray:
    """Exact pair count Lambda[s] = |{(q1, q2) in DL^2 : q1 + q2 = s}|.

    Returned as an integer array indexed by the plain (unwrapped) sum
    s in [0, 2P-2]; the support is [2 dl_start, 2 dl_end] and the values
    form the triangle min(s - 2 dl_start, 2 dl_end - s) + 1 there.
    """
    ind = np.zeros(grid.num_subcarriers, dtype=np.int64)
    ind[grid.dl_indices] = 1
    return np.convolve(ind, ind)


def _fold_mod_p(arr: np.ndarray, p: int) -> np.ndarray:
    """Fold an extended-index integer array onto [0, P) by alias summation."""
    out = np.zeros(p, dtype=arr.dtype)
    for start in range(0, len(arr), p):
        chunk = arr[start:start + p]
        out[: len(chunk)] += chunk
    return out


def _circ_corr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact circular correlation T[p] = sum_rho a[(p + rho) mod P] b[rho].

    Computed through one linear convolution plus alias folding, which keeps
    integer inputs exact (no FFT round-off).
    """
    p = len(a)
    flipped = np.roll(b[::-1], 1)  # flipped[u] = b[(-u) mod P]
    lin = np.convolve(a, flipped)
    return _fold_mod_p(lin, p)


def q_size(grid: SubcarrierGrid, k_max: int) -> np.ndarray:
    """Exact IMD set sizes |Q^{2k+1}_p| for k = 0..k_max, shape (k_max+1, P).

    Row k follows the recursion

        |Q^{2k+1}_p| = sum_rho Lambda_fold[(p + rho) mod P] * |Q^{2k-1}_rho|,

    where Lambda_fold is the pair count folded onto the grid (pair sums
    beyond P alias back, exactly as the signed tuple sums do).  Row 0 is the
    downlink indicator.  Each row sums to |DL|^{2k+1}.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    p = grid.num_subcarriers
    # Switch to Python-int arithmetic when counts could overflow int64.
    dtype: type | np.dtype = np.int64
    if grid.dl_size ** (2 * k_max + 1) >= _INT64_SAFE:
        dtype = object
    lam_fold = _fold_mod_p(lambda_dl(grid).astype(dtype), p)
    rows = np.zeros((k_max + 1, p), dtype=dtype)
    rows[0, grid.dl_indices] = 1
    for k in range(1, k_max + 1):
        rows[k] = _circ_corr(lam_fold, rows[k - 1])
    return rows


def basis_direct(X: np.ndarray, b_iq: complex, k: int) -> np.ndarray:
    """Reference order-(2k+1) basis straight from the definition, shape of X.

    Applies the IQ image in frequency, transforms to time, raises to the
    odd power per sample, and transforms back, along the last axis.  Every
    other basis routine in the package is validated against this one.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    x_iq = np.fft.ifft(apply_iq_freq(X, b_iq), axis=-1)
    phi = np.abs(x_iq) ** (2 * k) * x_iq
    return np.fft.fft(phi, axis=-1)


def basis_chain(X_iq_values: np.ndarray, k_max: int) -> np.ndarray:
    """All bases Phi_1 .. Phi_{2k_max+1}: shape (..., P) in, (..., k_max+1, P) out.

    Implements the recursion

        Phi_{2k+1}[p] = (1/P^2) * sum_{q1, q2} X_iq[q1] X_iq[q2]
                                  * conj(Phi_{2k-1}[(q1 + q2 - p) mod P])

    through FFTs of the subcarrier sequences, i.e. O(P log P) per order
    instead of the O(P^2) double sum, reusing the squared spectrum across
    orders. X_iq_values must be the IQ-applied spectrum (the order-1 basis);
    leading axes index symbols.
    """
    x = np.asarray(X_iq_values)
    p = x.shape[-1]
    out = np.empty(x.shape[:-1] + (k_max + 1, p), dtype=np.complex128)
    out[..., 0, :] = x
    if k_max == 0:
        return out
    fx2 = np.fft.fft(x, axis=-1)
    fx2 *= fx2
    # in place, so a stack of symbols holds few temporaries of its size
    for k in range(1, k_max + 1):
        term = np.fft.fft(out[..., k - 1, :], axis=-1)
        np.conjugate(term, out=term)
        np.multiply(fx2, term, out=term)
        term = np.fft.ifft(term, axis=-1)
        term /= p**2
        out[..., k, :] = term
    return out


def mu_tables(
    grid: SubcarrierGrid,
    b_iq: complex,
    a_digi: float,
    k_max: int,
    moment_mode: str = "biq",
) -> np.ndarray:
    """Predicted basis powers mu[k, p] = E|Phi_{2k+1}[p]|^2, shape (k_max+1, P).

    The recursion, with B = (1 + |b|^2) a_digi^2 and the folded pair count
    Lambda_fold:

        mu_1[p]      = B on the downlink set, 0 elsewhere
        mu_{2k+1}[p] = (2k (2k-1) B^2 / P^4) * sum_rho Lambda_fold[(p+rho) mod P] mu_{2k-1}[rho]
                     + ((k+1)^2 * F2 / P^4) * |DL|^2 * mu_{2k-1}[p]

    moment_mode selects the second-term factor F2: "biq" uses B^2 and is
    the variant consistent with Monte Carlo measurements; "a4" uses
    a_digi^4 and is kept for comparison (it understates the term by
    (1 + |b|^2)^2 when b != 0).  The prediction treats the subcarrier
    amplitudes as circular Gaussian, so for QAM inputs it carries an
    O(1/|DL|) relative error from degenerate index tuples, plus an
    O(|b|^2) term from conjugate-pair correlations.
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
    lam_fold = _fold_mod_p(lambda_dl(grid), p).astype(np.float64)
    mu = np.zeros((k_max + 1, p), dtype=np.float64)
    mu[0, grid.dl_indices] = big_b
    for k in range(1, k_max + 1):
        conv = _circ_corr(lam_fold, mu[k - 1])
        mu[k] = (2 * k * (2 * k - 1) * f1 / p**4) * conv + (
            (k + 1) ** 2 * f2 / p**4
        ) * grid.dl_size**2 * mu[k - 1]
    if np.any(mu < 0):
        raise AssertionError("mu table contains negative entries")
    return mu


def make_imd_tables(
    grid: SubcarrierGrid,
    b_iq: complex,
    a_digi: float,
    k_max: int,
    moment_mode: str = "biq",
) -> IMDTables:
    """Build and validate the full table set for one allocation."""
    qs = q_size(grid, k_max)
    for k in range(k_max + 1):
        total = int(sum(int(v) for v in qs[k]))
        expect = grid.dl_size ** (2 * k + 1)
        if total != expect:
            raise AssertionError(
                f"q_size row {k} sums to {total}, expected |DL|^{2 * k + 1} = {expect}"
            )
    return IMDTables(
        grid=grid,
        k_max=k_max,
        q_size=qs,
        mu=mu_tables(grid, b_iq, a_digi, k_max, moment_mode),
        lambda_dl=lambda_dl(grid),
        b_iq=complex(b_iq),
        a_digi=float(a_digi),
        moment_mode=moment_mode,
    )


def dump_imd_tables(tables: IMDTables, path) -> None:
    """Write the tables as CSV rows `k,p,q_size,mu`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,p,q_size,mu\n")
        for k in range(tables.k_max + 1):
            for p in range(tables.grid.num_subcarriers):
                fh.write(f"{k},{p},{int(tables.q_size[k, p])},{float(tables.mu[k, p])!r}\n")


def _dl_mirror_closed(grid: SubcarrierGrid) -> bool:
    """True when the downlink set maps onto itself under p -> (P - p) mod P."""
    dl = set(int(i) for i in grid.dl_indices)
    return dl == {mirror_index(i, grid.num_subcarriers) for i in dl}


def default_pilot_omega(grid: SubcarrierGrid) -> float:
    """Phase slope placing the pilot peak at body sample cp_length."""
    return 2.0 * np.pi * grid.cp_length / grid.num_subcarriers


def pilot_peak_sample(grid: SubcarrierGrid, omega: float) -> float:
    """Body sample index n0 = omega * P / (2 pi) of the pilot peak."""
    return omega * grid.num_subcarriers / (2.0 * np.pi)


def impulse_pilot(
    grid: SubcarrierGrid, a_digi, omega: float | None = None
) -> np.ndarray:
    """Impulse-like pilot: X[p] = a_digi * exp(-j omega p) on the downlink set.

    A scalar a_digi gives one (P,) pilot; an array of amplitudes gives one
    pilot per amplitude, shape a_digi.shape + (P,).

    The linear phase ramp concentrates the time-domain energy at body
    sample n0 = omega P / (2 pi); the default omega puts n0 at cp_length so
    the peak clears the longest channel tap.  A non-integer n0 leaves the
    peak straddling two samples and triggers a warning.
    """
    a_digi = np.asarray(a_digi, dtype=np.float64)
    if np.any(a_digi <= 0):
        raise ValueError(f"a_digi must be positive, got {a_digi}")
    if omega is None:
        omega = default_pilot_omega(grid)
    n0 = pilot_peak_sample(grid, omega)
    if abs(n0 - round(n0)) > 1e-9:
        warnings.warn(
            f"pilot peak sample n0 = {n0:.6f} is not an integer; "
            "the time-domain peak straddles two samples",
            stacklevel=2,
        )
    values = np.zeros(a_digi.shape + (grid.num_subcarriers,), dtype=np.complex128)
    idx = grid.dl_indices
    values[..., idx] = a_digi[..., None] * np.exp(-1j * omega * idx)
    return values


def impulse_pilot_basis(
    grid: SubcarrierGrid,
    b_iq: complex,
    a_digi: float,
    omega: float | None = None,
    k: int = 0,
    q_tables: np.ndarray | None = None,
) -> np.ndarray:
    """Closed-form nonlinear basis of the impulse pilot, O(1) per subcarrier.

        Phi_{2k+1}[p] = (|Q^{2k+1}_p| / P^{2k}) * a^{2k+1}
                        * |1 + b|^{2k} * (1 + b) * exp(-j omega p)

    Exact when every tuple term carries the same per-subcarrier factor,
    which requires an integer peak sample and either b = 0 or a
    mirror-closed downlink set; violations raise.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if omega is None:
        omega = default_pilot_omega(grid)
    n0 = pilot_peak_sample(grid, omega)
    if abs(n0 - round(n0)) > 1e-9:
        raise ValueError(
            f"closed-form pilot basis needs an integer peak sample, got n0 = {n0:.6f}"
        )
    if b_iq != 0 and not _dl_mirror_closed(grid):
        raise ValueError(
            "closed-form pilot basis with b != 0 requires a mirror-closed "
            "downlink set (dl_start + dl_end = P)"
        )
    if q_tables is None:
        q_tables = q_size(grid, k)
    p = grid.num_subcarriers
    one_b = 1.0 + b_iq
    scale = (
        a_digi ** (2 * k + 1) * abs(one_b) ** (2 * k) * one_b / p ** (2 * k)
    )
    ramp = np.exp(-1j * omega * np.arange(p))
    return q_tables[k].astype(np.float64) * scale * ramp


def predict_si_power(
    a_hat: np.ndarray, mu: np.ndarray, h_hat: np.ndarray
) -> np.ndarray:
    """Predicted per-order SI power I[k, p] = |a_hat[k]|^2 mu[k, p] |H[p]|^2."""
    a_hat = np.asarray(a_hat)
    mu = np.asarray(mu, dtype=np.float64)
    h_hat = np.asarray(h_hat)
    if mu.shape[0] != len(a_hat):
        raise ValueError(
            f"a_hat has {len(a_hat)} orders but mu has {mu.shape[0]} rows"
        )
    if mu.shape[1] != len(h_hat):
        raise ValueError("mu and h_hat disagree on grid size")
    return (np.abs(a_hat) ** 2)[:, None] * mu * (np.abs(h_hat) ** 2)[None, :]

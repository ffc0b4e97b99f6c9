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
has an exact closed form, a bounded stars-and-bars count folded onto the
grid. The basis-power prediction recurses through the pair-count function
Lambda (the self-convolution of the downlink indicator, a triangle in
closed form). The basis itself is computed from its time-domain
definition: one IFFT of X_iq, or samples the caller took already, then one
FFT per order, kept on the band asked for. The same bases obey
the frequency-domain recursion

    Phi_{2k+1}[p] = (1/P^2) * sum_{q1, q2} X_iq[q1] X_iq[q2]
                              * conj(Phi_{2k-1}[(q1 + q2 - p) mod P]),

since x^2 conj(|x|^{2k-2} x) = |x|^{2k} x per sample; the test suite keeps
that recursion as the reference the shipped routine is checked against.

The impulse pilot is a flat downlink spectrum carrying the phase ramp
exp(-j 2 pi cp_length p / P), so its whole band lands in body sample
cp_length: past the longest channel tap, and on an integer sample, which
keeps the pilot's closed-form basis exact (the test suite holds that
closed form as a reference). Its spectrum and its time profile live here
and share that one ramp slope.

Costs: lambda_dl is O(P). mu_tables, the basis-power prediction on the
run path, is O(P log P) per order: one real-FFT circular correlation, with
its round-off clipped to >= 0 and exact zeros kept off the subcarriers no
tuple reaches. q_size is exact in Python integers, O(k^2 P) per order; it
serves the `flexsic tables` dump, never the run path.

Everything in this module is per-allocation and symbol-independent except
the basis operators themselves, which act on the last axis of plain complex
arrays: one (P,) spectrum or an (M, P) stack of them.
"""

from __future__ import annotations

import math

import numpy as np

from .ofdm import SubcarrierGrid


def lambda_dl(grid: SubcarrierGrid) -> np.ndarray:
    """Exact pair count Lambda[s] = |{(q1, q2) in DL^2 : q1 + q2 = s}|.

    Returned as an integer array indexed by the plain (unwrapped) sum
    s in [0, 2P-2]; the support is [2 dl_start, 2 dl_end] and the values
    form the triangle min(s - 2 dl_start, 2 dl_end - s) + 1 there, which
    is evaluated directly in O(P).
    """
    s = np.arange(2 * grid.num_subcarriers - 1, dtype=np.int64)
    tri = np.minimum(s - 2 * grid.dl_start, 2 * grid.dl_end - s) + 1
    return np.maximum(tri, 0)


def _fold_mod_p(arr: np.ndarray, p: int) -> np.ndarray:
    """Fold an extended-index integer array onto [0, P) by alias summation."""
    out = np.zeros(p, dtype=arr.dtype)
    for start in range(0, len(arr), p):
        chunk = arr[start:start + p]
        out[: len(chunk)] += chunk
    return out


def _q_row(grid: SubcarrierGrid, k: int) -> np.ndarray:
    """Exact |Q^{2k+1}_p| for one order k, shape (P,), Python ints (see q_size)."""
    p = grid.num_subcarriers
    w = grid.dl_size
    n = 2 * k + 1
    span = n * (w - 1) + 1  # offset sums 0 .. n (W - 1)
    binom = np.array([math.comb(t + n - 1, n - 1) for t in range(span)], dtype=object)
    count = np.zeros(span, dtype=object)
    for j in range(n + 1):
        if j * w >= span:
            break
        count[j * w :] += (-1) ** j * math.comb(n, j) * binom[: span - j * w]
    offset = (k + 1) * grid.dl_start - k * grid.dl_end
    return np.roll(_fold_mod_p(count, p), offset % p)


def q_size(grid: SubcarrierGrid, k_max: int) -> np.ndarray:
    """Exact IMD set sizes |Q^{2k+1}_p| for k = 0..k_max, shape (k_max+1, P).

    The signed sum of an order-(2k+1) downlink tuple is
    (k+1) dl_start - k dl_end plus a sum of n = 2k+1 offsets, each in
    [0, W) with W = |DL|. By inclusion-exclusion (stars and bars with an
    upper bound) the number of tuples whose offsets sum to t is

        c(t) = sum_j (-1)^j C(n, j) C(t - j W + n - 1, n - 1),

    and row k is c folded onto the grid, sums beyond P aliasing back mod
    P as the signed tuple sums do. Row 0 is the downlink indicator, and
    each row sums to W^{2k+1}. Entries are Python ints in an object array,
    exact at any size.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    return np.stack([_q_row(grid, k) for k in range(k_max + 1)])


def basis_chain(
    X_iq_values: np.ndarray,
    k_max: int,
    samples: np.ndarray | None = None,
    band: slice = slice(None),
    out: np.ndarray | None = None,
) -> np.ndarray:
    """All bases Phi_1 .. Phi_{2k_max+1} on band: shape (..., k_max+1, |band|).

    X_iq_values is the IQ-applied spectrum on band, (..., |band|), and on
    the whole grid, (..., P), by default; leading axes index symbols. Row 0
    is X_iq_values, copied bit for bit. Row k is the definition
    dft(|x_iq|^{2k} x_iq)[..., band] with x_iq = idft(X_iq): one squared
    magnitude per symbol, then one product and one FFT per order, O(P log P)
    each. samples is x_iq, (..., P), which the caller holds already (see
    sic.basis_stack), so no IFFT is spent here; it is required for k_max
    >= 1 and read by no order at k_max = 0, and it is overwritten. out, of
    the returned shape, is filled and returned when given.
    """
    x = np.asarray(X_iq_values)
    if out is None:
        out = np.empty(x.shape[:-1] + (k_max + 1, x.shape[-1]), dtype=np.complex128)
    out[..., 0, :] = x
    if k_max == 0:
        return out
    if samples is None:
        raise ValueError("basis_chain needs the samples x_iq to build the orders above 1")
    mag2 = np.abs(samples)
    np.square(mag2, out=mag2)
    spectrum = np.empty_like(samples)
    for k in range(1, k_max + 1):
        samples *= mag2
        np.fft.fft(samples, axis=-1, out=spectrum)
        out[..., k, :] = spectrum[..., band]
    return out


def mu_tables(
    grid: SubcarrierGrid,
    b_iq: complex,
    a_digi: float,
    k_max: int,
) -> np.ndarray:
    """Predicted basis powers mu[k, p] = E|Phi_{2k+1}[p]|^2, shape (k_max+1, P).

    The recursion, with B = (1 + |b|^2) a_digi^2 and the folded pair count
    Lambda_fold:

        mu_1[p]      = B on the downlink set, 0 elsewhere
        mu_{2k+1}[p] = (2k (2k-1) B^2 / P^4) * sum_rho Lambda_fold[(p+rho) mod P] mu_{2k-1}[rho]
                     + ((k+1)^2 * B^2 / P^4) * |DL|^2 * mu_{2k-1}[p]

    Both terms scale by B^2, the squared composed per-subcarrier power: the
    weighting Monte Carlo measurements bear out, where a_digi^4 in the
    second term would understate it by (1 + |b|^2)^2 when b != 0. The
    prediction treats the subcarrier amplitudes as circular Gaussian, so
    for QAM inputs it carries an O(1/|DL|) relative error from degenerate
    index tuples, plus an O(|b|^2) term from conjugate-pair correlations.

    Each order costs one real-FFT circular correlation, O(P log P), against
    the spectrum of Lambda_fold computed once per call. A correlation of
    nonnegative arrays is nonnegative, so its FFT round-off is clipped to
    >= 0; and the signed sums of order-(2k+1) downlink tuples cover exactly
    the integers in [dl_start - k w, dl_end + k w], w = dl_end - dl_start,
    so every subcarrier off that arc (mod P) stays exactly 0, as in the
    exact sum. Entries match the exact correlation to FFT round-off
    relative to the row maximum; q_size is the exact integer path.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    p = grid.num_subcarriers
    b_mag2 = abs(b_iq) ** 2
    big_b = (1.0 + b_mag2) * a_digi**2
    f = big_b**2
    lam_hat = np.fft.rfft(_fold_mod_p(lambda_dl(grid), p).astype(np.float64))
    w = grid.dl_end - grid.dl_start
    mu = np.zeros((k_max + 1, p), dtype=np.float64)
    mu[0, grid.dl_band] = big_b
    for k in range(1, k_max + 1):
        conv = np.fft.irfft(lam_hat * np.conj(np.fft.rfft(mu[k - 1])), n=p)
        reached = (np.arange(p) - (grid.dl_start - k * w)) % p <= (2 * k + 1) * w
        conv = np.where(reached, np.maximum(conv, 0.0), 0.0)
        mu[k] = (2 * k * (2 * k - 1) * f / p**4) * conv + (
            (k + 1) ** 2 * f / p**4
        ) * grid.dl_size**2 * mu[k - 1]
    if np.any(mu < 0):
        raise AssertionError("mu table contains negative entries")
    return mu


def _pilot_slope(grid: SubcarrierGrid) -> float:
    """Phase slope of the pilot ramp, placing its peak at body sample cp_length."""
    return 2.0 * np.pi * grid.cp_length / grid.num_subcarriers


def impulse_pilot(grid: SubcarrierGrid, a_digi) -> np.ndarray:
    """Impulse-like pilot: X[p] = a_digi * exp(-j 2 pi cp_length p / P) on the downlink set.

    A scalar a_digi gives one (P,) pilot; an array of amplitudes gives one
    pilot per amplitude, shape a_digi.shape + (P,).

    The phase ramp concentrates the time-domain energy at body sample
    cp_length, where the peak clears the longest channel tap.
    """
    a_digi = np.asarray(a_digi, dtype=np.float64)
    if np.any(a_digi <= 0):
        raise ValueError(f"a_digi must be positive, got {a_digi}")
    values = np.zeros(a_digi.shape + (grid.num_subcarriers,), dtype=np.complex128)
    values[..., grid.dl_band] = a_digi[..., None] * np.exp(
        -1j * _pilot_slope(grid) * grid.dl_indices
    )
    return values


def pilot_profile(grid: SubcarrierGrid, samples: np.ndarray) -> np.ndarray:
    """Unit-peak time profile of the impulse pilot at the given body samples.

    The pilot spectrum is a constant with a linear phase ramp over the
    contiguous downlink span, so its time profile is a geometric sum
    evaluated in closed form: a handful of operations per sample, with no
    dependence on the grid or band sizes. It is exactly 1 at sample
    cp_length.
    """
    theta = (
        2.0 * np.pi * np.asarray(samples, dtype=np.float64) / grid.num_subcarriers
        - _pilot_slope(grid)
    )
    n = grid.dl_size
    z = np.exp(1j * theta)
    near_one = np.abs(z - 1.0) < 1e-12
    # placeholder away from 1 but still unit modulus, so z**n stays bounded
    safe = np.where(near_one, np.exp(0.5j), z)
    out = np.exp(1j * theta * grid.dl_start) * (safe**n - 1.0) / (safe - 1.0)
    out[near_one] = n
    return out / n


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
        raise ValueError("mu and h_hat disagree on subcarrier count")
    return (np.abs(a_hat) ** 2)[:, None] * mu * (np.abs(h_hat) ** 2)[None, :]

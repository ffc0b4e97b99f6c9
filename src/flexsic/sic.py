"""Two-stage frequency-domain self-interference cancellation.

Stage one estimates the transmitter model from a short training window:
the IQ-imbalance image weight b from mirror-subcarrier regressions, the
odd-order polynomial coefficients a_{2k+1} from an amplitude-swept
impulse pilot, and the effective channel H[p] from a per-subcarrier
scalar regression against the composite nonlinear regressor. Stage two
selects, per uplink subcarrier, which distortion orders are worth
cancelling (predicted distortion power above a threshold gamma) and
records the choice as one boolean retained-order mask. The per-symbol
canceller is then a masked product-sum whose running cost is one
multiply per retained basis per subcarrier.

The running cancellers (run_sic, run_full_ls, baseline_linear) return
the self-interference estimate on the grid; the caller subtracts it from
the received spectrum. Each still charges that subtraction's adds to its
own stage, so the counts match a canceller that subtracts in place.

Symbols are held as arrays, one per row. Every estimator works on the
whole training window at once, and the running cancellers take a (..., P)
stack of transmit spectra and act on its last axis.

All estimator and canceller arithmetic is charged to an OpCounter so
complexity claims can be checked against actual counts; a stacked step
charges its per-symbol cost once per symbol. Receiver-side FFTs of the
received waveform are not charged: demodulation happens regardless of
which canceller is in use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counters import OpCounter, ls_costs
from .imd import basis_chain, pilot_peak_sample, predict_si_power
from .impairments import apply_iq_freq, apply_iq_time
from .ofdm import SubcarrierGrid

_RANK_TOL = 1e-12
_AUTO_RIDGE_COND = 1e8
_REGRESSOR_POWER_TOL = 1e-12
# Systems per block in _ls_solve_stack. Solving a whole band at once holds
# several band-sized temporaries (QR workspace, Gram matrices, right-hand
# sides) and raised peak memory by a tenth at P = 4096; blocks of this size
# keep the temporaries small while the per-call overhead stays amortised.
_LS_BLOCK = 256
# Echo taps resolved jointly by the polynomial estimator's multipath guard.
# Indoor self-interference channels are sparse, so a handful of taps carries
# the leakage that matters; the cap keeps the joint solve at a fixed size.
_PA_MAX_ECHOES = 8
# Refinement passes of that guard: each estimates the echo tap gains from
# post-peak pilot samples and strips their pre-peak leakage out of the peak
# equations before refitting the polynomial.
_PA_REFINE_PASSES = 2


class SingularSystemError(ValueError):
    """Raised when an unregularized LS system is rank deficient."""

    def __init__(self, column: int, message: str | None = None):
        self.column = int(column)
        if message is None:
            message = f"least-squares system is singular (column {column} is dependent or zero)"
        super().__init__(message)


@dataclass(frozen=True)
class TrainingBuffer:
    """Training window, one symbol per row: impulse pilots first, then data.

    tx holds the transmitted spectra and rx the received CP-free bodies,
    both of shape (M, P); the first n_impulse rows are the impulse pilots
    and the rest are data symbols. Estimators that work in the frequency
    domain demodulate on access; that FFT is receiver work and is never
    charged to a canceller stage.
    """

    grid: SubcarrierGrid
    tx: np.ndarray
    rx: np.ndarray
    n_impulse: int
    omega: float

    def __post_init__(self):
        p = self.grid.num_subcarriers
        tx = np.asarray(self.tx, dtype=np.complex128)
        rx = np.asarray(self.rx, dtype=np.complex128)
        if tx.ndim != 2 or tx.shape[1] != p:
            raise ValueError(f"tx has shape {tx.shape}, expected (M, {p})")
        if rx.shape != tx.shape:
            raise ValueError(f"rx has shape {rx.shape}, expected the tx shape {tx.shape}")
        if not 0 <= self.n_impulse <= len(tx):
            raise ValueError(f"n_impulse={self.n_impulse} is outside 0..{len(tx)}")
        object.__setattr__(self, "tx", tx)
        object.__setattr__(self, "rx", rx)

    def rx_spectra(self, start: int = 0) -> np.ndarray:
        """Receiver-side demodulation of the bodies from row start on (uncharged)."""
        return np.fft.fft(self.rx[start:], axis=-1)


@dataclass(frozen=True)
class SICCoefficients:
    """Everything the running canceller needs.

    h_hat holds the effective channel estimate over the full grid
    (zeros outside the uplink band and at unestimated subcarriers).
    a_hat maps odd order 2k+1 to its polynomial coefficient. retained is
    a boolean mask of shape (k_max + 1, P): row 0 marks the uplink
    subcarriers the canceller acts on (those with a channel estimate),
    and row k >= 1 marks where order 2k+1 is cancelled, so column p
    holds {0} u K_p. The rows k >= 1 need not be nested in each other,
    but they lie within row 0, and nothing is marked off the uplink.
    """

    grid: SubcarrierGrid
    h_hat: np.ndarray
    a_hat: dict[int, complex]
    b_hat: complex
    retained: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h_hat, dtype=np.complex128)
        if h.shape != (self.grid.num_subcarriers,):
            raise ValueError("h_hat must have one entry per subcarrier")
        object.__setattr__(self, "h_hat", h)
        for order in self.a_hat:
            if order % 2 == 0 or order < 1:
                raise ValueError(f"a_hat keys must be odd orders, got {order}")
        mask = np.asarray(self.retained, dtype=bool)
        shape = (self.k_max + 1, self.grid.num_subcarriers)
        if mask.shape != shape:
            raise ValueError(f"retained has shape {mask.shape}, expected {shape}")
        outside = mask.any(axis=0)
        outside[self.grid.ul_indices] = False
        if outside.any():
            p = int(np.flatnonzero(outside)[0])
            raise ValueError(f"retained marks non-uplink subcarrier {p}")
        orphan = (mask[1:] & ~mask[0]).any(axis=0)
        if orphan.any():
            p = int(np.flatnonzero(orphan)[0])
            raise ValueError(f"retained keeps distortion orders at unestimated subcarrier {p}")
        object.__setattr__(self, "retained", mask)

    @property
    def k_max(self) -> int:
        return max((order - 1) // 2 for order in self.a_hat) if self.a_hat else 0

    def a_vector(self) -> np.ndarray:
        """Coefficients as [a_1, a_3, ..., a_{2k_max+1}] with zeros filled in."""
        k_max = self.k_max
        return np.array(
            [self.a_hat.get(2 * k + 1, 0.0) for k in range(k_max + 1)], dtype=np.complex128
        )


def ls_solve(
    regressors: np.ndarray,
    observations: np.ndarray,
    regularization: float = 0.0,
    counter: OpCounter | None = None,
    stage: str = "ls",
) -> np.ndarray:
    """Least squares through the normal equations, with guard rails.

    With regularization == 0 the system is checked for rank deficiency
    first (a SingularSystemError names the offending column) and a small
    ridge is switched on automatically when the condition estimate
    exceeds 1e8. With regularization > 0 the ridge is applied as given.
    The returned coefficients minimize ||y - A c||^2 + reg ||c||^2.
    """
    a = np.asarray(regressors, dtype=np.complex128)
    y = np.asarray(observations, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("regressors must be a 2-D matrix")
    m, k = a.shape
    if y.shape != (m,):
        raise ValueError("observations must match the regressor row count")
    if m < k:
        raise ValueError(f"underdetermined system: {m} rows for {k} unknowns")

    coeffs, solved = _ls_solve_stack(a[None], y[None], regularization, counter, stage)
    if not solved[0]:
        diag = _r_diagonal(a[None])[0]
        if diag.max() == 0.0:
            raise SingularSystemError(0, "least-squares system is all zero")
        raise SingularSystemError(int(np.argmin(diag)))
    return coeffs[0]


def _r_diagonal(a: np.ndarray) -> np.ndarray:
    """|R_kk| of the QR factor of each stacked (M, K) system: shape (n, K)."""
    return np.abs(np.diagonal(np.linalg.qr(a, mode="r"), axis1=1, axis2=2))


def _ls_solve_stack(
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
    rank-deficient system stays unsolved, with zero coefficients, and is
    not charged; every solved one is charged one M-row, K-column solve.

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
        coeffs[start : start + _LS_BLOCK][ok] = np.linalg.solve(gram[ok], rhs[ok])[:, :, 0]
        solved[start : start + _LS_BLOCK] = ok
    count = int(solved.sum())
    if counter is not None and count:
        mults, adds = ls_costs(m, k)
        counter.charge(stage, mults=count * mults, adds=count * adds)
    return coeffs, solved


def estimate_iq(buffer: TrainingBuffer, counter: OpCounter | None = None) -> complex:
    """Estimate the IQ image weight b from mirror-subcarrier regressions.

    For every downlink subcarrier p whose mirror -p is also in the
    downlink band, the received value is regressed on the pair
    (X[p], conj(X[-p])); the ratio of the fitted coefficients is a local
    estimate of b and the estimates are combined with power weights.
    Data training symbols only; impulse pilots are rank one in this
    regression and are skipped.
    """
    grid = buffer.grid
    p_total = grid.num_subcarriers
    tx = buffer.tx[buffer.n_impulse:]
    m = len(tx)
    if m < 2:
        raise ValueError("estimate_iq needs at least 2 data training symbols")

    dl = grid.dl_indices
    mirrored = (p_total - dl) % p_total
    keep = grid.dl_mask[mirrored] & (mirrored != dl)
    pairs, mirrors = dl[keep], mirrored[keep]
    if not pairs.size:
        raise ValueError(
            "IQ image weight is unidentifiable: no downlink subcarrier has its mirror in the band"
        )

    # one (m, 2) system per pair
    a = np.empty((len(pairs), m, 2), dtype=np.complex128)
    a[:, :, 0] = tx[:, pairs].T
    a[:, :, 1] = np.conj(tx[:, mirrors]).T
    y = buffer.rx_spectra(buffer.n_impulse)[:, pairs].T
    mirror_power = np.sum(np.abs(a[:, :, 1]) ** 2, axis=1)
    c, solved = _ls_solve_stack(a, y, 0.0, counter, "estimate_iq")
    used = solved & (c[:, 0] != 0.0)
    c = c[used]
    weight = np.abs(c[:, 0]) ** 2 * mirror_power[used]
    den = float(weight.sum())
    if den == 0.0:
        raise ValueError("IQ image weight is unidentifiable: mirror content is all zero")
    if counter is not None:
        n_used = int(used.sum())
        counter.charge("estimate_iq", mults=n_used * (m + 3), adds=n_used * m)
    return complex(np.sum(weight * (c[:, 1] / c[:, 0])) / den)


def _pilot_kernel(grid: SubcarrierGrid, omega: float, samples: np.ndarray) -> np.ndarray:
    """Unit-peak time profile of the flat-ramp pilot at the given body samples.

    The pilot spectrum is a constant with a linear phase ramp over the
    contiguous downlink span, so its time profile is a geometric sum
    evaluated in closed form: a handful of operations per sample, with no
    dependence on the grid or band sizes.
    """
    theta = (
        2.0 * np.pi * np.asarray(samples, dtype=np.float64) / grid.num_subcarriers
        - omega
    )
    n = grid.dl_size
    z = np.exp(1j * theta)
    near_one = np.abs(z - 1.0) < 1e-12
    # placeholder away from 1 but still unit modulus, so z**n stays bounded
    safe = np.where(near_one, np.exp(0.5j), z)
    out = np.exp(1j * theta * grid.dl_start) * (safe**n - 1.0) / (safe - 1.0)
    out[near_one] = n
    return out / n


def estimate_pa(
    buffer: TrainingBuffer,
    los_gain: complex,
    b_hat: complex,
    k_max: int,
    regularization: float = 0.0,
    los_tap_index: int = 0,
    counter: OpCounter | None = None,
) -> dict[int, complex]:
    """Estimate polynomial coefficients from the impulse pilot peaks.

    Each impulse symbol concentrates the downlink band into one body
    sample of known amplitude. Sampling the received body at the pilot
    peak (shifted by the line-of-sight tap) gives one scalar equation
    y_m ~= h_los * sum_k a_k |alpha_m|^{2k} alpha_m per symbol, where
    alpha_m is the amplifier input peak after IQ imbalance. The sweep of
    pilot amplitudes across symbols makes the orders separable, and the
    solve touches k_max + 1 unknowns regardless of how many subcarriers
    the uplink band has.

    Echo taps behind the line of sight leak the pilot's pre-peak tail
    into the peak sample. That leakage is linear in the pilot amplitude,
    so it aliases straight into the first-order coefficient and skews
    the coefficient ratios, which the downstream channel fit cannot
    absorb. The estimator therefore refines, in _PA_REFINE_PASSES passes:
    post-peak samples n0 + tau see each echo tap against the full pilot
    peak, a matched filter over the guard window locates the strongest
    echoes, a small joint solve over just those taps removes their mutual
    kernel leakage, their pre-peak contribution is subtracted from the
    peak equations, and the polynomial is refit.
    The extra work is bounded by the cyclic prefix length and the echo
    cap, still independent of both band sizes.
    """
    m = buffer.n_impulse
    if m < k_max + 1:
        raise ValueError(
            f"{m} impulse symbols cannot identify {k_max + 1} coefficients"
        )
    if los_gain == 0:
        raise ValueError("line-of-sight gain must be nonzero")

    grid = buffer.grid
    p_total = grid.num_subcarriers
    n0 = pilot_peak_sample(grid, buffer.omega)
    n0_int = int(round(n0))
    if abs(n0 - n0_int) > 1e-9:
        raise ValueError("pilot peak does not land on an integer sample")

    rx = buffer.rx[:m]
    amp = np.abs(buffer.tx[:m, grid.dl_start])
    if not amp.all():
        raise ValueError(f"impulse symbol {int(np.argmin(amp))} has no pilot energy")
    peaks = amp * grid.dl_size / p_total
    alpha = apply_iq_time(peaks, b_hat)
    mag2 = np.abs(alpha) ** 2
    rows = np.empty((m, k_max + 1), dtype=np.complex128)
    term = alpha
    for k in range(k_max + 1):
        rows[:, k] = los_gain * term
        term = term * mag2
    y = rx[:, (n0_int + los_tap_index) % p_total]
    if counter is not None:
        counter.charge("estimate_pa", mults=m * (2 * k_max + 3), adds=m)
    coeffs = ls_solve(rows, y, regularization, counter=counter, stage="estimate_pa")

    guard = min(grid.cp_length, n0_int)
    if guard > 0:
        offsets = np.arange(-guard, guard + 1)
        kappa = _pilot_kernel(grid, buffer.omega, n0_int + offsets)
        x_all = peaks[:, None] * kappa[None, :]
        a_all = apply_iq_time(x_all, b_hat)
        mag2_all = np.abs(a_all) ** 2
        post_idx = (n0_int + los_tap_index + np.arange(1, guard + 1)) % p_total
        rx_post = rx[:, post_idx]
        n_echo = min(_PA_MAX_ECHOES, guard)
        # column s of the joint design holds the echo at delay taus[s];
        # row (i, tau) needs the amplifier output at offset tau - taus[s]
        tau_rows = np.arange(1, guard + 1)
        if counter is not None:
            counter.charge(
                "estimate_pa",
                mults=8 * (2 * guard + 1)
                + _PA_REFINE_PASSES
                * (
                    m * (2 * guard + 1) * (k_max + 3)
                    + guard * (2 * m + 1)
                    + 2 * m * n_echo
                ),
                adds=_PA_REFINE_PASSES * m * guard * 2,
            )
        for _ in range(_PA_REFINE_PASSES):
            a_vec = np.array([coeffs[k] for k in range(k_max + 1)])
            u = np.zeros_like(a_all)
            for k in range(k_max, -1, -1):
                u = u * mag2_all + a_vec[k]
            u = u * a_all
            u_peak = u[:, guard]
            u_post = u[:, guard + 1 :]
            resid = rx_post - los_gain * u_post
            matched = (np.conj(u_peak) @ resid) / np.sum(np.abs(u_peak) ** 2)
            taus = 1 + np.sort(np.argsort(np.abs(matched))[::-1][:n_echo])
            design = u[:, guard + tau_rows[:, None] - taus[None, :]]
            gains = ls_solve(
                design.reshape(m * guard, len(taus)),
                resid.reshape(m * guard),
                regularization,
                counter=counter,
                stage="estimate_pa",
            )
            y_corr = y - u[:, guard - taus] @ gains
            coeffs = ls_solve(rows, y_corr, regularization, counter=counter, stage="estimate_pa")
    return {2 * k + 1: complex(coeffs[k]) for k in range(k_max + 1)}


def _symbol_count(x_dl: np.ndarray, p_total: int) -> int:
    """Number of symbols in a (..., P) stack of transmit spectra."""
    if np.shape(x_dl)[-1:] != (p_total,):
        raise ValueError("symbol length does not match the grid")
    return int(np.prod(np.shape(x_dl)[:-1]))


def _charged_bases(
    x: np.ndarray,
    b_hat: complex,
    k_max: int,
    grid: SubcarrierGrid,
    counter: OpCounter | None,
    stage: str,
) -> np.ndarray:
    """Bases Phi_1 .. Phi_{2k_max+1} of (..., P) transmit spectra with the IQ image b_hat.

    Charged to stage per symbol: the image costs one multiply and one add
    per downlink subcarrier, and basis_chain one spectrum FFT plus
    squaring, then one FFT, one IFFT, one elementwise product and one
    rescale per order.
    """
    if counter is not None:
        p_total = grid.num_subcarriers
        count = _symbol_count(x, p_total)
        counter.charge(stage, mults=count * grid.dl_size, adds=count * grid.dl_size)
        counter.charge_fft(stage, p_total, count=count * (1 + 2 * k_max))
        counter.charge(stage, mults=count * p_total * (1 + 2 * k_max))
    return basis_chain(apply_iq_freq(x, b_hat), k_max)


def estimate_channel(
    buffer: TrainingBuffer,
    a_hat: dict[int, complex],
    b_hat: complex,
    k_max: int,
    counter: OpCounter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-subcarrier scalar LS for the effective channel on the uplink band.

    The regressor at subcarrier p is sum_k a_hat_{2k+1} Phi_{2k+1}[p]
    built from the composed transmit spectrum, so the channel stays
    identifiable even where only out-of-band distortion lands. Returns
    (h_hat over the full grid, boolean mask over the grid of the uplink
    subcarriers that were estimated). Uplink subcarriers whose regressor
    power was too small to trust stay zero in h_hat, and the canceller
    leaves them untouched.
    """
    tx = buffer.tx[buffer.n_impulse:]
    m = len(tx)
    if not m:
        raise ValueError("estimate_channel needs at least one data training symbol")
    grid = buffer.grid
    p_total = grid.num_subcarriers
    ul = grid.ul_indices
    a_vec = np.array([a_hat.get(2 * k + 1, 0.0) for k in range(k_max + 1)], dtype=np.complex128)

    chain = _charged_bases(tx, b_hat, k_max, grid, counter, "train_basis")
    regressor = (a_vec[:, None] * chain[:, :, ul]).sum(axis=1)
    rx = buffer.rx_spectra(buffer.n_impulse)[:, ul]
    num = (np.conj(regressor) * rx).sum(axis=0)
    den = (np.abs(regressor) ** 2).sum(axis=0)
    if counter is not None:
        counter.charge(
            "estimate_channel",
            mults=m * (len(ul) * (k_max + 1) + 2 * len(ul)) + len(ul),
            adds=m * (len(ul) * k_max + 2 * len(ul)),
        )

    h_hat = np.zeros(p_total, dtype=np.complex128)
    estimated = np.zeros(p_total, dtype=bool)
    top = den.max() if den.size else 0.0
    estimated[ul] = den > _REGRESSOR_POWER_TOL * top if top > 0 else False
    good = estimated[ul]
    h_hat[ul[good]] = num[good] / den[good]
    return h_hat, estimated


def select_basis(
    a_hat: dict[int, complex],
    mu: np.ndarray,
    h_hat: np.ndarray,
    gamma: float,
    k_max: int,
    grid: SubcarrierGrid,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Pick, per uplink subcarrier, the distortion orders worth cancelling.

    Walks k = 1..k_max and keeps k while the predicted distortion power
    |a_{2k+1}|^2 mu_{2k+1}[p] |h[p]|^2 exceeds gamma, stopping at the
    first order that falls below. The walk stops early because predicted
    power decays with k at sane drive levels; anything below gamma costs
    more to cancel than it removes. Each order the walk looks at costs
    three multiplies.

    Returns the retained-order mask of shape (k_max + 1, P) that
    SICCoefficients takes: row 0 marks the uplink subcarriers with a
    nonzero channel estimate (estimate_channel leaves the unestimated
    ones at zero), row k marks where order 2k+1 is kept.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if mu.shape[0] < k_max + 1:
        raise ValueError("mu table does not cover k_max")
    ul = grid.ul_indices
    a_vec = np.array([a_hat.get(2 * k + 1, 0.0) for k in range(1, k_max + 1)], dtype=np.complex128)
    power = predict_si_power(a_vec, mu[1 : k_max + 1, ul], h_hat[ul])
    retained = np.zeros((k_max + 1, grid.num_subcarriers), dtype=bool)
    retained[0, ul] = h_hat[ul] != 0
    retained[1:, ul] = np.logical_and.accumulate(power > gamma, axis=0)
    if counter is not None:
        walked = np.minimum(k_max, retained[1:, ul].sum(axis=0) + 1)
        counter.charge("select_basis", mults=3 * int(walked.sum()), adds=0)
    return retained


def precombine(coeffs: SICCoefficients, counter: OpCounter | None = None) -> np.ndarray:
    """One-off combine c_k[p] = h_hat[p] a_{2k+1} used by the runner."""
    k_max = coeffs.k_max
    grid = coeffs.grid
    combined = np.zeros((k_max + 1, grid.num_subcarriers), dtype=np.complex128)
    a_vec = coeffs.a_vector()
    ul = grid.ul_indices
    combined[:, ul] = a_vec[:, None] * coeffs.h_hat[ul][None, :]
    if counter is not None:
        counter.charge("coeff_combine", mults=(k_max + 1) * len(ul), adds=0)
    return combined


def run_sic(
    x_dl: np.ndarray,
    coeffs: SICCoefficients,
    counter: OpCounter | None = None,
    combined: np.ndarray | None = None,
) -> np.ndarray:
    """Self-interference estimate of a (..., P) stack of symbols, on the grid.

    Builds the composed transmit spectra and the distortion bases up to
    the largest retained order, then returns, along the last axis,
    sum_{k in {0} u K_p} h_hat[p] a_{2k+1} Phi_{2k+1}[p] at each uplink
    subcarrier that coeffs.retained marks, and zero elsewhere. The caller
    subtracts it from the received spectra. Running stage cost per symbol
    is sum_p (1 + |K_p|) multiplies, plus one add per retained order and
    per uplink subcarrier for the subtraction.
    """
    grid = coeffs.grid
    count = _symbol_count(x_dl, grid.num_subcarriers)
    if np.any(x_dl[..., ~grid.dl_mask]):
        raise ValueError(
            "allocation mismatch: transmit spectrum has energy outside the downlink band"
        )

    mask = coeffs.retained
    kept_rows = np.flatnonzero(mask.any(axis=1))
    k_used = int(kept_rows[-1]) if kept_rows.size else 0

    chain = _charged_bases(x_dl, coeffs.b_hat, k_used, grid, counter, "run_basis")

    if combined is None:
        combined = precombine(coeffs, counter)

    ul = grid.ul_indices
    terms = combined[: k_used + 1, ul] * chain[..., ul]
    est = np.zeros(np.shape(x_dl), dtype=np.complex128)
    est[..., ul] = np.where(mask[: k_used + 1, ul], terms, 0.0).sum(axis=-2)
    if counter is not None:
        n_terms, n_orders = int(mask.sum()), int(mask[1:].sum())
        counter.charge("run", mults=count * n_terms, adds=count * (n_orders + len(ul)))
    return est


def perfect_coefficients(
    grid: SubcarrierGrid,
    freq_response: np.ndarray,
    pa_coeffs: dict[int, complex],
    b_iq: complex,
) -> SICCoefficients:
    """Oracle coefficients with every basis retained; for invariant checks."""
    k_max = (max(pa_coeffs) - 1) // 2
    retained = np.zeros((k_max + 1, grid.num_subcarriers), dtype=bool)
    retained[:, grid.ul_indices] = True
    return SICCoefficients(
        grid=grid,
        h_hat=np.asarray(freq_response, dtype=np.complex128).copy(),
        a_hat={int(o): complex(v) for o, v in pa_coeffs.items()},
        b_hat=complex(b_iq),
        retained=retained,
    )


def estimate_linear_channel(
    buffer: TrainingBuffer, counter: OpCounter | None = None
) -> np.ndarray:
    """Scalar LS of the received spectrum on the transmit spectrum alone.

    The linear baseline's estimator. Where the transmit spectrum carries
    no energy (the uplink band in a split allocation) the estimate stays
    zero and the linear canceller does nothing.
    """
    m = len(buffer.tx) - buffer.n_impulse
    if not m:
        raise ValueError("linear channel estimation needs at least one data symbol")
    grid = buffer.grid
    ul = grid.ul_indices
    tx = buffer.tx[buffer.n_impulse:, ul]
    rx = buffer.rx_spectra(buffer.n_impulse)[:, ul]
    num = (np.conj(tx) * rx).sum(axis=0)
    den = (np.abs(tx) ** 2).sum(axis=0)
    if counter is not None:
        counter.charge("linear_est", mults=m * 2 * len(ul), adds=m * 2 * len(ul))
    h = np.zeros(grid.num_subcarriers, dtype=np.complex128)
    top = den.max() if den.size else 0.0
    good = den > _REGRESSOR_POWER_TOL * top if top > 0 else np.zeros_like(den, dtype=bool)
    h[np.asarray(ul)[good]] = num[good] / den[good]
    if counter is not None:
        counter.charge("linear_est", mults=int(np.sum(good)), adds=0)
    return h


def baseline_linear(
    x_dl: np.ndarray,
    h_hat_lin: np.ndarray,
    grid: SubcarrierGrid,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Linear-only SI estimate h_lin[p] X[p] of (..., P) symbols.

    Zero off the uplink band. linear_run is charged per symbol for the
    products and for the caller's subtraction.
    """
    count = _symbol_count(x_dl, grid.num_subcarriers)
    ul = grid.ul_indices
    est = np.zeros(x_dl.shape, dtype=np.complex128)
    est[..., ul] = h_hat_lin[ul] * x_dl[..., ul]
    if counter is not None:
        counter.charge("linear_run", mults=count * len(ul), adds=count * len(ul))
    return est


def baseline_full_ls(
    buffer: TrainingBuffer,
    k_max: int,
    b_hat: complex = 0.0,
    regularization: float = 0.0,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Conventional joint per-subcarrier LS over all distortion orders.

    Fits, at every uplink subcarrier independently, a coefficient for
    each basis Phi_1..Phi_{2k_max+1} from the whole training window.
    This is the accuracy ceiling the low-complexity estimator is
    compared against; its cost scales with the uplink band width times
    the training length. A subcarrier whose regressors are singular
    (the linear column is identically zero off the downlink band, for
    instance) falls back to a tiny documented ridge.
    """
    m = len(buffer.tx)
    if m < k_max + 1:
        raise ValueError(
            f"{m} training symbols cannot fit {k_max + 1} coefficients per subcarrier"
        )
    grid = buffer.grid
    chains = _charged_bases(buffer.tx, b_hat, k_max, grid, counter, "full_ls_basis")
    rx = buffer.rx_spectra()

    # the uplink is one contiguous span, so the (|UL|, m, k_max+1) stack is a view
    band = slice(grid.ul_set[0], grid.ul_set[1] + 1)
    a = chains[:, :, band].transpose(2, 0, 1)
    y = rx[:, band].T
    c, solved = _ls_solve_stack(a, y, regularization, counter, "full_ls_est")
    # rank-deficient subcarriers are refit with the ridge 1e-8 max|a|^2;
    # all-zero ones stay zero
    retry = np.flatnonzero(~solved)
    scale = np.max(np.abs(a[retry]) ** 2, axis=(1, 2))
    retry, scale = retry[scale > 0.0], scale[scale > 0.0]
    if retry.size:
        c[retry], _ = _ls_solve_stack(a[retry], y[retry], 1e-8 * scale, counter, "full_ls_est")
    coeffs = np.zeros((k_max + 1, grid.num_subcarriers), dtype=np.complex128)
    coeffs[:, band] = c.T
    return coeffs


def run_full_ls(
    x_dl: np.ndarray,
    coeffs: np.ndarray,
    b_hat: complex,
    grid: SubcarrierGrid,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """SI estimate of the conventional canceller for (..., P) symbols.

    Every basis at every uplink subcarrier, zero off the uplink band.
    full_ls_run is charged per symbol for the estimate and for the caller's
    subtraction.
    """
    count = _symbol_count(x_dl, grid.num_subcarriers)
    k_max = coeffs.shape[0] - 1
    chain = _charged_bases(x_dl, b_hat, k_max, grid, counter, "full_ls_run_basis")
    ul = grid.ul_indices
    est = np.zeros(np.shape(x_dl), dtype=np.complex128)
    est[..., ul] = (coeffs[:, ul] * chain[..., ul]).sum(axis=-2)
    if counter is not None:
        counter.charge(
            "full_ls_run",
            mults=count * (k_max + 1) * len(ul),
            adds=count * (k_max * len(ul) + len(ul)),
        )
    return est

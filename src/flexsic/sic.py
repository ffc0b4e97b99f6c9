"""Two-stage frequency-domain self-interference cancellation.

Stage one estimates the transmitter model from a short training window:
the IQ-imbalance image weight b from mirror-subcarrier regressions, the
odd-order polynomial coefficients a_{2k+1} from an amplitude-swept
impulse pilot whose peak sits at body sample cp_length (its spectrum and
closed-form time profile live in imd), and the effective channel H[p]
from a per-subcarrier scalar regression against the composite nonlinear
regressor. Stage two selects, per uplink subcarrier, which distortion
orders are worth cancelling (predicted distortion power above a
threshold gamma) and records the choice as one boolean retained-order
mask. precombine folds the mask, h_hat and a_hat into the canceller's
whole state: one (k+1, |UL|) weight array W, zero wherever an order is
not cancelled. The per-symbol canceller run_sic is then a product-sum
over W's nonzero weights, and its running cost, one multiply per
retained basis per subcarrier, is read from W alone. The conventional
full_ls canceller's state is the same kind of array, its per-subcarrier
LS coefficients, and run_full_ls runs and charges it densely.

The cancellers work on the uplink band alone, as the paper defines them
per uplink subcarrier: channel estimates, retained masks, W and running
estimates end in a |UL| axis, column i for subcarrier grid.ul_set[0] + i.
Transmit spectra, the training window and imd's tables keep the grid;
basis_stack takes the band of the bases it builds. The running
cancellers (run_sic, run_full_ls, baseline_linear) return the estimate on
the band, and the caller subtracts it from the received spectrum. Each
still charges that subtraction's adds to its own stage, so the counts
match a canceller that subtracts in place.

Symbols are held as arrays, one per row. Every estimator works on the
whole training window at once, which holds received spectra, as the run
window does; only estimate_pa reads body samples, the inverse DFT of the
pilot rows, which the window holds, as it holds its transmit samples.
baseline_linear takes a (..., P) stack of transmit spectra;
estimate_channel, baseline_full_ls, run_sic and run_full_ls take the
basis stack of their symbols, (..., k+1, |UL|) from basis_stack, and read
the orders they need from it; estimate_channel's symbols are the data
rows of the training window alone. Like the IQ and amplifier fits, one
stack serves every canceller built on the same image weight, and each of
them still charges the basis build to its own stage.

All estimator and canceller arithmetic is charged to an OpCounter so
complexity claims can be checked against actual counts; a stacked step
charges its per-symbol cost once per symbol. Receiver-side transforms of
the received signal are not charged: demodulation happens regardless of
which canceller is in use, and estimate_pa's inverse DFT only recovers
the pilot bodies a receiver holds before it demodulates them.

Both allocations are contiguous spans, so every band gather is a slice
(grid.dl_band, grid.ul_band); index arrays remain only for mirror
subcarriers, in estimate_iq's pairs and basis_stack's image.

Band-wide least-squares fits stack their systems band-last, (M, K, n), as
the basis stack is; one Householder QR over the band judges them all and
factors the unridged ones, and the ridged rest are factored one QR each
over their ridge lift. ls_solve takes the same rails on one system's 2-D
QR. R c = z is back-substituted once per layout: a stack's by one numpy
sweep over all of its systems, _back_sweep, and ls_solve's one system over
Python complex scalars, _back_solve, since numpy's per-call overhead
outweighs the arithmetic of a few unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .counters import OpCounter, ls_costs
from .imd import basis_chain, pilot_profile, predict_si_power
from .impairments import apply_iq_time, apply_pa
from .ofdm import SubcarrierGrid, idft

_RANK_TOL = 1e-12
_AUTO_RIDGE_COND = 1e8
_REGRESSOR_POWER_TOL = 1e-12
# Systems per block of _band_qr, whose one workspace serves block after block:
# sized to a wide band it was faulted in afresh per call, at twice the time.
_QR_BLOCK = 1024
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

    tx holds the transmitted spectra and rx the received spectra, as the
    receiver demodulates them, both of shape (M, P); the first n_impulse
    rows are the impulse pilots and the rest are data symbols. Each
    transform the fits read is held, taken once: samples = idft(tx), taken
    here unless given; bodies = idft(rx[:n_impulse]); and profile, the
    pilot's time profile on estimate_pa's guard window, samples 0..2 cp_length.
    """

    grid: SubcarrierGrid
    tx: np.ndarray
    rx: np.ndarray
    n_impulse: int
    samples: np.ndarray | None = None
    bodies: np.ndarray = field(init=False, repr=False)
    profile: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p = self.grid.num_subcarriers
        tx = np.asarray(self.tx, dtype=np.complex128)
        rx = np.asarray(self.rx, dtype=np.complex128)
        if tx.ndim != 2 or tx.shape[1] != p:
            raise ValueError(f"tx has shape {tx.shape}, expected (M, {p})")
        samples = idft(tx) if self.samples is None else np.asarray(self.samples, np.complex128)
        for name, arr in (("rx", rx), ("samples", samples)):
            if arr.shape != tx.shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected the tx shape {tx.shape}")
        if not 0 <= self.n_impulse <= len(tx):
            raise ValueError(f"n_impulse={self.n_impulse} is outside 0..{len(tx)}")
        object.__setattr__(self, "tx", tx)
        object.__setattr__(self, "rx", rx)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "bodies", idft(rx[: self.n_impulse]))
        object.__setattr__(
            self, "profile", pilot_profile(self.grid, np.arange(2 * self.grid.cp_length + 1))
        )


def ls_solve(
    regressors: np.ndarray,
    observations: np.ndarray,
    counter: OpCounter | None = None,
    stage: str = "ls",
) -> np.ndarray:
    """Least squares from a QR factor, with guard rails.

    The system is checked for rank deficiency first (a SingularSystemError
    names the offending column), and a small ridge is switched on
    automatically when the condition estimate exceeds 1e8. The returned
    coefficients minimize ||y - A c||^2, plus ridge ||c||^2 when the
    ridge is on. The rails read the |R_kk| of one QR of [A y], a ridged
    system is factored again over its lift (_lifted), and R c = z is
    solved by _back_solve.
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

    ay = np.concatenate([a, y[:, None]], axis=1)
    r = _r_rows(ay)
    diag = np.abs(np.diagonal(r))
    full, ridge = _rails(diag)
    if not full:
        if diag.max() == 0.0:
            raise SingularSystemError(0, "least-squares system is all zero")
        raise SingularSystemError(int(np.argmin(diag)))
    if ridge:
        r = _lifted(ay, ridge)
    if counter is not None:
        counter.charge(stage, *ls_costs(m, k))
    return np.array(_back_solve(r.tolist()))


def _rails(diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ls_solve's guard rails on the |R_kk| of zero-ridge systems, K on the last axis.

    Returns (full rank, ridge), one per system: a system is rank deficient
    when its smallest |R_kk| is at most 1e-12 of its largest, and a
    full-rank one whose ratio exceeds 1e8 gets the ridge (top / 1e8)^2, the
    rest 0.
    """
    top, low = diag.max(axis=-1), diag.min(axis=-1)
    ok = low > _RANK_TOL * top
    cond = top / np.where(ok, low, 1.0)
    return ok, np.where(ok & (cond > _AUTO_RIDGE_COND), (top / _AUTO_RIDGE_COND) ** 2, 0.0)


def _r_rows(ay: np.ndarray) -> np.ndarray:
    """R's K rows, z = Q^H y last, of the Householder QR of (..., M, K + 1) [A y].

    numpy's raw mode leaves R on and above the diagonal and the reflectors
    below it, which no reader of R touches, so no triu is taken.
    """
    return np.linalg.qr(ay, mode="raw")[0].swapaxes(-1, -2)[..., : ay.shape[-1] - 1, :]


def _lifted(ay: np.ndarray, ridge) -> np.ndarray:
    """_r_rows of (..., M, K + 1) [A y] over [sqrt(ridge) I 0], the ridge's own LS.

    ridge is one per system; ls_solve lifts its one system, _ls_solve_stack
    its ridged ones.
    """
    k = ay.shape[-1] - 1
    lift = np.sqrt(ridge)[..., None, None] * np.eye(k, k + 1)
    return _r_rows(np.concatenate([ay, lift], axis=-2))


def _back_solve(rows: list) -> list:
    """c of R c = z by back-substitution over Python complex scalars.

    rows is R's K rows with z last, as nested lists (r.tolist() of _r_rows);
    entries below the diagonal are not read. A system of a few unknowns
    costs its arithmetic here, not numpy's per-call overhead.
    """
    k = len(rows)
    c = [0j] * k
    for j in range(k - 1, -1, -1):
        row = rows[j]
        acc = row[k]
        for i in range(j + 1, k):
            acc -= row[i] * c[i]
        c[j] = acc / row[j]
    return c


def _back_sweep(r: np.ndarray) -> np.ndarray:
    """c of R c = z for every system of a band-last (K, K + 1, n) stack of R rows: (K, n).

    One numpy step per unknown over all n systems; entries below the
    diagonal are not read.
    """
    k = r.shape[0]
    c = np.empty_like(r[:, k])
    for j in range(k - 1, -1, -1):
        c[j] = (r[j, k] - (r[j, j + 1 : k] * c[j + 1 :]).sum(axis=0)) / r[j, j]
    return c


def _band_qr(a: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR of the band-last [A y] stacks, a (M, K, n) and y (M, n).

    Returns (R's K rows (K, K + 1, n), z = Q^H y in the last column; |R_kk|
    (K, n)), over blocks of _QR_BLOCK systems with a loop over the K columns.
    Step k's reflector maps column k's remaining rows onto -|R_kk| e_1 times
    the phase of their first entry (1 where it is 0); a zero column takes none.
    """
    m, k, n = a.shape
    r = np.empty((k, k + 1, n), dtype=np.complex128)
    diag = np.empty((k, n))
    space = np.empty((k + 2, m, min(n, _QR_BLOCK)), dtype=np.complex128)
    for start in range(0, n, _QR_BLOCK):
        cols = slice(start, start + _QR_BLOCK)
        # w[c] is column c of [A y] on the block; scratch holds conj(x), then products
        w, scratch = space[: k + 1, :, : n - start], space[k + 1, :, : n - start]
        w[:k] = a[:, :, cols].transpose(1, 0, 2)
        w[k] = y[:, cols]
        r_cols, diag_cols = r[..., cols], diag[:, cols]
        for j in range(k):
            x = w[j, j:]
            lanes = np.einsum("in,in->n", x.view(np.float64), x.view(np.float64))
            diag_cols[j] = norm = np.sqrt(lanes[0::2] + lanes[1::2])
            head = np.abs(x[0])
            lead = np.divide(x[0] * norm, head, out=norm.astype(np.complex128), where=head > 0.0)
            r_cols[j, j] = -lead
            # the reflector I - v v^H / (norm (norm + |x_0|)), v = x - R_jj e_1
            x[0] += lead
            scale = norm * (norm + head)
            proj = np.einsum("in,kin->kn", np.conjugate(x, out=scratch[j:]), w[j + 1 :, j:])
            proj /= np.where(scale > 0.0, scale, np.inf)
            for c, coef in enumerate(proj, j + 1):
                col = w[c, j:]
                col -= np.multiply(x, coef, out=scratch[j:])
                r_cols[j, c] = col[0]
    return r, diag


def _ls_solve_stack(
    a: np.ndarray,
    y: np.ndarray,
    ridges,
    counter: OpCounter | None,
    stage: str,
) -> tuple[np.ndarray, np.ndarray]:
    """ls_solve over n independent systems stacked on the last axis.

    a has shape (M, K, n) and y (M, n), the band-last layout of the basis
    stack and the training spectra; ridges is one ridge for all systems or
    one per system. Returns (coefficients (K, n), boolean solved mask (n,))
    with ls_solve's guard rails, which leave a rank-deficient system
    unsolved, with zero coefficients and uncharged; every solved one is
    charged one M-row, K-column solve.

    Zero-ridge systems are judged by _rails from one _band_qr over the band.
    The ridged ones, the ridge given or automatic, are factored over their
    lift alone (_lifted). Both sets of R rows are solved by _back_sweep.
    """
    m, k, n = a.shape
    ridge = np.broadcast_to(np.asarray(ridges, dtype=np.float64), (n,))
    if (ridge < 0).any():
        raise ValueError("ridge must be nonnegative")
    coeffs = np.zeros((k, n), dtype=np.complex128)
    solved = ridge > 0.0
    zero = np.flatnonzero(~solved)
    if zero.size:
        ridge = ridge.copy()
        band = slice(None) if zero.size == n else zero
        r, diag = _band_qr(a[..., band], y[:, band])
        solved[zero], ridge[zero] = _rails(diag.T)
        plain = solved[zero] & (ridge[zero] == 0.0)
        coeffs[:, zero[plain]] = _back_sweep(r[..., plain])
    ridged = np.flatnonzero(ridge > 0.0)
    if ridged.size:
        ay = np.concatenate([a[..., ridged], y[:, None, ridged]], axis=1)
        r = _lifted(ay.transpose(2, 0, 1), ridge[ridged])
        coeffs[:, ridged] = _back_sweep(r.transpose(1, 2, 0))
    count = np.count_nonzero(solved)
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

    # one (m, 2) system per pair, stacked band-last
    a = np.empty((m, 2, len(pairs)), dtype=np.complex128)
    a[:, 0] = tx[:, pairs]
    np.conjugate(tx[:, mirrors], out=a[:, 1])
    y = buffer.rx[buffer.n_impulse:, pairs]
    mirror_power = np.sum(np.abs(a[:, 1]) ** 2, axis=0)
    c, solved = _ls_solve_stack(a, y, 0.0, counter, "estimate_iq")
    used = solved & (c[0] != 0.0)
    c = c[:, used]
    weight = np.abs(c[0]) ** 2 * mirror_power[used]
    den = float(weight.sum())
    if den == 0.0:
        raise ValueError("IQ image weight is unidentifiable: mirror content is all zero")
    if counter is not None:
        n_used = int(used.sum())
        counter.charge("estimate_iq", mults=n_used * (m + 3), adds=n_used * m)
    return complex(np.sum(weight * (c[1] / c[0])) / den)


def estimate_pa(
    buffer: TrainingBuffer,
    b_hat: complex,
    k_max: int,
    los_tap_index: int = 0,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Estimate h_los * a[k], a[k] = a_{2k+1}, k = 0..k_max, from the impulse pilot peaks.

    Each impulse symbol concentrates the downlink band into one body
    sample of known amplitude. The fit reads the received pilot bodies the
    buffer holds, the inverse DFT of its first n_impulse rows, uncharged
    receiver work, and its guard-window pilot profile. Sampling the
    received body at the pilot peak, delayed by los_tap_index, the direct
    path's tap, gives one scalar equation
    y_m ~= sum_k h_los a_k |alpha_m|^{2k} alpha_m per symbol, where
    alpha_m is the amplifier input peak after IQ imbalance and h_los the
    direct path's unknown gain. So the fit returns the polynomial scaled
    by h_los; estimate_channel's h_hat absorbs that scale, and every
    canceller reads only the products h_hat a_hat. The sweep of pilot
    amplitudes across symbols makes the orders separable, and the solve
    touches k_max + 1 unknowns regardless of how many subcarriers the
    uplink band has.

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

    grid = buffer.grid
    p_total = grid.num_subcarriers
    # the pilot peak sits at body sample cp_length, and the guard window
    # reaches one prefix length to either side of it
    n0 = guard = grid.cp_length

    rx = buffer.bodies
    amp = np.abs(buffer.tx[:m, grid.dl_start])
    if not amp.all():
        raise ValueError(f"impulse symbol {int(np.argmin(amp))} has no pilot energy")
    peaks = amp * grid.dl_size / p_total
    alpha = apply_iq_time(peaks, b_hat)
    mag2 = np.abs(alpha) ** 2
    rows = np.empty((m, k_max + 1), dtype=np.complex128)
    term = alpha
    for k in range(k_max + 1):
        rows[:, k] = term
        term = term * mag2
    y = rx[:, (n0 + los_tap_index) % p_total]
    if counter is not None:
        counter.charge("estimate_pa", mults=m * (k_max + 2), adds=m)
    coeffs = ls_solve(rows, y, counter=counter, stage="estimate_pa")

    # the profile at body samples n0 - guard .. n0 + guard
    x_all = peaks[:, None] * buffer.profile[None, :]
    a_all = apply_iq_time(x_all, b_hat)
    post_idx = (n0 + los_tap_index + np.arange(1, guard + 1)) % p_total
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
                + guard * (m + 1)
                + 2 * m * n_echo
            ),
            adds=_PA_REFINE_PASSES * m * guard * 2,
        )
    for _ in range(_PA_REFINE_PASSES):
        u = apply_pa(a_all, coeffs)
        u_peak = u[:, guard]
        u_post = u[:, guard + 1 :]
        resid = rx_post - u_post
        matched = (np.conj(u_peak) @ resid) / np.sum(np.abs(u_peak) ** 2)
        taus = 1 + np.sort(np.argsort(np.abs(matched))[::-1][:n_echo])
        design = u[:, guard + tau_rows[:, None] - taus[None, :]]
        gains = ls_solve(
            design.reshape(m * guard, len(taus)),
            resid.reshape(m * guard),
            counter=counter,
            stage="estimate_pa",
        )
        y_corr = y - u[:, guard - taus] @ gains
        coeffs = ls_solve(rows, y_corr, counter=counter, stage="estimate_pa")
    return coeffs


def _symbol_count(x_dl: np.ndarray, p_total: int) -> int:
    """Number of symbols in a (..., P) stack of transmit spectra."""
    if np.shape(x_dl)[-1:] != (p_total,):
        raise ValueError("symbol length does not match the grid")
    return int(np.prod(np.shape(x_dl)[:-1]))


def basis_stack(
    x: np.ndarray,
    b_hat: complex,
    k_max: int,
    grid: SubcarrierGrid,
    samples: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Bases Phi_1 .. Phi_{2k_max+1} on the uplink band of (..., P) spectra with the IQ image b_hat.

    Returns the (..., k_max + 1, |UL|) stack after checking that every
    symbol has the grid's length and no energy outside the downlink band.
    Row 0, the image X[p] + b_hat conj(X[(P - p) mod P]), is taken on the
    band alone. The orders above it take the image in time, t + b_hat
    conj(t) with t = idft(x), which equals the inverse transform of the
    spectral image to round-off (about 1e-15 relative), and keep the band
    of each order's FFT: basis_chain on the band. samples, when given, is
    idft(x), such as the run window's one inverse FFT per block, shared
    with the reception; otherwise it is taken here. out, of the returned
    shape, is filled and returned when given. Uncharged: each canceller
    that reads the stack charges its own basis stage.
    """
    _symbol_count(x, grid.num_subcarriers)
    x = np.asarray(x)
    if x[..., : grid.dl_start].any() or x[..., grid.dl_end + 1 :].any():
        raise ValueError(
            "allocation mismatch: transmit spectrum has energy outside the downlink band"
        )
    # the mirror of subcarrier p, (P - p) mod P, is the negative index -p;
    # the product is taken as in apply_iq_time, b_hat * conj(.) at every size
    image = np.conj(x[..., -grid.ul_indices], dtype=np.complex128)
    np.multiply(b_hat, image, out=image)
    image += x[..., grid.ul_band]
    x_iq = None
    if k_max:
        x_iq = apply_iq_time(idft(x) if samples is None else samples, b_hat)
    return basis_chain(image, k_max, samples=x_iq, band=grid.ul_band, out=out)


def _charge_bases(
    counter: OpCounter | None, stage: str, count: int, k_max: int, grid: SubcarrierGrid
) -> None:
    """Charge stage for building the bases of count symbols up to order 2k_max+1.

    Per symbol, the image costs one multiply and one add per downlink
    subcarrier. For k_max >= 1, basis_chain adds one IFFT and one squared
    magnitude, then one elementwise product and one FFT per order; at
    k_max = 0 it runs none of these, so only the image is charged. The
    IFFT is charged also where a run block shares it with the reception:
    the counts are those of a canceller that builds its own bases.
    """
    if counter is None:
        return
    p_total = grid.num_subcarriers
    counter.charge(stage, mults=count * grid.dl_size, adds=count * grid.dl_size)
    if k_max >= 1:
        counter.charge_fft(stage, p_total, count=count * (1 + k_max))
        counter.charge(stage, mults=count * p_total * (1 + k_max))


def _stack_orders(chain: np.ndarray, k: int, grid: SubcarrierGrid) -> np.ndarray:
    """Orders 0..k of a (..., K+1, |UL|) basis stack; a ValueError when it holds fewer."""
    if np.ndim(chain) < 2 or np.shape(chain)[-1] != grid.ul_size:
        raise ValueError(
            f"basis stack has shape {np.shape(chain)}, expected (..., k+1, {grid.ul_size})"
        )
    if np.shape(chain)[-2] <= k:
        raise ValueError(
            f"basis stack holds orders up to k = {np.shape(chain)[-2] - 1}, expected k = {k}"
        )
    return chain[..., : k + 1, :]


def _training_k_max(chain: np.ndarray, buffer: TrainingBuffer, start: int = 0) -> int:
    """k_max of the basis stack of buffer.tx[start:]; a ValueError when it is another window's."""
    rows = len(buffer.tx) - start
    shape = np.shape(chain)
    if len(shape) != 3 or shape[0] != rows or shape[2] != buffer.grid.ul_size:
        what = "training window" if not start else "data rows of the training window"
        raise ValueError(
            f"basis stack has shape {shape}, expected "
            f"({rows}, k+1, {buffer.grid.ul_size}) for the {what}"
        )
    return shape[1] - 1


def _padded(a_hat: np.ndarray, k_max: int) -> np.ndarray:
    """a_hat cut or zero-padded to the k_max + 1 orders a fit is charged for."""
    a_vec = np.zeros(k_max + 1, dtype=np.complex128)
    a_vec[: len(a_hat)] = a_hat[: k_max + 1]
    return a_vec


def _scalar_ls(regressor: np.ndarray, rx: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-subcarrier scalar LS sum_m conj(r) y / sum_m |r|^2 of (M, |UL|) stacks.

    Returns the (|UL|,) estimate and the number of subcarriers solved. A
    subcarrier whose regressor power is at most _REGRESSOR_POWER_TOL of
    the band's largest stays zero.
    """
    num = (np.conj(regressor) * rx).sum(axis=0)
    den = (np.abs(regressor) ** 2).sum(axis=0)
    h = np.zeros(len(den), dtype=np.complex128)
    top = den.max() if den.size else 0.0
    good = den > _REGRESSOR_POWER_TOL * top if top > 0 else np.zeros_like(den, dtype=bool)
    h[good] = num[good] / den[good]
    return h, int(good.sum())


def estimate_channel(
    buffer: TrainingBuffer,
    chain: np.ndarray,
    a_hat: np.ndarray,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Per-subcarrier scalar LS for the effective channel on the uplink band.

    chain is basis_stack(buffer.tx[buffer.n_impulse:], b_hat, k_max, grid),
    the stack of the data rows alone; the fit reads every one of its
    k_max + 1 orders. The regressor at subcarrier p is
    sum_k a_hat[k] Phi_{2k+1}[p], with a_hat zero-padded to k_max + 1
    orders, built from the composed transmit spectrum, so the channel
    stays identifiable even where only out-of-band distortion lands.
    Returns h_hat, shape (|UL|,). Subcarriers whose regressor power was
    too small to trust stay zero, and the canceller leaves them untouched.
    """
    m = len(buffer.tx) - buffer.n_impulse
    if not m:
        raise ValueError("estimate_channel needs at least one data training symbol")
    k_max = _training_k_max(chain, buffer, buffer.n_impulse)
    grid = buffer.grid
    n_ul = grid.ul_size
    a_vec = _padded(a_hat, k_max)

    _charge_bases(counter, "train_basis", m, k_max, grid)
    # sum_k a_vec[k] chain[:, k], accumulated in place in order of k
    regressor = a_vec[0] * chain[:, 0]
    term = np.empty_like(regressor)
    for k in range(1, k_max + 1):
        regressor += np.multiply(a_vec[k], chain[:, k], out=term)
    h_hat, solved = _scalar_ls(regressor, buffer.rx[buffer.n_impulse:, grid.ul_band])
    if counter is not None:
        counter.charge(
            "estimate_channel",
            mults=m * (n_ul * (k_max + 1) + 2 * n_ul) + solved,
            adds=m * (n_ul * k_max + 2 * n_ul),
        )
    return h_hat


def select_basis(
    a_hat: np.ndarray,
    mu: np.ndarray,
    h_hat: np.ndarray,
    gamma: float,
    k_max: int,
    grid: SubcarrierGrid,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Pick, per uplink subcarrier, the distortion orders worth cancelling.

    Walks k = 1..k_max and keeps k while the predicted distortion power
    |a_hat[k]|^2 mu[k, p] |h[p]|^2 exceeds gamma (a_hat zero-padded to
    k_max + 1 orders), stopping at the first order that falls below. The
    walk stops early because predicted power decays with k at sane drive
    levels; anything below gamma costs more to cancel than it removes.
    Each order the walk looks at costs three multiplies.

    h_hat is estimate_channel's (|UL|,) estimate and mu the grid-wide
    table of mu_tables. Returns the retained-order mask of shape
    (k_max + 1, |UL|) that precombine takes: row 0 marks the subcarriers
    with a nonzero channel estimate (estimate_channel leaves the
    unestimated ones at zero), row k marks where order 2k+1 is kept.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if mu.shape[0] < k_max + 1:
        raise ValueError("mu table does not cover k_max")
    h_hat = np.asarray(h_hat)
    if h_hat.shape != (grid.ul_size,):
        raise ValueError(f"h_hat has shape {h_hat.shape}, expected ({grid.ul_size},)")
    power = predict_si_power(_padded(a_hat, k_max)[1:], mu[1 : k_max + 1, grid.ul_band], h_hat)
    retained = np.empty((k_max + 1, grid.ul_size), dtype=bool)
    retained[0] = h_hat != 0
    retained[1:] = np.logical_and.accumulate(power > gamma, axis=0)
    if counter is not None:
        walked = np.minimum(k_max, retained[1:].sum(axis=0) + 1)
        counter.charge("select_basis", mults=3 * int(walked.sum()), adds=0)
    return retained


def precombine(
    h_hat: np.ndarray,
    a_hat: np.ndarray,
    retained: np.ndarray,
    grid: SubcarrierGrid,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """The running weights W[k, p] = a_hat[k] h_hat[p] of the orders retained keeps.

    h_hat is the (|UL|,) channel estimate, a_hat holds one coefficient per
    order, a_hat[k] = a_{2k+1}, and retained is select_basis's mask cut to
    those len(a_hat) orders. W has retained's shape, (len(a_hat), |UL|),
    and is zero wherever an order is not kept; it is zero too where h_hat
    is, at the unestimated subcarriers. Only the products h_hat a_hat
    matter, so a common scale may move between the two. coeff_combine is
    charged one multiply per order per uplink subcarrier.
    """
    a = np.asarray(a_hat, dtype=np.complex128)
    h = np.asarray(h_hat, dtype=np.complex128)
    n_ul = grid.ul_size
    if h.shape != (n_ul,):
        raise ValueError(f"h_hat has shape {h.shape}, expected ({n_ul},)")
    if np.shape(retained) != (len(a), n_ul):
        raise ValueError(
            f"retained has shape {np.shape(retained)}, expected ({len(a)}, {n_ul}) "
            "for one row per order of a_hat"
        )
    weights = np.zeros((len(a), n_ul), dtype=np.complex128)
    np.multiply(a[:, None], h, out=weights, where=retained)
    if counter is not None:
        counter.charge("coeff_combine", mults=len(a) * n_ul, adds=0)
    return weights


def _weight_orders(weights: np.ndarray, grid: SubcarrierGrid) -> int:
    """k of a (k+1, |UL|) weight array; a ValueError naming its shape when it is not one."""
    shape = np.shape(weights)
    if len(shape) != 2 or not shape[0] or shape[1] != grid.ul_size:
        raise ValueError(f"weights have shape {shape}, expected (k+1, {grid.ul_size})")
    return shape[0] - 1


def top_order(weights: np.ndarray, grid: SubcarrierGrid) -> int:
    """Highest order with a nonzero weight, 0 when there is none: the top basis run_sic reads."""
    _weight_orders(weights, grid)
    kept = np.flatnonzero(weights.any(axis=1))
    return int(kept[-1]) if kept.size else 0


def run_sic(
    chain: np.ndarray,
    weights: np.ndarray,
    grid: SubcarrierGrid,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Self-interference estimate of a stack of symbols, on the uplink band.

    weights is a (k+1, |UL|) array W, from precombine for the proposed
    canceller and its ablations. chain is the symbols' basis stack,
    basis_stack(x, b, k', grid) with the image weight b W was fitted on
    and k' >= top_order(W), of shape (..., k'+1, |UL|). Returns, with
    shape (..., |UL|), sum_k W[k, p] Phi_{2k+1}[p] over the nonzero
    weights at each uplink subcarrier p. The caller subtracts it from the
    received spectra. Everything charged is read from W: run_basis the
    bases up to its top order, whatever the stack holds, and run, per
    symbol, one multiply per nonzero weight, sum_p (1 + |K_p|) for
    precombine's W, plus one add per nonzero weight of order k >= 1 and
    one per uplink subcarrier for the subtraction.
    """
    top = top_order(weights, grid)
    chain = _stack_orders(chain, top, grid)
    count = int(np.prod(chain.shape[:-2]))
    _charge_bases(counter, "run_basis", count, top, grid)
    w = weights[: top + 1]
    est = (w * chain).sum(axis=-2)
    if counter is not None:
        live = w != 0
        n_terms, n_orders = int(live.sum()), int(live[1:].sum())
        counter.charge("run", mults=count * n_terms, adds=count * (n_orders + grid.ul_size))
    return est


def estimate_linear_channel(
    buffer: TrainingBuffer, counter: OpCounter | None = None
) -> np.ndarray:
    """Scalar LS of the received spectrum on the transmit spectrum alone.

    The linear baseline's estimator, shape (|UL|,). Where the transmit
    spectrum carries no energy (the uplink band in a split allocation)
    the estimate stays zero and the linear canceller does nothing.
    """
    m = len(buffer.tx) - buffer.n_impulse
    if not m:
        raise ValueError("linear channel estimation needs at least one data symbol")
    grid = buffer.grid
    ul, n_ul = grid.ul_band, grid.ul_size
    h, solved = _scalar_ls(buffer.tx[buffer.n_impulse:, ul], buffer.rx[buffer.n_impulse:, ul])
    if counter is not None:
        counter.charge("linear_est", mults=m * 2 * n_ul + solved, adds=m * 2 * n_ul)
    return h


def baseline_linear(
    x_dl: np.ndarray,
    h_hat_lin: np.ndarray,
    grid: SubcarrierGrid,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Linear-only SI estimate h_lin[p] X[p] of (..., P) symbols, shape (..., |UL|).

    h_hat_lin is estimate_linear_channel's (|UL|,) estimate. linear_run is
    charged per symbol for the products and for the caller's subtraction.
    """
    count = _symbol_count(x_dl, grid.num_subcarriers)
    est = h_hat_lin * x_dl[..., grid.ul_band]
    if counter is not None:
        counter.charge("linear_run", mults=count * grid.ul_size, adds=count * grid.ul_size)
    return est


def baseline_full_ls(
    buffer: TrainingBuffer,
    chain: np.ndarray,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Conventional joint per-subcarrier LS over all distortion orders.

    chain is basis_stack(buffer.tx, b_hat, k_max, grid). Fits, at every
    uplink subcarrier independently, a coefficient for each basis
    Phi_1..Phi_{2k_max+1} from the whole training window, and returns
    them as the (k_max + 1, |UL|) weight array of run_full_ls.
    This is the accuracy ceiling the low-complexity estimator is
    compared against; its cost scales with the uplink band width times
    the training length. A subcarrier whose regressors are singular
    (the linear column is identically zero off the downlink band, for
    instance) falls back to a tiny documented ridge.
    """
    k_max = _training_k_max(chain, buffer)
    m = len(buffer.tx)
    if m < k_max + 1:
        raise ValueError(
            f"{m} training symbols cannot fit {k_max + 1} coefficients per subcarrier"
        )
    grid = buffer.grid
    _charge_bases(counter, "full_ls_basis", m, k_max, grid)

    # one (m, k_max+1) system per uplink subcarrier, stacked band-last
    y = buffer.rx[:, grid.ul_band]
    c, solved = _ls_solve_stack(chain, y, 0.0, counter, "full_ls_est")
    # rank-deficient subcarriers are refit with the ridge 1e-8 max|a|^2;
    # all-zero ones stay zero
    retry = np.flatnonzero(~solved)
    scale = np.max(np.abs(chain[:, :, retry]) ** 2, axis=(0, 1))
    retry, scale = retry[scale > 0.0], scale[scale > 0.0]
    if retry.size:
        c[:, retry], _ = _ls_solve_stack(
            chain[:, :, retry], y[:, retry], 1e-8 * scale, counter, "full_ls_est"
        )
    return c


def run_full_ls(
    chain: np.ndarray,
    weights: np.ndarray,
    grid: SubcarrierGrid,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """SI estimate of the conventional canceller for a stack of symbols.

    weights is the (k_max+1, |UL|) array W of baseline_full_ls. chain is
    the symbols' basis stack, basis_stack(x, b_hat, k, grid) with
    k >= k_max, of shape (..., k+1, |UL|). Every basis at every uplink
    subcarrier; the estimate has shape (..., |UL|). W may hold exact zeros
    (a split allocation's linear column), yet the conventional canceller
    runs densely: full_ls_run_basis is charged the bases up to k_max and
    full_ls_run per symbol every product, and the caller's subtraction.
    """
    k_max = _weight_orders(weights, grid)
    chain = _stack_orders(chain, k_max, grid)
    count = int(np.prod(chain.shape[:-2]))
    _charge_bases(counter, "full_ls_run_basis", count, k_max, grid)
    n_ul = grid.ul_size
    est = (weights * chain).sum(axis=-2)
    if counter is not None:
        counter.charge(
            "full_ls_run",
            mults=count * (k_max + 1) * n_ul,
            adds=count * (k_max * n_ul + n_ul),
        )
    return est

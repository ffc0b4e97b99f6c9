"""End-to-end duplexing scenarios: simulate, cancel, report.

A ScenarioSpec pins down everything about one experiment: the grid and
band allocation, the transmitter impairments, the self-interference
channel, power levels, the estimator knobs, and which cancellers to
compare. run_scenario simulates the training window, fits each
canceller, and for a shared batch of data symbols computes each
canceller's self-interference estimate on the uplink band and subtracts
it from the noisy and the noiseless reception alike. It returns
per-subcarrier residual spectra, residual-power CDF samples,
cancellation ratios, and per-stage arithmetic counters.

Symbols are plain complex arrays, one per row. The whole training window
goes through the transmit chain as one (M, P) stack. The run window is a
stream of blocks of _RUN_BLOCK_SAMPLES samples (_run_window): each block's
symbols are drawn, received and cancelled in workspaces allocated once per
scenario, and one inverse FFT of them serves both the reception and every
basis stack. Each canceller's residual is reduced per block to running
sums, so no (n_run, |UL|) array is kept and the memory of a long run stays
flat, and each canceller is still charged its running cost per symbol. The
cancellers that read basis stacks are grouped by image weight: proposed,
full_ls and iq_only use the estimated one, and pa_only, which is proposed
at b = 0, forms a group of its own. Groups are trained one at a time, each
from one training stack and one amplifier fit with its basis-power table,
into a list of (name, running canceller, weights) members, and per run
block each group reads one stack up to the highest order any member runs.
A fit or a stack shared by several cancellers is made once, and each of
them charges its cost (for a stack, the orders it reads) to its own stage.

Both windows are received one way, per subcarrier, as the paper's
receiver sees them (_receive): every tap lies within the cyclic prefix, so
after prefix removal the channel is one complex gain per subcarrier, and a
received spectrum is the amplifier output's spectrum times the channel's
frequency response. Both windows are held as received spectra; the
amplifier fit alone reads body samples, the inverse DFT of its pilot
rows. The training window's noise is drawn on every body sample and
added through the DFT, because the amplifier fit reads body samples.
The run window's noise is drawn on the uplink bins alone, with the
variance per bin that time-domain noise has after the DFT, so both
windows see the statistics of one time-domain noise floor.

Power bookkeeping: the per-subcarrier transmit power after the linear
amplifier gain, |a_1 a_digi|^2 in internal units, is pinned to
tx_power_dbm. Every reported dBm figure uses that anchor, and the noise
floor is placed noise_dbm below it.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .channel import (
    ArrayGeometry,
    ChannelProfile,
    apply_beams,
    load_taps,
    synth_channel,
)
from .counters import OpCounter
from .fields import conform, conform_fields, from_fields
from .imd import impulse_pilot, mu_tables
from .impairments import apply_iq_time, apply_pa, default_measured_pa, irr_to_b
from .ofdm import QAM_ORDERS, SubcarrierGrid, dft, gen_qam_symbols, idft
from .sic import (
    TrainingBuffer,
    baseline_full_ls,
    baseline_linear,
    basis_stack,
    estimate_channel,
    estimate_iq,
    estimate_linear_channel,
    estimate_pa,
    precombine,
    run_full_ls,
    run_sic,
    select_basis,
    top_order,
)

CANCELLERS = ("none", "linear", "proposed", "full_ls", "iq_only", "pa_only")
DUPLEX_PRESETS = ("ibfd", "sbfd", "overlap")

_FLOOR = 1e-300
# Run symbols go through the chain max(1, _RUN_BLOCK_SAMPLES // P) at a time.
# Peak RSS over five scenarios (2-vCPU Xeon, numpy 2.4.6): at P = 1024, one
# block of all 200 symbols took it from 40.9 to 68.6 MB; at P = 4096 (20
# symbols), blocks of 1, 4 and 8 rows read 46.6, 46.6 and 47.5 MB.
_RUN_BLOCK_SAMPLES = 16384
# cancellers built on the estimated IQ image weight b_hat
_USES_B_HAT = ("proposed", "full_ls", "iq_only")


def duplex_allocation(preset: str, num_subcarriers: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Band spans (dl, ul) for a named preset, scaled to the grid size.

    ibfd shares one mirror-symmetric band between both directions; sbfd
    splits them with a guard wide enough that the uplink clears both the
    downlink band and its mirror image; overlap slides the uplink onto
    the upper half of the downlink band. A grid too small for the preset's
    spans to end inside it is refused by its size.
    """
    p = num_subcarriers
    if preset == "ibfd":
        start = round(0.109 * p)
        spans = (start, p - start), (start, p - start)
    elif preset == "sbfd":
        spans = (round(0.109 * p), round(0.758 * p)), (round(0.898 * p), round(0.988 * p))
    elif preset == "overlap":
        spans = (round(0.109 * p), round(0.758 * p)), (round(0.586 * p), round(0.883 * p))
    else:
        raise ValueError(f"unknown duplex preset {preset!r}; expected one of {DUPLEX_PRESETS}")
    end = max(spans[0][1], spans[1][1])
    if end >= p:
        raise ValueError(f"num_subcarriers={p} is too small for {preset!r}: a band ends at {end}")
    return spans


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete description of one experiment.

    duplex is a preset name or "custom", in which case dl_span/ul_span
    (inclusive subcarrier ranges) must be given; a preset takes neither.
    pa_coeffs maps odd order 2k+1 to the amplifier coefficient a_{2k+1};
    None selects the measured polynomial. gamma_dbm of None puts the
    basis-selection threshold at the noise floor.

    A spec built in Python meets a config file's type rules (fields): lists
    become tuples, a channel dict a ChannelProfile and numpy scalars Python
    numbers.
    """

    num_subcarriers: int = 256
    subcarrier_spacing: float = 60e3
    cp_length: int = 32
    duplex: str = "ibfd"
    dl_span: tuple[int, int] | None = None
    ul_span: tuple[int, int] | None = None
    pa_coeffs: dict[int, complex] | None = None
    irr_db: float = 25.0
    iq_phase: float = 0.3
    tap_file: str | None = None
    channel: ChannelProfile = field(default_factory=ChannelProfile)
    tx_array: tuple[int, int, float] = (4, 4, 0.5)
    rx_array: tuple[int, int, float] = (4, 4, 0.5)
    dl_beam_angle: float = 0.4
    ul_beam_angle: float = -0.4
    noise_dbm: float = -90.0
    tx_power_dbm: float = 23.0
    pa_drive_rms: float = 0.5
    qam_order: int = 16
    gamma_dbm: float | None = None
    k_max: int = 2
    n_impulse_symbols: int = 4
    n_train_symbols: int = 14
    impulse_amp_range: tuple[float, float] = (0.6, 2.0)
    seed: int = 1
    n_run_symbols: int = 20
    cancellers: tuple[str, ...] = ("none", "linear", "proposed")

    def __post_init__(self):
        conform_fields(self)
        if self.duplex not in DUPLEX_PRESETS + ("custom",):
            raise ValueError(
                f"duplex={self.duplex!r} is not a preset ({', '.join(DUPLEX_PRESETS)}) or 'custom'"
            )
        if self.duplex == "custom" and (self.dl_span is None or self.ul_span is None):
            raise ValueError("duplex='custom' requires dl_span and ul_span")
        spans = [n for n in ("dl_span", "ul_span") if getattr(self, n) is not None]
        if self.duplex != "custom" and spans:
            raise ValueError(
                f"{' and '.join(spans)} set with duplex={self.duplex!r}, whose preset "
                "fixes the bands; use duplex='custom' to give spans"
            )
        p = self.num_subcarriers
        for name in spans:
            span = getattr(self, name)
            if not 0 <= span[0] <= span[1] < p:
                raise ValueError(f"{name} must be a (start, end) pair in 0..{p - 1}, got {span}")
        if not self.noise_dbm < self.tx_power_dbm:
            raise ValueError(
                f"noise_dbm={self.noise_dbm} must lie below tx_power_dbm={self.tx_power_dbm}"
            )
        bad = [c for c in self.cancellers if c not in CANCELLERS]
        if bad:
            raise ValueError(f"unknown cancellers {bad}; valid names are {CANCELLERS}")
        if len(set(self.cancellers)) != len(self.cancellers):
            raise ValueError("cancellers must not repeat")
        if self.tap_file is not None and not os.path.exists(self.tap_file):
            raise ValueError(f"tap_file does not exist: {self.tap_file}")
        # synth_channel puts NLoS ray i exactly on tap i * nlos_tap_step
        longest = (self.channel.n_rays - 1) * self.channel.nlos_tap_step
        if self.tap_file is None and longest >= self.cp_length:
            raise ValueError(
                f"cp_length must exceed the synthetic channel's longest tap {longest} "
                f"(channel.n_rays - 1 = {self.channel.n_rays - 1} rays, "
                f"channel.nlos_tap_step = {self.channel.nlos_tap_step}), got {self.cp_length}"
            )
        if self.pa_coeffs is not None and (
            any(order < 1 or order % 2 == 0 for order in self.pa_coeffs)
            or self.pa_coeffs.get(1, 0) == 0
        ):
            raise ValueError(
                "pa_coeffs must map odd orders >= 1 to coefficients, with a nonzero order 1, "
                f"got {self.pa_coeffs}"
            )
        if self.qam_order not in QAM_ORDERS:
            raise ValueError(f"qam_order must be one of {QAM_ORDERS}, got {self.qam_order}")
        for name in ("tx_array", "rx_array"):
            try:
                ArrayGeometry(*getattr(self, name))
            except ValueError as err:
                raise ValueError(f"{name} must be a valid (rows, cols, spacing): {err}") from None
        if self.pa_drive_rms <= 0:
            raise ValueError("pa_drive_rms must be positive")
        if self.n_run_symbols < 1:
            raise ValueError("n_run_symbols must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be at least 1, got {self.k_max}")
        if self.n_impulse_symbols < self.k_max + 1:
            raise ValueError(
                f"n_impulse_symbols must be at least k_max + 1 = {self.k_max + 1} to identify "
                f"the polynomial coefficients, got {self.n_impulse_symbols}"
            )
        if self.n_train_symbols < self.n_impulse_symbols + 1:
            raise ValueError(
                "n_train_symbols must leave at least one data training symbol after "
                f"the {self.n_impulse_symbols} impulse symbols, got {self.n_train_symbols}"
            )
        iq_users = [c for c in self.cancellers if c in _USES_B_HAT]
        if iq_users and self.n_train_symbols < self.n_impulse_symbols + 2:
            raise ValueError(
                "n_train_symbols must leave at least two data training symbols after the "
                f"{self.n_impulse_symbols} impulse symbols to estimate the IQ image weight "
                f"for {', '.join(iq_users)}, got {self.n_train_symbols}"
            )
        lo, hi = self.impulse_amp_range
        if not 0 < lo < hi:
            raise ValueError(
                f"impulse_amp_range must be increasing and positive, got {self.impulse_amp_range}"
            )
        # the grid's and the image weight's own checks, whose messages name the key
        self.build_grid()
        self.build_imbalance()

    def build_grid(self) -> SubcarrierGrid:
        if self.duplex == "custom":
            dl_span, ul_span = self.dl_span, self.ul_span
        else:
            dl_span, ul_span = duplex_allocation(self.duplex, self.num_subcarriers)
        return SubcarrierGrid(
            num_subcarriers=self.num_subcarriers,
            subcarrier_spacing=self.subcarrier_spacing,
            cp_length=self.cp_length,
            dl_set=dl_span,
            ul_set=ul_span,
        )

    def drive_amplitude(self, grid: SubcarrierGrid) -> float:
        """Per-subcarrier downlink amplitude a_digi that drives the amplifier at pa_drive_rms."""
        return self.pa_drive_rms * grid.num_subcarriers / np.sqrt(grid.dl_size)

    def build_pa(self) -> np.ndarray:
        """Amplifier coefficients a[k] = a_{2k+1}; orders pa_coeffs lacks are zero."""
        if self.pa_coeffs is None:
            return default_measured_pa()
        a = np.zeros(max(self.pa_coeffs) // 2 + 1, dtype=np.complex128)
        for order, value in self.pa_coeffs.items():
            a[order // 2] = value
        return a

    def build_imbalance(self) -> complex:
        """The IQ image weight b of irr_db and iq_phase."""
        return irr_to_b(self.irr_db, self.iq_phase)


def spec_from_dict(data: dict) -> ScenarioSpec:
    """Build a ScenarioSpec from parsed config data; unknown keys and ill-typed values error out."""
    return from_fields(ScenarioSpec, data, "config")


def spec_to_dict(spec: ScenarioSpec) -> dict:
    """JSON-ready dict; inverse of spec_from_dict."""
    out = asdict(spec)
    if out["pa_coeffs"] is not None:
        out["pa_coeffs"] = {
            str(k): [v.real, v.imag] for k, v in sorted(out["pa_coeffs"].items())
        }
    return out


def load_spec(path) -> ScenarioSpec:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"config file {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return spec_from_dict(data)


@dataclass
class MetricsReport:
    """Everything run_scenario measured, ready for emit_report."""

    spec: ScenarioSpec
    seed: int
    ul_indices: tuple[int, ...]
    psd_dbm: dict[str, np.ndarray]
    cdf_dbm: dict[str, np.ndarray]
    sicr_db: dict[str, float]
    counters: dict[str, OpCounter]
    noise_floor_dbm: float


def sicr(raw_power: float, residual_power: float) -> float:
    """Cancellation ratio in dB: raw self-interference power over what is left.

    Both are powers summed over the same band and symbols. A residual
    power of exactly zero returns the +inf sentinel; a negative or
    non-finite power is refused.
    """
    for what, value in (("raw", raw_power), ("residual", residual_power)):
        if not (np.isfinite(value) and value >= 0.0):
            raise ValueError(f"{what} power must be finite and nonnegative, got {value!r}")
    if residual_power == 0.0:
        return float("inf")
    return 10.0 * np.log10(raw_power / residual_power)


def residual_cdf(samples) -> np.ndarray:
    """Sorted residual-power samples; the empirical CDF's x-axis."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("residual_cdf needs at least one sample")
    return np.sort(arr)


def _seed_ints(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _receive(
    t: np.ndarray,
    b_iq: complex,
    a: np.ndarray,
    h: np.ndarray,
    band: slice,
    work: tuple[np.ndarray, np.ndarray] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Noiseless spectra on band of symbols through the transmit chain and the SI channel.

    t holds the symbols' time samples, idft of the (n, P) spectra, and h is
    the channel's frequency response, fft(taps, n=P). Every tap lies below
    cp_length and each prefixed symbol is filtered from a zero state, so
    the body left after prefix removal is the circular convolution of the
    amplifier output with the taps, and its spectrum is the amplifier
    output's spectrum times the response. work, two (n, P) complex arrays,
    holds the chain's steps, and out, (n, |band|), the result, when given.
    """
    first, second = (None, None) if work is None else work
    y = dft(apply_pa(apply_iq_time(t, b_iq, out=first), a, out=second), out=first)[:, band]
    # in place when no out is given: one (n, P) temporary fewer per call
    return np.multiply(y, h[band], out=y if out is None else out)


def _noise(
    shape: tuple[int, ...], sigma: float, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Circular complex Gaussian noise of variance sigma^2 and the given shape, into out when given.

    Each row draws one real part per entry of the last axis and then as
    many imaginary parts, so a stack draws the same numbers as its rows
    drawn one after another, whatever the block size.
    """
    draws = rng.standard_normal(shape[:-1] + (2, shape[-1]))
    noise = np.empty(shape, dtype=np.complex128) if out is None else out
    noise.real = draws[..., 0, :]
    noise.imag = draws[..., 1, :]
    noise *= sigma / np.sqrt(2.0)
    return noise


def _build_effective_channel(spec: ScenarioSpec, grid: SubcarrierGrid, seed: int) -> np.ndarray:
    """The beamformed self-interference channel taps, shape (n_taps,)."""
    if spec.tap_file is not None:
        rays = load_taps(spec.tap_file)
    else:
        rays = synth_channel(spec.channel, grid, seed)
    return apply_beams(
        rays,
        ArrayGeometry(*spec.tx_array),
        ArrayGeometry(*spec.rx_array),
        spec.dl_beam_angle,
        spec.ul_beam_angle,
        grid,
    )


def _build_training(
    spec: ScenarioSpec,
    grid: SubcarrierGrid,
    b_iq: complex,
    a: np.ndarray,
    h: np.ndarray,
    a_digi: float,
    sigma_t: float,
    seed_data: int,
    seed_noise: int,
) -> TrainingBuffer:
    lo, hi = spec.impulse_amp_range
    peaks = np.linspace(lo, hi, spec.n_impulse_symbols)
    pilots = impulse_pilot(grid, peaks * (grid.num_subcarriers / grid.dl_size))
    n_data = spec.n_train_symbols - spec.n_impulse_symbols
    data = gen_qam_symbols(grid, spec.qam_order, a_digi, n_data, seed_data)
    tx = np.concatenate([pilots, data])
    # the noise is drawn per body sample, where the amplifier fit reads it
    rx = _receive(idft(tx), b_iq, a, h, slice(None))
    rx += dft(_noise(rx.shape, sigma_t, np.random.default_rng(seed_noise)))
    return TrainingBuffer(grid=grid, tx=tx, rx=rx, n_impulse=len(pilots))


def _share(
    scratch: OpCounter, stage: str, counters: dict[str, OpCounter], names: list[str]
) -> None:
    """Charge the cost of a fit made once to each canceller that uses it."""
    for name in names:
        counters[name].charge(stage, mults=scratch.mults(stage), adds=scratch.adds(stage))


def _fit_group(
    names: list[str],
    b_hat: complex,
    buffer: TrainingBuffer,
    direct: int,
    spec: ScenarioSpec,
    gamma: float,
    a_digi: float,
    counters: dict[str, OpCounter],
) -> tuple[complex, int, list]:
    """Train the cancellers that read the basis stacks of one image weight.

    Returns the group (b_hat, top, members): one (name, run, W) member per
    name, W its (k+1, |UL|) weight array and run the running canceller W
    drives (run_full_ls for full_ls, run_sic otherwise), and top the highest
    basis order their running stages read. The training stack holds every
    training row when full_ls is among names and the data rows alone
    otherwise. The amplifier polynomial and its
    basis-power table are fitted once with b_hat for every member but
    full_ls, and their cost is charged to each; the fit samples the pilot
    peaks behind tap direct, the first nonzero beamformed tap, the direct
    path's delay. gamma is the basis-selection threshold in internal power
    units.
    """
    grid = buffer.grid
    first = 0 if "full_ls" in names else buffer.n_impulse
    train = basis_stack(buffer.tx[first:], b_hat, spec.k_max, grid)
    # the stack ends with the data rows, the only ones estimate_channel reads
    data = train[buffer.n_impulse - first :]
    users = [name for name in names if name != "full_ls"]
    if users:
        scratch = OpCounter()
        a_fit = estimate_pa(buffer, b_hat, spec.k_max, direct, counter=scratch)
        mu = mu_tables(grid, b_hat, a_digi, spec.k_max)
        _share(scratch, "estimate_pa", counters, users)
    members, top = [], 0
    for name in names:
        if name == "full_ls":
            members.append((name, run_full_ls, baseline_full_ls(buffer, train, counters[name])))
            top = max(top, spec.k_max)
            continue
        a_hat = a_fit[:1] if name == "iq_only" else a_fit
        h_hat = estimate_channel(buffer, data, a_hat, counter=counters[name])
        retained = select_basis(a_hat, mu, h_hat, gamma, spec.k_max, grid, counter=counters[name])
        # selection walks spec.k_max orders even for iq_only, whose a_hat
        # keeps the linear order alone; its weights keep the rows a_hat has
        w = precombine(h_hat, a_hat, retained[: len(a_hat)], grid, counters[name])
        members.append((name, run_sic, w))
        top = max(top, top_order(w, grid))
    return b_hat, top, members


def _run_window(
    spec: ScenarioSpec,
    grid: SubcarrierGrid,
    b_iq: complex,
    a: np.ndarray,
    h: np.ndarray,
    a_digi: float,
    sigma_f: float,
    groups: list,
    counters: dict[str, OpCounter],
    seed_data: int,
    seed_noise: int,
) -> tuple[float, dict[str, tuple[np.ndarray, np.ndarray, float]]]:
    """Stream the run symbols through the transmit chain and the cancellers in blocks.

    Returns the raw self-interference power summed over the window and,
    per canceller, three running reductions of its residual: the
    per-subcarrier sum of the noisy residual power, (|UL|,); the mean
    noisy residual power of each symbol, (n_run,); and the noiseless
    residual power summed over the window. No (n_run, |UL|) array is held.
    groups are run_scenario's (b, top, members): per block, each group with
    an image weight b builds one basis stack up to order top, linear's
    (b None) reads the symbols themselves, and each (name, run, W) member
    estimates with run(inputs, W, grid). Each block fills workspaces
    allocated once per scenario, of min(block, n_run) rows, and one inverse
    FFT of its symbols serves the reception and every group's basis stack.
    sigma_f is the noise deviation per uplink bin: the DFT of white noise of
    variance sigma_t^2 per sample is white with variance P sigma_t^2 per bin.
    """
    n_run, p, n_ul, ul = spec.n_run_symbols, grid.num_subcarriers, grid.ul_size, grid.ul_band
    rows = min(max(1, _RUN_BLOCK_SAMPLES // p), n_run)
    symbols, samples, first, second = np.empty((4, rows, p), dtype=np.complex128)
    clean, noisy, resid = np.empty((3, rows, n_ul), dtype=np.complex128)
    power = np.empty((rows, n_ul))
    orders = max((top for _, top, _ in groups), default=0) + 1
    stack = np.empty((rows, orders, n_ul), dtype=np.complex128)
    data_rng = np.random.default_rng(seed_data)
    noise_rng = np.random.default_rng(seed_noise)

    def residual_power(y, est, n):
        """|y - est|^2 of a block's n rows, in the power workspace; est None stands for 0."""
        if est is not None:
            y = np.subtract(y, est, out=resid[:n])
        np.abs(y, out=power[:n])
        return np.square(power[:n], out=power[:n])

    raw = 0.0
    sums = {name: (np.zeros(n_ul), np.empty(n_run), 0.0) for name in spec.cancellers}
    for start in range(0, n_run, rows):
        n = min(rows, n_run - start)
        x = gen_qam_symbols(grid, spec.qam_order, a_digi, n, data_rng, out=symbols[:n])
        t = idft(x, out=samples[:n])
        y = _receive(t, b_iq, a, h, ul, work=(first[:n], second[:n]), out=clean[:n])
        y_noisy = _noise(y.shape, sigma_f, noise_rng, out=noisy[:n])
        y_noisy += y
        raw += float(residual_power(y, None, n).sum())
        # the none canceller is in no group: its estimate stays 0
        estimates = [("none", None)] if "none" in sums else []
        for b, top, members in groups:
            inputs = x if b is None else basis_stack(x, b, top, grid, t, out=stack[:n, : top + 1])
            for name, run, w in members:
                estimates.append((name, run(inputs, w, grid, counter=counters[name])))
        for name, est in estimates:
            # the estimate depends on the transmit symbols only, so it is
            # subtracted from both the noisy and the noiseless reception
            psd, means, residual = sums[name]
            noisy_power = residual_power(y_noisy, est, n)
            psd += noisy_power.sum(axis=0)
            means[start : start + n] = noisy_power.mean(axis=1)
            sums[name] = psd, means, residual + float(residual_power(y, est, n).sum())
    return raw, sums


def run_scenario(spec: ScenarioSpec, seed: int | None = None) -> MetricsReport:
    """Simulate one scenario end to end; deterministic in (spec, seed)."""
    seed = spec.seed if seed is None else conform("seed", seed, int)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    grid = spec.build_grid()
    b_iq = spec.build_imbalance()
    a = spec.build_pa()

    a_digi = spec.drive_amplitude(grid)
    unit_power = abs(a[0] * a_digi) ** 2
    mw_per_unit = 10.0 ** (spec.tx_power_dbm / 10.0) / unit_power
    noise_f = unit_power * 10.0 ** ((spec.noise_dbm - spec.tx_power_dbm) / 10.0)
    sigma_t = float(np.sqrt(noise_f / grid.num_subcarriers))
    gamma_dbm = spec.noise_dbm if spec.gamma_dbm is None else spec.gamma_dbm
    gamma = unit_power * 10.0 ** ((gamma_dbm - spec.tx_power_dbm) / 10.0)
    if not gamma > 0:
        raise ValueError(f"gamma_dbm={gamma_dbm} gives a selection threshold that is not positive")

    seeds = _seed_ints(seed, 5)
    taps = _build_effective_channel(spec, grid, seeds[0])
    nonzero = np.flatnonzero(taps)
    if not nonzero.size:
        raise ValueError(
            "the self-interference channel is zero (every beamformed tap is 0), "
            "so there is no self-interference to cancel and no direct path to fit"
        )
    direct = int(nonzero[0])
    h = np.fft.fft(taps, n=grid.num_subcarriers)
    buffer = _build_training(spec, grid, b_iq, a, h, a_digi, sigma_t, seeds[1], seeds[2])

    counters = {name: OpCounter() for name in spec.cancellers}
    # each group, as (image weight, top order, [(name, run, W), ...]), drives
    # the run blocks, which build its stack once; linear's group has no image
    # weight and reads the symbols
    groups = []
    if "linear" in spec.cancellers:
        h_lin = estimate_linear_channel(buffer, counter=counters["linear"])
        groups.append((None, 0, [("linear", baseline_linear, h_lin)]))
    # the cancellers that read basis stacks, grouped by their image weight:
    # pa_only is proposed at b = 0. Each group is trained in turn, so the
    # fits hold one training stack at a time
    shared = [name for name in spec.cancellers if name in _USES_B_HAT]
    if shared:
        scratch = OpCounter()
        b_hat = estimate_iq(buffer, counter=scratch)
        _share(scratch, "estimate_iq", counters, shared)
        groups.append(_fit_group(shared, b_hat, buffer, direct, spec, gamma, a_digi, counters))
    if "pa_only" in spec.cancellers:
        groups.append(_fit_group(["pa_only"], 0j, buffer, direct, spec, gamma, a_digi, counters))
    # training is over; the run blocks build their own stacks
    del buffer

    sigma_f = float(np.sqrt(noise_f))
    raw, sums = _run_window(
        spec, grid, b_iq, a, h, a_digi, sigma_f, groups, counters, seeds[3], seeds[4]
    )
    psd_dbm: dict[str, np.ndarray] = {}
    cdf_dbm: dict[str, np.ndarray] = {}
    sicr_db: dict[str, float] = {}
    for name, (psd, means, residual) in sums.items():
        psd_dbm[name] = 10.0 * np.log10(
            np.maximum(psd / spec.n_run_symbols * mw_per_unit, _FLOOR)
        )
        cdf_dbm[name] = residual_cdf(10.0 * np.log10(np.maximum(means * mw_per_unit, _FLOOR)))
        sicr_db[name] = sicr(raw, residual)

    return MetricsReport(
        spec=spec,
        seed=seed,
        ul_indices=tuple(int(p) for p in grid.ul_indices),
        psd_dbm=psd_dbm,
        cdf_dbm=cdf_dbm,
        sicr_db=sicr_db,
        counters=counters,
        noise_floor_dbm=spec.noise_dbm,
    )


def _curve_rows(report: MetricsReport, curves: dict, index) -> list[tuple[str, int, float]]:
    """(canceller, index of entry, entry) rows of each canceller's curve in curves."""
    rows = []
    for name in report.spec.cancellers:
        for i, v in zip(index, curves[name]):
            rows.append((name, i, float(v)))
    return rows


def _complexity_rows(report: MetricsReport) -> list[tuple[str, str, int]]:
    rows = []
    for name in report.spec.cancellers:
        for stage, kind, value in report.counters[name].rows():
            rows.append((f"{name}.{stage}", kind, value))
    return rows


def emit_report(report: MetricsReport, out_dir, fmt: str = "csv") -> list[str]:
    """Write the report under out_dir; returns the paths written.

    csv format produces psd.csv (canceller,p,residual_dbm), cdf.csv
    (canceller,sample,residual_dbm), complexity.csv (stage,counter,value)
    and config.json. json format produces a single report.json holding
    the same content. Output is byte-identical for identical runs. An
    unknown fmt is refused before out_dir is created.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}; expected 'csv' or 'json'")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    config = spec_to_dict(report.spec)
    if fmt == "csv":
        psd = _curve_rows(report, report.psd_dbm, report.ul_indices)
        cdf = _curve_rows(report, report.cdf_dbm, itertools.count())
        tables = [
            ("psd.csv", "canceller,p,residual_dbm", psd),
            ("cdf.csv", "canceller,sample,residual_dbm", cdf),
            ("complexity.csv", "stage,counter,value", _complexity_rows(report)),
        ]
        for filename, header, rows in tables:
            path = os.path.join(out_dir, filename)
            with open(path, "w") as fh:
                fh.write(header + "\n")
                for first, second, value in rows:
                    # a float value is written as its repr, an int count as its digits
                    fh.write(f"{first},{second},{value!r}\n")
            written.append(path)
        filename, payload = "config.json", {"config": config, "seed": report.seed}
    else:
        filename, payload = "report.json", {
            "config": config,
            "seed": report.seed,
            "noise_floor_dbm": report.noise_floor_dbm,
            "ul_indices": list(report.ul_indices),
            "psd_dbm": {
                name: [float(v) for v in report.psd_dbm[name]]
                for name in report.spec.cancellers
            },
            "cdf_dbm": {
                name: [float(v) for v in report.cdf_dbm[name]]
                for name in report.spec.cancellers
            },
            "sicr_db": {name: report.sicr_db[name] for name in report.spec.cancellers},
            "complexity": [
                {"stage": stage, "counter": kind, "value": value}
                for stage, kind, value in _complexity_rows(report)
            ],
        }
    path = os.path.join(out_dir, filename)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(path)
    return written

"""Ray-based MIMO self-interference channel with analog beamforming.

A channel is a list of rays; each ray carries a complex gain, a delay, and
angles of arrival/departure.  Rays are rasterized onto sampling-interval
taps as outer products of array steering vectors, an (n_taps, n_rx, n_tx)
array H, then collapsed to the beamformed channel taps, an (n_taps,)
array h, by the transmit/receive beams:

    h[n] = w_rx^H  H[n]  f_tx.

Delays snap to the nearest tap; every tap index must stay below the cyclic
prefix length. The prefix then absorbs the channel memory, so after its
removal the channel acts on each subcarrier as one complex gain, the taps'
frequency response fft(h, n=P), and the receiver needs nothing else.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .fields import conform_fields
from .ofdm import SubcarrierGrid

RAY_CSV_HEADER = ["ray", "delay_s", "gain_re", "gain_im", "aoa_rad", "aod_rad", "is_los"]


@dataclass(frozen=True)
class Ray:
    gain: complex
    delay_s: float
    aoa: float
    aod: float
    is_los: bool = False

    def __post_init__(self):
        object.__setattr__(self, "gain", complex(self.gain))


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar array: rows x cols elements, spacing in wavelengths."""

    rows: int
    cols: int
    spacing: float = 0.5

    def __post_init__(self):
        conform_fields(self)
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"rows and cols must be >= 1, got {self.rows}x{self.cols}")
        if self.spacing <= 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class BeamVector:
    """Analog beam weights, unit modulus per entry: |w_i| = 1/sqrt(N)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.complex128).ravel()
        if w.size == 0:
            raise ValueError("beam vector must have at least one entry")
        target = 1.0 / np.sqrt(w.size)
        mags = np.abs(w)
        if np.any(np.abs(mags - target) > 1e-9 * max(target, 1.0)):
            raise ValueError(
                "beam weights must have unit modulus 1/sqrt(N) per entry; "
                "use normalize_beam to project arbitrary weights"
            )
        object.__setattr__(self, "weights", w)


def normalize_beam(weights: np.ndarray) -> BeamVector:
    """Keep the phases, force every magnitude to 1/sqrt(N)."""
    w = np.asarray(weights, dtype=np.complex128).ravel()
    if np.any(w == 0):
        raise ValueError("cannot normalize a beam weight of exactly zero")
    return BeamVector(weights=w / np.abs(w) / np.sqrt(w.size))


def array_response(geom: ArrayGeometry, angle: float) -> np.ndarray:
    """Unnormalized steering vector of a planar array toward `angle`.

    Element (r, c) gets phase 2 pi spacing (r + c) sin(angle); entries are
    flattened row-major.  Broadside (angle 0) gives the all-ones vector.
    """
    r = np.arange(geom.rows)[:, None]
    c = np.arange(geom.cols)[None, :]
    phase = 2.0 * np.pi * geom.spacing * (r + c) * np.sin(angle)
    return np.exp(1j * phase).ravel()


def conjugate_beam(geom: ArrayGeometry, angle: float) -> BeamVector:
    """Unit-modulus beam conjugate-matched to the steering vector at `angle`.

    apply_beams applies the receive weights as w^H and the transmit weights
    against a conjugated departure steering vector, so the matched weights
    equal the steering vector itself; the conjugation lives in the combiner.
    """
    return normalize_beam(array_response(geom, angle))


def validate_rays(rays: list[Ray]) -> None:
    """Check the ray-set invariants, naming the offending ray index."""
    if not rays:
        raise ValueError("no rays")
    los = [i for i, r in enumerate(rays) if r.is_los]
    if len(los) != 1:
        raise ValueError(f"exactly one LoS ray required, found {len(los)}")
    min_delay = min(r.delay_s for r in rays)
    for i, r in enumerate(rays):
        if r.delay_s < 0:
            raise ValueError(f"ray {i}: negative delay {r.delay_s}")
    if rays[los[0]].delay_s > min_delay:
        raise ValueError(
            f"ray {los[0]}: LoS delay {rays[los[0]].delay_s} exceeds the "
            f"minimum delay {min_delay}"
        )


def build_mimo_taps(
    rays: list[Ray],
    geom_tx: ArrayGeometry,
    geom_rx: ArrayGeometry,
    grid: SubcarrierGrid,
) -> np.ndarray:
    """Rasterize rays onto sampling taps as steering outer products.

    Returns the (n_taps, n_rx, n_tx) tap matrices H. Each ray lands on tap
    round(delay / T_sampling) with matrix g * e_rx(aoa) e_tx(aod)^H; rays
    sharing a tap add.  Tap indices at or beyond cp_length are rejected
    (they would break the per-subcarrier product model).
    """
    validate_rays(rays)
    ts = grid.sampling_interval
    tap_idx = [int(round(r.delay_s / ts)) for r in rays]
    for i, t in enumerate(tap_idx):
        if t >= grid.cp_length:
            raise ValueError(
                f"ray {i}: delay {rays[i].delay_s} maps to tap {t}, "
                f"which reaches the cyclic prefix length {grid.cp_length}"
            )
    n_taps = max(tap_idx) + 1
    taps = np.zeros((n_taps, geom_rx.n_elements, geom_tx.n_elements), dtype=complex)
    for r, t in zip(rays, tap_idx):
        taps[t] += r.gain * np.outer(
            array_response(geom_rx, r.aoa), np.conj(array_response(geom_tx, r.aod))
        )
    return taps


def apply_beams(taps: np.ndarray, f_tx: BeamVector, w_rx: BeamVector) -> np.ndarray:
    """Collapse the MIMO taps H to the (n_taps,) beamformed taps h[n] = w^H H[n] f."""
    n_taps, n_rx, n_tx = taps.shape
    if len(f_tx.weights) != n_tx or len(w_rx.weights) != n_rx:
        raise ValueError(
            f"beam dimensions ({len(w_rx.weights)}, {len(f_tx.weights)}) do not "
            f"match channel dimensions ({n_rx}, {n_tx})"
        )
    w = np.conj(w_rx.weights)
    return np.array([w @ taps[n] @ f_tx.weights for n in range(n_taps)])


@dataclass(frozen=True)
class ChannelProfile:
    """Synthetic LoS + decaying NLoS profile.

    The LoS ray sits at delay zero with gain los_gain_db (dB, amplitude
    10^(dB/20), phase zero, boresight angles).  NLoS ray i of n_rays - 1
    sits at tap i * nlos_tap_step with gain los_gain_db + nlos_start_db
    - (i - 1) * nlos_decay_db_per_tap, random phase, and angles uniform in
    [-angle_spread, angle_spread].
    """

    n_rays: int = 5
    los_gain_db: float = -52.0
    nlos_start_db: float = -28.0
    nlos_decay_db_per_tap: float = 6.0
    angle_spread: float = np.pi / 3
    nlos_tap_step: int = 4

    def __post_init__(self):
        conform_fields(self)
        if self.n_rays < 1:
            raise ValueError(f"n_rays must be >= 1, got {self.n_rays}")
        if self.nlos_tap_step < 1:
            raise ValueError(f"nlos_tap_step must be >= 1, got {self.nlos_tap_step}")


def synth_channel(
    profile: ChannelProfile, grid: SubcarrierGrid, seed: int
) -> list[Ray]:
    """Draw a deterministic ray set from the profile."""
    rng = np.random.default_rng(seed)
    los_amp = 10.0 ** (profile.los_gain_db / 20.0)
    rays = [Ray(gain=los_amp, delay_s=0.0, aoa=0.0, aod=0.0, is_los=True)]
    ts = grid.sampling_interval
    for i in range(1, profile.n_rays):
        gain_db = (
            profile.los_gain_db
            + profile.nlos_start_db
            - (i - 1) * profile.nlos_decay_db_per_tap
        )
        amp = 10.0 ** (gain_db / 20.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        aoa = rng.uniform(-profile.angle_spread, profile.angle_spread)
        aod = rng.uniform(-profile.angle_spread, profile.angle_spread)
        rays.append(
            Ray(
                gain=amp * np.exp(1j * phase),
                delay_s=i * profile.nlos_tap_step * ts,
                aoa=aoa,
                aod=aod,
                is_los=False,
            )
        )
    return rays


def save_taps(rays: list[Ray], path) -> None:
    """Write rays as CSV with header ray,delay_s,gain_re,gain_im,aoa_rad,aod_rad,is_los."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAY_CSV_HEADER)
        for i, r in enumerate(rays):
            writer.writerow(
                [i, repr(r.delay_s), repr(r.gain.real), repr(r.gain.imag),
                 repr(r.aoa), repr(r.aod), int(r.is_los)]
            )


def load_taps(path) -> list[Ray]:
    """Read a ray CSV, reporting parse errors with line numbers."""
    rays = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: no rays (empty file)") from None
        if [h.strip() for h in header] != RAY_CSV_HEADER:
            raise ValueError(
                f"{path}: line 1: expected header {','.join(RAY_CSV_HEADER)}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(RAY_CSV_HEADER):
                raise ValueError(
                    f"{path}: line {line_no}: expected {len(RAY_CSV_HEADER)} "
                    f"fields, got {len(row)}"
                )
            try:
                delay, gain_re, gain_im, aoa, aod = values = [float(v) for v in row[1:6]]
                for name, value in zip(RAY_CSV_HEADER[1:6], values):
                    if not np.isfinite(value):
                        raise ValueError(f"{name} must be finite, got {value}")
                rays.append(
                    Ray(
                        gain=gain_re + 1j * gain_im,
                        delay_s=delay,
                        aoa=aoa,
                        aod=aod,
                        is_los=bool(int(row[6])),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from None
    if not rays:
        raise ValueError(f"{path}: no rays")
    validate_rays(rays)
    return rays

"""Ray-based MIMO self-interference channel with analog beamforming.

A channel is a list of rays; each ray carries a complex gain, a delay, and
angles of arrival/departure. The transmit and receive arrays apply the
beams matched to the downlink and uplink beam angles,
f = e_tx(dl_angle)/sqrt(N_tx) and w = e_rx(ul_angle)/sqrt(N_rx), so each
ray reaches the baseband as one beamformed gain, and the rays sum onto
sampling-interval taps, an (n_taps,) array h:

    h[n] = sum over rays on tap n of g (w^H e_rx(aoa)) (e_tx(aod)^H f).

That is the beamformed MIMO channel w^H H[n] f, H[n] the sum of the rays'
steering outer products g e_rx(aoa) e_tx(aod)^H, with the contraction
taken ray by ray. Delays snap to the nearest tap; every tap index must stay
below the cyclic prefix length. The prefix then absorbs the channel memory,
so after its removal the channel acts on each subcarrier as one complex
gain, the taps' frequency response fft(h, n=P), and the receiver needs
nothing else.
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


def array_response(geom: ArrayGeometry, angle: float) -> np.ndarray:
    """Unnormalized steering vector of a planar array toward `angle`.

    Element (r, c) gets phase 2 pi spacing (r + c) sin(angle); entries are
    flattened row-major.  Broadside (angle 0) gives the all-ones vector.
    """
    r = np.arange(geom.rows)[:, None]
    c = np.arange(geom.cols)[None, :]
    phase = 2.0 * np.pi * geom.spacing * (r + c) * np.sin(angle)
    return np.exp(1j * phase).ravel()


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


def apply_beams(
    rays: list[Ray],
    geom_tx: ArrayGeometry,
    geom_rx: ArrayGeometry,
    dl_angle: float,
    ul_angle: float,
    grid: SubcarrierGrid,
) -> np.ndarray:
    """The (n_taps,) beamformed taps of rays under the beams matched to dl_angle and ul_angle.

    Each ray adds g (w^H e_rx(aoa)) (e_tx(aod)^H f) to tap
    round(delay / T_sampling), with w = e_rx(ul_angle)/sqrt(N_rx) and
    f = e_tx(dl_angle)/sqrt(N_tx); rays sharing a tap add. Tap indices at
    or beyond cp_length are rejected (they would break the per-subcarrier
    product model).
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
    w_h = np.conj(array_response(geom_rx, ul_angle)) / np.sqrt(geom_rx.n_elements)
    f = array_response(geom_tx, dl_angle) / np.sqrt(geom_tx.n_elements)
    taps = np.zeros(max(tap_idx) + 1, dtype=complex)
    for r, t in zip(rays, tap_idx):
        rx_gain = w_h @ array_response(geom_rx, r.aoa)
        tx_gain = np.conj(array_response(geom_tx, r.aod)) @ f
        taps[t] += r.gain * rx_gain * tx_gain
    return taps


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
            # float() first: numpy 2 writes a numpy scalar as np.float64(...)
            values = (r.delay_s, r.gain.real, r.gain.imag, r.aoa, r.aod)
            writer.writerow([i, *(repr(float(v)) for v in values), int(r.is_los)])


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

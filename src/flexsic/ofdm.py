"""OFDM numerology, flexible-duplex allocation, and transform primitives.

A symbol is a plain complex array whose last axis is the subcarrier grid
(length P) in the frequency domain, or the time-domain body (length P). A
leading axis, when present, indexes symbols, so one (P,) symbol and an
(M, P) stack go through the same functions. The cyclic prefix is not
simulated: cp_length bounds the channel's taps, which makes the channel one
complex gain per subcarrier after prefix removal (see channel).

Transform convention used throughout the package:

    idft:  x[n] = (1/P) * sum_p X[p] * exp(+j 2 pi p n / P)
    dft:   X[p] =         sum_n x[n] * exp(-j 2 pi p n / P)

The inverse transform carries the 1/P factor (``numpy.fft.ifft`` /
``numpy.fft.fft``).  Under this scaling Parseval reads

    sum_n |x[n]|^2 = (1/P) * sum_p |X[p]|^2.

Subcarrier allocations are contiguous index ranges on a single length-P DFT
grid; negative frequencies live at the top of the grid, so the mirror image
of subcarrier p is (P - p) mod P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QAM_ORDERS = (4, 16, 64)


@dataclass(frozen=True)
class SubcarrierGrid:
    """OFDM dimensions plus downlink/uplink allocation ranges.

    Parameters
    ----------
    num_subcarriers : int
        DFT size P.
    subcarrier_spacing : float
        Subcarrier spacing in Hz.
    cp_length : int
        Cyclic-prefix length in samples, 0 < cp_length < P.
    dl_set, ul_set : tuple of int
        Inclusive index ranges (start, end) of the downlink and uplink
        allocations on the grid, 0 <= start <= end < P.
    """

    num_subcarriers: int
    subcarrier_spacing: float
    cp_length: int
    dl_set: tuple[int, int]
    ul_set: tuple[int, int]

    def __post_init__(self):
        p = self.num_subcarriers
        if not (isinstance(p, (int, np.integer)) and p > 0):
            raise ValueError(f"num_subcarriers must be a positive integer, got {p!r}")
        if not self.subcarrier_spacing > 0:
            raise ValueError(
                f"subcarrier_spacing must be positive, got {self.subcarrier_spacing!r}"
            )
        if not (0 < self.cp_length < p):
            raise ValueError(
                f"cp_length must satisfy 0 < cp_length < num_subcarriers, "
                f"got cp_length={self.cp_length} with num_subcarriers={p}"
            )
        for name in ("dl_set", "ul_set"):
            rng = getattr(self, name)
            if len(rng) != 2:
                raise ValueError(f"{name} must be a (start, end) pair, got {rng!r}")
            start, end = rng
            if not (0 <= start <= end < p):
                raise ValueError(
                    f"{name}=({start}, {end}) violates 0 <= start <= end < {p}"
                )
            object.__setattr__(self, name, (int(start), int(end)))

    @property
    def dl_start(self) -> int:
        return self.dl_set[0]

    @property
    def dl_end(self) -> int:
        return self.dl_set[1]

    @property
    def dl_size(self) -> int:
        """Number of downlink subcarriers."""
        return self.dl_set[1] - self.dl_set[0] + 1

    @property
    def ul_size(self) -> int:
        """Number of uplink subcarriers."""
        return self.ul_set[1] - self.ul_set[0] + 1

    @property
    def dl_band(self) -> slice:
        """The downlink allocation as a slice of the subcarrier axis."""
        return slice(self.dl_set[0], self.dl_set[1] + 1)

    @property
    def ul_band(self) -> slice:
        """The uplink allocation as a slice of the subcarrier axis."""
        return slice(self.ul_set[0], self.ul_set[1] + 1)

    @property
    def dl_indices(self) -> np.ndarray:
        return np.arange(self.dl_set[0], self.dl_set[1] + 1)

    @property
    def ul_indices(self) -> np.ndarray:
        return np.arange(self.ul_set[0], self.ul_set[1] + 1)

    @property
    def dl_mask(self) -> np.ndarray:
        """Boolean indicator of the downlink allocation, length P."""
        mask = np.zeros(self.num_subcarriers, dtype=bool)
        mask[self.dl_band] = True
        return mask

    @property
    def sampling_interval(self) -> float:
        """Baseband sampling interval 1 / (P * subcarrier_spacing), seconds."""
        return 1.0 / (self.num_subcarriers * self.subcarrier_spacing)


def idft(spectrum: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse transform along the last axis, with the 1/P factor, into out when given.

    samples[n] = (1/P) * sum_p spectrum[p] * exp(+j 2 pi p n / P)
    """
    return np.fft.ifft(spectrum, axis=-1, out=out)


def dft(samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Forward transform along the last axis, without a scale factor, into out when given.

    spectrum[p] = sum_n samples[n] * exp(-j 2 pi p n / P)
    """
    return np.fft.fft(samples, axis=-1, out=out)


def qam_constellation(order: int) -> np.ndarray:
    """Unit-average-power square QAM constellation points.

    Points are (i + j*q) * sqrt(3 / (2 (m^2 - 1))) for odd i, q in
    [-(m-1), m-1], m = sqrt(order), which normalizes E|X|^2 to one.
    """
    if order not in QAM_ORDERS:
        raise ValueError(f"order must be one of {QAM_ORDERS}, got {order}")
    m = int(round(np.sqrt(order)))
    levels = np.arange(-(m - 1), m, 2, dtype=float)
    scale = np.sqrt(3.0 / (2.0 * (m * m - 1)))
    pts = (levels[:, None] + 1j * levels[None, :]).ravel() * scale
    return pts


def gen_qam_symbols(
    grid: SubcarrierGrid,
    order: int,
    amplitude: float,
    count: int,
    seed: int | np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Draw independent uniform QAM symbols on the downlink allocation.

    Parameters
    ----------
    grid : SubcarrierGrid
    order : int
        Constellation size, one of 4, 16, 64.
    amplitude : float
        Per-subcarrier RMS amplitude: E|X[p]|^2 = amplitude^2 on dl_set.
    count : int
        Number of symbols to generate.
    seed : int or numpy.random.Generator
        PRNG seed, or a generator to draw from; output is deterministic
        given the seed. One generator's draws split across calls bit for
        bit: count symbols drawn in one call equal the same count drawn
        over several.
    out : ndarray of shape (count, P), optional
        Filled and returned in place of a new array.

    Returns
    -------
    ndarray of shape (count, P)
        One symbol per row, zero outside dl_set.
    """
    if amplitude <= 0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    if grid.dl_size == 0:
        raise ValueError("empty dl_set: nothing to modulate")
    pts = qam_constellation(order) * amplitude
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(pts), size=(count, grid.dl_size))
    if out is None:
        out = np.zeros((count, grid.num_subcarriers), dtype=np.complex128)
    else:
        out[:, : grid.dl_start] = 0.0
        out[:, grid.dl_end + 1 :] = 0.0
    out[:, grid.dl_band] = pts[picks]
    return out

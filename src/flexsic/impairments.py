"""Transmitter impairment models: IQ imbalance and a memoryless polynomial PA.

IQ imbalance adds a conjugate image scaled by a complex coefficient b:

    time domain:       x_iq[n] = x[n] + b * conj(x[n])
    frequency domain:  X_iq[p] = X[p] + b * conj(X[(P - p) mod P])

The image rejection ratio is IRR = 1/|b|^2.

The PA is an odd-order memoryless polynomial applied per sample:

    f(x) = sum_k a_{2k+1} * |x|^{2k} * x

Every model acts on the last axis of a plain complex array, so one symbol
and a stack of symbols go through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ofdm import mirror_values


@dataclass(frozen=True)
class IQImbalance:
    """Complex mirror coefficient b of the IQ imbalance, |b| < 1."""

    b_iq: complex = 0.0

    def __post_init__(self):
        b = complex(self.b_iq)
        if abs(b) >= 1:
            raise ValueError(f"|b_iq| must be < 1, got |{b}| = {abs(b)}")
        object.__setattr__(self, "b_iq", b)

    @property
    def irr_db(self) -> float:
        """Image rejection ratio 1/|b|^2 in dB (inf for b = 0)."""
        if self.b_iq == 0:
            return float("inf")
        return -20.0 * np.log10(abs(self.b_iq))


@dataclass(frozen=True)
class PAPolynomial:
    """Odd-order memoryless PA polynomial.

    Parameters
    ----------
    coeffs : dict
        Map from odd order 2k+1 to complex coefficient a_{2k+1}.  The
        linear coefficient a_1 must be present and nonzero.
    """

    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for order, a in self.coeffs.items():
            if order < 1 or order % 2 == 0:
                raise ValueError(f"PA orders must be odd and >= 1, got {order}")
            clean[int(order)] = complex(a)
        if clean.get(1, 0) == 0:
            raise ValueError("PA linear coefficient a_1 must be nonzero")
        object.__setattr__(self, "coeffs", clean)

    @property
    def k_max(self) -> int:
        """Largest k with a nonzero coefficient a_{2k+1}."""
        return max((o - 1) // 2 for o, a in self.coeffs.items() if a != 0)

    def coeff(self, order: int) -> complex:
        """Coefficient a_order, zero if the order is absent."""
        return self.coeffs.get(order, 0.0 + 0.0j)

    def evaluate(self, x):
        """Apply f(x) = sum_k a_{2k+1} |x|^{2k} x elementwise."""
        x = np.asarray(x, dtype=np.complex128)
        out = np.zeros_like(x)
        mag2 = np.abs(x) ** 2
        for order, a in self.coeffs.items():
            k = (order - 1) // 2
            # in place, so a stack of symbols holds few temporaries of its size
            term = a * mag2**k
            term *= x
            out += term
        return out


def apply_iq_time(x: np.ndarray, imb: IQImbalance) -> np.ndarray:
    """Per-sample image: out[n] = x[n] + b * conj(x[n])."""
    return x + imb.b_iq * np.conj(x)


def apply_iq_freq(X: np.ndarray, b_iq: complex) -> np.ndarray:
    """Per-subcarrier image along the last axis: out[p] = X[p] + b * conj(X[(P - p) mod P])."""
    return X + b_iq * np.conj(mirror_values(X))


def apply_pa(x: np.ndarray, pa: PAPolynomial) -> np.ndarray:
    """Memoryless polynomial PA applied sample by sample."""
    return pa.evaluate(x)


def default_measured_pa() -> PAPolynomial:
    """Measured handset PA fit: f(x) = 35.89 x - 2.24 |x|^2 x + 0.0015 |x|^4 x."""
    return PAPolynomial(coeffs={1: 35.89, 3: -2.24, 5: 0.0015})


def irr_to_b(irr_db: float, phase: float = 0.0) -> IQImbalance:
    """Build an IQImbalance with |b| = 10^(-irr_db/20) and the given phase."""
    if not irr_db > 0:
        raise ValueError(f"irr_db must be positive, got {irr_db}")
    mag = 10.0 ** (-irr_db / 20.0)
    return IQImbalance(b_iq=mag * np.exp(1j * phase))

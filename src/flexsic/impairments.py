"""Transmitter impairment models: IQ imbalance and a memoryless polynomial PA.

IQ imbalance adds a conjugate image scaled by a complex coefficient b:

    time domain:       x_iq[n] = x[n] + b * conj(x[n])
    frequency domain:  X_iq[p] = X[p] + b * conj(X[(P - p) mod P])

apply_iq_time is the time-domain form; sic.basis_stack takes the
frequency-domain form on the uplink band alone. The image rejection
ratio is IRR = 1/|b|^2.

The PA is an odd-order memoryless polynomial applied per sample:

    f(x) = sum_k a_{2k+1} * |x|^{2k} * x

Its coefficients are one complex vector a of shape (K+1,) indexed by k,
a[k] = a_{2k+1}; an order the amplifier lacks is a zero entry.

Every model acts on the last axis of a plain complex array, so one symbol
and a stack of symbols go through the same code.
"""

from __future__ import annotations

import numpy as np


def apply_iq_time(x: np.ndarray, b_iq: complex, out: np.ndarray | None = None) -> np.ndarray:
    """Per-sample image: out[n] = x[n] + b * conj(x[n]), written into out when given.

    The product is taken in place as b * conj(x), in that operand order at
    every size: numpy's temporary elision would turn b * np.conj(x) into
    conj(x) * b for large arrays, which differs in the last bit, so a stack's
    rows would not equal the same rows imaged one at a time.
    """
    image = np.conj(x, dtype=np.complex128)
    np.multiply(b_iq, image, out=image)
    return np.add(x, image, out=image if out is None else out)


def apply_pa(x: np.ndarray, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Memoryless polynomial PA sample by sample: sum_k a[k] |x|^{2k} x.

    The polynomial in |x|^2 is evaluated by Horner's rule in place, so a
    stack of symbols needs no arrays of its size beyond |x|^2 and the
    output, which is written into out when given (out must not be x).
    """
    x = np.asarray(x, dtype=np.complex128)
    a = np.asarray(a, dtype=np.complex128)
    mag2 = x.real**2 + x.imag**2
    if out is None:
        out = np.empty(x.shape, dtype=np.complex128)
    out[...] = a[-1]
    for a_k in a[-2::-1]:
        out *= mag2
        out += a_k
    out *= x
    return out


def default_measured_pa() -> np.ndarray:
    """Measured handset PA fit: f(x) = 35.89 x - 2.24 |x|^2 x + 0.0015 |x|^4 x."""
    return np.array([35.89, -2.24, 0.0015], dtype=np.complex128)


def irr_to_b(irr_db: float, phase: float = 0.0) -> complex:
    """Image weight b with |b| = 10^(-irr_db/20) < 1 and the given phase."""
    if not irr_db > 0:
        raise ValueError(f"irr_db must be positive, got {irr_db}")
    mag = 10.0 ** (-irr_db / 20.0)
    return complex(mag * np.exp(1j * phase))

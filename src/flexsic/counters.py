"""Instrumented complex-arithmetic counters.

Counts complex multiplies and complex adds separately, per named stage.
Conventions used by the whole package:

- a length-n FFT or IFFT costs (n/2) log2(n) multiplies and n log2(n) adds;
- an elementwise product of two length-L vectors costs L multiplies;
- a complex division counts as one multiply;
- a least-squares solve with M rows and K columns costs K^2 M + K M + K^3
  multiplies and K^2 (M-1) + K (M-1) + K^3 adds, the normal equations'
  count (Gram matrix, projected observations, K-dimensional solve), kept
  as a fixed convention whichever factorization, QR or Cholesky, solves it;
- bookkeeping (copies, comparisons, validation) is free.
"""

from __future__ import annotations

import math
from collections import defaultdict


def fft_mults(n: int) -> int:
    """Multiplies charged for a length-n transform: (n/2) log2(n)."""
    return (n * _log2_int(n)) // 2


def fft_adds(n: int) -> int:
    """Adds charged for a length-n transform: n log2(n)."""
    return n * _log2_int(n)


def _log2_int(n: int) -> int:
    if n <= 1:
        return 0
    exact = n.bit_length() - 1
    if 1 << exact == n:
        return exact
    return math.ceil(math.log2(n))


def ls_costs(m: int, k: int) -> tuple[int, int]:
    """(multiplies, adds) charged for an LS solve, M rows, K columns: the normal-equation count."""
    mults = k * k * m + k * m + k**3
    adds = k * k * max(m - 1, 0) + k * max(m - 1, 0) + k**3
    return mults, adds


class OpCounter:
    """Per-stage tallies of complex multiplies and adds."""

    def __init__(self):
        self._mults: dict[str, int] = defaultdict(int)
        self._adds: dict[str, int] = defaultdict(int)

    def charge(self, stage: str, mults: int = 0, adds: int = 0) -> None:
        if mults < 0 or adds < 0:
            raise ValueError("counter charges must be nonnegative")
        self._mults[stage] += int(mults)
        self._adds[stage] += int(adds)

    def charge_fft(self, stage: str, n: int, count: int = 1) -> None:
        self.charge(stage, mults=count * fft_mults(n), adds=count * fft_adds(n))

    def mults(self, stage: str) -> int:
        return self._mults.get(stage, 0)

    def adds(self, stage: str) -> int:
        return self._adds.get(stage, 0)

    @property
    def stages(self) -> list[str]:
        return sorted(set(self._mults) | set(self._adds))

    def total_mults(self, stages=None) -> int:
        keys = self.stages if stages is None else stages
        return sum(self._mults.get(s, 0) for s in keys)

    def rows(self) -> list[tuple[str, str, int]]:
        """Stable (stage, counter, value) rows for reporting."""
        out = []
        for stage in self.stages:
            out.append((stage, "multiplies", self._mults.get(stage, 0)))
            out.append((stage, "adds", self._adds.get(stage, 0)))
        return out

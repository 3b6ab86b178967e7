"""The HPL efficiency model of paper section 4.

HPL's work is O(N^3) compute plus O(N^2) communication/memory traffic, so
its efficiency (achieved/peak) as a function of problem size N is

    E(N) = gamma N^3 / (alpha N^3 + beta N^2) = N / (aN + b),   a > 1  (Eq. 5)

``1/E = a + b/N`` is *linear in 1/N*, so the model is fit with ordinary
least squares on transformed data — that is how the curve in Fig. 7 is
obtained from measured (N, efficiency) points.

Shrinking available memory by a factor ``k`` shrinks the problem to
``N2 = sqrt(k) N1`` (the matrix is N^2 doubles), and Eq. 8 bounds the
resulting efficiency from below:

    e2 >= sqrt(k) e1 / (1 - (1 - sqrt(k)) e1)

These two functions generate Figs. 7, 8, 11 and 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class EfficiencyModel:
    """E(N) = N / (aN + b) with a > 1 (a = alpha/gamma, b = beta/gamma)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if self.a < 1.0:
            raise ValueError(f"a must be >= 1 (got {self.a}); E cannot exceed 1")
        if self.b < 0:
            raise ValueError("b must be >= 0")

    def efficiency(self, n: float) -> float:
        """E(N) for problem size ``n``."""
        if n <= 0:
            raise ValueError("problem size must be positive")
        return n / (self.a * n + self.b)

    def runtime(self, n: float, peak_flops: float) -> float:
        """Modeled wall time of an HPL run of size ``n`` on ``peak_flops``."""
        work = (2.0 / 3.0) * n**3 + 1.5 * n**2
        return work / (peak_flops * self.efficiency(n))


def fit_efficiency_model(
    sizes: Sequence[float], efficiencies: Sequence[float]
) -> EfficiencyModel:
    """Least-squares fit of Eq. 5 via the linearization 1/E = a + b/N."""
    n = np.asarray(sizes, dtype=float)
    e = np.asarray(efficiencies, dtype=float)
    if len(n) != len(e) or len(n) < 2:
        raise ValueError("need >= 2 (size, efficiency) pairs")
    if np.any(n <= 0) or np.any(e <= 0) or np.any(e > 1):
        raise ValueError("sizes must be positive, efficiencies in (0, 1]")
    x = 1.0 / n
    y = 1.0 / e
    b, a = np.polyfit(x, y, 1)
    return EfficiencyModel(a=max(1.0, float(a)), b=max(0.0, float(b)))


def efficiency_lower_bound(e1: float, k: float) -> float:
    """Eq. 8: a lower bound on efficiency when only fraction ``k`` of the
    memory is available, given full-memory efficiency ``e1``."""
    if not 0 < k <= 1:
        raise ValueError("k must be in (0, 1]")
    if not 0 < e1 <= 1:
        raise ValueError("e1 must be in (0, 1]")
    rk = math.sqrt(k)
    return rk * e1 / (1.0 - (1.0 - rk) * e1)


def efficiency_at_memory_fraction(model: EfficiencyModel, n1: float, k: float) -> float:
    """Exact model value at the reduced problem size N2 = sqrt(k) N1."""
    if not 0 < k <= 1:
        raise ValueError("k must be in (0, 1]")
    return model.efficiency(math.sqrt(k) * n1)


def problem_size_for_memory(
    mem_bytes_total: float, fill_fraction: float = 1.0
) -> int:
    """Largest N whose N^2 doubles fit in ``fill_fraction`` of the memory —
    how HPL problem sizes are chosen from a memory budget."""
    if mem_bytes_total <= 0 or not 0 < fill_fraction <= 1:
        raise ValueError("memory and fill fraction must be positive")
    return int(math.sqrt(mem_bytes_total * fill_fraction / 8.0))


def fit_quality(
    model: EfficiencyModel,
    sizes: Sequence[float],
    efficiencies: Sequence[float],
) -> float:
    """R^2 of the model against measured points (for Fig. 7/12 reporting)."""
    e = np.asarray(efficiencies, dtype=float)
    pred = np.array([model.efficiency(n) for n in sizes])
    ss_res = float(np.sum((e - pred) ** 2))
    ss_tot = float(np.sum((e - np.mean(e)) ** 2))
    if ss_tot == 0:
        return 1.0 if ss_res == 0 else 0.0
    return 1.0 - ss_res / ss_tot

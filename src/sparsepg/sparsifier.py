"""Coordinate-selection distributions for sparsified worker updates.

A selector assigns each coordinate an inclusion probability; masks are drawn
as d independent Bernoulli trials (empty masks are legal and produce a zero
update).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import null_pattern


@dataclass(frozen=True)
class SelectorDistribution:
    """Per-coordinate inclusion probabilities, all in (0, 1]."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probability vector must be one-dimensional and non-empty")
        if np.any(p <= 0) or np.any(p > 1):
            raise ValueError("probabilities must lie in (0, 1]")

    @property
    def d(self) -> int:
        return self.p.size

    @property
    def p_min(self) -> float:
        return float(self.p.min())

    @property
    def p_max(self) -> float:
        return float(self.p.max())


def uniform_distribution(d: int, pi: float) -> SelectorDistribution:
    """Every coordinate selected with the same probability pi."""
    if not 0.0 < pi <= 1.0:
        raise ValueError("pi must lie in (0, 1]")
    return SelectorDistribution(p=np.full(d, pi))


def adaptive_distribution(center: np.ndarray, c: float) -> SelectorDistribution:
    """Probability 1 on supp(center), min(c/|null(center)|, 1) elsewhere.

    Exploration is spread over the currently-null coordinates so that about c
    of them are selected per draw.
    """
    if c <= 0:
        raise ValueError("exploration budget c must be positive")
    center = np.asarray(center, dtype=float)
    null = null_pattern(center)
    p = np.ones(center.size)
    if null.size > 0:
        p[null] = min(c / null.size, 1.0)
    return SelectorDistribution(p=p)


def draw_mask(dist: SelectorDistribution, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of an i.i.d. Bernoulli(p) coordinate mask."""
    u = rng.random(dist.d)
    return np.flatnonzero(u < dist.p)


def min_conditioning(pi: float) -> float:
    """Smallest condition number for which exploration probability pi is safe."""
    if not 0.0 < pi <= 1.0:
        raise ValueError("pi must lie in (0, 1]")
    s = np.sqrt(pi)
    return float((1.0 - s) / (1.0 + s))


def convergence_gap_ok(dist: SelectorDistribution, gamma: float, mu: float) -> bool:
    """Check p_min / p_max >= (1 - gamma*mu)^2, the linear-rate condition."""
    return dist.p_min / dist.p_max >= (1.0 - gamma * mu) ** 2

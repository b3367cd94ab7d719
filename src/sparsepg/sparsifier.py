"""Coordinate-selection distributions for sparsified worker updates.

A selector assigns each coordinate an inclusion probability; masks are drawn
as d independent Bernoulli trials (empty masks are legal and produce a zero
update).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SelectorDistribution:
    """Per-coordinate inclusion probabilities, all in (0, 1].

    ``p_min`` and ``p_max`` are computed once, when the distribution is built;
    ``p`` is not to be written to afterwards."""

    p: np.ndarray
    p_min: float = field(init=False, repr=False, compare=False)
    p_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probability vector must be one-dimensional and non-empty")
        # the ufuncs skip ndarray.min's Python wrapper
        lo, hi = float(np.minimum.reduce(p)), float(np.maximum.reduce(p))
        # a NaN entry makes both extremes NaN, and fails both comparisons
        if not (0.0 < lo and hi <= 1.0):
            raise ValueError("probabilities must lie in (0, 1]")
        object.__setattr__(self, "p_min", lo)
        object.__setattr__(self, "p_max", hi)

    @property
    def d(self) -> int:
        return self.p.size


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
    if not c > 0:
        raise ValueError("exploration budget c must be positive")
    support = np.asarray(center, dtype=float) != 0
    n_null = support.size - np.count_nonzero(support)
    q = min(c / n_null, 1.0) if n_null else 1.0
    return SelectorDistribution(p=np.where(support, 1.0, q))


def draw_mask(dist: SelectorDistribution, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of an i.i.d. Bernoulli(p) coordinate mask: the j with
    u_j < p_j for u uniform on [0, 1)^d."""
    p = dist.p
    return (rng.random(p.size) < p).nonzero()[0]


def min_conditioning(pi: float) -> float:
    """Smallest condition number for which exploration probability pi is safe."""
    if not 0.0 < pi <= 1.0:
        raise ValueError("pi must lie in (0, 1]")
    s = np.sqrt(pi)
    return float((1.0 - s) / (1.0 + s))


def convergence_gap_ok(dist: SelectorDistribution, gamma: float, mu: float) -> bool:
    """Check p_min / p_max >= (1 - gamma*mu)^2, the linear-rate condition."""
    return dist.p_min / dist.p_max >= (1.0 - gamma * mu) ** 2

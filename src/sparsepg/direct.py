"""Direct high-accuracy solver for composite problems.

Accelerated proximal gradient with gradient-based restart, used as an
independent oracle (reference solutions, proximal points) -- deliberately not
built on the asynchronous engine so that it can validate it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import problem as pb

MAX_ITER = 200_000  # accelerated steps before solve gives up


class SolveBudgetError(RuntimeError):
    def __init__(self, achieved: float, tol: float):
        super().__init__(
            f"direct solver exhausted its budget at accuracy {achieved:.3e} (target {tol:.3e})"
        )
        self.achieved = achieved


def solve(
    problem: pb.CompositeProblem,
    tol: float,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Minimize the composite objective to estimated distance ``tol`` from x*.

    Returns (x, err_estimate).  For mu > 0 the estimate is the subgradient
    error bound dist(0, dF(x)) / mu; for mu = 0 it is the proximal-gradient
    fixed-point residual, which certifies optimality only under quadratic
    growth (unique minimizer), as for nondegenerate l1 problems.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    L = problem.lip
    mu = problem.mu
    gamma = 1.0 / L
    d = problem.dim
    x = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float).copy()
    y = x.copy()
    t = 1.0
    err = np.inf
    for it in range(MAX_ITER):
        g = pb.smooth_gradient(problem, y)
        x_new = pb.prox_reg(problem.reg, gamma, y - gamma * g)
        step = x_new - x
        # gradient-based adaptive restart
        if float((y - x_new) @ step) > 0:
            t = 1.0
            y = x_new.copy()
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = x_new + ((t - 1.0) / t_new) * step
            t = t_new
        x = x_new
        if it % 10 == 0:
            err = _error_estimate(problem, x, gamma)
            if err <= tol:
                return x, err
    raise SolveBudgetError(err, tol)


def _error_estimate(problem: pb.CompositeProblem, x: np.ndarray, gamma: float) -> float:
    g = pb.smooth_gradient(problem, x)
    x_plus = pb.prox_reg(problem.reg, gamma, x - gamma * g)
    resid = (1.0 / gamma + problem.lip) * np.linalg.norm(x - x_plus)
    if problem.mu > 0:
        return resid / problem.mu
    return resid


def polish_l1_least_squares(problem: pb.CompositeProblem, x: np.ndarray) -> np.ndarray:
    """Exact minimizer on the identified support of an l1 least-squares problem.

    On a fixed support with fixed signs the objective is a smooth quadratic
    plus a linear term, solved by one linear system.  Returns the polished
    point when it is optimal for the full problem, else the input unchanged.
    """
    if problem.reg.kind != "l1":
        return x
    if any(s.kind != pb.LEAST_SQUARES or s.ridge_weight > 0 for s in problem.shards):
        return x
    supp = pb.support_of(x)
    if supp.size == 0:
        return x
    d = problem.dim
    lam = problem.reg.lam
    # assemble sum_i alpha_i * (2/m_i) * A_i^T A_i restricted to the support
    H = np.zeros((supp.size, supp.size))
    rhs = np.zeros(supp.size)
    for alpha, s in zip(problem.alphas, problem.shards):
        A_s = s.A[:, supp]
        A_s = A_s.toarray() if sp.issparse(A_s) else A_s
        scale = 2.0 * alpha / s.n_examples
        H += scale * (A_s.T @ A_s)
        rhs += scale * (A_s.T @ s.b)
    signs = np.sign(x[supp])
    try:
        z = np.linalg.solve(H, rhs - lam * signs)
    except np.linalg.LinAlgError:
        return x
    if np.any(np.sign(z) != signs):
        return x
    candidate = np.zeros(d)
    candidate[supp] = z
    # optimality off the support: averaged gradient strictly inside [-lam, lam]
    g = pb.smooth_gradient(problem, candidate)
    off = np.setdiff1d(np.arange(d), supp)
    if off.size and np.max(np.abs(g[off])) > lam:
        return x
    return candidate

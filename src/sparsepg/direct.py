"""Direct high-accuracy solver for composite problems.

Accelerated proximal gradient with gradient-based restart, finished on the
support it identifies, used as an independent oracle (reference solutions,
proximal points) -- deliberately not built on the asynchronous engine so that
it can validate it.
"""

from __future__ import annotations

import numpy as np

from . import problem as pb

MAX_ITER = 200_000  # accelerated steps before solve gives up
_NEWTON_STEPS = 50  # Newton steps of one finish on a support
_NEWTON_QUADRATIC = 1e-10  # squared Newton decrement below which steps are full
_FULL_STEPS = 2  # full steps after that: the second reaches rounding


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

    The estimate is taken every 10 iterations.  At such a checkpoint, when
    supp(x) and its signs are those of the previous checkpoint (the start
    point counts as one) and have not been tried before, the problem
    restricted to S = supp(x) with those signs is solved exactly, provided
    its |S| x |S| system holds no more numbers than the shards store: by one
    linear system when every shard is least squares, by Newton's method when
    every shard is logistic (problems that mix the two losses get no finish).
    That point is returned when its signs are those of x and its error
    estimate is at most ``tol``; otherwise the iterations go on.
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
    room = sum(s.A.nnz if pb.issparse(s.A) else s.A.size for s in problem.shards)
    prev, tried = pb.sign_pattern(x), set()
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
            key = pb.sign_pattern(x)
            if key == prev and key not in tried and np.count_nonzero(x) ** 2 <= room:
                tried.add(key)
                point = _on_support(problem, x)
                if point is not None:
                    point_err = _error_estimate(problem, point, gamma)
                    if point_err <= tol:
                        return point, point_err
            prev = key
    raise SolveBudgetError(err, tol)


def _error_estimate(problem: pb.CompositeProblem, x: np.ndarray, gamma: float) -> float:
    g = pb.smooth_gradient(problem, x)
    x_plus = pb.prox_reg(problem.reg, gamma, x - gamma * g)
    resid = (1.0 / gamma + problem.lip) * np.linalg.norm(x - x_plus)
    if problem.mu > 0:
        return resid / problem.mu
    return resid


def _on_support(problem, x):
    """The minimizer of F over the points with the support and signs of x,
    when it keeps those signs; else None.  On that set the l1 term is linear:
    least-squares shards leave one linear system, logistic shards are handled
    by Newton's method started at x, and mixed shards are not handled."""
    supp = (x != 0).nonzero()[0]
    signs = np.sign(x[supp])
    kinds = {s.kind for s in problem.shards}
    if kinds == {pb.LEAST_SQUARES}:
        z = _least_squares_on_support(problem, supp, signs)
    elif kinds == {pb.LOGISTIC}:
        z = _newton_on_support(problem, supp, signs, x[supp])
    else:
        return None
    if z is None or np.any(np.sign(z) != signs):
        return None
    point = np.zeros(problem.dim)
    point[supp] = z
    return point


def _columns(A, supp: np.ndarray) -> np.ndarray:
    A_s = A[:, supp]
    return A_s.toarray() if pb.issparse(A_s) else A_s


def _least_squares_on_support(problem, supp, signs):
    """Minimizer over x with supp(x) in supp of the least-squares problem with
    its l1 term linearized at ``signs``: one linear system, None when it is
    singular."""
    H = np.zeros((supp.size, supp.size))
    rhs = np.zeros(supp.size)
    diag = np.diag_indices(supp.size)
    # sum_i alpha_i * ((2/m_i) A_i^T A_i + rho I) restricted to the support
    for alpha, s in zip(problem.alphas, problem.shards):
        A_s = _columns(s.A, supp)
        scale = 2.0 * alpha / s.n_examples
        H += scale * (A_s.T @ A_s)
        rhs += scale * (A_s.T @ s.b)
        if problem.rho > 0:
            H[diag] += alpha * problem.rho
            rhs += alpha * problem.rho * problem.center[supp]
    try:
        return np.linalg.solve(H, rhs - problem.reg.lam * signs)
    except np.linalg.LinAlgError:
        return None


def _newton_on_support(problem, supp, signs, z):
    """The same minimizer for logistic shards, by Newton's method with
    backtracking started at z; None when it fails."""
    from scipy.special import expit

    lin = problem.reg.lam * signs
    parts = [(alpha, s, _columns(s.A, supp)) for alpha, s in zip(problem.alphas, problem.shards)]
    diag = np.diag_indices(supp.size)

    def model(z, derivatives=True):
        """Value, gradient and Hessian in z of the smooth part plus lin @ z;
        the ridge term's constant part off supp is left out."""
        v, g, H = float(lin @ z), lin.copy(), np.zeros((z.size, z.size))
        for alpha, s, A_s in parts:
            m, t = s.n_examples, A_s @ z
            v += alpha * (float(np.logaddexp(0.0, -s.b * t).sum()) / m + 0.5 * s.l2 * float(z @ z))
            if derivatives:
                p = expit(-s.b * t)
                g += alpha * (A_s.T @ (-s.b * p) / m + s.l2 * z)
                H += (alpha / m) * ((A_s.T * (p * (1.0 - p))) @ A_s)
                H[diag] += alpha * s.l2
            if problem.rho > 0:
                diff = z - problem.center[supp]
                v += 0.5 * alpha * problem.rho * float(diff @ diff)
                if derivatives:
                    g += alpha * problem.rho * diff
                    H[diag] += alpha * problem.rho
        return v, g, H

    full = 0
    for _ in range(_NEWTON_STEPS):
        v, g, H = model(z)
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            return None
        dec = float(g @ step)  # squared Newton decrement
        if not np.isfinite(dec):
            return None
        t = 1.0
        if dec <= _NEWTON_QUADRATIC:
            full += 1
        else:
            while model(z - t * step, derivatives=False)[0] > v - 0.25 * t * dec:
                t *= 0.5
                if t < 1e-10:
                    return None
        z = z - t * step
        if full == _FULL_STEPS:
            return z
    return None


def polish_l1_least_squares(problem: pb.CompositeProblem, x: np.ndarray) -> np.ndarray:
    """Exact minimizer on the identified support of an l1 least-squares problem.

    On the support and signs of x the objective is a smooth quadratic plus a
    linear term, minimized by one linear system (ridge terms included): the
    system ``solve`` finishes least-squares problems with.
    Returns that point when it keeps the signs of x and its l1 margin
    (``problem.l1_margin``) is not negative: the averaged gradient off the
    support lies within the l1 weight, so that it is optimal for the full
    problem.  Else the input unchanged.
    """
    if problem.reg.kind == "none":
        return x
    if any(s.kind != pb.LEAST_SQUARES for s in problem.shards):
        return x
    if not np.any(x):
        return x
    candidate = _on_support(problem, x)
    if candidate is None or pb.l1_margin(problem, candidate) < 0:
        return x
    return candidate

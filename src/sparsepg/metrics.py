"""Reference solutions, identification detection, and communication complexity."""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
import zipfile
from dataclasses import dataclass, replace

import numpy as np

from . import direct
from . import problem as pb

CACHE_ENV = "SPARSEPG_CACHE"
_CACHE_VERSION = 5  # 5: direct.solve finishes on the identified support
_CALIBRATE_TOL = 1e-10  # solver tolerance of each calibration solve
_MAX_BISECT = 60


# -- reference solutions -----------------------------------------------------


@dataclass(frozen=True)
class ReferenceSolution:
    """High-accuracy minimizer used as the oracle for every metric."""

    x_star: np.ndarray
    f_star: float
    s_star: int
    tol: float
    fingerprint: str


def problem_fingerprint(problem: pb.CompositeProblem) -> str:
    """Hash of the data and hyperparameters identifying a problem instance.

    Shard matrices are hashed in their stored column-major layout: the CSC
    arrays of a sparse shard, the column-by-column bytes of a dense one.  A
    scalar weight is hashed as the repr of ``float(v) + 0.0``, so that 1 and
    1.0, or -0.0 and 0.0, give one fingerprint."""
    h = hashlib.sha256()
    for shard in problem.shards:
        A = shard.A
        if pb.issparse(A):
            import scipy.sparse as sp

            A = sp.csc_matrix(A)
            h.update(A.indptr.tobytes())
            h.update(A.indices.tobytes())
            h.update(np.ascontiguousarray(A.data, dtype=float))
        else:
            h.update(np.ascontiguousarray(A.T, dtype=float))
        h.update(np.ascontiguousarray(shard.b, dtype=float).tobytes())
        l2 = shard.l2 if shard.kind == pb.LOGISTIC else 0.0  # least squares do not read l2
        # the proximal term per shard: the layout cached references are keyed by
        h.update(repr((shard.kind, float(l2) + 0.0, float(problem.rho) + 0.0)).encode())
        if problem.center is not None:
            h.update(problem.center.tobytes())
    h.update(np.ascontiguousarray(problem.alphas, dtype=float).tobytes())
    h.update(repr((problem.reg.kind, float(problem.reg.lam) + 0.0)).encode())
    return h.hexdigest()


def _cache_path(cache_dir, fingerprint: str):
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV)
    if cache_dir is None:
        return None
    os.makedirs(cache_dir, exist_ok=True)
    return os.path.join(cache_dir, f"ref-{fingerprint[:32]}.npz")


def _load_entry(path, fingerprint: str, tol: float, dim: int):
    """(x_star, tol) of a cache entry that fits this problem and tolerance, or
    None.  An entry that is missing, unreadable, from another version or for
    another problem is a miss."""
    try:
        with np.load(path, allow_pickle=False) as z:
            x = z["x_star"]
            if (
                int(z["version"]) == _CACHE_VERSION
                and str(z["fingerprint"]) == fingerprint
                and float(z["tol"]) <= tol
                and x.shape == (dim,)
            ):
                return x, float(z["tol"])
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile):
        pass
    return None


def _store_entry(path, fingerprint: str, tol: float, x: np.ndarray) -> None:
    """Write to a temp file beside ``path`` and rename it into place, so a
    reader never sees a partly written entry."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, version=_CACHE_VERSION, fingerprint=fingerprint, tol=tol, x_star=x)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def reference_solution(
    problem: pb.CompositeProblem,
    tol: float = 1e-12,
    cache_dir=None,
    assume_unique_minimizer: bool = False,
) -> ReferenceSolution:
    """Solve to high accuracy with the direct solver; cache to disk by fingerprint.

    For mu = 0 the residual certificate only bounds the distance to the
    minimizer under quadratic growth, so the caller must assert uniqueness via
    ``assume_unique_minimizer`` (typical for nondegenerate l1 problems, where
    the support-restricted polish then gives machine-precision accuracy).
    """
    if problem.mu <= 0 and not assume_unique_minimizer:
        raise ValueError(
            "the problem is not strongly convex (mu = 0); the error certificate "
            "needs quadratic growth -- pass assume_unique_minimizer=True if the "
            "minimizer is known to be unique (e.g. nondegenerate l1)"
        )
    fingerprint = problem_fingerprint(problem)
    path = _cache_path(cache_dir, fingerprint)
    cached = None if path is None else _load_entry(path, fingerprint, tol, problem.dim)
    if cached is not None:
        x, tol = cached
    else:
        x, err = direct.solve(problem, tol=tol)
        x = direct.polish_l1_least_squares(problem, x)
        if path is not None:
            _store_entry(path, fingerprint, tol, x)
    return ReferenceSolution(
        x_star=x,
        f_star=pb.eval_objective(problem, x),
        s_star=int(np.count_nonzero(x)),
        tol=tol,
        fingerprint=fingerprint,
    )


def check_nondegeneracy(problem: pb.CompositeProblem, ref: ReferenceSolution) -> float:
    """``problem.l1_margin`` at x*: min over j in null(x*) of
    lam_j - |averaged gradient_j|; > 0 certifies that the solution's zero
    pattern is stable (strict complementarity)."""
    return pb.l1_margin(problem, ref.x_star)


# -- identification ----------------------------------------------------------


def identification_time(trace, ref: ReferenceSolution):
    """Smallest logged index after which supp(x) == supp(x*) holds for every
    subsequent iterate; None when the support never stabilizes to supp(x*).

    ``trace`` is any iterable of points: a list, an engine trace (one point per
    epoch) or an outer trace (the initial point, then each outer step's
    result x_ell)."""
    points = list(trace)
    target = ref.x_star != 0
    match = [bool(np.array_equal(x != 0, target)) for x in points]
    lam = None
    for idx in range(len(match) - 1, -1, -1):
        if not match[idx]:
            break
        lam = idx
    return lam


# -- communication complexity ------------------------------------------------


class TargetNotReachedError(RuntimeError):
    def __init__(self, eps: float, best: float):
        super().__init__(
            f"no logged point reached suboptimality {eps:.3e} (best achieved {best:.3e})"
        )
        self.best = best


def empirical_complexity(trace, ref: ReferenceSolution, eps: float) -> int:
    """Exchanged coordinates (up + down) at the first logged point with
    F - F* <= eps.  Requires the run to have logged the objective at a stride."""
    log = trace.objective_log
    if not log:
        raise ValueError("trace has no objective log; rerun with objective_stride")
    best = math.inf
    for point in log:
        gap = point.value - ref.f_star
        best = min(best, gap)
        if gap <= eps:
            return int(point.cum_up + point.cum_down)
    raise TargetNotReachedError(eps, best)


def calibrate_l1(problem_builder, target_support: int, lam_hi: float) -> float:
    """Bisect lam1 in (0, lam_hi] until the solution support size hits target.

    ``problem_builder(lam1)`` must return the problem at that weight.  It is
    called once, at ``lam_hi``; every other weight tried is that problem with
    its regularizer's weight replaced, so the shards are built once.  Each
    solve starts at the solution of the upper bracket, the smallest weight
    tried whose support is at most the target: a warm start along the lam1
    path (Friedman, Hastie and Tibshirani, JSS 2010).  Returns the calibrated
    weight; raises ValueError if the builder's problem is not at ``lam_hi`` or
    no weight it tries hits the target.
    """
    base = problem_builder(lam_hi)
    if base.reg.lam != lam_hi:
        raise ValueError(f"problem_builder({lam_hi}) returned a problem with "
                         f"lam1={base.reg.lam}")

    def solution_at(lam, x0):
        prob = replace(base, reg=replace(base.reg, lam=lam))
        x, _ = direct.solve(prob, tol=_CALIBRATE_TOL, x0=x0)
        return direct.polish_l1_least_squares(prob, x)

    lo, hi = 0.0, lam_hi
    x_hi = solution_at(hi, None)
    s_hi = int(np.count_nonzero(x_hi))
    if s_hi > target_support:
        raise ValueError(f"lam_hi={lam_hi} already gives support {s_hi} > {target_support}")
    if s_hi == target_support:
        return hi
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        x_mid = solution_at(mid, x_hi)
        s_mid = int(np.count_nonzero(x_mid))
        if s_mid == target_support:
            return mid
        if s_mid > target_support:
            lo = mid
        else:
            hi, x_hi = mid, x_mid
    raise ValueError(f"could not calibrate lam1 to support size {target_support}")

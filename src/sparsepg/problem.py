"""Composite objectives F = sum_i alpha_i f_i + r and their basic calculus.

A problem is a collection of data shards (one per worker), each carrying a
smooth local loss, plus a separable regularizer handled through its proximity
operator.  Everything here is a pure function over immutable inputs.

scipy is imported where it is used, never when a module is loaded:
scipy.sparse where a sparse matrix is built or converted, scipy.sparse.linalg
for the eigenvalues of a sparse shard, scipy.special at the first logistic
gradient.  A dense least-squares run loads none of them (together about
20 MB and 0.4 s of start-up), and ``issparse`` answers without loading
scipy.sparse.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray

LEAST_SQUARES = "least_squares"
LOGISTIC = "logistic"

# lambda_min(A^T A) at or below this fraction of lambda_max counts as zero
_ZERO_EIG_RTOL = 1e-9


def issparse(A) -> bool:
    """Whether A is a scipy.sparse matrix or array.  No such object exists
    before scipy.sparse is loaded, so a run that never loaded it is not made
    to."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(A)


def _as_matrix(A):
    # column-major (CSC or Fortran order): gathering the columns of a mask or
    # of a support is a contiguous copy; already column-major input is kept
    if issparse(A):
        import scipy.sparse as sp

        return sp.csc_matrix(A)
    return np.asfortranarray(A, dtype=float)


def _expit(t):
    """The logistic sigmoid, scipy.special.expit.  The first call imports it
    and rebinds this name to it, so later calls go to scipy directly.  Not
    1 / (1 + exp(-t)): that differs from expit by 1 ulp on about 2% of inputs,
    enough to move logistic trajectories."""
    global _expit
    from scipy.special import expit as _expit

    return _expit(t)


def _finite(v) -> bool:
    """Whether every entry of v is finite, from min and max, which carry NaN and
    +-inf: a boolean array of a shard's size added 2 MB to the README lasso's peak.
    The ufuncs skip ndarray.min's Python wrapper."""
    v = np.asarray(v)
    return v.size == 0 or (math.isfinite(np.minimum.reduce(v, axis=None))
                           and math.isfinite(np.maximum.reduce(v, axis=None)))


_FIRST_COLUMNS = 32


class _ColumnStore:
    """Columns of G = A^T A for a dense least-squares shard, and c = A^T b.

    With m >= d the store holds all of G, computed when it is built.  With
    m < d each column is computed the first time its coordinate is in
    supp(x), and at most m columns are kept, so the store never holds more
    numbers than A (m d).  Their buffer starts with room for _FIRST_COLUMNS
    columns and doubles when full.  Columns are only appended, under a lock;
    each is written, and the buffer holding it published, before its position
    is published, so readers take no lock.  Each column is computed alone and
    products run over supp(x) in index order, so while the store has room a
    result does not depend on which columns were stored before, or in what
    order.

    Supports repeat from call to call (an outer loop primes each inner run at
    a center with the support of the last), so once the same support comes
    twice in a row, and its columns are few next to A's (8 |supp| <= m, an
    eighth of A's numbers at most), the store keeps them, gathered in F
    order, until another support comes: full products use them as the gather
    would, and products on coordinates take their rows in C order, the
    layout the gather gives, so every product keeps the gather's bits.  A
    support used once keeps nothing."""

    def __init__(self, A, b):
        m, d = A.shape
        self.A, self.b = A, b
        self.c = A.T @ b
        if m >= d:
            self.cols = A.T @ A  # C order; cols[:, j] = G[:, j]
            self.pos = np.arange(d)
            self.n = d
        else:
            # cols[:, pos[j]] = G[:, j]
            self.cols = np.empty((d, min(m, _FIRST_COLUMNS)), order="F")
            self.pos = np.full(d, -1, dtype=np.intp)
            self.n = 0
        self.lock = threading.Lock()
        # [supp bytes, positions, F-order columns once gathered] of the last
        # support; a new list when the support changes, so readers take no lock
        self.last = None

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in ("lock", "last")}

    def __setstate__(self, state):
        self.__dict__.update(state, lock=threading.Lock(), last=None)

    def product(self, x: Array, coords):
        """(G x - c)[coords], all of it when coords is None.  From all of G:
        O(|coords| d).  Otherwise O(|coords| |supp(x)|), plus O(m d) for each
        column used for the first time, and None when supp(x) is not few or
        the store has no room left for its missing columns."""
        if self.n == x.size:
            G = self.cols
            # take: G[coords], faster
            Gx = G @ x if coords is None else G.take(coords, axis=0).dot(x)
        else:
            supp = (x != 0).nonzero()[0]
            if not _few(supp.size, x.size):
                return None
            key, last = supp.tobytes(), self.last  # read once: another thread may replace it
            seen = last is not None and last[0] == key
            if not seen:
                p = self.pos[supp]
                # the ufunc skips ndarray.min's Python wrapper
                if p.size and np.minimum.reduce(p) < 0:
                    if not self._append(supp[p < 0]):
                        return None
                    p = self.pos[supp]
                last = self.last = [key, p, None]
            p, xs = last[1], x[supp]
            if seen and _few(p.size, self.A.shape[0]):
                if last[2] is None:
                    last[2] = self.cols[:, p]
                G_S = last[2]
                # the rows in C order, as the gather below gives them
                Gx = (G_S if coords is None else np.ascontiguousarray(G_S[coords])) @ xs
            elif coords is None:
                Gx = self.cols[:, p] @ xs
            else:
                Gx = self.cols[np.asarray(coords, dtype=np.intp)[:, None], p] @ xs
        # the product is a new array, and the subtraction writes into it
        return np.subtract(Gx, self.c if coords is None else self.c[coords], out=Gx)

    def _append(self, missing) -> bool:
        with self.lock:
            missing = missing[self.pos[missing] < 0]
            n, m = self.n, self.A.shape[0]
            if n + missing.size > m:
                return False
            cols = self.cols
            if n + missing.size > cols.shape[1]:
                room = min(m, max(n + missing.size, 2 * cols.shape[1]))
                cols = np.empty((cols.shape[0], room), order="F")
                cols[:, :n] = self.cols[:, :n]
            for t, j in enumerate(missing, start=n):
                cols[:, t] = self.A.T @ self.A[:, j]
            self.cols = cols
            self.n = n + missing.size
            self.pos[missing] = np.arange(n, self.n)
            return True


@dataclass(frozen=True)
class LossShard:
    """One worker's data and smooth loss, built and checked once.

    ``kind`` is ``least_squares`` (f(x) = ||Ax-b||^2 / m, ``l2`` ignored) or
    ``logistic`` (mean logistic loss with labels in {-1,+1} plus an l2 term
    of weight ``l2``).  ``A``, finite, is stored column-major.

    ``_cols``, ``mu`` and ``lip`` are derived state, not parameters: the
    columns of A^T A (a ``_ColumnStore``) for a dense least-squares shard,
    all of them when m >= d and those in use when m < d, and None for other
    shards; and the loss's moduli (mu_i, L_i).  Every shard built,
    ``dataclasses.replace`` included, derives its own.
    """

    kind: str
    A: object
    b: Array
    l2: float = 0.0
    _cols: _ColumnStore | None = field(init=False, repr=False, compare=False)
    mu: float = field(init=False, repr=False, compare=False)
    lip: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = _as_matrix(self.A)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if self.kind not in (LEAST_SQUARES, LOGISTIC):
            raise ValueError(f"unknown shard kind {self.kind!r}")
        if A.ndim != 2 or A.shape[0] < 1:
            raise ValueError("shard design matrix must have at least one row")
        if b.shape != (A.shape[0],):
            raise ValueError("label vector length does not match row count")
        if not _finite(b):
            raise ValueError("label vector has non-finite entries")
        if self.kind == LOGISTIC and not np.all(np.abs(b) == 1.0):
            raise ValueError("logistic labels must be exactly +/-1")
        if not (_finite(self.l2) and self.l2 >= 0):
            raise ValueError("l2 weight must be finite and nonnegative")
        # before the eigenvalue solves, which LAPACK and ARPACK do not guard
        if not _finite(A.data if issparse(A) else A):
            raise ValueError("design matrix has non-finite entries")
        dense = self.kind == LEAST_SQUARES and not issparse(A)
        object.__setattr__(self, "_cols", _ColumnStore(A, b) if dense else None)
        mu, lip = _shard_constants(self)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lip", lip)

    @property
    def n_examples(self) -> int:
        return self.A.shape[0]

    @property
    def dim(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class Regularizer:
    """Separable regularizer: none (weight 0) or l1(lam)."""

    kind: str = "none"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "l1"):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if not (_finite(self.lam) and self.lam >= 0):
            raise ValueError("regularization weight must be finite and nonnegative")
        if self.kind == "none" and self.lam != 0:
            raise ValueError("a regularizer of kind 'none' has weight 0")


@dataclass(frozen=True)
class CompositeProblem:
    """F = sum_i alpha_i (f_i + (rho/2)||x - center||^2) + r.  The proximal
    term, the same for every worker, is zero unless ``reconditioned`` set it;
    rho is finite and >= 0, and rho > 0 needs a center.  Derived, never set
    (``replace`` re-derives them): alpha_i = |S_i| / n, mu = min_i mu_i + rho
    and L = max_i L_i + rho."""

    shards: tuple
    reg: Regularizer = Regularizer()
    rho: float = 0.0
    center: Array | None = None
    alphas: Array = field(init=False)
    mu: float = field(init=False)
    lip: float = field(init=False)

    def __post_init__(self):
        shards = tuple(self.shards)
        object.__setattr__(self, "shards", shards)
        if not shards:
            raise ValueError("a problem needs at least one shard")
        d = shards[0].dim
        if any(s.dim != d for s in shards):
            raise ValueError("all shards must share the feature dimension")
        sizes = np.array([s.n_examples for s in shards], dtype=float)
        object.__setattr__(self, "alphas", sizes / sizes.sum())
        self._derive_ridge()

    def _derive_ridge(self):
        """Checks rho and the center, and derives mu and L, which rho shifts."""
        rho = self.rho
        # NaN fails both comparisons, and +-inf would give mu = L = +-inf
        if not (math.isfinite(rho) and rho >= 0):
            raise ValueError(f"rho must be finite and nonnegative, not {rho!r}")
        if rho > 0 and self.center is None:
            raise ValueError("ridge term needs a center")
        if self.center is not None:
            c = np.asarray(self.center, dtype=float)
            if c.shape != (self.dim,):
                raise ValueError("ridge center dimension mismatch")
            if not _finite(c):
                raise ValueError("ridge center has non-finite entries")
            object.__setattr__(self, "center", c)
        object.__setattr__(self, "mu", min(s.mu for s in self.shards) + rho)
        object.__setattr__(self, "lip", max(s.lip for s in self.shards) + rho)

    @property
    def dim(self) -> int:
        return self.shards[0].dim

    @property
    def n_workers(self) -> int:
        return len(self.shards)

    @property
    def kappa(self) -> float:
        return self.mu / self.lip


def reconditioned(problem: CompositeProblem, rho: float, center: Array) -> CompositeProblem:
    """Add (rho/2)||x - center||^2 to every f_i; shifts (mu, L) by rho.

    The result shares the shards of ``problem``.  A problem holds one
    proximal term, so a problem that has one already (a reconditioned
    problem) is refused: recondition the original instead.  The shards,
    their checks and alpha are the problem's, so only rho and the center are
    checked, and mu and L derived."""
    if problem.rho > 0:
        raise ValueError("problem already has a ridge term: recondition the original problem")
    sub = object.__new__(CompositeProblem)
    sub.__dict__.update(vars(problem), rho=rho, center=center)
    sub._derive_ridge()
    return sub


# -- smooth part ------------------------------------------------------------


def _few(k: int, d: int) -> bool:
    """Whether k of d columns are few enough to gather.  On F-order shards of
    150x200, 500x200 and 125x1000, a gather of k columns beat the full product
    up to k = d/6 to d/3; d/8 stays below the smallest of these crossovers."""
    return 8 * k <= d


def _check_dim(shard: LossShard, x) -> Array:
    x = np.asarray(x, dtype=float)
    if x.shape != (shard.dim,):
        raise ValueError(f"expected dimension {shard.dim}, got {x.shape}")
    return x


def _gather_support(x: Array):
    """(supp(x), x[supp(x)]) when supp(x) is few enough to gather its
    columns, None otherwise."""
    if _few(np.count_nonzero(x), x.size):
        supp = (x != 0).nonzero()[0]
        return supp, x[supp]
    return None


def _margins(shard: LossShard, x: Array, gathered) -> Array:
    """A @ x as a new array, from the columns of supp(x) alone when they are
    gathered; ``gathered`` is ``_gather_support(x)``."""
    if gathered is None:
        return shard.A @ x
    supp, xs = gathered
    return shard.A[:, supp] @ xs


def _adjoint(shard: LossShard, r: Array, coords) -> Array:
    """(A^T r)[coords], all of A^T r when coords is None."""
    if coords is None:
        return shard.A.T @ r
    if _few(len(coords), shard.dim):
        return shard.A[:, coords].T @ r
    return (shard.A.T @ r)[coords]


def grad_shard(shard: LossShard, x: Array, coords=None) -> Array:
    """Gradient of the shard's local smooth loss at x; only its entries on
    the index array ``coords`` when given.

    A dense least-squares shard takes it from its column store, as
    (2/m) (G x - c)[coords] with G = A^T A and c = A^T b: O(|coords| d) when
    m >= d and the store holds all of G; O(|coords| |supp(x)|) when m < d,
    while supp(x) is few and the store has room for its columns.  Otherwise
    columns of A are gathered: while coords and supp(x) are small next to d,
    the cost is O(m (|coords| + |supp(x)|)) rather than O(m d)."""
    x = _check_dim(shard, x)
    m = shard.n_examples
    # every product below is a new array, and is scaled in place
    if shard._cols is not None and (Gx := shard._cols.product(x, coords)) is not None:
        Gx *= 2.0 / m
        return Gx
    z = _margins(shard, x, _gather_support(x))
    y = shard.b
    if shard.kind == LEAST_SQUARES:
        z -= y
        g = _adjoint(shard, z, coords)
        g *= 2.0 / m
        return g
    # d/dz log(1 + exp(-y z)) = -y * sigmoid(-y z); -(y z) has the bits of (-y) z
    z *= y
    coeff = _expit(np.negative(z, out=z))
    coeff *= y
    g = _adjoint(shard, np.negative(coeff, out=coeff), coords)
    g /= m
    g += shard.l2 * (x if coords is None else x[coords])
    return g


def local_gradient(problem: CompositeProblem, i: int, x: Array, coords=None) -> Array:
    """Gradient at x of worker i's smooth loss f_i + (rho/2)||x - center||^2;
    only its entries on the index array ``coords`` when given."""
    g = grad_shard(problem.shards[i], x, coords)
    if problem.rho > 0:
        # g is grad_shard's own new array, and so is the difference
        if coords is None:
            diff = x - problem.center
        else:
            diff = x[coords]
            diff -= problem.center[coords]
        diff *= problem.rho
        g += diff
    return g


def shard_value(shard: LossShard, x: Array) -> float:
    x = _check_dim(shard, x)
    return _value(shard, x, _margins(shard, x, _gather_support(x)))


def _value(shard: LossShard, x: Array, z: Array) -> float:
    """The shard's loss at x, given its margins z = A @ x."""
    m = shard.n_examples
    # in place on the new array z; (z - b)**2 is z * z, -(b z) has the bits of
    # (-b) z, and np.add.reduce is ndarray.sum without its Python wrapper
    if shard.kind == LEAST_SQUARES:
        z -= shard.b
        v = float(np.add.reduce(np.multiply(z, z, out=z))) / m
    else:
        z *= shard.b
        v = float(np.add.reduce(np.logaddexp(0.0, np.negative(z, out=z), out=z))) / m
        v += 0.5 * shard.l2 * float(x @ x)
    return v


def _gram_extreme_eigs(A, gram=None) -> tuple[float, float]:
    """(lambda_min, lambda_max) of A^T A, exact up to rounding.

    Dense A: ``eigvalsh`` of the Gram matrix of the shorter side, A^T A or
    A A^T; both have the nonzero spectrum of A^T A and no more entries than A.
    ``gram``, when given, is that matrix already formed.
    Sparse A: Lanczos on v -> A^T (A v), and on lambda_max I - A^T A for
    lambda_min.  lambda_min is 0 when A has fewer rows than columns or when
    it is at most 1e-9 lambda_max.
    """
    m, d = A.shape
    if issparse(A):
        lam_min, lam_max = _lanczos_extreme_eigs(A)
    else:
        if gram is None:
            gram = A.T @ A if m >= d else A @ A.T
        eigs = np.linalg.eigvalsh(gram)
        lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    lam_max = max(lam_max, 0.0)
    if m < d or lam_min <= _ZERO_EIG_RTOL * lam_max:
        lam_min = 0.0
    return lam_min, lam_max


def _lanczos_extreme_eigs(A) -> tuple[float, float]:
    """Extreme eigenvalues of A^T A for a sparse A, by ARPACK's Lanczos.

    lambda_min is only computed when A has at least as many rows as columns.
    """
    # imported here, as the module docstring says: 10 MB and 0.15 s more than scipy.sparse
    from scipy.sparse.linalg import LinearOperator, eigsh

    m, d = A.shape
    if not A.count_nonzero():
        return 0.0, 0.0  # ARPACK rejects the zero operator
    if d == 1:
        lam = float(A.power(2).sum())  # ARPACK needs k = 1 < d
        return lam, lam
    v0 = np.random.default_rng(0).standard_normal(d)

    def gram(v):
        return A.T @ (A @ v)

    def top(matvec) -> float:
        op = LinearOperator((d, d), matvec=matvec, dtype=float)
        return float(eigsh(op, k=1, which="LA", v0=v0, return_eigenvectors=False)[0])

    lam_max = top(gram)
    if m < d:
        return 0.0, lam_max

    def shifted(v):
        return lam_max * v - gram(v)

    if not np.any(shifted(v0)):
        return lam_max, lam_max  # A^T A = lambda_max I: ARPACK rejects the zero operator
    return lam_max - top(shifted), lam_max


def _shard_constants(shard: LossShard) -> tuple[float, float]:
    store = shard._cols
    full = store is not None and store.n == shard.dim
    lam_min, lam_max = _gram_extreme_eigs(shard.A, store.cols if full else None)
    m = shard.n_examples
    if shard.kind == LEAST_SQUARES:
        mu = 2.0 * lam_min / m
        lip = 2.0 * lam_max / m
    else:
        mu = shard.l2
        lip = lam_max / (4.0 * m) + shard.l2
    return mu, lip


# -- regularizer ------------------------------------------------------------


def prox_reg(reg: Regularizer, gamma: float, u: Array) -> Array:
    """prox_{gamma * r}(u) as a new array whose zeros are +0.0; soft-thresholding for l1."""
    if gamma <= 0:
        raise ValueError("stepsize must be positive")
    u = np.asarray(u, dtype=float)
    if reg.kind == "none":
        return u + 0.0
    t = gamma * reg.lam  # u -+ t rounds as |u| - t does, and u - u is +0.0
    return u - u.clip(-t, t)  # the method: np.clip without its Python wrapper


def reg_value(reg: Regularizer, x: Array) -> float:
    if reg.kind == "none":
        return 0.0
    return reg.lam * float(np.add.reduce(np.abs(x), axis=None))


def l1_margin(problem: CompositeProblem, x: Array) -> float:
    """min over the zeros j of x of lam - |grad_j f(x)|, f the smooth part;
    lam when x has no zero.  At a minimizer x*, a margin > 0 is strict
    complementarity: the zero pattern of x* is stable (Hare and Lewis,
    J. Convex Anal. 2004).  At any x, a margin < 0 shows that x is not a
    minimizer."""
    if problem.reg.kind == "none":
        raise ValueError("the l1 margin is defined for l1 regularizers")
    lam = problem.reg.lam
    null = null_pattern(x)
    if null.size == 0:
        return float(lam)
    g = smooth_gradient(problem, x)
    return float(np.min(lam - np.abs(g[null])))


# -- whole objective --------------------------------------------------------


def smooth_gradient(problem: CompositeProblem, x: Array) -> Array:
    """Gradient of the alpha-weighted smooth part at x."""
    g = np.zeros(problem.dim)
    for i, alpha in enumerate(problem.alphas):
        g += alpha * local_gradient(problem, i, x)
    return g


def eval_objective(problem: CompositeProblem, x: Array) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"expected dimension {problem.dim}, got {x.shape}")
    # supp(x) and x on it are gathered once, and every shard gathers its columns
    gathered = _gather_support(x)
    ridge = 0.0
    if problem.rho > 0:
        diff = x - problem.center
        ridge = 0.5 * problem.rho * float(diff @ diff)
    v = sum(a * (_value(s, x, _margins(s, x, gathered)) + ridge)
            for a, s in zip(problem.alphas, problem.shards))
    return float(v) + reg_value(problem.reg, x)


def null_pattern(x: Array) -> np.ndarray:
    """Indices with x_j = 0 (-0.0 included): the complement of the support
    ``(x != 0).nonzero()[0]``, which holds NaN and every other nonzero."""
    return (np.asarray(x) == 0).nonzero()[0]


def sign_pattern(x: Array) -> bytes:
    """supp(x) and its signs, as bytes: -0.0 reads as 0."""
    return np.packbits(x > 0).tobytes() + np.packbits(x < 0).tobytes()

"""The direct solver: accelerated proximal gradient finished by an exact solve
on the support it identifies, returned only with its certificate."""

from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepg import data, direct, problem as pb

from conftest import mu_pos_lasso


def _problem(seed, sparse, kind, d=10, M=2):
    """A strongly convex l1 problem whose minimizer has a few nonzeros."""
    rng = np.random.default_rng(seed)
    x_true = np.zeros(d)
    x_true[rng.choice(d, 3, replace=False)] = rng.standard_normal(3) * 2.0
    shards = []
    for _ in range(M):
        if sparse:
            # the identity rows give A full column rank, so mu > 0
            A = sp.vstack([sp.random(2 * d, d, density=0.3, random_state=rng),
                           sp.identity(d)]).tocsc()
        else:
            A = rng.standard_normal((d + 6, d))
        z = A @ x_true + 0.1 * rng.standard_normal(A.shape[0])
        if kind == pb.LEAST_SQUARES:
            shards.append(pb.LossShard(kind=kind, A=A, b=z))
        else:
            shards.append(pb.LossShard(kind=kind, A=A, b=np.where(z >= 0, 1.0, -1.0), l2=0.05))
    base = pb.CompositeProblem(shards, reg=pb.Regularizer("l1", 1.0))
    lam_max = float(np.max(np.abs(pb.smooth_gradient(base, np.zeros(d)))))
    lam = rng.uniform(0.05, 0.5) * lam_max
    return pb.CompositeProblem(shards, reg=pb.Regularizer("l1", lam))


def _trap(prob, rho, rng):
    """``prob`` reconditioned at a center chosen so that a start x0, returned
    with it, holds a wrong support S of two coordinates: the first proximal
    gradient step keeps supp(x0) and its signs, the exact solution z on S
    keeps them too, and z is not optimal, as |grad_j F(z)| > 1.5 lam at some
    j off S.  Only the error estimate can refuse z.  None when no such S,
    signs and radii are found among those tried."""
    d = prob.dim
    lam = prob.reg.lam
    for _ in range(6):
        S = rng.choice(d, 2, replace=False)
        s = rng.choice([-1.0, 1.0], 2)
        off = np.setdiff1d(np.arange(d), S)
        for r0, r1 in ((0.1, 2.0), (2.0, 0.1), (0.1, 8.0), (8.0, 0.1)):
            x0, z = np.zeros(d), np.zeros(d)
            x0[S], z[S] = r0 * s, r1 * s
            gx0, gz = pb.smooth_gradient(prob, x0), pb.smooth_gradient(prob, z)
            if np.max(np.abs(gx0[off] - gz[off]) / lam) <= 1.5:
                continue
            # with the ridge term, grad F is -lam s on S at z and 0 off S at x0
            center = np.empty(d)
            center[S] = z[S] + (gz[S] + lam * s) / rho
            center[off] = gx0[off] / rho
            sub = pb.reconditioned(prob, rho, center)
            gamma = 1.0 / sub.lip
            x1 = pb.prox_reg(sub.reg, gamma, x0 - gamma * pb.smooth_gradient(sub, x0))
            if np.array_equal(np.sign(x1), np.sign(x0)):
                return sub, x0
    return None


class TestSupportFinish:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), sparse=st.booleans(),
           kind=st.sampled_from([pb.LEAST_SQUARES, pb.LOGISTIC]),
           start=st.sampled_from(["zero", "zero-ridge", "random-ridge", "trap"]))
    def test_certified_and_equal_to_proximal_gradient_alone(
            self, seed, sparse, kind, start):
        prob = _problem(seed, sparse, kind)
        rng = np.random.default_rng(seed + 1)
        rho = rng.uniform(0.1, 2.0)
        x0 = None
        trap = _trap(prob, rho, rng) if start == "trap" else None
        if trap is not None:
            prob, x0 = trap
        elif start != "zero":
            sparse_point = np.where(rng.random(prob.dim) < 0.4, rng.standard_normal(prob.dim), 0.0)
            prob = pb.reconditioned(prob, rho, sparse_point)
            if start == "random-ridge":
                x0 = np.where(rng.random(prob.dim) < 0.3, rng.standard_normal(prob.dim), 0.0)
        tol = 1e-10
        x, err = direct.solve(prob, tol=tol, x0=x0)
        assert err <= tol
        assert direct._error_estimate(prob, x, 1.0 / prob.lip) <= tol
        with mock.patch.object(direct, "_on_support", lambda problem, x: None):
            x_pg, _ = direct.solve(prob, tol=tol, x0=x0)
        # each is within 1.5 tol of x* (mu > 0)
        assert np.linalg.norm(x - x_pg) <= 3 * tol

        if kind != pb.LEAST_SQUARES:
            return
        # polish keeps x* and refuses a support with a coordinate too many:
        # on it the exact solution flips that coordinate's sign
        assert np.linalg.norm(direct.polish_l1_least_squares(prob, x) - x) <= 1e-9
        for j in np.flatnonzero(x == 0)[:3]:
            for sign in (1.0, -1.0):
                guess = x.copy()
                guess[j] = sign * 1e-3
                out = direct.polish_l1_least_squares(prob, guess)
                assert out is guess or np.linalg.norm(out - x) <= 1e-9

    def test_least_squares_finish_is_the_polished_point(self):
        ds, _ = data.generate_lasso(d=40, m=60, sparsity=0.9, noise_std=0.01, seed=11)
        prob = data.lasso_problem(ds, data.shard_even(ds, 3, seed=11), lam1=0.2)
        x, err = direct.solve(prob, tol=1e-12)
        assert err <= 1e-12
        assert direct.polish_l1_least_squares(prob, x).tobytes() == x.tobytes()
        # proximal gradient alone stops at a point that polish still moves
        with mock.patch.object(direct, "_on_support", lambda problem, x: None):
            x_pg, _ = direct.solve(prob, tol=1e-12)
        assert direct.polish_l1_least_squares(prob, x_pg).tobytes() == x.tobytes()
        assert x_pg.tobytes() != x.tobytes()

    def test_logistic_finish_by_newton(self):
        prob = _problem(3, False, pb.LOGISTIC, d=30, M=3)
        steps = []
        newton = direct._newton_on_support

        def counted(*args):
            z = newton(*args)
            steps.append(z is not None)
            return z

        with mock.patch.object(direct, "_newton_on_support", counted):
            x, err = direct.solve(prob, tol=1e-12)
        assert err <= 1e-12
        assert steps and steps[-1]

    def test_support_too_large_for_the_shards_is_not_solved(self):
        # x* has all 6 entries nonzero, a 36-entry system: it is solved when
        # the shard stores 8 x 6 numbers, not when it stores 2 x 6
        rng = np.random.default_rng(5)
        center = np.array([1.0, -1.0, 2.0, -2.0, 1.5, -1.5])
        for m, room in ((2, False), (8, True)):
            shard = pb.LossShard(kind=pb.LEAST_SQUARES, A=rng.standard_normal((m, 6)),
                                 b=rng.standard_normal(m))
            prob = pb.reconditioned(
                pb.CompositeProblem([shard], pb.Regularizer("l1", 0.01)), 1.0, center)
            seen = []
            on_support = direct._on_support

            def counted(problem, x):
                seen.append(np.count_nonzero(x))
                return on_support(problem, x)

            with mock.patch.object(direct, "_on_support", counted):
                x, _ = direct.solve(prob, tol=1e-12, x0=center)
            assert np.count_nonzero(x) == 6
            assert all(k * k <= m * 6 for k in seen)
            assert bool(seen) == room


class TestPolish:
    def test_support_missing_a_coordinate_returns_input(self):
        # x* with one of its nonzeros set to 0: where the exact solution on
        # the smaller support keeps its signs, the gradient of the zeroed
        # coordinate exceeds its weight (a negative l1 margin), so that
        # solution is refused; either way polish returns its input
        prob = mu_pos_lasso()
        x, _ = direct.solve(prob, tol=1e-12)
        x_star = direct.polish_l1_least_squares(prob, x)
        assert pb.l1_margin(prob, x_star) > 0
        refused = 0
        for j in (x_star != 0).nonzero()[0]:
            x = x_star.copy()
            x[j] = 0.0
            assert direct.polish_l1_least_squares(prob, x) is x
            candidate = direct._on_support(prob, x)
            if candidate is not None:
                assert pb.l1_margin(prob, candidate) < 0
                refused += 1
        assert refused >= 5

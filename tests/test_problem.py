import dataclasses
import os
import pickle
import subprocess
import sys
import textwrap
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsepg import data, engine, metrics, problem as pb, recondition as rc
from sparsepg.sparsifier import uniform_distribution

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_child(code, *flags):
    """Standard output, stripped, of ``code`` run by a fresh interpreter on
    this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, *flags, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip()


def quad_shard(a=1.0, b=0.0):
    return pb.LossShard(kind=pb.LEAST_SQUARES, A=np.array([[a]]), b=np.array([b]))


def random_problem(rng, d=6, M=3, kind=pb.LEAST_SQUARES, reg=None, l2=0.0):
    shards = []
    for _ in range(M):
        m = int(rng.integers(4, 9))
        A = rng.standard_normal((m, d))
        if kind == pb.LOGISTIC:
            b = rng.choice([-1.0, 1.0], size=m)
        else:
            b = rng.standard_normal(m)
        shards.append(pb.LossShard(kind=kind, A=A, b=b, l2=l2))
    return pb.CompositeProblem(shards, reg=reg or pb.Regularizer())


class TestShardValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            pb.LossShard(kind="hinge", A=np.eye(2), b=np.zeros(2))

    def test_label_mismatch(self):
        with pytest.raises(ValueError):
            pb.LossShard(kind=pb.LEAST_SQUARES, A=np.eye(2), b=np.zeros(3))

    def test_logistic_labels_must_be_pm1(self):
        with pytest.raises(ValueError):
            pb.LossShard(kind=pb.LOGISTIC, A=np.eye(2), b=np.array([1.0, 0.5]))

    @pytest.mark.parametrize("kind", [pb.LEAST_SQUARES, pb.LOGISTIC])
    @pytest.mark.parametrize("l2", [-1.0, np.inf, np.nan])
    def test_l2_must_be_finite_and_nonnegative(self, kind, l2):
        with pytest.raises(ValueError, match="l2 weight must be finite and nonnegative"):
            pb.LossShard(kind=kind, A=np.eye(2), b=np.ones(2), l2=l2)

    def test_ridge_needs_center(self):
        prob = pb.CompositeProblem([pb.LossShard(kind=pb.LEAST_SQUARES, A=np.eye(2),
                                                  b=np.zeros(2))])
        with pytest.raises(ValueError, match="center"):
            replace(prob, rho=1.0)

    @pytest.mark.parametrize("rho", [np.nan, np.inf, -np.inf, -1.0])
    def test_rho_must_be_finite_and_nonnegative(self, rho):
        # NaN passed both sign tests, and a NaN or infinite rho gave mu = L = NaN or inf
        shard = pb.LossShard(kind=pb.LEAST_SQUARES, A=np.eye(2), b=np.zeros(2))
        prob = pb.CompositeProblem([shard])
        center = np.zeros(2)
        for build in (lambda: pb.CompositeProblem([shard], rho=rho, center=center),
                      lambda: replace(prob, rho=rho, center=center),
                      lambda: pb.reconditioned(prob, rho, center)):
            with pytest.raises(ValueError, match="rho must be finite and nonnegative"):
                build()

    def test_reconditioned_derives_its_moduli_and_shares_the_rest(self):
        shards = [pb.LossShard(kind=pb.LEAST_SQUARES, A=np.diag([1.0, 2.0]), b=np.ones(2)),
                  pb.LossShard(kind=pb.LEAST_SQUARES, A=np.eye(3)[:, :2], b=np.ones(3))]
        prob = pb.CompositeProblem(shards, reg=pb.Regularizer("l1", 0.1))
        sub = pb.reconditioned(prob, 0.5, [1.0, -1.0])
        built = pb.CompositeProblem(shards, reg=prob.reg, rho=0.5, center=np.array([1.0, -1.0]))
        for name in ("rho", "mu", "lip"):
            assert getattr(sub, name) == getattr(built, name)
        assert sub.alphas.tobytes() == built.alphas.tobytes()
        assert sub.center.tobytes() == built.center.tobytes()
        assert sub.shards is prob.shards and sub.reg is prob.reg
        with pytest.raises(ValueError, match="ridge center dimension mismatch"):
            pb.reconditioned(prob, 0.5, np.zeros(3))
        with pytest.raises(ValueError, match="ridge center has non-finite entries"):
            pb.reconditioned(prob, 0.5, [np.nan, 0.0])


class TestGradShard:
    def test_gradient_at_minimizer_is_zero(self):
        assert pb.grad_shard(quad_shard(1, 0), np.zeros(1)) == pytest.approx([0.0])

    def test_hand_derived_value(self):
        # f(x) = (x-2)^2 with m=1 => f'(0) = -4
        assert pb.grad_shard(quad_shard(1, 2), np.zeros(1)) == pytest.approx([-4.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pb.grad_shard(quad_shard(), np.zeros(2))

    @pytest.mark.parametrize("kind", [pb.LEAST_SQUARES, pb.LOGISTIC])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(0)
        for trial in range(50):
            m, d = int(rng.integers(3, 8)), int(rng.integers(2, 6))
            A = rng.standard_normal((m, d))
            b = rng.choice([-1.0, 1.0], size=m) if kind == pb.LOGISTIC else rng.standard_normal(m)
            shard = pb.LossShard(kind=kind, A=A, b=b, l2=0.05 if kind == pb.LOGISTIC else 0.0)
            x = rng.standard_normal(d)
            g = pb.grad_shard(shard, x)
            h = 1e-6
            fd = np.array([
                (pb.shard_value(shard, x + h * e) - pb.shard_value(shard, x - h * e)) / (2 * h)
                for e in np.eye(d)
            ])
            assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(g), 1.0)

    def test_ridge_term(self):
        prob = pb.reconditioned(pb.CompositeProblem([quad_shard(1, 0)]), 3.0, np.array([1.0]))
        # grad = 2x + 3(x - 1); at x=2: 4 + 3 = 7
        assert pb.local_gradient(prob, 0, np.array([2.0])) == pytest.approx([7.0])


class TestSmoothnessConstants:
    def test_scalar_shard(self):
        prob = pb.CompositeProblem([quad_shard(1, 0)])
        assert (prob.mu, prob.lip) == pytest.approx((2.0, 2.0))

    def test_logistic_mu_is_l2(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((10, 3))
        shard = pb.LossShard(kind=pb.LOGISTIC, A=A, b=np.sign(rng.standard_normal(10)), l2=0.001)
        prob = pb.CompositeProblem([shard])
        assert prob.mu == pytest.approx(0.001)

    def test_two_identical_shards_match_one(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((8, 4))
        b = rng.standard_normal(8)
        one = pb.CompositeProblem([pb.LossShard(kind=pb.LEAST_SQUARES, A=A, b=b)])
        two = pb.CompositeProblem([
            pb.LossShard(kind=pb.LEAST_SQUARES, A=A, b=b),
            pb.LossShard(kind=pb.LEAST_SQUARES, A=A, b=b),
        ])
        assert (two.mu, two.lip) == pytest.approx((one.mu, one.lip), rel=1e-6)

    def test_rank_deficient_gives_mu_zero(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 6))  # fewer rows than columns
        prob = pb.CompositeProblem([pb.LossShard(kind=pb.LEAST_SQUARES, A=A, b=np.zeros(3))])
        assert prob.mu == 0.0

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((12, 5))
        prob = pb.CompositeProblem([pb.LossShard(kind=pb.LEAST_SQUARES, A=A, b=np.zeros(12))])
        eigs = np.linalg.eigvalsh(A.T @ A)
        assert prob.lip == pytest.approx(2 * eigs[-1] / 12, rel=1e-6)
        assert prob.mu == pytest.approx(2 * eigs[0] / 12, rel=1e-4)

    def test_empty_shards_error(self):
        with pytest.raises(ValueError):
            pb.CompositeProblem([])


def _csc(rng, m, d, density):
    return sp.random(m, d, density=density, format="csc", random_state=rng,
                     data_rvs=rng.standard_normal)


_SHAPES = {
    "dense tall": lambda rng: rng.standard_normal((40, 12)),
    "dense wide": lambda rng: rng.standard_normal((9, 25)),
    "csc tall": lambda rng: _csc(rng, 300, 40, 0.1),
    "csc wide": lambda rng: _csc(rng, 20, 60, 0.2),
    "csc two columns": lambda rng: _csc(rng, 9, 2, 1.0),
    "dense d=1": lambda rng: rng.standard_normal((7, 1)),
    "csc d=1": lambda rng: _csc(rng, 7, 1, 1.0),
    "csc identity": lambda rng: sp.identity(6, format="csc"),
    "dense all-zero": lambda rng: np.zeros((5, 4)),
    "csc all-zero": lambda rng: sp.csc_matrix((5, 4)),
}


class TestExactConstants:
    """(mu, L) equal the extremes of the dense eigensolver's spectrum of A^T A."""

    @staticmethod
    def exact_extremes(A):
        D = A.toarray() if sp.issparse(A) else A
        m, d = D.shape
        eigs = np.linalg.eigvalsh(D.T @ D)
        lam_min = eigs[0] if m >= d and eigs[0] > 1e-9 * eigs[-1] else 0.0
        return lam_min, eigs[-1]

    @pytest.mark.parametrize("shape", list(_SHAPES))
    @pytest.mark.parametrize("kind", [pb.LEAST_SQUARES, pb.LOGISTIC])
    def test_equal_to_eigvalsh(self, shape, kind):
        rng = np.random.default_rng(11)
        A = _SHAPES[shape](rng)
        m = A.shape[0]
        b = rng.choice([-1.0, 1.0], size=m)
        shard = pb.LossShard(kind=kind, A=A, b=b, l2=0.01 if kind == pb.LOGISTIC else 0.0)
        prob = pb.CompositeProblem([shard])
        mu, lip = prob.mu, prob.lip
        lam_min, lam_max = self.exact_extremes(A)
        if kind == pb.LEAST_SQUARES:
            want = (2 * lam_min / m, 2 * lam_max / m)
        else:
            want = (0.01, lam_max / (4 * m) + 0.01)
        assert mu == pytest.approx(want[0], rel=1e-10, abs=1e-300)
        assert lip == pytest.approx(want[1], rel=1e-10, abs=1e-300)

    def test_mu_not_overestimated_on_lasso_shard(self):
        # a power iteration stopped at 1e-9 between steps gave 68.74 here
        ds, _ = data.generate_lasso(d=200, m=2000, sparsity=0.96, noise_std=0.01, seed=0)
        plan = data.shard_even(ds, M=4, seed=0)
        A = data.make_shards(ds, plan, pb.LEAST_SQUARES)[0].A
        lam_min, lam_max = pb._gram_extreme_eigs(A)
        eigs = np.linalg.eigvalsh(A.T @ A)
        assert lam_min == pytest.approx(eigs[0], rel=1e-10)
        assert lam_max == pytest.approx(eigs[-1], rel=1e-10)

    def test_dense_problem_does_not_import_sparse_linalg(self):
        code = (
            "import sys, numpy as np\n"
            "from sparsepg import problem as pb\n"
            "A = np.random.default_rng(0).standard_normal((30, 8))\n"
            "pb.CompositeProblem([pb.LossShard(kind=pb.LEAST_SQUARES, A=A, b=np.zeros(30))])\n"
            "print('scipy.sparse.linalg' in sys.modules)\n"
        )
        assert run_child(code) == "False"


# the child programs of TestScipyImports: each prints which of scipy.sparse
# and scipy.special it loaded
RUN_CONFIG = textwrap.dedent(r"""
    import pathlib, sys, tempfile
    from sparsepg import cli

    def run(text, *args):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp, "exp.ini")
            path.write_text(text)
            code = cli.main(["run", "--config", str(path), "--out", tmp + "/out", *args])
            assert code == cli.EXIT_OK, code

    PROBLEM = "[problem]\nd = 40\nm = 60\nsparsity = 0.9\ndata_seed = 4\n"
    RUN = "[run]\nworkers = 3\nc = 5\nseeds = 1\nlog_stride = 5\n"
""")
PRINT_LOADED = textwrap.dedent("""
    print(*[m for m in ("scipy.sparse", "scipy.special") if m in sys.modules])
""")


class TestScipyImports:
    def test_dense_lasso_run_loads_neither_sparse_nor_special(self):
        # calibrate_l1 (no lam1) and reference_solution run inside cli.main
        code = RUN_CONFIG + textwrap.dedent(r"""
            for algorithm in ("reconditioned", "davepg"):
                run(PROBLEM + "target_support = 5\n" + RUN + f"algorithm = {algorithm}\n")
        """) + PRINT_LOADED
        assert run_child(code) == ""

    def test_logistic_run_loads_special_not_sparse(self):
        # in concurrent mode the worker threads reach the first sigmoid together
        code = RUN_CONFIG + textwrap.dedent(r"""
            logistic = PROBLEM + "kind = synthetic-logistic\nlam1 = 0.02\n"
            run(logistic + RUN + "algorithm = davepg\n", "--mode", "concurrent")
        """) + PRINT_LOADED
        assert run_child(code, "-X", "dev") == "scipy.special"

    def test_libsvm_problem_loads_sparse_and_solves_as_dense(self):
        code = textwrap.dedent(r"""
            import io, sys
            import numpy as np
            from sparsepg import data, metrics

            rng = np.random.default_rng(1)
            X = rng.standard_normal((60, 12)) * (rng.random((60, 12)) < 0.5)
            y = X @ np.r_[2.0, -1.0, np.zeros(10)] + 0.01 * rng.standard_normal(60)
            text = "".join(f"{t!r} " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(r) if v)
                           + "\n" for t, r in zip(y.tolist(), X.tolist()))
            sparse = data.parse_libsvm(io.StringIO(text))
            dense = data.Dataset(X=sparse.X.toarray(), y=sparse.y)
            plan = data.shard_even(sparse, 3, seed=0)
            x = [metrics.reference_solution(data.lasso_problem(ds, plan, 0.1),
                                            assume_unique_minimizer=True).x_star
                 for ds in (sparse, dense)]
            assert np.count_nonzero(x[0]) > 0
            assert np.allclose(x[0], x[1], rtol=0, atol=1e-9)
        """) + PRINT_LOADED
        assert run_child(code) == "scipy.sparse"


class TestProx:
    def test_soft_threshold_example(self):
        reg = pb.Regularizer(kind="l1", lam=1.0)
        out = pb.prox_reg(reg, 1.0, np.array([2.5, -0.5, 0.3]))
        assert out == pytest.approx([1.5, 0.0, 0.0])

    def test_none_is_identity(self):
        u = np.array([3.0, -1.0])
        assert pb.prox_reg(pb.Regularizer(), 0.5, u) == pytest.approx(u)

    def test_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            pb.prox_reg(pb.Regularizer(kind="l1", lam=1.0), 0.0, np.zeros(2))

    def test_against_grid_search(self):
        # brute-force argmin of lam*|y| + (y-u)^2/2 on a fine grid
        reg = pb.Regularizer(kind="l1", lam=0.7)
        u = np.array([1.0])
        grid = np.arange(-3, 3, 1e-5)
        best = grid[np.argmin(0.3 * 0.7 * np.abs(grid) + 0.5 * (grid - u[0]) ** 2)]
        assert abs(pb.prox_reg(reg, 0.3, u)[0] - best) < 1e-4

    @settings(max_examples=50, deadline=None)
    @given(
        u=arrays(np.float64, 5, elements=st.floats(-50, 50)),
        v=arrays(np.float64, 5, elements=st.floats(-50, 50)),
        lam=st.floats(0.01, 10),
        gamma=st.floats(0.01, 10),
    )
    def test_nonexpansive(self, u, v, lam, gamma):
        reg = pb.Regularizer(kind="l1", lam=lam)
        pu, pv = pb.prox_reg(reg, gamma, u), pb.prox_reg(reg, gamma, v)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        u=arrays(np.float64, 5, elements=st.floats(-50, 50)),
        lam=st.floats(0.01, 10),
        gamma=st.floats(0.01, 10),
    )
    def test_shrinkage(self, u, lam, gamma):
        out = pb.prox_reg(pb.Regularizer(kind="l1", lam=lam), gamma, u)
        assert np.all(np.abs(out) <= np.abs(u) + 1e-12)
        assert np.all(np.sign(out) * np.sign(u) >= 0)


def _old_soft_threshold(u, t):
    return np.sign(u) * np.maximum(np.abs(u) - t, 0.0)


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308, 1.0, -1.0]


class TestProxZeros:
    @settings(max_examples=300, deadline=None)
    @given(
        u=arrays(np.float64, st.integers(1, 40),
                 elements=st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True))),
        lam=st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(0, 1e10)),
        gamma=st.one_of(st.sampled_from([5e-324, 1.0]), st.floats(1e-10, 10)),
    )
    @example(u=np.array([-0.0, 0.0, -1.0]), lam=0.0, gamma=1.0)
    @example(u=np.array([-0.5, -0.0]), lam=1.0, gamma=1.0)
    def test_zeros_are_positive(self, u, lam, gamma):
        # soft-thresholding writes +0.0; each nonzero keeps the bytes of
        # sign(u) max(|u| - t, 0), and NaN stays NaN
        out = pb.prox_reg(pb.Regularizer(kind="l1", lam=lam), gamma, u)
        old = _old_soft_threshold(u, gamma * lam)
        assert not np.signbit(out[out == 0]).any()
        assert np.array_equal(out == 0, old == 0)
        assert np.array_equal(np.isnan(out), np.isnan(old))
        kept = (old != 0) & ~np.isnan(old)
        assert out[kept].tobytes() == old[kept].tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        u=arrays(np.float64, st.integers(1, 40),
                 elements=st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True))),
        lam_gamma=st.one_of(
            st.sampled_from([(0.0, 1.0), (5e-324, 1.0), (1e308, 10.0)]),  # t = 0, 5e-324, inf
            st.tuples(st.floats(0, 1e10), st.floats(1e-10, 10))),
    )
    @example(u=np.array(_SPECIAL), lam_gamma=(0.0, 1.0))
    @example(u=np.array(_SPECIAL), lam_gamma=(5e-324, 1.0))
    @example(u=np.array(_SPECIAL), lam_gamma=(0.5, 1.0))
    @example(u=np.array(_SPECIAL), lam_gamma=(1e308, 10.0))
    def test_bytes_of_the_clip_formula(self, u, lam_gamma):
        # the bytes of u - np.clip(u, -t, t), t = gamma lam, whichever clip
        # spelling prox_reg uses
        lam, gamma = lam_gamma
        t = gamma * lam
        with np.errstate(invalid="ignore"):  # inf - inf is NaN in both
            out = pb.prox_reg(pb.Regularizer(kind="l1", lam=lam), gamma, u)
            assert out.tobytes() == (u - np.clip(u, -t, t)).tobytes()

    def test_none_writes_positive_zero(self):
        u = np.array([-0.0, 0.0, -2.0, np.inf])
        out = pb.prox_reg(pb.Regularizer(), 0.5, u)
        assert out.tobytes() == np.array([0.0, 0.0, -2.0, np.inf]).tobytes()
        assert out is not u and np.signbit(u[0])


class TestObjective:
    def test_zero_point(self):
        rng = np.random.default_rng(5)
        prob = random_problem(rng, reg=pb.Regularizer(kind="l1", lam=1.0))
        smooth = sum(a * pb.shard_value(s, np.zeros(6)) for a, s in zip(prob.alphas, prob.shards))
        assert pb.eval_objective(prob, np.zeros(6)) == smooth

    @pytest.mark.parametrize("reg", ["l1", "none"])
    @pytest.mark.parametrize("shape", ["tall", "wide", "csc", "logistic"])
    def test_equals_sum_of_shard_values(self, shape, reg):
        """The one support scan of eval_objective changes no bit: on points
        sparse enough to gather, dense points and points with -0.0 entries,
        plain and reconditioned."""
        rng = np.random.default_rng(13)
        d = 12 if shape == "tall" else 40
        shards = []
        for _ in range(3):
            m = 30 if shape == "tall" else 8
            A = _csc(rng, m, d, 0.3) if shape == "csc" else rng.standard_normal((m, d))
            if shape == "logistic":
                shards.append(pb.LossShard(kind=pb.LOGISTIC, A=A, b=rng.choice([-1.0, 1.0], m),
                                           l2=0.1))
            else:
                shards.append(pb.LossShard(kind=pb.LEAST_SQUARES, A=A, b=rng.standard_normal(m)))
        lam = 0.3 if reg == "l1" else 0.0
        prob = pb.CompositeProblem(shards, reg=pb.Regularizer(kind=reg, lam=lam))
        sparse = np.zeros(d)
        sparse[d - 2] = -1.3
        dense = rng.standard_normal(d)
        signed_zeros = sparse.copy()
        signed_zeros[[0, 5]] = -0.0
        dense_signed_zeros = dense.copy()
        dense_signed_zeros[::3] = -0.0
        points = [sparse, dense, signed_zeros, dense_signed_zeros, np.zeros(d)]
        assert pb._gather_support(sparse) is not None and pb._gather_support(dense) is None
        for p in (prob, pb.reconditioned(prob, 0.4, dense)):
            for x in points:
                ridge = 0.5 * p.rho * float((x - dense) @ (x - dense))
                want = float(sum(a * (pb.shard_value(s, x) + ridge)
                                 for a, s in zip(p.alphas, p.shards)))
                assert pb.eval_objective(p, x) == want + pb.reg_value(p.reg, x)

    def test_toy_lasso_value(self):
        prob = pb.CompositeProblem([quad_shard(1, 2)], reg=pb.Regularizer(kind="l1", lam=1.0))
        assert pb.eval_objective(prob, np.array([1.0])) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        prob = pb.CompositeProblem([quad_shard()])
        with pytest.raises(ValueError):
            pb.eval_objective(prob, np.zeros(2))


class TestSupport:
    """The support is (x != 0).nonzero()[0], as every scan in the package
    finds it, and null_pattern is its complement."""

    def test_exact_zeros(self):
        x = np.array([0.0, 1.0, 0.0])
        assert list((x != 0).nonzero()[0]) == [1]
        assert list(pb.null_pattern(x)) == [0, 2]

    def test_tolerance(self):
        # no tolerance: any nonzero entry, however small, is in the support
        x = np.array([1e-300, 0.0, -0.0, -5e-324])
        assert list((x != 0).nonzero()[0]) == [0, 3]
        assert list(pb.null_pattern(x)) == [1, 2]

    @settings(max_examples=30, deadline=None)
    @given(x=arrays(np.float64, 8, elements=st.floats()))
    # NaN is in the support, as SparsePoints and the column store count it
    @example(x=np.array([np.nan, -0.0, np.inf, 0.0, -np.inf, 5e-324, 1.0, -0.0]))
    def test_complementarity(self, x):
        supp, null = (x != 0).nonzero()[0], pb.null_pattern(x)
        assert sorted(supp.tolist() + null.tolist()) == list(range(8))


class TestL1Margin:
    L1 = pb.Regularizer("l1", 0.4)

    def test_point_without_zeros_gives_smallest_weight(self, rng):
        x = rng.uniform(0.5, 1.0, 6)
        assert pb.l1_margin(random_problem(rng, reg=self.L1), x) == 0.4
        # at x* the margin is the nondegeneracy margin
        ref = metrics.ReferenceSolution(x, 0.0, 6, 1e-12, "")
        assert metrics.check_nondegeneracy(random_problem(rng, reg=self.L1), ref) == 0.4

    def test_min_over_zeros(self, rng):
        prob = random_problem(rng, reg=self.L1)
        x = np.where(rng.random(6) < 0.5, rng.standard_normal(6), 0.0)
        x[[0, 3]] = 0.0
        g = pb.smooth_gradient(prob, x)
        want = min(0.4 - abs(g[j]) for j in range(6) if x[j] == 0)
        assert pb.l1_margin(prob, x) == want

    def test_requires_l1(self, rng):
        with pytest.raises(ValueError, match="l1"):
            pb.l1_margin(random_problem(rng), np.zeros(6))


class TestReconditioned:
    def test_shifts_constants(self):
        rng = np.random.default_rng(6)
        prob = random_problem(rng)
        sub = pb.reconditioned(prob, 2.5, np.ones(6))
        assert sub.mu == pytest.approx(prob.mu + 2.5)
        assert sub.lip == pytest.approx(prob.lip + 2.5)
        # the extreme eigenvalues of the workers' local Hessians, read off
        # local_gradient, which is affine for least squares
        eigs = []
        for i in range(sub.n_workers):
            g0 = pb.local_gradient(sub, i, np.zeros(6))
            hess = np.array([pb.local_gradient(sub, i, e) - g0 for e in np.eye(6)])
            eigs.append(np.linalg.eigvalsh((hess + hess.T) / 2.0))
        assert min(e[0] for e in eigs) == pytest.approx(prob.mu + 2.5, abs=1e-6)
        assert max(e[-1] for e in eigs) == pytest.approx(prob.lip + 2.5, rel=1e-6)

    def test_value_and_gradient(self):
        rng = np.random.default_rng(7)
        prob = random_problem(rng)
        center = rng.standard_normal(6)
        x = rng.standard_normal(6)
        sub = pb.reconditioned(prob, 1.5, center)
        base = pb.eval_objective(prob, x)
        assert pb.eval_objective(sub, x) == pytest.approx(base + 0.75 * np.sum((x - center) ** 2))
        g = pb.smooth_gradient(sub, x)
        assert g == pytest.approx(pb.smooth_gradient(prob, x) + 1.5 * (x - center))

    def test_second_reconditioning_refused(self):
        # a shard holds one ridge center; summing the weights while keeping
        # only the new center (rho = 2 here) put the gradient at 0 off by 3.08
        # in norm and the value by 2.84, so the second call is refused
        rng = np.random.default_rng(17)
        A, b = rng.standard_normal((30, 10)), rng.standard_normal(30)
        prob = pb.CompositeProblem([pb.LossShard(kind=pb.LEAST_SQUARES, A=A, b=b)])
        sub = pb.reconditioned(prob, 1.0, rng.standard_normal(10))
        for rho in (2.0, 0.0):
            with pytest.raises(ValueError, match="ridge"):
                pb.reconditioned(sub, rho, rng.standard_normal(10))


class TestNonFiniteShards:
    def test_nan_labels_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            pb.LossShard(kind=pb.LEAST_SQUARES, A=np.eye(2), b=np.array([0.0, np.nan]))

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_design_rejected_by_problem(self, sparse, bad):
        # rejected before the eigenvalue solves of (mu_i, L_i): LAPACK's
        # DLASCL warning on dense data, an ArpackError on CSC data
        A = np.arange(1.0, 13.0).reshape(4, 3)
        A[2, 1] = bad
        with pytest.raises(ValueError, match="design matrix has non-finite entries"):
            pb.LossShard(kind=pb.LEAST_SQUARES, A=sp.csc_matrix(A) if sparse else A,
                         b=np.ones(4))

    def test_infinite_ridge_center_rejected(self):
        prob = pb.CompositeProblem([pb.LossShard(kind=pb.LEAST_SQUARES, A=np.eye(2),
                                                  b=np.zeros(2))])
        for rho in (1.0, 0.0):
            with pytest.raises(ValueError, match="non-finite"):
                pb.reconditioned(prob, rho, np.array([np.inf, 0.0]))


def _shards(rng, kind, m, d, sparse=False, M=3, l2=0.0):
    """M shards of m, m + 1, ... rows: unequal sizes, so unequal alphas."""
    shards = []
    for i in range(M):
        A = _csc(rng, m + i, d, 0.3) if sparse else rng.standard_normal((m + i, d))
        b = rng.choice([-1.0, 1.0], size=m + i)
        shards.append(pb.LossShard(kind=kind, A=A, b=b, l2=l2))
    return shards


_DERIVED = {
    "dense tall": lambda rng: _shards(rng, pb.LEAST_SQUARES, 30, 8),
    "dense wide": lambda rng: _shards(rng, pb.LEAST_SQUARES, 5, 12),
    "csc": lambda rng: _shards(rng, pb.LEAST_SQUARES, 40, 10, sparse=True),
    "logistic": lambda rng: _shards(rng, pb.LOGISTIC, 20, 6, l2=0.01),
}


class TestDerivedConstants:
    """A problem's alphas, mu and L, and a shard's mu and L, come from the
    data and are never set."""

    @pytest.mark.parametrize("case", list(_DERIVED))
    def test_bits_of_shard_constants(self, case):
        rng = np.random.default_rng(21)
        prob = pb.CompositeProblem(_DERIVED[case](rng))
        for p in (prob, pb.reconditioned(prob, 0.7, rng.standard_normal(prob.dim))):
            pairs = [pb._shard_constants(s) for s in p.shards]
            assert [(s.mu, s.lip) for s in p.shards] == pairs
            assert p.mu == min(mu for mu, _ in pairs) + p.rho
            assert p.lip == max(lip for _, lip in pairs) + p.rho
            sizes = np.array([s.n_examples for s in p.shards], dtype=float)
            assert p.alphas.tobytes() == (sizes / sizes.sum()).tobytes()

    def test_replace_rederives(self):
        # kept from the old data, L read 8.85 where the scaled data has 885.1,
        # and DAve-PG at 2/(mu + L) diverged at iteration 18
        ds, _ = data.generate_lasso(d=50, m=120, sparsity=0.9, noise_std=0.01, seed=3)
        plan = data.shard_even(ds, M=3, seed=0)
        prob = data.lasso_problem(ds, plan, lam1=0.1)
        scaled = data.Dataset(X=10.0 * ds.X, y=ds.y)
        big = replace(prob, shards=data.make_shards(scaled, plan, pb.LEAST_SQUARES))
        want = data.lasso_problem(scaled, plan, lam1=0.1)
        assert (big.mu, big.lip) == (want.mu, want.lip)
        assert big.lip == pytest.approx(100.0 * prob.lip, rel=1e-9)
        assert np.array_equal(big.alphas, want.alphas)
        engine.run_davepg(big, engine.gamma_max(big), engine.DelaySchedule.round_robin(3),
                          np.zeros(50), engine.StopRule(max_iterations=300))
        two = replace(prob, shards=prob.shards[:2])
        sizes = np.array([s.n_examples for s in prob.shards[:2]], dtype=float)
        assert two.alphas.tolist() == (sizes / sizes.sum()).tolist()
        assert (two.mu, two.lip) == (min(s.mu for s in two.shards), max(s.lip for s in two.shards))

    def test_only_inputs_are_settable(self):
        prob = random_problem(np.random.default_rng(5))
        assert [f.name for f in dataclasses.fields(prob) if f.init] == \
            ["shards", "reg", "rho", "center"]
        for name in ("alphas", "mu", "lip"):
            with pytest.raises(TypeError, match=name):
                pb.CompositeProblem(shards=prob.shards, **{name: getattr(prob, name)})
            with pytest.raises(ValueError, match=name):
                replace(prob, **{name: getattr(prob, name)})
        shard = prob.shards[0]
        assert [f.name for f in dataclasses.fields(shard) if f.init] == ["kind", "A", "b", "l2"]
        for name in ("mu", "lip"):
            with pytest.raises(TypeError, match=name):
                pb.LossShard(kind=shard.kind, A=shard.A, b=shard.b, **{name: 1.0})
            with pytest.raises(ValueError, match=name):
                replace(shard, **{name: 1.0})

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    def test_non_finite_design_refused_before_eigenvalues(self, sparse, monkeypatch):
        def solve(*args):
            raise AssertionError("eigenvalue solve on a non-finite design")

        monkeypatch.setattr(pb, "_gram_extreme_eigs", solve)
        A = np.ones((4, 3))
        A[1, 2] = np.nan
        with pytest.raises(ValueError, match="design matrix has non-finite entries"):
            pb.LossShard(kind=pb.LOGISTIC, A=sp.csc_matrix(A) if sparse else A, b=np.ones(4))

    def test_pickled_shard_keeps_constants(self):
        rng = np.random.default_rng(22)
        for case in _DERIVED:
            for shard in _DERIVED[case](rng):
                back = pickle.loads(pickle.dumps(shard))
                assert (back.mu, back.lip) == (shard.mu, shard.lip), case


class TestRegularizerValidation:
    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
    def test_weight_must_be_finite_and_nonnegative(self, lam):
        with pytest.raises(ValueError, match="regularization weight must be finite"):
            pb.Regularizer(kind="l1", lam=lam)

    @pytest.mark.parametrize("lam", [0.3, 1e-300])
    def test_none_has_weight_zero(self, lam):
        # a weight the objective ignores would still enter the fingerprint
        with pytest.raises(ValueError, match="kind 'none' has weight 0"):
            pb.Regularizer(kind="none", lam=lam)
        assert pb.Regularizer(kind="none", lam=0.0) == pb.Regularizer()


class TestColumnMajorStorage:
    def test_dense_is_fortran_and_reconditioning_keeps_it(self):
        rng = np.random.default_rng(8)
        prob = random_problem(rng)
        A = prob.shards[0].A
        assert A.flags.f_contiguous
        sub = pb.reconditioned(prob, 1.0, np.ones(6))
        assert sub.shards[0].A is A

    def test_sparse_is_csc(self):
        A = sp.random(5, 7, density=0.4, format="csr", random_state=1)
        shard = pb.LossShard(kind=pb.LEAST_SQUARES, A=A, b=np.zeros(5))
        assert shard.A.format == "csc"
        assert np.array_equal(shard.A.toarray(), A.toarray())


def _brute_shard(kind, A, b, l2, ridge, center, x):
    """Value and gradient from the formulas on a dense row-major copy."""
    A = np.ascontiguousarray(A.toarray() if sp.issparse(A) else A)
    m = A.shape[0]
    z = A @ x
    if kind == pb.LEAST_SQUARES:
        v = np.sum((z - b) ** 2) / m
        g = 2.0 / m * A.T @ (z - b)
    else:
        v = np.sum(np.logaddexp(0.0, -b * z)) / m + 0.5 * l2 * x @ x
        g = A.T @ (-b / (1.0 + np.exp(b * z))) / m + l2 * x
    if ridge:
        v += 0.5 * ridge * np.sum((x - center) ** 2)
        g = g + ridge * (x - center)
    return v, g


def _alone(shard, rho=0.0, center=None):
    """A one-shard problem with the proximal term (rho, center)."""
    return pb.CompositeProblem(shards=(shard,), rho=rho, center=center)


def _pick(rng, d, how):
    """Sorted coordinate subset; "few" (at most 3) takes the gathering
    branches once d >= 24, "many" the full products."""
    if how == "empty":
        return np.zeros(0, dtype=np.int64)
    if how == "few":
        return np.sort(rng.choice(d, size=min(d, int(rng.integers(1, 4))), replace=False))
    if how == "many":
        return np.flatnonzero(rng.random(d) < rng.uniform(0.3, 0.9))
    return np.arange(d)


class TestRestrictedOracles:
    """grad_shard on coords and the support-restricted margins agree with
    the full formulas, whichever product the sizes select."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from([pb.LEAST_SQUARES, pb.LOGISTIC]),
        sparse=st.booleans(),
        l2=st.booleans(),
        ridge=st.booleans(),
        support=st.sampled_from(["empty", "few", "many", "full"]),
        mask=st.sampled_from(["empty", "few", "many", "full"]),
    )
    def test_matches_full_gradient_and_value(self, seed, kind, sparse, l2, ridge, support, mask):
        rng = np.random.default_rng(seed)
        m, d = int(rng.integers(1, 12)), int(rng.integers(1, 80))
        A = rng.standard_normal((m, d)) * (rng.random((m, d)) < 0.5)
        if sparse:
            A = sp.csr_matrix(A)
        b = rng.choice([-1.0, 1.0], size=m) if kind == pb.LOGISTIC else rng.standard_normal(m)
        l2_w = 0.1 if (l2 and kind == pb.LOGISTIC) else 0.0
        ridge_w = 0.7 if ridge else 0.0
        center = rng.standard_normal(d) if ridge else None
        shard = pb.LossShard(kind=kind, A=A, b=b, l2=l2_w)
        prob = _alone(shard, ridge_w, center)
        x = np.zeros(d)
        supp = _pick(rng, d, support)
        x[supp] = rng.standard_normal(supp.size)
        S = _pick(rng, d, mask)

        v_ref, g_ref = _brute_shard(kind, A, b, l2_w, ridge_w, center, x)
        scale = max(np.max(np.abs(g_ref)), 1.0)
        g_S = pb.local_gradient(prob, 0, x, S)
        assert g_S.shape == (S.size,)
        assert np.all(np.abs(g_S - g_ref[S]) <= 1e-12 * scale)
        assert np.all(np.abs(g_S - pb.local_gradient(prob, 0, x)[S]) <= 1e-12 * scale)
        assert abs(pb.eval_objective(prob, x) - v_ref) <= 1e-12 * max(abs(v_ref), 1.0)
        v_shard, _ = _brute_shard(kind, A, b, l2_w, 0.0, None, x)
        assert abs(pb.shard_value(shard, x) - v_shard) <= 1e-12 * max(abs(v_shard), 1.0)

    def test_objective_on_sparse_iterate(self):
        rng = np.random.default_rng(9)
        prob = random_problem(rng, d=40, reg=pb.Regularizer(kind="l1", lam=0.5))
        x = np.zeros(40)
        x[[3, 17]] = [1.5, -2.0]
        want = sum(a * _brute_shard(s.kind, s.A, s.b, 0.0, 0.0, None, x)[0]
                   for a, s in zip(prob.alphas, prob.shards)) + 0.5 * 3.5
        assert pb.eval_objective(prob, x) == pytest.approx(want, rel=1e-12)


def _ls_problem(rng, m, d, ridge):
    """A one-shard problem on a dense least-squares shard, with a ridge term
    when ``ridge``."""
    center = rng.standard_normal(d) if ridge else None
    shard = pb.LossShard(kind=pb.LEAST_SQUARES, A=rng.standard_normal((m, d)),
                         b=rng.standard_normal(m))
    return _alone(shard, 0.7 if ridge else 0.0, center)


# (m, d) of a tall shard, whose store holds all of G, and of a wide one
_TALL_AND_WIDE = ((30, 10), (8, 40))


class TestGramForm:
    """Dense least-squares shards take their gradient from a store of the
    columns of G = A^T A and of c = A^T b, built once per (A, b); the store
    of a shard with m >= d holds all of G from the start."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        ridge=st.booleans(),
        support=st.sampled_from(["empty", "few", "many", "full"]),
        coords=st.sampled_from([None, "empty", "few", "full"]),
    )
    def test_matches_column_path(self, seed, ridge, support, coords):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 60))
        m = d + int(rng.integers(0, 40))
        prob = _ls_problem(rng, m, d, ridge)
        shard = prob.shards[0]
        assert shard._cols is not None and shard._cols.n == d
        # the same shard stored CSC takes the column path
        twin = replace(prob, shards=(replace(shard, A=sp.csc_matrix(shard.A)),))
        assert twin.shards[0]._cols is None
        x = np.zeros(d)
        supp = _pick(rng, d, support)
        x[supp] = rng.standard_normal(supp.size)
        S = None if coords is None else _pick(rng, d, coords)

        _, g_ref = _brute_shard(pb.LEAST_SQUARES, shard.A, shard.b, 0.0,
                                prob.rho, prob.center, x)
        want = g_ref if S is None else g_ref[S]
        got = pb.local_gradient(prob, 0, x, S)
        scale = max(np.max(np.abs(g_ref)), 1.0)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        assert np.all(np.abs(got - pb.local_gradient(twin, 0, x, S)) <= 1e-12 * scale)

    def test_reconditioning_reuses_gram(self):
        rng = np.random.default_rng(13)
        for m, d in _TALL_AND_WIDE:
            prob = pb.CompositeProblem([_ls_problem(rng, m, d, False).shards[0]
                                         for _ in range(2)])
            x = np.zeros(d)
            x[[3, 7]] = [1.0, -2.0]
            pb.smooth_gradient(prob, x)
            sub = pb.reconditioned(prob, 0.5, x)
            again = pb.reconditioned(prob, 0.25, np.zeros(d))
            assert sub.shards is prob.shards and again.shards is prob.shards
            for old in prob.shards:
                assert old._cols.n == (d if m >= d else 2)
            store = prob.shards[0]._cols
            A, b = prob.shards[0].A, prob.shards[0].b
            assert np.allclose(store.c, A.T @ b, rtol=1e-13, atol=1e-12)
            if m >= d:
                assert store.cols.flags.c_contiguous
                assert np.array_equal(store.pos, np.arange(d))
                assert np.allclose(store.cols, A.T @ A, rtol=1e-13, atol=1e-12)

    def test_replace_of_data_rebuilds_gram(self):
        rng = np.random.default_rng(14)
        for m, d in _TALL_AND_WIDE:
            prob = _ls_problem(rng, m, d, True)
            shard = prob.shards[0]
            x = np.zeros(d)
            x[[3, 7]] = rng.standard_normal(2)
            pb.local_gradient(prob, 0, x)
            changed = [
                replace(shard, b=rng.standard_normal(m)),
                replace(shard, A=rng.standard_normal((m, d))),
                replace(shard, A=np.ascontiguousarray(shard.A) * 2.0),
                replace(shard, A=shard.A[:5], b=shard.b[:5]),  # wide
                replace(shard, A=rng.standard_normal((50, d)), b=rng.standard_normal(50)),  # tall
            ]
            for new in changed:
                assert new._cols is not shard._cols
                assert new._cols.A is new.A and new._cols.b is new.b
                assert new._cols.n == (d if new.n_examples >= d else 0)
                _, g = _brute_shard(pb.LEAST_SQUARES, new.A, new.b, 0.0,
                                    prob.rho, prob.center, x)
                got = pb.local_gradient(replace(prob, shards=(new,)), 0, x)
                assert np.allclose(got, g, rtol=1e-12, atol=1e-12)


class TestColumnStore:
    """Dense least-squares shards with m < d take their gradient from the
    columns of G = A^T A on supp(x), computed on first use and kept, at most
    m of them."""

    @staticmethod
    def point(rng, d, supp):
        x = np.zeros(d)
        x[supp] = rng.standard_normal(len(supp))
        return x

    def check(self, prob, x, S):
        shard = prob.shards[0]
        _, g_ref = _brute_shard(pb.LEAST_SQUARES, shard.A, shard.b, 0.0,
                                prob.rho, prob.center, x)
        want = g_ref if S is None else g_ref[S]
        got = pb.local_gradient(prob, 0, x, S)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * max(np.max(np.abs(g_ref)), 1.0))
        return got

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        ridge=st.booleans(),
        calls=st.lists(st.tuples(st.sampled_from(["empty", "few", "many", "full"]),
                                 st.sampled_from([None, "empty", "few", "full"])),
                       min_size=1, max_size=8),
    )
    def test_call_sequences_match_formula(self, seed, ridge, calls):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(24, 80))
        m = int(rng.integers(1, d))
        prob = _ls_problem(rng, m, d, ridge)
        shard = prob.shards[0]
        assert shard._cols is not None and shard._cols.n == 0
        for support, coords in calls:
            x = self.point(rng, d, _pick(rng, d, support))
            S = None if coords is None else _pick(rng, d, coords)
            self.check(prob, x, S)
            store = shard._cols
            assert store.n <= m
            stored = np.flatnonzero(store.pos >= 0)
            assert stored.size == store.n
            assert np.array_equal(np.sort(store.pos[stored]), np.arange(store.n))
            for j in stored[:3]:
                assert np.allclose(store.cols[:, store.pos[j]], shard.A.T @ shard.A[:, j],
                                   rtol=1e-13, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        calls=st.lists(st.tuples(st.integers(0, 2),
                                 st.sampled_from([None, "empty", "few", "full"])),
                       min_size=2, max_size=10),
    )
    def test_last_support_keeps_the_bits_of_a_gather(self, seed, calls):
        # a support asked for again is read from the store's last support, in F
        # order for full products and as a C-order copy for products on
        # coordinates; every product has the bytes of a fresh store's gather
        rng = np.random.default_rng(seed)
        d = int(rng.integers(24, 80))
        m = int(rng.integers(9, d))  # room for the columns of all three supports
        A, b = rng.standard_normal((m, d)), rng.standard_normal(m)
        shard = pb.LossShard(kind=pb.LEAST_SQUARES, A=A, b=b)
        supports = [_pick(rng, d, "few") for _ in range(3)]
        for which, coords in calls:
            x = self.point(rng, d, supports[which])
            S = None if coords is None else _pick(rng, d, coords)
            fresh = pb.LossShard(kind=pb.LEAST_SQUARES, A=A, b=b)
            assert pb.grad_shard(shard, x, S).tobytes() == pb.grad_shard(fresh, x, S).tobytes()

    def test_coordinates_as_a_list(self):
        # np.asarray([]) is float64, which the wide store's gather refused on a
        # support's first use (IndexError), though a repeated support took it
        rng = np.random.default_rng(27)
        prob = _ls_problem(rng, 10, 48, False)
        x = self.point(rng, 48, [3, 9])
        for _ in range(2):
            assert pb.local_gradient(prob, 0, x, []).shape == (0,)
            assert pb.local_gradient(prob, 0, x, [1, 9]).tobytes() == \
                pb.local_gradient(prob, 0, x, np.array([1, 9])).tobytes()

    def test_columns_are_added_on_first_use(self):
        rng = np.random.default_rng(20)
        prob = _ls_problem(rng, 10, 48, False)
        store = prob.shards[0]._cols
        self.check(prob, np.zeros(48), None)  # x = 0 needs no column
        assert store.n == 0
        self.check(prob, self.point(rng, 48, [5, 9]), np.array([1, 5, 30]))
        self.check(prob, self.point(rng, 48, [9, 5, 2]), None)
        assert store.n == 3
        assert list(store.pos[[5, 9, 2]]) == [0, 1, 2]

    def test_full_store_and_large_support_fall_back(self):
        rng = np.random.default_rng(21)
        prob = _ls_problem(rng, 3, 48, True)  # room for 3 columns
        store = prob.shards[0]._cols
        self.check(prob, self.point(rng, 48, [0, 1]), None)
        assert store.n == 2
        # two missing columns, room for one: the column path, nothing stored
        self.check(prob, self.point(rng, 48, [1, 2, 3]), np.array([0, 2, 7]))
        assert store.n == 2 and np.all(store.pos[[2, 3]] < 0)
        self.check(prob, self.point(rng, 48, [2]), None)
        assert store.n == 3
        self.check(prob, self.point(rng, 48, [4]), np.array([4]))  # full
        assert store.n == 3 and store.pos[4] < 0
        assert store.product(self.point(rng, 48, [4]), None) is None
        # 7 > 48/8 nonzeros: not few, so not from the store even if stored
        self.check(prob, self.point(rng, 48, np.arange(7)), None)
        assert store.product(self.point(rng, 48, [0, 1, 2, 5, 6, 7, 8]), None) is None
        assert store.product(self.point(rng, 48, [0, 2]), np.array([3])) is not None

    def test_never_more_entries_than_A(self):
        rng = np.random.default_rng(22)
        for m, d in ((1, 24), (5, 40), (30, 31)):
            prob = _ls_problem(rng, m, d, False)
            shard = prob.shards[0]
            assert shard._cols.cols.size == shard.A.size
            for _ in range(4 * d):
                k = int(rng.integers(0, d // 8 + 1))
                self.check(prob, self.point(rng, d, rng.choice(d, k, replace=False)), None)
            assert shard._cols.n <= m
            assert np.count_nonzero(shard._cols.pos >= 0) == shard._cols.n

    def test_other_shards_carry_no_store(self):
        rng = np.random.default_rng(23)
        for m, d in _TALL_AND_WIDE:
            A = rng.standard_normal((m, d))
            labels = rng.choice([-1.0, 1.0], size=m)
            assert pb.LossShard(kind=pb.LOGISTIC, A=A, b=labels)._cols is None
            assert pb.LossShard(kind=pb.LEAST_SQUARES, A=sp.csc_matrix(A), b=labels)._cols is None
            dense = pb.LossShard(kind=pb.LEAST_SQUARES, A=A, b=rng.standard_normal(m))
            assert dense._cols.n == (d if m >= d else 0)

    def test_store_is_not_part_of_identity(self):
        rng = np.random.default_rng(25)
        for m, d in _TALL_AND_WIDE:
            prob = _ls_problem(rng, m, d, True)
            shard = prob.shards[0]
            pb.local_gradient(prob, 0, self.point(rng, d, [1, 2, 3]))
            twin = pb.LossShard(kind=shard.kind, A=shard.A, b=shard.b)
            assert twin._cols is not shard._cols
            assert twin._cols.n == (d if m >= d else 0)
            assert twin == shard
            assert repr(twin) == repr(shard) and "_cols" not in repr(shard)
            assert metrics.problem_fingerprint(_alone(twin, prob.rho, prob.center)) == \
                metrics.problem_fingerprint(prob)

    def test_pickle_round_trip(self):
        rng = np.random.default_rng(26)
        for m, d in _TALL_AND_WIDE:
            prob = _ls_problem(rng, m, d, True)
            shard = prob.shards[0]
            x = self.point(rng, d, [4, 7])
            S = np.array([0, 4, 9])
            g = pb.local_gradient(prob, 0, x, S)
            back_prob = pickle.loads(pickle.dumps(prob))
            back = back_prob.shards[0]
            assert np.array_equal(back.A, shard.A) and np.array_equal(back.b, shard.b)
            assert back._cols.A is back.A and back._cols.b is back.b
            assert back._cols.n == shard._cols.n == (d if m >= d else 2)
            assert np.array_equal(back._cols.pos, shard._cols.pos)
            assert np.array_equal(back._cols.cols[:, :shard._cols.n],
                                  shard._cols.cols[:, :shard._cols.n])
            assert np.array_equal(pb.local_gradient(back_prob, 0, x, S), g)
            self.check(back_prob, self.point(rng, d, [4, 5]), None)  # appends under its own lock
            assert back._cols.n == (d if m >= d else 3)
            assert shard._cols.n == (d if m >= d else 2)

    def test_threads_give_serial_results(self):
        rng = np.random.default_rng(27)
        d = 96
        prob = _ls_problem(rng, 60, d, True)
        shard = prob.shards[0]
        # supports from 48 coordinates: the store never fills, so every call
        # with at most 12 nonzeros takes it
        pool = rng.choice(d, 48, replace=False)
        calls = [[(self.point(rng, d, rng.choice(pool, int(rng.integers(0, 13)), replace=False)),
                   None if rng.random() < 0.3 else np.sort(rng.choice(d, 10, replace=False)))
                  for _ in range(40)] for _ in range(4)]
        fresh = replace(prob, shards=(replace(shard, b=shard.b.copy()),))  # its own empty store
        want = [[pb.local_gradient(fresh, 0, x, S) for x, S in thread] for thread in calls]
        got = [[None] * len(thread) for thread in calls]
        errors = []

        def work(t):
            try:
                for _ in range(3):
                    for i, (x, S) in enumerate(calls[t]):
                        got[t][i] = pb.local_gradient(prob, 0, x, S)
                        assert np.array_equal(got[t][i], want[t][i])
            except BaseException as exc:  # reported in the main thread
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(len(calls))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(60)
        finally:
            sys.setswitchinterval(old)
        assert not errors, errors
        assert not any(th.is_alive() for th in threads)
        assert shard._cols.n == fresh.shards[0]._cols.n <= 60

    def test_readme_lasso_solve_leaves_room_unused(self):
        # the README lasso (d=1000, 125 examples per shard, s*=12): its solve
        # stores a few dozen columns per shard, and the buffer grows only to
        # hold them, short of the m columns a shard allows
        ds, _ = data.generate_lasso(d=1000, m=500, sparsity=0.985, noise_std=0.01, seed=2)
        prob = data.lasso_problem(ds, data.shard_even(ds, 4, seed=0), lam1=0.64)
        assert all(s._cols.cols.shape[1] == pb._FIRST_COLUMNS for s in prob.shards)
        ref = metrics.reference_solution(prob, tol=1e-12, assume_unique_minimizer=True)
        trace = rc.run_reconditioned(prob, rc.make_params(prob.mu, prob.lip, c=12, d=1000),
                                     engine.DelaySchedule.round_robin(4), np.zeros(1000),
                                     criterion=rc.InnerCriterion(kind="fixed", epochs=1),
                                     outer_budget=20_000, target_objective=ref.f_star + 1e-6,
                                     seed=1)
        assert pb.eval_objective(prob, trace.final_x) <= ref.f_star + 1e-6
        for s in prob.shards:
            assert pb._FIRST_COLUMNS < s._cols.n <= s._cols.cols.shape[1] < s.n_examples

    def test_two_runs_in_two_threads_match_serial_runs(self):
        ds, _ = data.generate_lasso(d=64, m=30, sparsity=0.9, noise_std=0.01, seed=3)
        plan = data.shard_even(ds, 2, seed=3)

        def run(prob, seed):
            return engine.run_spy(prob, engine.gamma_max(prob), uniform_distribution(64, 0.2),
                                  engine.DelaySchedule.round_robin(2), np.zeros(64),
                                  engine.StopRule(max_iterations=400), seed=seed)

        want = [run(data.lasso_problem(ds, plan, 0.3), s).final_x for s in (1, 2)]
        shared = data.lasso_problem(ds, plan, 0.3)
        got = [None, None]

        def work(i):
            got[i] = run(shared, i + 1).final_x

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(60)
        # the stores never fill here, so no result depends on the interleaving
        assert all(0 < s._cols.n < s.n_examples for s in shared.shards)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

import dataclasses
import hashlib
import math

import numpy as np
import pytest
import scipy.sparse as sp

from sparsepg import data, direct, engine, metrics, problem as pb, recondition as rc

from conftest import strongly_convex_problem


def scalar_quadratic(center=3.0):
    # f(x) = (x - center)^2 / 2 via least squares with A = 1/sqrt(2)
    a = 1 / math.sqrt(2)
    shard = pb.LossShard(kind=pb.LEAST_SQUARES, A=np.array([[a]]), b=np.array([a * center]))
    return pb.CompositeProblem([shard])


def small_lasso(lam=0.2, seed=11):
    ds, _ = data.generate_lasso(d=40, m=60, sparsity=0.9, noise_std=0.01, seed=seed)
    plan = data.shard_even(ds, 3, seed=seed)
    return data.lasso_problem(ds, plan, lam1=lam)


class TestReferenceSolution:
    def test_scalar_quadratic(self):
        ref = metrics.reference_solution(scalar_quadratic(), tol=1e-10)
        assert ref.x_star == pytest.approx([3.0], abs=1e-9)
        assert ref.f_star == pytest.approx(0.0, abs=1e-15)
        assert ref.s_star == 1

    def test_mu_zero_refused_without_flag(self):
        with pytest.raises(ValueError, match="strongly convex"):
            metrics.reference_solution(small_lasso())

    def test_mu_zero_allowed_with_flag(self):
        ref = metrics.reference_solution(small_lasso(), tol=1e-9, assume_unique_minimizer=True)
        assert ref.s_star > 0

    def test_resolve_reproduces_f_star(self):
        prob = strongly_convex_problem(d=8, M=2, seed=1)
        tol = 1e-9
        a = metrics.reference_solution(prob, tol=tol)
        b = metrics.reference_solution(prob, tol=tol)
        assert abs(a.f_star - b.f_star) <= 10 * tol

    def test_cache_round_trip(self, tmp_path):
        prob = strongly_convex_problem(d=8, M=2, seed=2)
        a = metrics.reference_solution(prob, tol=1e-9, cache_dir=str(tmp_path))
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        b = metrics.reference_solution(prob, tol=1e-9, cache_dir=str(tmp_path))
        assert np.array_equal(a.x_star, b.x_star)
        assert list(tmp_path.iterdir()) == files

    @pytest.mark.parametrize("entry", ["truncated", "garbage", "old version", "other problem"])
    def test_bad_cache_entry_is_a_miss(self, tmp_path, entry):
        prob = strongly_convex_problem(d=8, M=2, seed=2)
        fresh = metrics.reference_solution(prob, tol=1e-9)
        metrics.reference_solution(prob, tol=1e-9, cache_dir=str(tmp_path))
        (path,) = tmp_path.iterdir()
        good = path.read_bytes()
        if entry == "truncated":
            path.write_bytes(good[: len(good) // 2])
        elif entry == "garbage":
            path.write_bytes(b"\x80\x04not a cache entry" * 10)
        else:
            version = metrics._CACHE_VERSION - (entry == "old version")
            key = "0" * 64 if entry == "other problem" else fresh.fingerprint
            np.savez(path, version=version, fingerprint=key, tol=1e-9, x_star=fresh.x_star + 1.0)
        got = metrics.reference_solution(prob, tol=1e-9, cache_dir=str(tmp_path))
        assert np.array_equal(got.x_star, fresh.x_star)
        assert list(tmp_path.iterdir()) == [path]
        with np.load(path) as rewritten:
            assert int(rewritten["version"]) == metrics._CACHE_VERSION
            assert np.array_equal(rewritten["x_star"], fresh.x_star)

    def test_cache_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(metrics.CACHE_ENV, str(tmp_path))
        prob = strongly_convex_problem(d=6, M=2, seed=3)
        metrics.reference_solution(prob, tol=1e-9)
        assert len(list(tmp_path.iterdir())) == 1

    def test_fingerprint_changes_with_hyperparameters(self):
        assert metrics.problem_fingerprint(small_lasso(lam=0.2)) != \
            metrics.problem_fingerprint(small_lasso(lam=0.3))

    def test_fingerprint_deterministic(self):
        assert metrics.problem_fingerprint(small_lasso()) == \
            metrics.problem_fingerprint(small_lasso())

    def test_fingerprint_covers_ridge_center(self):
        prob = small_lasso()
        zeros = pb.reconditioned(prob, 1.0, np.zeros(40))
        ones = pb.reconditioned(prob, 1.0, np.ones(40))
        assert metrics.problem_fingerprint(zeros) != metrics.problem_fingerprint(ones)

    @pytest.mark.parametrize("a, b", [
        (pb.Regularizer("l1", 1), pb.Regularizer("l1", 1.0)),
        (pb.Regularizer("none", -0.0), pb.Regularizer()),
    ], ids=["int-weight", "negative-zero"])
    def test_fingerprint_hashes_weight_values(self, a, b):
        # equal weights give one fingerprint whatever their spelling, so equal
        # problems share their cached reference
        prob = small_lasso()
        assert metrics.problem_fingerprint(dataclasses.replace(prob, reg=a)) == \
            metrics.problem_fingerprint(dataclasses.replace(prob, reg=b))

    def test_fingerprint_hashes_the_l2_the_loss_reads(self):
        # least squares ignore l2: the same F, gradient and (mu, L) are one
        # problem with one cached reference; a logistic shard reads it
        rng = np.random.default_rng(4)
        A, labels = rng.standard_normal((12, 5)), rng.choice([-1.0, 1.0], size=12)

        def fingerprint(kind, l2):
            shard = pb.LossShard(kind=kind, A=A, b=labels, l2=l2)
            return metrics.problem_fingerprint(pb.CompositeProblem([shard]))

        assert fingerprint(pb.LEAST_SQUARES, 0.05) == fingerprint(pb.LEAST_SQUARES, 0.0)
        assert fingerprint(pb.LOGISTIC, 0.05) != fingerprint(pb.LOGISTIC, 0.0)

    @staticmethod
    def _column_major_fingerprint(rows, alphas, reg):
        """The fingerprint recipe applied to column-major copies of the row
        blocks: column-by-column bytes for dense data, CSC arrays for sparse
        data."""
        h = hashlib.sha256()
        for A, b in rows:
            if sp.issparse(A):
                A = sp.csc_matrix(A)
                h.update(A.indptr.tobytes())
                h.update(A.indices.tobytes())
                h.update(A.data.tobytes())
            else:
                h.update(np.ascontiguousarray(A.T).tobytes())
            h.update(b.tobytes())
            h.update(repr((pb.LEAST_SQUARES, 0.0, 0.0)).encode())
        h.update(alphas.tobytes())
        h.update(repr((reg.kind, reg.lam)).encode())
        return h.hexdigest()

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_fingerprint_hashes_row_major_bytes(self, sparse):
        # the name predates the column-major recipe; the test pins that recipe
        ds, _ = data.generate_lasso(d=12, m=20, sparsity=0.5, noise_std=0.1, seed=4)
        X = ds.X * (np.random.default_rng(4).random(ds.X.shape) < 0.3)
        ds = data.Dataset(X=sp.csr_matrix(X) if sparse else X, y=ds.y)
        plan = data.shard_even(ds, 2, seed=4)
        prob = data.lasso_problem(ds, plan, lam1=0.1)
        rows = [(ds.X[plan[w]], ds.y[plan[w]]) for w in range(2)]
        A = prob.shards[0].A
        if sparse:
            assert A.format == "csc"
        else:
            assert A.flags.f_contiguous
        assert metrics.problem_fingerprint(prob) == \
            self._column_major_fingerprint(rows, prob.alphas, prob.reg)


class TestNondegeneracy:
    def test_scalar_margin_one(self):
        # f(x) = x^2/2, lam = 1: x* = 0 and the gradient there is 0
        a = 1 / math.sqrt(2)
        shard = pb.LossShard(kind=pb.LEAST_SQUARES, A=np.array([[a]]), b=np.array([0.0]))
        prob = pb.CompositeProblem([shard], reg=pb.Regularizer(kind="l1", lam=1.0))
        ref = metrics.reference_solution(prob, tol=1e-10)
        assert metrics.check_nondegeneracy(prob, ref) == pytest.approx(1.0, abs=1e-8)

    def test_small_lam_degrades_margin(self):
        strong = small_lasso(lam=0.3)
        weak = small_lasso(lam=1e-4)
        ref_s = metrics.reference_solution(strong, tol=1e-10, assume_unique_minimizer=True)
        ref_w = metrics.reference_solution(weak, tol=1e-10, assume_unique_minimizer=True)
        m_s = metrics.check_nondegeneracy(strong, ref_s)
        m_w = metrics.check_nondegeneracy(weak, ref_w)
        assert m_w < m_s
        assert m_w < 1e-3

    def test_shard_permutation_invariance(self):
        prob = small_lasso()
        ref = metrics.reference_solution(prob, tol=1e-10, assume_unique_minimizer=True)
        permuted = pb.CompositeProblem(shards=prob.shards[::-1], reg=prob.reg)
        assert metrics.check_nondegeneracy(permuted, ref) == \
            pytest.approx(metrics.check_nondegeneracy(prob, ref))

    def test_requires_l1(self):
        prob = scalar_quadratic()
        ref = metrics.reference_solution(prob, tol=1e-10)
        with pytest.raises(ValueError):
            metrics.check_nondegeneracy(prob, ref)


class TestIdentificationTime:
    def ref_for(self, x_star):
        return metrics.ReferenceSolution(
            x_star=np.asarray(x_star, dtype=float), f_star=0.0,
            s_star=int(np.count_nonzero(x_star)), tol=0.0, fingerprint="t",
        )

    def test_already_identified(self):
        ref = self.ref_for([1.0, 0.0])
        assert metrics.identification_time([np.array([2.0, 0.0])], ref) == 0

    def test_oscillating_support_is_none(self):
        ref = self.ref_for([1.0, 0.0])
        pts = [np.array([1.0, 0.0]), np.array([1.0, 1.0]),
               np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert metrics.identification_time(pts, ref) is None

    def test_stabilization_index(self):
        ref = self.ref_for([1.0, 0.0])
        pts = [np.array([0.0, 1.0]), np.array([1.0, 1.0]),
               np.array([1.0, 0.0]), np.array([2.0, 0.0])]
        assert metrics.identification_time(pts, ref) == 2
        # an engine trace offers its epoch snapshots as the points
        trace = engine.RunTrace(epoch_snapshots=engine.SparsePoints(pts))
        assert metrics.identification_time(trace, ref) == 2

    def test_tolerance_mode(self):
        # supports are compared by exact zeros: a tiny entry is not a zero
        ref = self.ref_for([1.0, 0.0])
        assert metrics.identification_time([np.array([1.0, 1e-14])], ref) is None
        assert metrics.identification_time([np.array([1.0, -0.0])], ref) == 0

    def test_on_outer_trace(self):
        prob = small_lasso()
        ref = metrics.reference_solution(prob, tol=1e-10, assume_unique_minimizer=True)
        params = rc.make_params(prob.mu, prob.lip, c=6.0, d=40)
        trace = rc.run_reconditioned(prob, params,
                                     engine.DelaySchedule.random_uniform(3, seed=1),
                                     np.zeros(40),
                                     criterion=rc.InnerCriterion(kind="fixed", epochs=1),
                                     outer_budget=400,
                                     target_objective=ref.f_star + 1e-9, seed=2)
        lam = metrics.identification_time(trace, ref)
        assert lam is not None and 0 < lam < trace.n_outer


class TestEmpiricalComplexity:
    def make_run(self):
        prob = strongly_convex_problem(d=10, M=3, seed=4,
                                       reg=pb.Regularizer(kind="l1", lam=0.05))
        ref = metrics.reference_solution(prob, tol=1e-11)
        trace = engine.run_davepg(prob, engine.gamma_max(prob),
                                  engine.DelaySchedule.round_robin(3), np.zeros(10),
                                  engine.StopRule(max_iterations=2000), seed=4,
                                  objective_stride=5)
        return prob, ref, trace

    def test_large_eps_costs_at_most_priming(self):
        prob, ref, trace = self.make_run()
        eps = pb.eval_objective(prob, np.zeros(10)) - ref.f_star + 1.0
        cost = metrics.empirical_complexity(trace, ref, eps)
        assert cost <= trace.priming_up + trace.priming_down + 2 * 10

    def test_monotone_in_eps(self):
        _, ref, trace = self.make_run()
        costs = [metrics.empirical_complexity(trace, ref, e) for e in (1e-1, 1e-3, 1e-6)]
        assert costs[0] <= costs[1] <= costs[2]

    def test_unreached_target_raises_with_best(self):
        prob = strongly_convex_problem(d=10, M=3, seed=4,
                                       reg=pb.Regularizer(kind="l1", lam=0.05))
        ref = metrics.reference_solution(prob, tol=1e-11)
        trace = engine.run_davepg(prob, engine.gamma_max(prob),
                                  engine.DelaySchedule.round_robin(3), np.zeros(10),
                                  engine.StopRule(max_iterations=30), seed=4,
                                  objective_stride=5)
        with pytest.raises(metrics.TargetNotReachedError) as err:
            metrics.empirical_complexity(trace, ref, 1e-12)
        assert err.value.best > 0

    def test_requires_objective_log(self):
        prob = strongly_convex_problem(d=6, M=2, seed=5)
        ref = metrics.reference_solution(prob, tol=1e-10)
        trace = engine.run_davepg(prob, engine.gamma_max(prob),
                                  engine.DelaySchedule.round_robin(2), np.zeros(6),
                                  engine.StopRule(max_iterations=50))
        with pytest.raises(ValueError):
            metrics.empirical_complexity(trace, ref, 1e-3)


class TestCommLedger:
    def test_ledger_conservation(self):
        prob = strongly_convex_problem(d=8, M=2, seed=7)
        from sparsepg.sparsifier import uniform_distribution
        trace = engine.run_spy(prob, engine.gamma_max(prob), uniform_distribution(8, 0.5),
                               engine.DelaySchedule.round_robin(2), np.zeros(8),
                               engine.StopRule(max_iterations=100), seed=7)
        assert trace.cum_up == trace.priming_up + sum(r.coords_up for r in trace.records)
        cum = [p.cum_up for p in trace.objective_log]
        assert cum == sorted(cum)


def _lam_max(prob) -> float:
    return float(np.max(np.abs(pb.smooth_gradient(prob, np.zeros(prob.dim)))))


class TestCalibration:
    @staticmethod
    def lasso_data(d=50, m=70, seed=8):
        """(dataset, plan, the smallest weight whose lasso solution is 0)."""
        ds, _ = data.generate_lasso(d=d, m=m, sparsity=0.9, noise_std=0.01, seed=seed)
        plan = data.shard_even(ds, 3, seed=seed)
        return ds, plan, _lam_max(data.lasso_problem(ds, plan, 1.0))

    @staticmethod
    def record_solves(monkeypatch):
        """The (problem, x0) of every direct.solve that calibrate_l1 makes."""
        calls, solve = [], metrics.direct.solve

        def recording(prob, tol, x0=None):
            calls.append((prob, x0))
            return solve(prob, tol, x0)

        monkeypatch.setattr(metrics.direct, "solve", recording)
        return calls

    def test_hits_target_support(self):
        ds, plan, lam_hi = self.lasso_data()
        lam = metrics.calibrate_l1(lambda l: data.lasso_problem(ds, plan, l), 5, lam_hi)
        prob = data.lasso_problem(ds, plan, lam)
        ref = metrics.reference_solution(prob, tol=1e-9, assume_unique_minimizer=True)
        assert ref.s_star == 5

    def test_builder_called_once_at_lam_hi(self):
        ds, plan, lam_hi = self.lasso_data()
        asked = []
        metrics.calibrate_l1(lambda l: asked.append(l) or data.lasso_problem(ds, plan, l),
                             5, lam_hi)
        assert asked == [lam_hi]

    @pytest.mark.parametrize("d, m, seed, target", [(50, 70, 8, 5), (300, 200, 5, 12)],
                             ids=["tall", "wide"])
    def test_warm_probes_match_cold_solves(self, monkeypatch, d, m, seed, target):
        ds, plan, lam_hi = self.lasso_data(d, m, seed)
        solve = metrics.direct.solve
        calls = self.record_solves(monkeypatch)
        metrics.calibrate_l1(lambda l: data.lasso_problem(ds, plan, l), target, lam_hi)
        assert len(calls) >= 3
        assert calls[0][1] is None and all(x0 is not None for _, x0 in calls[1:])
        for prob, x0 in calls:
            warm = direct.polish_l1_least_squares(prob, solve(prob, 1e-10, x0)[0])
            cold = direct.polish_l1_least_squares(prob, solve(prob, 1e-10)[0])
            np.testing.assert_array_equal(np.flatnonzero(warm), np.flatnonzero(cold))

    def test_builder_ignoring_its_weight_rejected(self):
        ds, plan, lam_hi = self.lasso_data()
        with pytest.raises(ValueError, match="returned a problem with lam1=0.5"):
            metrics.calibrate_l1(lambda l: data.lasso_problem(ds, plan, 0.5), 5, lam_hi)

import csv
import dataclasses
import itertools
import math
import pickle
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsepg import data, direct, engine, metrics, problem as pb, recondition as rc
from sparsepg.sparsifier import adaptive_distribution, min_conditioning

from conftest import (check_ledger, count_messages, shaped_problem, strongly_convex_problem,
                      trace_bytes)


def small_lasso(d=40, m=60, lam=0.2, M=3, seed=11):
    ds, _ = data.generate_lasso(d=d, m=m, sparsity=0.9, noise_std=0.01, seed=seed)
    plan = data.shard_even(ds, M, seed=seed)
    return data.lasso_problem(ds, plan, lam1=lam)


class TestMakeParams:
    def test_hand_example_half_budget(self):
        p = rc.make_params(mu=0.0, lip=1.0, c=5.0, d=10)
        assert (p.pi, p.alpha) == (0.5, 0.25)
        assert p.kappa == pytest.approx(1 / 3)
        assert p.rho == pytest.approx(0.5)
        assert p.gamma == pytest.approx(2 / (0 + 1 + 2 * 0.5))

    def test_hand_example_full_budget(self):
        L, mu = 2.0, 0.1
        p = rc.make_params(mu=mu, lip=L, c=10.0, d=10)
        assert (p.pi, p.alpha) == (1.0, 0.5)
        kappa = (1 - math.sqrt(0.5)) / (1 + math.sqrt(0.5))
        assert p.kappa == pytest.approx(kappa)
        assert p.rho == pytest.approx((kappa * L - mu) / (1 - kappa))

    def test_well_conditioned_fallback(self):
        p = rc.make_params(mu=1.0, lip=1.0, c=5.0, d=10)
        assert p.rho == 0.0
        assert not p.needs_reconditioning

    def test_validation(self):
        with pytest.raises(ValueError):
            rc.make_params(mu=0.0, lip=1.0, c=0.0, d=10)
        with pytest.raises(ValueError):
            rc.make_params(mu=0.0, lip=1.0, c=11.0, d=10)
        with pytest.raises(ValueError):
            rc.make_params(mu=2.0, lip=1.0, c=1.0, d=10)

    @settings(max_examples=200, deadline=None)
    @given(mu=st.floats(0.0, 10.0), lip=st.floats(1e-3, 1e3), d=st.integers(1, 10_000),
           frac=st.floats(1e-4, 1.0))
    def test_stepsize_closes_probability_chain(self, mu, lip, d, frac):
        """gamma = 2/(mu + L + 2 rho) gives (1 - gamma (mu + rho))^2 = pi - alpha."""
        mu = min(mu, lip)
        p = rc.make_params(mu=mu, lip=lip, c=max(frac * d, 1e-3), d=d)
        assume(p.needs_reconditioning)
        assert p.gamma == 2.0 / (mu + lip + 2.0 * p.rho)
        chain = (1.0 - p.gamma * (mu + p.rho)) ** 2
        assert chain == pytest.approx(p.pi - p.alpha, rel=0, abs=1e-9)


    @pytest.mark.parametrize("mu", [0, 1e-3, 0.37, 2])
    @pytest.mark.parametrize("lip", [2, 29.1, 1000])
    def test_derived_from_inputs(self, mu, lip):
        """ReconditionParams is built from (c, d, mu, L) alone and derives the
        rest by the closed forms, bit for bit."""
        for c, d in itertools.product((1, 4, 12, 12.0, 37.5, 200), (200, 1000, 100000)):
            p = rc.ReconditionParams(c=c, d=d, mu=mu, lip=lip)
            pi, alpha = c / d, c / (2.0 * d)
            kappa = min_conditioning(pi - alpha)
            rho = max((kappa * lip - mu) / (1.0 - kappa), 0.0)
            assert (p.pi, p.alpha, p.kappa, p.rho) == (pi, alpha, kappa, rho)
            assert p.gamma == 2.0 / (mu + lip + 2.0 * rho)
            assert p == rc.make_params(mu, lip, c, d)

    def test_only_inputs_are_settable(self):
        p = rc.make_params(mu=0.1, lip=2.0, c=5.0, d=100)
        assert [f.name for f in dataclasses.fields(p) if f.init] == ["c", "d", "mu", "lip"]
        for name in ("pi", "alpha", "kappa", "rho", "gamma"):
            with pytest.raises(ValueError, match=name):
                dataclasses.replace(p, **{name: 0.5 * getattr(p, name)})
        assert dataclasses.replace(p, c=12.0) == rc.make_params(mu=0.1, lip=2.0, c=12.0, d=100)
        with pytest.raises(ValueError, match="exploration budget"):
            dataclasses.replace(p, c=101.0)


class TestEpochBudget:
    def make(self):
        # engineered so alpha = 0.25 exactly: c/(2d) = 0.25 with c = d/2
        return rc.make_params(mu=0.0, lip=1.0, c=8.0, d=16)

    def test_closed_form(self):
        p = self.make()
        # pi_ell = pi, DELTA = 0.5: M_ell = ceil(1.5 log(ell)/log(4/3) + log(2)/log(4/3))
        for ell in (1, 2, 5, 20):
            expected = math.ceil(
                1.5 * math.log(ell) / math.log(4 / 3) + math.log(2) / math.log(4 / 3)
            )
            assert rc.epoch_budget(ell, p, p.pi) == max(expected, 1)

    def test_first_step_drops_log_term(self):
        p = self.make()
        assert rc.epoch_budget(1, p, p.pi) == math.ceil(math.log(2) / math.log(4 / 3))

    def test_nondecreasing(self):
        p = self.make()
        vals = [rc.epoch_budget(ell, p, p.pi) for ell in range(1, 40)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_contraction_violation(self):
        p = self.make()
        with pytest.raises(ValueError):
            rc.epoch_budget(1, p, p.pi - p.alpha)  # rate hits 1

    def test_counting_from_one(self):
        with pytest.raises(ValueError):
            rc.epoch_budget(0, self.make(), 0.5)


class TestCriteria:
    def test_unknown_kind(self):
        for kind in ("absolute", "adaptive"):
            with pytest.raises(ValueError, match=kind):
                rc.InnerCriterion(kind=kind)

    def test_fixed_needs_an_epoch(self):
        with pytest.raises(ValueError, match="epochs must be an integer >= 1"):
            rc.InnerCriterion(kind="fixed", epochs=0)

    @pytest.mark.parametrize("kind, epochs", [("fixed", 1.5), ("fixed", True), ("fixed", 2.0),
                                              ("fixed", "2"), ("budget", 0), ("relative", -1)])
    def test_epochs_are_an_integer(self, kind, epochs):
        with pytest.raises(ValueError, match="epochs must be an integer >= 1"):
            rc.InnerCriterion(kind=kind, epochs=epochs)

    @pytest.mark.parametrize("kind", ["budget", "relative"])
    def test_momentum_runs_fixed_only(self, kind):
        prob = small_lasso()
        params = rc.make_params(prob.mu, prob.lip, c=6.0, d=40)
        with pytest.raises(ValueError, match=f"fixed criterion only, not '{kind}'"):
            rc.run_momentum(prob, params, engine.DelaySchedule.round_robin(3), np.zeros(40),
                            criterion=rc.InnerCriterion(kind=kind), outer_budget=1)


class TestProxOracle:
    def test_quadratic_closed_form(self):
        # f(x) = x^2/2 via least squares with A = 1/sqrt(2)
        shard = pb.LossShard(kind=pb.LEAST_SQUARES,
                             A=np.array([[1 / math.sqrt(2)]]), b=np.array([0.0]))
        prob = pb.CompositeProblem([shard])
        center = np.array([3.0])
        out = rc.prox_oracle(prob, rho=1.0, center=center, tol=1e-10)
        assert out == pytest.approx([1.5], abs=1e-8)

    def test_pure_l1_reduces_to_soft_threshold(self):
        shard = pb.LossShard(kind=pb.LEAST_SQUARES, A=np.array([[0.0, 0.0]]), b=np.array([0.0]))
        prob = pb.CompositeProblem([shard], reg=pb.Regularizer(kind="l1", lam=1.0))
        gamma = 0.5
        center = np.array([2.0, -0.3])
        out = rc.prox_oracle(prob, rho=1 / gamma, center=center, tol=1e-10)
        assert out == pytest.approx(pb.prox_reg(prob.reg, gamma, center), abs=1e-8)

    def test_fixed_point_at_minimizer(self):
        prob = small_lasso()
        x_star, _ = direct.solve(prob, tol=1e-11)
        out = rc.prox_oracle(prob, rho=2.0, center=x_star, tol=1e-10)
        assert np.linalg.norm(out - x_star) < 1e-7

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            rc.prox_oracle(small_lasso(), rho=0.0, center=np.zeros(40))

    def test_solver_budget(self, monkeypatch):
        monkeypatch.setattr(direct, "MAX_ITER", 3)
        with pytest.raises(direct.SolveBudgetError):
            rc.prox_oracle(small_lasso(), rho=1.0, center=np.zeros(40), tol=1e-14)


class TestReconditionedLoop:
    def setup_method(self):
        self.prob = small_lasso()
        self.params = rc.make_params(self.prob.mu, self.prob.lip, c=6.0, d=40)
        self.sched = engine.DelaySchedule.random_uniform(3, seed=1)
        x, _ = direct.solve(self.prob, tol=1e-10)
        self.x_star = direct.polish_l1_least_squares(self.prob, x)
        self.f_star = pb.eval_objective(self.prob, self.x_star)

    def test_fixed_point_start_does_no_work(self):
        trace = rc.run_reconditioned(self.prob, self.params, self.sched, self.x_star,
                                     target_objective=self.f_star + 1e-10)
        assert trace.n_outer == 0
        assert np.array_equal(trace.final_x, self.x_star)

    @pytest.mark.parametrize("kind", ["budget", "fixed", "relative"])
    def test_all_criteria_converge(self, kind):
        criterion = rc.InnerCriterion(kind=kind, epochs=2)
        trace = rc.run_reconditioned(self.prob, self.params, self.sched, np.zeros(40),
                                     criterion=criterion, outer_budget=600,
                                     target_objective=self.f_star + 1e-7, seed=3)
        assert pb.eval_objective(self.prob, trace.final_x) <= self.f_star + 1e-7

    def test_outer_records_consistent(self):
        trace = rc.run_reconditioned(self.prob, self.params, self.sched, np.zeros(40),
                                     criterion=rc.InnerCriterion(kind="fixed", epochs=1),
                                     outer_budget=30, seed=4, objective_stride=5)
        assert [r.ell for r in trace.records] == list(range(1, 31))
        ups = [r.cum_up for r in trace.records]
        downs = [r.cum_down for r in trace.records]
        assert all(a < b for a, b in zip(ups, ups[1:]))
        assert all(a < b for a, b in zip(downs, downs[1:]))
        assert len(trace.centers) == 31
        # pi_ell reflects the adaptive distribution of each center
        for r, center in zip(trace.records, trace.centers):
            assert r.pi_ell == pytest.approx(adaptive_distribution(center, 6.0).p_min)

    def test_target_check_reuses_logged_objective(self, monkeypatch):
        calls = []
        evaluate = pb.eval_objective

        def counted(problem, x):
            calls.append(None)
            return evaluate(problem, x)

        monkeypatch.setattr(pb, "eval_objective", counted)
        target = self.f_star + 1e-6
        plain = rc.run_reconditioned(self.prob, self.params, self.sched, np.zeros(40),
                                     criterion=rc.InnerCriterion(kind="fixed", epochs=1),
                                     outer_budget=2000, target_objective=target, seed=4)
        assert plain.records[-1].objective <= target < plain.records[-2].objective
        assert len(calls) == plain.n_outer + 1
        calls.clear()
        mom = rc.run_momentum(self.prob, self.params, self.sched, np.zeros(40),
                              criterion=rc.InnerCriterion(kind="fixed", epochs=1),
                              outer_budget=2000, target_objective=target, seed=4)
        assert mom.records[-1].objective <= target < mom.records[-2].objective
        assert len(calls) == mom.n_outer + 1

    @pytest.mark.parametrize("loop", ["plain", "momentum"])
    @pytest.mark.parametrize("stride", [1, 5, 16, 1000])
    def test_objective_log_holds_f_at_outer_iterates(self, loop, stride, monkeypatch):
        # F(init) at k = -1, then F(x_ell) at the run-wide index of step ell's
        # last inner iteration when the step's iterations include a multiple of
        # the stride.  F is evaluated once at init and once per outer step,
        # whatever the stride, and inner runs log nothing
        evaluate = pb.eval_objective
        calls = []

        def counted(problem, x):
            if problem is self.prob:
                calls.append(None)
            return evaluate(problem, x)

        monkeypatch.setattr(pb, "eval_objective", counted)
        target = self.f_star + 1e-6
        if loop == "plain":
            trace = rc.run_reconditioned(self.prob, self.params, self.sched, np.zeros(40),
                                         criterion=rc.InnerCriterion(kind="fixed", epochs=1),
                                         outer_budget=2000, target_objective=target, seed=4,
                                         objective_stride=stride)
        else:
            trace = rc.run_momentum(self.prob, self.params, self.sched, np.zeros(40),
                                    criterion=rc.InnerCriterion(kind="fixed", epochs=1),
                                    outer_budget=2000, target_objective=target, seed=4,
                                    objective_stride=stride)
        assert trace.records[-1].objective <= target < trace.records[-2].objective
        assert len(calls) == trace.n_outer + 1
        assert all(t.objective_log == [] for t in trace.inner_traces)
        expected = [(-1, 0, 0, evaluate(self.prob, np.zeros(40)))]
        start = 0
        for r, x in zip(trace.records, list(trace)[1:]):
            assert r.objective == evaluate(self.prob, x)
            end = start + r.inner_iterations - 1
            if any(k % stride == 0 for k in range(start, end + 1)):
                expected.append((end, r.cum_up, r.cum_down, r.objective))
            start = end + 1
        assert [(p.k, p.cum_up, p.cum_down, p.value) for p in trace.objective_log] == expected
        if stride == 1:
            assert len(expected) == trace.n_outer + 1

    @pytest.mark.parametrize("capped", [False, True])
    def test_predicate_tested_once_per_epoch(self, capped, monkeypatch):
        # the engine tests the predicate at every epoch boundary, the last of
        # a run cut by max_epochs included, and the outer loop reads its
        # outcome.  With this cap, some runs reach it
        if capped:
            monkeypatch.setattr(rc, "SAFETY_EPOCHS", 2)
        calls = []
        make_stop = rc._inner_stop

        def make(*args):
            stop = make_stop(*args)
            calls.append([])

            def pred(x, m):
                calls[-1].append(m)
                return stop.epoch_predicate(x, m)

            return dataclasses.replace(stop, epoch_predicate=pred)

        monkeypatch.setattr(rc, "_inner_stop", make)
        trace = rc.run_reconditioned(self.prob, self.params, self.sched, np.zeros(40),
                                     criterion=rc.InnerCriterion(kind="relative"),
                                     outer_budget=20, seed=3)
        assert trace.n_outer == 20
        assert calls == [list(range(1, t.n_epochs + 1)) for t in trace.inner_traces]
        assert capped == any(t.n_epochs == rc.SAFETY_EPOCHS for t in trace.inner_traces)

    @pytest.mark.parametrize("loop", ["plain", "momentum"])
    def test_each_step_draws_its_own_worker_order(self, loop):
        # a random schedule gives every inner run its own order (with one
        # schedule seed for all, every run fired a prefix of the same order);
        # a fixed trace restarts at every step
        run = rc.run_reconditioned if loop == "plain" else rc.run_momentum
        criterion = rc.InnerCriterion(kind="fixed", epochs=1)
        fires = [t.worker_fires for t in run(self.prob, self.params, self.sched, np.zeros(40),
                                             criterion=criterion, outer_budget=30,
                                             seed=4).inner_traces]
        assert min(len(f) for f in fires) >= 6
        assert len({tuple(f[:6]) for f in fires}) > 1
        longest = max(fires, key=len)
        assert not all(f == longest[:len(f)] for f in fires)
        robin = run(self.prob, self.params, engine.DelaySchedule.round_robin(3), np.zeros(40),
                    criterion=criterion, outer_budget=30, seed=4)
        assert all(t.worker_fires == [k % 3 for k in range(t.n_iterations)]
                   for t in robin.inner_traces)

    @pytest.mark.parametrize("loop", ["plain", "momentum"])
    def test_one_reconditioned_problem_per_outer_step(self, loop, monkeypatch):
        # each step builds one reconditioned problem, which the relative
        # criterion also solves for its proximal point
        calls = []
        recondition = pb.reconditioned
        monkeypatch.setattr(pb, "reconditioned",
                            lambda *a, **k: calls.append(None) or recondition(*a, **k))
        if loop == "plain":
            trace = rc.run_reconditioned(self.prob, self.params, self.sched, np.zeros(40),
                                         criterion=rc.InnerCriterion(kind="relative"),
                                         outer_budget=20, seed=3)
        else:
            trace = rc.run_momentum(self.prob, self.params, self.sched, np.zeros(40),
                                    criterion=rc.InnerCriterion(kind="fixed"),
                                    outer_budget=20, seed=3)
        assert trace.n_outer == 20
        assert len(calls) == 20

    def test_outer_steps_build_no_shard(self, monkeypatch):
        # a reconditioned problem shares the shards, and with them their
        # column stores, so no outer step builds or checks shard data again
        built = []
        post_init = pb.LossShard.__post_init__
        monkeypatch.setattr(pb.LossShard, "__post_init__",
                            lambda shard: built.append(None) or post_init(shard))
        assert pb.reconditioned(self.prob, self.params.rho, np.ones(40)).shards is self.prob.shards
        trace = rc.run_reconditioned(self.prob, self.params, self.sched, np.zeros(40),
                                     criterion=rc.InnerCriterion(kind="relative"),
                                     outer_budget=20, seed=3)
        assert trace.n_outer == 20
        assert built == []

    def test_iteration_yields_centers(self):
        # the plain loop centers each step at the previous step's result
        trace = rc.run_reconditioned(self.prob, self.params, self.sched, np.zeros(40),
                                     criterion=rc.InnerCriterion(kind="fixed", epochs=1),
                                     outer_budget=2000, target_objective=self.f_star + 1e-8,
                                     seed=1)
        points = list(trace)
        assert len(points) == len(trace.centers) == trace.n_outer + 1
        assert all(np.array_equal(p, c) for p, c in zip(points, trace.centers))
        # each center is the previous inner run's final point, stored once and read as a copy
        assert all(c.tobytes() == t.final_x.tobytes()
                   for c, t in zip(trace.centers[1:], trace.inner_traces))
        assert trace.final_x.tobytes() == trace.inner_traces[-1].final_x.tobytes()
        ref = metrics.reference_solution(self.prob, tol=1e-12, assume_unique_minimizer=True)
        lam = metrics.identification_time(trace, ref)
        assert lam is not None and lam == metrics.identification_time(trace.centers, ref)

    def test_priming_charged_once_in_both_modes(self):
        charges = {}
        for mode in ("sim", "concurrent"):
            trace = rc.run_reconditioned(self.prob, self.params,
                                         engine.DelaySchedule.round_robin(3), np.zeros(40),
                                         criterion=rc.InnerCriterion(kind="fixed", epochs=1),
                                         outer_budget=10, seed=5, mode=mode)
            charges[mode] = [(t.priming_up, t.priming_down) for t in trace.inner_traces]
        assert charges["sim"] == charges["concurrent"]
        assert charges["sim"][0][0] > 0
        assert all(c == (0, 0) for c in charges["sim"][1:])

    def test_full_budget_inner_is_dense(self):
        # c = d makes every selection probability 1; one inner epoch must equal
        # the dense engine on the reconditioned subproblem
        params = rc.make_params(self.prob.mu, self.prob.lip, c=40.0, d=40)
        trace = rc.run_reconditioned(self.prob, params, self.sched, np.zeros(40),
                                     criterion=rc.InnerCriterion(kind="fixed", epochs=1),
                                     outer_budget=1, seed=5)
        sub = pb.reconditioned(self.prob, params.rho, np.zeros(40))
        ref = engine.run_davepg(sub, params.gamma, self.sched, np.zeros(40),
                                engine.StopRule(max_epochs=1),
                                seed=5 + rc._SEED_STRIDE)
        assert np.max(np.abs(trace.final_x - ref.final_x)) <= 1e-12

    def test_inner_epoch_contraction(self):
        # measured inner contraction on H_ell stays near the predicted factor
        ratios = []
        for seed in range(10):
            prob = strongly_convex_problem(d=12, M=3, kappa=0.02, seed=seed,
                                           reg=pb.Regularizer(kind="l1", lam=0.05))
            params = rc.make_params(prob.mu, prob.lip, c=6.0, d=12)
            center = np.zeros(12)
            sub = pb.reconditioned(prob, params.rho, center)
            hat = rc.prox_oracle(prob, params.rho, center, tol=1e-11)
            dist = adaptive_distribution(center, 6.0)
            trace = engine.run_spy(sub, params.gamma, dist,
                                   engine.DelaySchedule.random_uniform(3, seed=seed),
                                   center, engine.StopRule(max_epochs=10), seed=seed)
            errs = [float(np.sum((s - hat) ** 2)) for s in trace.epoch_snapshots]
            for a, b in zip(errs, errs[1:]):
                if a > 1e-18:
                    ratios.append(b / a)
            rate = params.inner_contraction(dist.p_min)
        assert np.mean(ratios) <= rate + 0.05

    def test_safety_cap_raises(self, monkeypatch):
        # the relative coefficient shrinks like 1/ell^(2 + 2 delta), so a
        # one-epoch cap must eventually fall short
        monkeypatch.setattr(rc, "SAFETY_EPOCHS", 1)
        criterion = rc.InnerCriterion(kind="relative")
        with pytest.raises(rc.InnerBudgetError, match="exhausted 1 epochs"):
            rc.run_reconditioned(self.prob, self.params, self.sched, np.zeros(40),
                                 criterion=criterion, outer_budget=60, seed=6)

    def test_rho_zero_rejected(self):
        # one check in the shared loop, with one message
        params = rc.make_params(mu=1.0, lip=1.0, c=6.0, d=40)
        for run in (rc.run_reconditioned, rc.run_momentum):
            with pytest.raises(ValueError, match="rho = 0: the problem is already conditioned"):
                run(self.prob, params, self.sched, np.zeros(40))

    @pytest.mark.parametrize("stride", [0, -3, 2.5, True])
    def test_objective_stride_checked(self, stride):
        with pytest.raises(ValueError, match="objective_stride"):
            rc.run_reconditioned(self.prob, self.params, self.sched, np.zeros(40),
                                 outer_budget=1, objective_stride=stride)
        with pytest.raises(ValueError, match="objective_stride"):
            rc.run_momentum(self.prob, self.params, self.sched, np.zeros(40),
                            outer_budget=1, objective_stride=stride)

    @pytest.mark.parametrize("loop", ["plain", "momentum"])
    def test_inputs_checked_before_the_start_is_evaluated(self, loop, monkeypatch):
        # the session opens before F(init): a bad mode or schedule is refused
        # even when no step would run, as is an outer budget that is no count
        calls = []
        monkeypatch.setattr(pb, "eval_objective", lambda *args: calls.append(None))
        run = rc.run_reconditioned if loop == "plain" else rc.run_momentum
        loose = rc.make_params(self.prob.mu, self.prob.lip / 2, c=6.0, d=40)  # gamma too long
        cases = [
            (dict(mode="bogus", target_objective=np.inf), "unknown mode"),
            (dict(mode="bogus", outer_budget=0), "unknown mode"),
            (dict(schedule=engine.DelaySchedule.round_robin(2), outer_budget=0),
             "schedule worker count"),
            (dict(params=loose, outer_budget=0), "gamma"),
            (dict(outer_budget=2.5), "outer_budget must be an integer >= 0"),
            (dict(outer_budget=True), "outer_budget must be an integer >= 0"),
            (dict(outer_budget=-1), "outer_budget must be an integer >= 0"),
        ]
        for kwargs, match in cases:
            schedule = kwargs.pop("schedule", self.sched)
            params = kwargs.pop("params", self.params)
            with pytest.raises(ValueError, match=match):
                run(self.prob, params, schedule, np.zeros(40), **kwargs)
        assert calls == []

    def test_csv_schema(self, tmp_path):
        trace = rc.run_reconditioned(self.prob, self.params, self.sched, np.zeros(40),
                                     criterion=rc.InnerCriterion(kind="fixed", epochs=1),
                                     outer_budget=5, seed=7)
        path = tmp_path / "outer.csv"
        trace.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        # no gap column: f* is in summary.json
        assert rows[0] == ["ell", "pi_ell", "inner_epochs", "inner_iterations",
                           "support_size", "cum_up", "cum_down", "objective"]
        assert len(rows) == 6


class TestSession:
    """An outer loop runs its inner runs on one engine session, which holds
    the workers and, in concurrent mode, one pool of M threads."""

    @pytest.mark.parametrize("schedule", ["round-robin", "random"])
    @pytest.mark.parametrize("loop, kind", [("plain", "fixed"), ("plain", "budget"),
                                            ("plain", "relative"), ("momentum", "fixed")])
    @pytest.mark.parametrize("shape", ["tall", "wide", "csc", "logistic"])
    def test_inner_runs_equal_fresh_runs(self, shape, loop, kind, schedule):
        # in sim mode inner run ell has the bytes of a fresh run_spy on the
        # problem reconditioned at its center, with the seed, step schedule,
        # stop rule and priming charge of step ell
        prob = shaped_problem(shape)
        M, d = prob.n_workers, prob.dim
        params = rc.make_params(prob.mu, prob.lip, c=3.0, d=d)
        sched = (engine.DelaySchedule.round_robin(M) if schedule == "round-robin"
                 else engine.DelaySchedule.random_uniform(M, seed=4))
        init = np.zeros(d)
        init[[0, 4]] = [0.5, -1.0]
        criterion = rc.InnerCriterion(kind, epochs=2)
        run = rc.run_reconditioned if loop == "plain" else rc.run_momentum
        seed = 5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            trace = run(prob, params, sched, init, criterion=criterion, outer_budget=5, seed=seed)
            assert trace.n_outer == 5
            for ell, (inner, center) in enumerate(zip(trace.inner_traces, trace.centers), start=1):
                sub = pb.reconditioned(prob, params.rho, center)
                dist = adaptive_distribution(center, params.c)
                stop = rc._inner_stop(criterion, ell, params, dist.p_min, center, sub)
                step_schedule = sched if schedule == "round-robin" else dataclasses.replace(
                    sched, seed=sched.seed + rc._SEED_STRIDE * (ell - 1))
                fresh = engine.run_spy(sub, params.gamma, dist, step_schedule, center, stop,
                                       seed=seed + rc._SEED_STRIDE * ell,
                                       charge_priming=(ell == 1))
                assert trace_bytes(fresh) == trace_bytes(inner), f"inner run {ell}"
                assert fresh.predicate_met == inner.predicate_met

    @pytest.mark.parametrize("loop", ["plain", "momentum"])
    def test_concurrent_loop_starts_at_most_M_threads(self, loop, monkeypatch):
        # one pool for the loop: a pool per step started up to M threads per step
        prob = small_lasso()
        params = rc.make_params(prob.mu, prob.lip, c=5.0, d=prob.dim)
        caller = threading.current_thread()
        workers = set()  # the threads themselves, kept alive so that none is counted twice
        grad = pb.grad_shard

        def recording_grad(shard, x, coords=None):
            if threading.current_thread() is not caller:
                workers.add(threading.current_thread())
            return grad(shard, x, coords)

        monkeypatch.setattr(pb, "grad_shard", recording_grad)
        before = set(threading.enumerate())
        run = rc.run_reconditioned if loop == "plain" else rc.run_momentum
        trace = run(prob, params, engine.DelaySchedule.round_robin(3), np.zeros(prob.dim),
                    criterion=rc.InnerCriterion("fixed", epochs=1), outer_budget=12, seed=3,
                    mode="concurrent")
        assert trace.n_outer == 12
        assert 1 <= len(workers) <= 3
        assert [t for t in threading.enumerate() if t not in before] == []

    def test_worker_failure_in_a_later_step_raises(self, monkeypatch):
        prob = small_lasso()
        params = rc.make_params(prob.mu, prob.lip, c=5.0, d=prob.dim)
        caller = threading.current_thread()
        steps, failed_in = [], []  # a reconditioned problem per step, built before its run
        recondition, grad = pb.reconditioned, pb.grad_shard

        def counted(*args):
            steps.append(None)
            return recondition(*args)

        def failing_grad(shard, x, coords=None):
            # every worker step from outer step 3 on fails; priming runs in the caller
            if threading.current_thread() is not caller and len(steps) >= 3:
                failed_in.append(len(steps))
                raise FloatingPointError("injected")
            return grad(shard, x, coords)

        monkeypatch.setattr(pb, "reconditioned", counted)
        monkeypatch.setattr(pb, "grad_shard", failing_grad)
        before = set(threading.enumerate())
        with pytest.raises(FloatingPointError, match="injected"):
            rc.run_reconditioned(prob, params, engine.DelaySchedule.round_robin(3),
                                 np.zeros(prob.dim), criterion=rc.InnerCriterion("fixed", epochs=1),
                                 outer_budget=10, seed=3, mode="concurrent")
        assert len(steps) == 3 and set(failed_in) == {3}
        assert [t for t in threading.enumerate() if t not in before] == []


class TestIdentificationUnderSkew:
    """c07's property, finite identification, on a small lasso whose workers
    do not take turns: speed weights 1, 3, 9 and 27, and a bursty fixed
    trace.  Skew stretches the epochs, not the outer loop."""

    @pytest.mark.parametrize("sched", [
        engine.DelaySchedule.heterogeneous([1, 3, 9, 27], seed=0),
        engine.DelaySchedule.fixed_trace([0] * 30 + [1] * 5 + [2] + [3] * 10),
    ], ids=["heterogeneous", "bursty"])
    def test_identification_is_finite(self, sched):
        ds, _ = data.generate_lasso(d=100, m=80, sparsity=0.95, noise_std=0.01, seed=4)
        prob = data.lasso_problem(ds, data.shard_even(ds, 4, seed=0), lam1=0.3)
        ref = metrics.reference_solution(prob, tol=1e-12, assume_unique_minimizer=True)
        assert metrics.check_nondegeneracy(prob, ref) > 0
        params = rc.make_params(prob.mu, prob.lip, c=ref.s_star, d=prob.dim)
        trace = rc.run_reconditioned(
            prob, params, sched, np.zeros(prob.dim), criterion=rc.InnerCriterion("fixed", epochs=1),
            outer_budget=20_000, target_objective=ref.f_star + 1e-7, seed=1)
        assert trace.records[-1].objective <= ref.f_star + 1e-7
        assert metrics.identification_time(trace, ref) is not None


class TestMomentum:
    def setup_method(self):
        self.prob = small_lasso(seed=13)
        self.params = rc.make_params(self.prob.mu, self.prob.lip, c=6.0, d=40)
        self.sched = engine.DelaySchedule.random_uniform(3, seed=2)
        x, _ = direct.solve(self.prob, tol=1e-10)
        self.x_star = direct.polish_l1_least_squares(self.prob, x)
        self.f_star = pb.eval_objective(self.prob, self.x_star)

    def test_weights(self):
        q = 0.2 / (0.2 + 0.8)
        expected = (1 - math.sqrt(q)) / (1 + math.sqrt(q))
        assert rc.momentum_weight(5, mu=0.2, rho=0.8) == pytest.approx(expected)
        assert rc.momentum_weight(1, mu=0.0, rho=1.0) == 0.0
        assert rc.momentum_weight(4, mu=0.0, rho=1.0) == pytest.approx(3 / 6)

    def test_beta_zero_matches_plain_loop(self, monkeypatch):
        monkeypatch.setattr(rc, "momentum_weight", lambda ell, mu, rho: 0.0)
        criterion = rc.InnerCriterion(kind="fixed", epochs=2)
        plain = rc.run_reconditioned(self.prob, self.params, self.sched, np.zeros(40),
                                     criterion=criterion, outer_budget=8, seed=9)
        mom = rc.run_momentum(self.prob, self.params, self.sched, np.zeros(40),
                              criterion=criterion, outer_budget=8, seed=9)
        assert np.array_equal(plain.final_x, mom.final_x)
        assert len(plain.centers) == len(mom.centers) == 9
        assert all(np.array_equal(a, b) for a, b in zip(plain.centers, mom.centers))

    def test_iteration_yields_iterates_not_centers(self):
        # centers are the extrapolated points y_ell; identification is read on
        # the iterates x_ell, the final points of the inner runs
        init = np.zeros(40)
        trace = rc.run_momentum(self.prob, self.params, self.sched, init,
                                criterion=rc.InnerCriterion(kind="fixed", epochs=1),
                                outer_budget=2000, target_objective=self.f_star + 1e-8, seed=1)
        points = list(trace)
        assert len(points) == len(trace.centers) == trace.n_outer + 1
        assert np.array_equal(points[0], init)
        assert all(np.array_equal(p, t.final_x) for p, t in zip(points[1:], trace.inner_traces))
        assert np.array_equal(points[-1], trace.final_x)
        ref = metrics.reference_solution(self.prob, tol=1e-12, assume_unique_minimizer=True)
        lam = metrics.identification_time(trace, ref)
        assert lam == metrics.identification_time(points, ref)
        # on the centers it reads one step later here (18 against 17)
        assert lam < metrics.identification_time(trace.centers, ref)

    @pytest.mark.parametrize("loop", ["plain", "momentum"])
    def test_trace_pickles_byte_identical(self, loop):
        if loop == "plain":
            trace = rc.run_reconditioned(self.prob, self.params, self.sched, np.zeros(40),
                                         criterion=rc.InnerCriterion(kind="fixed", epochs=2),
                                         outer_budget=25, seed=6, objective_stride=5)
        else:
            trace = rc.run_momentum(self.prob, self.params, self.sched, np.zeros(40),
                                    criterion=rc.InnerCriterion(kind="fixed", epochs=2),
                                    outer_budget=25, seed=6, objective_stride=5)
        back = pickle.loads(pickle.dumps(trace))
        assert back.records == trace.records
        assert back.objective_log == trace.objective_log
        assert back.total_iterations == trace.total_iterations
        assert back.final_x.tobytes() == trace.final_x.tobytes()
        assert [c.tobytes() for c in back.centers] == [c.tobytes() for c in trace.centers]
        assert [x.tobytes() for x in back] == [x.tobytes() for x in trace]
        assert [trace_bytes(t) for t in back.inner_traces] == \
            [trace_bytes(t) for t in trace.inner_traces]
        assert len(trace.centers) == 26

    def test_points_hold_no_negative_zero(self):
        # prox_reg writes +0.0 and stored points read their zeros as +0.0, so
        # no epoch snapshot, result or center holds -0.0, whatever the start
        for init in (np.zeros(40), np.full(40, -0.0)):
            trace = rc.run_momentum(self.prob, self.params, self.sched, init,
                                    criterion=rc.InnerCriterion(kind="fixed", epochs=1),
                                    outer_budget=30, seed=1)
            points = [*trace.centers, *trace, trace.final_x]
            points += [x for t in trace.inner_traces for x in (*t.epoch_snapshots, t.final_x)]
            assert any(np.any(x < 0) for x in points)
            assert not any(np.signbit(x[x == 0]).any() for x in points)

    def test_final_x_is_read_from_the_runs(self):
        # x_ell is stored once, as the last inner run's final point; with no
        # step it is the start, and an empty trace has none
        assert rc.OuterTrace().final_x is None
        start = np.full(40, -0.0)
        start[3] = 2.0
        none = rc.run_momentum(self.prob, self.params, self.sched, start, outer_budget=1,
                               target_objective=np.inf)
        assert none.n_outer == 0 and none.final_x.tobytes() == (start + 0.0).tobytes()
        trace = rc.run_momentum(self.prob, self.params, self.sched, start, outer_budget=3)
        assert "final_x" not in {f.name for f in dataclasses.fields(trace)}
        assert trace.final_x.tobytes() == trace.inner_traces[-1].final_x.tobytes()

    @pytest.mark.parametrize("kind", ["fixed"])
    def test_criteria_converge(self, kind):
        criterion = rc.InnerCriterion(kind=kind, epochs=2)
        trace = rc.run_momentum(self.prob, self.params, self.sched, np.zeros(40),
                                criterion=criterion, outer_budget=400,
                                target_objective=self.f_star + 1e-7, seed=10)
        assert pb.eval_objective(self.prob, trace.final_x) <= self.f_star + 1e-7

    def test_momentum_not_slower_than_plain(self):
        crit = rc.InnerCriterion(kind="fixed", epochs=1)
        plain = rc.run_reconditioned(self.prob, self.params, self.sched, np.zeros(40),
                                     criterion=crit, outer_budget=2000,
                                     target_objective=self.f_star + 1e-8, seed=11)
        mom = rc.run_momentum(self.prob, self.params, self.sched, np.zeros(40),
                              criterion=crit, outer_budget=2000,
                              target_objective=self.f_star + 1e-8, seed=11)
        assert mom.n_outer <= plain.n_outer


class TestLedgerCountsMessages:
    """Each inner run's ledger against the messages its sources carry
    (``conftest.count_messages``); the priming round is charged at ell = 1
    only."""

    @pytest.mark.parametrize("loop", ["reconditioned", "momentum"])
    @pytest.mark.parametrize("mode", ["sim", "concurrent"])
    def test_outer_loops(self, monkeypatch, mode, loop):
        prob = small_lasso()
        params = rc.make_params(prob.mu, prob.lip, c=5, d=prob.dim)
        init = np.zeros(prob.dim)
        init[:3] = 1.0
        runs = count_messages(monkeypatch)
        run = rc.run_reconditioned if loop == "reconditioned" else rc.run_momentum
        trace = run(prob, params, engine.DelaySchedule.round_robin(3), init,
                    criterion=rc.InnerCriterion("fixed", epochs=2), outer_budget=6, seed=2,
                    mode=mode)
        assert len(runs) == len(trace.inner_traces) == trace.n_outer == 6
        cum_up = cum_down = 0
        for ell, (inner, messages, center) in enumerate(
                zip(trace.inner_traces, runs.values(), trace.centers), start=1):
            check_ledger(inner, messages, 3, center, dense=False, charged=ell == 1)
            cum_up, cum_down = cum_up + inner.cum_up, cum_down + inner.cum_down
            assert (trace.records[ell - 1].cum_up, trace.records[ell - 1].cum_down) == \
                (cum_up, cum_down)


class TestConcurrentReplay:
    """A concurrent outer loop equals its simulation replay, inner run by
    inner run: run ell is run_spy on the problem reconditioned at center
    ell - 1, with that center's adaptive distribution, the fixed trace of its
    own worker_fires and the loop's seed for step ell."""

    @pytest.mark.parametrize("loop", ["reconditioned", "momentum"])
    def test_inner_runs_equal_sim_replay(self, loop):
        prob = small_lasso()
        params = rc.make_params(prob.mu, prob.lip, c=5.0, d=prob.dim)
        init = np.zeros(prob.dim)
        init[:3] = 1.0
        run = rc.run_reconditioned if loop == "reconditioned" else rc.run_momentum
        seed = 7
        trace = run(prob, params, engine.DelaySchedule.round_robin(3), init,
                    criterion=rc.InnerCriterion("fixed", epochs=2), outer_budget=8,
                    seed=seed, mode="concurrent")
        assert trace.n_outer == 8
        old, engine.DEBUG_CHECK = engine.DEBUG_CHECK, True
        try:
            for ell, (inner, center) in enumerate(zip(trace.inner_traces, trace.centers), start=1):
                replay = engine.run_spy(
                    pb.reconditioned(prob, params.rho, center), params.gamma,
                    adaptive_distribution(center, params.c),
                    engine.DelaySchedule.fixed_trace(inner.worker_fires), center,
                    engine.StopRule(max_epochs=2), seed=seed + rc._SEED_STRIDE * ell,
                    charge_priming=(ell == 1))
                assert trace_bytes(replay) == trace_bytes(inner), f"inner run {ell}"
        finally:
            engine.DEBUG_CHECK = old

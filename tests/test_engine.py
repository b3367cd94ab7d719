import csv
import dataclasses
import itertools
import pickle
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepg import data, direct, engine, problem as pb, recondition as rc
from sparsepg.rng import stream
from sparsepg.sparsifier import SelectorDistribution, adaptive_distribution, uniform_distribution

from conftest import (check_ledger, count_messages, shaped_problem, shifted_initial_radius,
                      strongly_convex_problem, trace_bytes)


def quad_problem():
    shard = pb.LossShard(kind=pb.LEAST_SQUARES, A=np.array([[1.0]]), b=np.array([2.0]))
    return pb.CompositeProblem([shard])


def brute_force_boundaries(worker_log, M):
    """Independent re-implementation of the epoch recursion: the next boundary
    is the smallest k with penultimate-firing-time(i) >= previous boundary for
    every worker i."""
    fires = {i: [] for i in range(M)}
    boundaries = [0]
    for k, i in enumerate(worker_log):
        fires[i].append(k)
        if k == 0:
            continue
        penults = []
        for j in range(M):
            if len(fires[j]) < 2:
                penults = None
                break
            penults.append(fires[j][-2])
        if penults is not None and min(penults) >= boundaries[-1]:
            boundaries.append(k)
    return boundaries


class TestDelaySchedule:
    def test_round_robin(self):
        seq = engine.DelaySchedule.round_robin(3).sequence()
        assert [next(seq) for _ in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_fixed_trace_cycles(self):
        sched = engine.DelaySchedule.fixed_trace([0, 0, 1])
        seq = sched.sequence()
        assert [next(seq) for _ in range(6)] == [0, 0, 1, 0, 0, 1]

    def test_fixed_trace_must_mention_all(self):
        with pytest.raises(ValueError):
            engine.DelaySchedule.fixed_trace([0, 2])

    def test_random_uniform_deterministic(self):
        a = engine.DelaySchedule.random_uniform(4, seed=5).sequence()
        b = engine.DelaySchedule.random_uniform(4, seed=5).sequence()
        assert [next(a) for _ in range(50)] == [next(b) for _ in range(50)]

    def test_heterogeneous_weights(self):
        sched = engine.DelaySchedule.heterogeneous([1.0, 9.0], seed=3)
        seq = sched.sequence()
        draws = [next(seq) for _ in range(5000)]
        assert abs(np.mean(draws) - 0.9) < 0.03

    def test_heterogeneous_validation(self):
        with pytest.raises(ValueError):
            engine.DelaySchedule.heterogeneous([1.0, 0.0], seed=0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                engine.DelaySchedule.heterogeneous([1.0, bad], seed=0)

    @pytest.mark.parametrize("kwargs, problem", [
        (dict(kind="fixed_trace", M=3, trace=(0, 1)), "every worker"),  # worker 2 never fires
        (dict(kind="fixed_trace", M=2, trace=(0, 1, 2)), "every worker"),
        (dict(kind="fixed_trace", M=2), "non-empty"),
        (dict(kind="round_robin", M=2), "unknown schedule kind"),
        (dict(kind="random_uniform", M=0), "M must be an integer >= 1"),
        (dict(kind="random_uniform", M=True), "M must be an integer >= 1"),
        (dict(kind="heterogeneous", M=3, weights=(1.0, 2.0)), "one speed weight per worker"),
        (dict(kind="heterogeneous", M=2, weights=(1.0, -1.0)), "positive"),
        (dict(kind="heterogeneous", M=2, weights=(1.0, np.inf)), "finite"),
    ])
    def test_direct_construction_checked(self, kwargs, problem):
        with pytest.raises(ValueError, match=problem):
            engine.DelaySchedule(**kwargs)

    @pytest.mark.parametrize("trace", [(0.0, 1.0), (0.5, 1), (True, False)])
    def test_trace_entries_are_integers(self, trace):
        # a float or bool worker id is refused at construction, replace included
        with pytest.raises(ValueError, match="a worker id must be an integer"):
            engine.DelaySchedule(kind="fixed_trace", M=2, trace=trace)
        with pytest.raises(ValueError, match="a worker id must be an integer"):
            engine.DelaySchedule.fixed_trace(trace)
        with pytest.raises(ValueError, match="a worker id must be an integer"):
            dataclasses.replace(engine.DelaySchedule.round_robin(2), trace=trace)

    def test_stored_as_python_numbers(self):
        sched = engine.DelaySchedule(kind="fixed_trace", M=2, trace=tuple(np.array([1, 0, 1])))
        assert sched.trace == (1, 0, 1) and all(type(t) is int for t in sched.trace)
        sched = engine.DelaySchedule.heterogeneous(np.array([1, 3]), seed=0)
        assert sched.weights == (1.0, 3.0) and all(type(w) is float for w in sched.weights)
        seq = dataclasses.replace(sched, seed=4).sequence()
        assert {next(seq) for _ in range(200)} == {0, 1}

    @pytest.mark.parametrize("kwargs, problem", [
        (dict(kind="random_uniform", M=2, trace=(1, 0, 1)),
         "random_uniform schedule reads no trace"),
        (dict(kind="heterogeneous", M=2, trace=(0, 1), weights=(1.0, 2.0)), "reads no trace"),
        (dict(kind="random_uniform", M=2, weights=(5.0, 1.0)), "reads no speed weights"),
        (dict(kind="fixed_trace", M=2, trace=(0, 1), weights=(1.0, 1.0)),
         "fixed_trace schedule reads no speed weights"),
        # it would fire 0, 1, 0, 1, ... as round_robin(2) does, and compare unequal to it
        (dict(kind="fixed_trace", M=2, trace=(0, 1), seed=3), "fixed_trace schedule reads no seed"),
    ])
    def test_holds_only_what_its_kind_reads(self, kwargs, problem):
        # a value the kind ignores would make two schedules that draw the
        # same workers compare unequal
        with pytest.raises(ValueError, match=problem):
            engine.DelaySchedule(**kwargs)
        with pytest.raises(ValueError, match="reads no trace"):
            dataclasses.replace(engine.DelaySchedule.round_robin(2), kind="random_uniform")

    def test_replace_checked(self):
        sched = engine.DelaySchedule.round_robin(3)
        with pytest.raises(ValueError, match="reads no seed"):
            dataclasses.replace(sched, seed=4)
        assert dataclasses.replace(sched, seed=0) == sched
        with pytest.raises(ValueError, match="every worker"):
            dataclasses.replace(sched, M=4)
        with pytest.raises(ValueError, match="non-empty"):
            engine.DelaySchedule.fixed_trace([])

    @pytest.mark.parametrize("sched", [
        engine.DelaySchedule.round_robin(3),
        engine.DelaySchedule.random_uniform(3, seed=1),
        engine.DelaySchedule.heterogeneous([1, 2, 3], seed=1),
        engine.DelaySchedule.fixed_trace([2, 1, 0, 1]),
    ])
    def test_every_worker_fires(self, sched):
        seq = sched.sequence()
        assert set(next(seq) for _ in range(500)) == {0, 1, 2}


class TestEpochBoundaries:
    def test_round_robin_closed_form(self):
        # first boundary at 2M-1, then increments of 2M-1
        for M in (1, 2, 3, 5):
            log = [k % M for k in range(20 * M)]
            got = engine.epoch_boundaries(log, M)
            step = 2 * M - 1
            assert got[:4] == [0, step, 2 * step, 3 * step]

    def test_matches_brute_force_on_random_schedules(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            M = int(rng.integers(1, 9))
            log = list(rng.integers(0, M, size=500))
            assert engine.epoch_boundaries(log, M) == brute_force_boundaries(log, M)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(1)
        log = list(rng.integers(0, 4, size=300))
        bounds = engine.epoch_boundaries(log, 4)
        assert all(b < c for b, c in zip(bounds, bounds[1:]))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_tracker_equals_function_on_random_logs(self, data):
        M = data.draw(st.integers(1, 8))
        log = data.draw(st.lists(st.integers(0, M - 1), max_size=300))
        tracker = engine._EpochTracker(M)
        starts = [k for k, i in enumerate(log) if tracker.record(k, i)]
        want = engine.epoch_boundaries(log, M)
        assert tracker.boundaries == want
        assert [0] + starts == want


class TestRunDavePG:
    def test_quadratic_converges(self):
        prob = quad_problem()
        gamma = engine.gamma_max(prob)
        trace = engine.run_davepg(prob, gamma, engine.DelaySchedule.round_robin(1),
                                  np.zeros(1), engine.StopRule(max_iterations=200))
        assert abs(trace.final_x[0] - 2.0) < 1e-10

    def test_gamma_out_of_range(self):
        prob = quad_problem()
        with pytest.raises(ValueError):
            engine.run_davepg(prob, engine.gamma_max(prob) * 1.01,
                              engine.DelaySchedule.round_robin(1),
                              np.zeros(1), engine.StopRule(max_iterations=10))

    def test_divergence_error(self, monkeypatch):
        # skip the stepsize check so that a step far past 2/(mu+L) overshoots
        monkeypatch.setattr(engine, "_check_gamma", lambda *args: None)
        prob = quad_problem()
        with pytest.raises(engine.DivergenceError):
            engine.run_davepg(prob, 100 * engine.gamma_max(prob),
                              engine.DelaySchedule.round_robin(1),
                              np.zeros(1), engine.StopRule(max_iterations=500))

    def test_nan_iterate_is_divergence(self):
        # a shard refuses a NaN design, so the NaN enters through the start point
        prob = quad_problem()
        with pytest.raises(engine.DivergenceError) as info:
            engine.run_davepg(prob, engine.gamma_max(prob),
                              engine.DelaySchedule.round_robin(1),
                              np.array([np.nan]), engine.StopRule(max_iterations=10))
        assert info.value.iteration == 0

    def test_stop_at_epoch_budget(self):
        prob = strongly_convex_problem(d=6, M=3, seed=1)
        trace = engine.run_davepg(prob, engine.gamma_max(prob),
                                  engine.DelaySchedule.round_robin(3),
                                  np.zeros(6), engine.StopRule(max_epochs=4))
        assert trace.n_epochs == 4

    @pytest.mark.parametrize("holds_at", [2, 4, None])
    def test_predicate_tested_at_every_epoch_end(self, holds_at):
        # the epoch end at max_epochs is tested too, and the trace records
        # whether the predicate ended the run
        prob = strongly_convex_problem(d=6, M=3, seed=1)
        calls = []

        def pred(x, m):
            calls.append(m)
            return m == holds_at

        trace = engine.run_davepg(prob, engine.gamma_max(prob),
                                  engine.DelaySchedule.round_robin(3), np.zeros(6),
                                  engine.StopRule(max_epochs=4, epoch_predicate=pred))
        assert calls == list(range(1, trace.n_epochs + 1))
        assert trace.n_epochs == (holds_at or 4)
        assert trace.predicate_met == (holds_at is not None)

    def test_target_objective_stop(self):
        prob = quad_problem()
        trace = engine.run_davepg(prob, engine.gamma_max(prob),
                                  engine.DelaySchedule.round_robin(1),
                                  np.zeros(1),
                                  engine.StopRule(max_iterations=10_000, target_objective=1e-8))
        assert pb.eval_objective(prob, trace.final_x) <= 1e-8
        assert trace.n_iterations < 10_000

    def test_stop_rule_needs_a_bound(self):
        with pytest.raises(ValueError):
            engine.StopRule()

    @pytest.mark.parametrize("field, value", [
        ("max_epochs", 0), ("max_epochs", -3), ("max_epochs", 2.5), ("max_epochs", 1.0),
        ("max_epochs", True), ("max_iterations", -1), ("max_iterations", 2.5),
        ("max_iterations", False), ("max_iterations", "5")])
    def test_stop_limits_are_integers(self, field, value):
        # max_epochs = 0 used to run one whole epoch, max_iterations = 2.5 three iterations
        with pytest.raises(ValueError, match=f"{field} must be an integer >= "):
            engine.StopRule(**{field: value})

    def test_stop_limits_accept_integers(self):
        stop = engine.StopRule(max_epochs=np.int64(2), max_iterations=0)
        assert (stop.max_epochs, stop.max_iterations) == (2, 0)
        prob = strongly_convex_problem(d=6, M=3, seed=1)
        trace = engine.run_davepg(prob, engine.gamma_max(prob),
                                  engine.DelaySchedule.round_robin(3), np.zeros(6), stop)
        assert trace.n_iterations == 0

    def test_coordinator_average_invariant(self):
        prob = strongly_convex_problem(d=5, M=3, seed=2)
        engine.DEBUG_CHECK = True
        try:
            engine.run_davepg(prob, engine.gamma_max(prob),
                              engine.DelaySchedule.random_uniform(3, seed=0),
                              np.zeros(5), engine.StopRule(max_iterations=200), seed=0)
        finally:
            engine.DEBUG_CHECK = False

    def test_epoch_error_bound(self):
        # ||x^{k_m} - x*||^2 <= ((1-kappa)/(1+kappa))^{2m} max_i ||x_i^0 - x_i*||^2
        prob = strongly_convex_problem(d=8, M=3, kappa=0.2, seed=3)
        gamma = engine.gamma_max(prob)
        x_star, _ = direct.solve(prob, tol=1e-12)
        init = np.zeros(8)
        trace = engine.run_davepg(prob, gamma, engine.DelaySchedule.random_uniform(3, seed=4),
                                  init, engine.StopRule(max_epochs=15), seed=4)
        radius = shifted_initial_radius(prob, gamma, init, x_star)
        rate = (1 - prob.kappa) / (1 + prob.kappa)
        for m, snap in enumerate(trace.epoch_snapshots):
            assert np.sum((snap - x_star) ** 2) <= rate ** (2 * m) * radius + 1e-12


class TestDelayIndependence:
    """c04's dense bound ||x^{k_m} - x*||^2 <= ((1-kappa)/(1+kappa))^{2m}
    max_i ||x_i^0 - x_i*||^2 is indexed by epochs, so it holds at every epoch
    whatever the arrival order: bursts, a worker that fires once per cycle,
    skewed speed weights."""

    @staticmethod
    @st.composite
    def schedules(draw):
        M = draw(st.integers(2, 8))
        if draw(st.booleans()):
            weights = draw(st.lists(st.floats(1.0, 20.0), min_size=M, max_size=M))
            return engine.DelaySchedule.heterogeneous(weights, seed=draw(st.integers(0, 100)))
        bursts = draw(st.lists(st.tuples(st.integers(0, M - 1), st.integers(1, 30)),
                               min_size=1, max_size=10))
        rare = draw(st.none() | st.integers(0, M - 1))
        trace = [i for i, n in bursts for _ in range(n) if i != rare]
        # every worker missing from the bursts (the rare one among them)
        # fires once per cycle
        for i in sorted(set(range(M)) - set(trace)):
            trace.insert(draw(st.integers(0, len(trace))), i)
        return engine.DelaySchedule.fixed_trace(trace)

    @settings(max_examples=40, deadline=None)
    @given(sched=schedules(), seed=st.integers(0, 1000))
    def test_dense_epoch_bound_under_any_order(self, sched, seed):
        prob = strongly_convex_problem(d=20, M=sched.M, kappa=0.1, seed=seed)
        gamma = engine.gamma_max(prob)
        x_star, _ = direct.solve(prob, tol=1e-13)
        init = np.zeros(20)
        trace = engine.run_davepg(prob, gamma, sched, init, engine.StopRule(max_epochs=12),
                                  seed=seed)
        radius = shifted_initial_radius(prob, gamma, init, x_star)
        rate = (1 - prob.kappa) / (1 + prob.kappa)
        assert len(trace.epoch_snapshots) == 13
        for m, snap in enumerate(trace.epoch_snapshots):
            assert np.sum((snap - x_star) ** 2) <= rate ** (2 * m) * radius + 1e-12


class TestRunSpy:
    def test_all_ones_equals_davepg(self):
        for seed in range(10):
            prob = strongly_convex_problem(d=7, M=3, seed=seed,
                                           reg=pb.Regularizer(kind="l1", lam=0.05))
            gamma = engine.gamma_max(prob)
            sched = engine.DelaySchedule.random_uniform(3, seed=seed)
            stop = engine.StopRule(max_iterations=150)
            a = engine.run_davepg(prob, gamma, sched, np.zeros(7), stop, seed=seed)
            b = engine.run_spy(prob, gamma, uniform_distribution(7, 1.0), sched,
                               np.zeros(7), stop, seed=seed)
            assert np.max(np.abs(a.final_x - b.final_x)) <= 1e-12
            assert a.worker_fires == b.worker_fires

    def test_empty_masks_leave_state_unchanged(self):
        prob = quad_problem()
        dist = SelectorDistribution(p=np.array([1e-12]))
        # gamma*mu = 1 here, so the rate condition is satisfied and no warning fires
        trace = engine.run_spy(prob, engine.gamma_max(prob), dist,
                               engine.DelaySchedule.round_robin(1),
                               np.zeros(1), engine.StopRule(max_iterations=50), seed=0)
        assert trace.final_x == pytest.approx(trace.epoch_snapshots[0])
        assert all(r.coords_up == 0 for r in trace.records)

    def test_condition_violation_warns(self):
        prob = strongly_convex_problem(d=4, M=2, kappa=0.01, seed=5)
        dist = SelectorDistribution(p=np.array([0.01, 1.0, 1.0, 1.0]))
        with pytest.warns(RuntimeWarning):
            engine.run_spy(prob, engine.gamma_max(prob), dist,
                           engine.DelaySchedule.round_robin(2),
                           np.zeros(4), engine.StopRule(max_iterations=5), seed=0)

    def test_dimension_mismatch(self):
        prob = quad_problem()
        with pytest.raises(ValueError):
            engine.run_spy(prob, engine.gamma_max(prob), uniform_distribution(3, 0.5),
                           engine.DelaySchedule.round_robin(1),
                           np.zeros(1), engine.StopRule(max_iterations=5))

    def test_up_counts_match_masks(self):
        prob = strongly_convex_problem(d=10, M=2, seed=6)
        trace = engine.run_spy(prob, engine.gamma_max(prob), uniform_distribution(10, 0.4),
                               engine.DelaySchedule.round_robin(2),
                               np.zeros(10), engine.StopRule(max_iterations=100), seed=6)
        assert all(0 <= r.coords_up <= 10 for r in trace.records)
        assert trace.cum_up == trace.priming_up + sum(r.coords_up for r in trace.records)


class TestSpyBoundUnderSkew:
    """c05's in-mean bound on uniform masks, where the workers do not take
    turns: on the mean over seeds of ||x^{k_m} - x*||^2,
    (pi (1 - gamma mu)^2 + 1 - pi)^m max_i ||x_i^0 - x_i*||^2 on c05's problem,
    under speed weights 1, 3, 9 and 27 and the bursty trace of
    test_recondition's TestIdentificationUnderSkew.  The bound is per epoch, so
    skew stretches the epochs, not the bound."""

    @pytest.mark.parametrize("pi", [0.3, 0.6])
    @pytest.mark.parametrize("schedule", [
        lambda seed: engine.DelaySchedule.heterogeneous([1, 3, 9, 27], seed=seed),
        lambda seed: engine.DelaySchedule.fixed_trace([0] * 30 + [1] * 5 + [2] + [3] * 10),
    ], ids=["heterogeneous", "bursty"])
    def test_epoch_bound_in_mean(self, schedule, pi):
        d, seeds, epochs = 50, 20, 20
        prob = strongly_convex_problem(d=d, M=4, kappa=0.1, seed=0)
        gamma = engine.gamma_max(prob)
        x_star, _ = direct.solve(prob, tol=1e-12)
        init = np.zeros(d)
        bound = ((pi * (1 - gamma * prob.mu) ** 2 + 1 - pi) ** np.arange(epochs + 1)
                 * shifted_initial_radius(prob, gamma, init, x_star))
        errs, lengths = np.zeros(epochs + 1), []
        for seed in range(seeds):
            trace = engine.run_spy(prob, gamma, uniform_distribution(d, pi), schedule(seed), init,
                                   engine.StopRule(max_epochs=epochs), seed=seed)
            assert len(trace.epoch_snapshots) == epochs + 1
            errs += [np.sum((s - x_star) ** 2) for s in trace.epoch_snapshots]
            lengths += np.diff(trace.epoch_starts).tolist()
        errs /= seeds
        assert np.all(errs <= bound + 1e-12), (
            f"mean epoch length K = {np.mean(lengths):.1f}; mean error / bound by epoch: "
            f"{np.round(errs / bound, 3).tolist()}")


class TestCoordinatorInvariants:
    """Under DEBUG_CHECK every iteration asserts xbar = sum_i alpha_i x_i,
    x = prox(xbar), and that the running support count equals
    count_nonzero(x)."""

    @settings(max_examples=16, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        variant=st.sampled_from(["davepg", "spy", "spy-adaptive"]),
        schedule=st.sampled_from(["round_robin", "random_uniform", "heterogeneous"]),
    )
    def test_average_support_count_and_ledger(self, seed, variant, schedule):
        d, M = 30, 3
        rng = stream(seed, 5)
        reg = pb.Regularizer(kind="l1", lam=0.3)
        ds, _ = data.generate_lasso(d=d, m=60, sparsity=0.8, noise_std=0.01, seed=seed)
        shards = data.make_shards(ds, data.shard_even(ds, M, seed=seed), pb.LEAST_SQUARES)
        prob = pb.CompositeProblem(shards, reg=reg)
        gamma = engine.gamma_max(prob)
        sched = {
            "round_robin": engine.DelaySchedule.round_robin(M),
            "random_uniform": engine.DelaySchedule.random_uniform(M, seed=seed),
            "heterogeneous": engine.DelaySchedule.heterogeneous([1.0, 2.0, 4.0], seed=seed),
        }[schedule]
        stop = engine.StopRule(max_iterations=300)
        init = np.zeros(d)
        init[rng.choice(d, 4, replace=False)] = 1.0
        old, engine.DEBUG_CHECK = engine.DEBUG_CHECK, True
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                if variant == "davepg":
                    trace = engine.run_davepg(prob, gamma, sched, init, stop, seed=seed)
                elif variant == "spy":
                    trace = engine.run_spy(prob, gamma, uniform_distribution(d, 0.2), sched,
                                           init, stop, seed=seed)
                else:
                    # the distribution of the reconditioned loop's inner runs
                    trace = engine.run_spy(prob, gamma, adaptive_distribution(init, 3.0), sched,
                                           init, stop, seed=seed)
        finally:
            engine.DEBUG_CHECK = old
        assert trace.cum_up == trace.priming_up + sum(r.coords_up for r in trace.records)
        assert trace.cum_down == trace.priming_down + sum(r.coords_down for r in trace.records)
        assert trace.records[-1].support_size == np.count_nonzero(trace.final_x)


class TestDeterminismAndModes:
    def test_simulation_bit_identical(self):
        prob = strongly_convex_problem(d=6, M=3, seed=8,
                                       reg=pb.Regularizer(kind="l1", lam=0.05))
        gamma = engine.gamma_max(prob)

        def run():
            return engine.run_spy(prob, gamma, uniform_distribution(6, 0.5),
                                  engine.DelaySchedule.random_uniform(3, seed=8),
                                  np.zeros(6), engine.StopRule(max_iterations=300), seed=8)

        a, b = run(), run()
        assert np.array_equal(a.final_x, b.final_x)
        assert a.records == b.records
        assert a.epoch_starts == b.epoch_starts

    def test_concurrent_reaches_same_point(self):
        prob = strongly_convex_problem(d=6, M=4, seed=9)
        gamma = engine.gamma_max(prob)
        stop = engine.StopRule(max_iterations=3000)
        sim = engine.run_davepg(prob, gamma, engine.DelaySchedule.round_robin(4),
                                np.zeros(6), stop, seed=9)
        conc = engine.run_davepg(prob, gamma, engine.DelaySchedule.round_robin(4),
                                 np.zeros(6), stop, seed=9, mode="concurrent")
        assert np.linalg.norm(sim.final_x - conc.final_x) <= 1e-8
        # masks that always hold a support, as the reconditioned loop's do
        init = np.zeros(6)
        init[[1, 4]] = 1.0
        dist = adaptive_distribution(init, 3.0)
        sim = engine.run_spy(prob, gamma, dist, engine.DelaySchedule.round_robin(4), init, stop,
                             seed=9)
        conc = engine.run_spy(prob, gamma, dist, engine.DelaySchedule.round_robin(4), init, stop,
                              seed=9, mode="concurrent")
        assert np.linalg.norm(sim.final_x - conc.final_x) <= 1e-8

    def test_concurrent_stress_many_threads(self):
        # more worker threads than cores, switching threads as often as possible
        prob = strongly_convex_problem(d=6, M=8, kappa=0.3, seed=12,
                                       reg=pb.Regularizer(kind="l1", lam=0.02))
        gamma = engine.gamma_max(prob)
        dist = uniform_distribution(6, 0.5)
        stop = engine.StopRule(max_iterations=3000)
        sched = engine.DelaySchedule.round_robin(8)
        sim = engine.run_spy(prob, gamma, dist, sched, np.zeros(6), stop, seed=12)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            conc = engine.run_spy(prob, gamma, dist, sched, np.zeros(6), stop, seed=12,
                                  mode="concurrent")
        finally:
            sys.setswitchinterval(interval)
        assert conc.cum_up == conc.priming_up + sum(r.coords_up for r in conc.records)
        assert conc.cum_down == conc.priming_down + sum(r.coords_down for r in conc.records)
        assert np.linalg.norm(sim.final_x - conc.final_x) <= 1e-8

    def test_unknown_mode(self):
        prob = quad_problem()
        with pytest.raises(ValueError, match="mode"):
            engine.run_davepg(prob, engine.gamma_max(prob), engine.DelaySchedule.round_robin(1),
                              np.zeros(1), engine.StopRule(max_iterations=5), mode="threads")


def _within(seconds, fn):
    """Run fn on a helper thread; fail if it is still running after seconds."""
    out = {}

    def target():
        try:
            out["result"] = fn()
        except BaseException as exc:
            out["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout=seconds)
    assert not t.is_alive(), f"run still going after {seconds} s"
    return out


class TestConcurrentWorkerFailure:
    @pytest.mark.parametrize("stop", [engine.StopRule(max_iterations=2000),
                                      engine.StopRule(max_epochs=1000)],
                             ids=["max_iterations", "max_epochs"])
    def test_failure_raises_in_caller(self, monkeypatch, stop):
        prob = strongly_convex_problem(d=6, M=2, seed=13)
        grad = pb.grad_shard
        calls = []
        lock = threading.Lock()

        def failing_grad(shard, x, coords=None):
            with lock:
                calls.append(None)
                n = len(calls)
            if n == 10:
                raise FloatingPointError("injected")
            return grad(shard, x, coords)

        monkeypatch.setattr(pb, "grad_shard", failing_grad)
        before = set(threading.enumerate())
        out = _within(30, lambda: engine.run_davepg(
            prob, engine.gamma_max(prob), engine.DelaySchedule.round_robin(2),
            np.zeros(6), stop, seed=13, mode="concurrent"))
        assert isinstance(out.get("error"), FloatingPointError)
        left = [t for t in threading.enumerate() if t not in before and t.is_alive()]
        assert not left


class TestConcurrentThreads:
    """A concurrent run keeps at most M worker threads alive and leaves none
    behind, whether it returns or a worker raises."""

    @pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
    @pytest.mark.parametrize("loop", ["engine", "reconditioned"])
    def test_at_most_M_threads_and_none_left(self, monkeypatch, loop, fail):
        M, d = 4, 40
        ds, _ = data.generate_lasso(d=d, m=60, sparsity=0.9, noise_std=0.01, seed=14)
        prob = data.lasso_problem(ds, data.shard_even(ds, M, seed=14), lam1=0.2)
        before = set(threading.enumerate())
        caller = []  # the thread that runs the engine; priming runs there
        alive = []  # worker threads alive at each worker step
        lock = threading.Lock()
        grad = pb.grad_shard

        def counting_grad(shard, x, coords=None):
            if threading.get_ident() != caller[0]:
                with lock:
                    alive.append(sum(t not in before and t.ident != caller[0]
                                     for t in threading.enumerate()))
                    n = len(alive)
                # every step from the 40th fails: a step whose reply the run
                # never takes (the last M - 1 of each run) is not an error
                if fail and n >= 40:
                    raise FloatingPointError("injected")
            return grad(shard, x, coords)

        monkeypatch.setattr(pb, "grad_shard", counting_grad)

        def run():
            caller.append(threading.get_ident())
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                if loop == "engine":
                    return engine.run_spy(prob, engine.gamma_max(prob),
                                          uniform_distribution(d, 0.5),
                                          engine.DelaySchedule.round_robin(M), np.zeros(d),
                                          engine.StopRule(max_iterations=200), seed=14,
                                          mode="concurrent")
                params = rc.make_params(prob.mu, prob.lip, c=8.0, d=d)
                return rc.run_reconditioned(prob, params, engine.DelaySchedule.round_robin(M),
                                            np.zeros(d), rc.InnerCriterion(kind="fixed", epochs=1),
                                            outer_budget=10, seed=14, mode="concurrent")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # let the caller submit before a thread goes idle
        try:
            out = _within(60, run)
        finally:
            sys.setswitchinterval(interval)
        if fail:
            assert isinstance(out.get("error"), FloatingPointError)
        else:
            assert "error" not in out
        assert len(alive) >= 40
        assert 1 <= max(alive) <= M
        assert [t for t in threading.enumerate() if t not in before] == []


class TestConcurrentReplay:
    """A concurrent run is the simulation run on its own arrival order: the
    sim run on fixed_trace(worker_fires) gives the same bytes, and under
    DEBUG_CHECK it also checks xbar = sum_i alpha_i x_i on that order."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        M=st.integers(2, 8),
        variant=st.sampled_from(["davepg", "spy", "spy-adaptive"]),
        switch=st.sampled_from([None, 1e-5]),
    )
    def test_equals_sim_replay(self, seed, M, variant, switch):
        d = 40
        ds, _ = data.generate_lasso(d=d, m=64, sparsity=0.8, noise_std=0.01, seed=seed)
        shards = data.make_shards(ds, data.shard_even(ds, M, seed=seed), pb.LEAST_SQUARES)
        prob = pb.CompositeProblem(shards, reg=pb.Regularizer(kind="l1", lam=0.3))
        gamma = engine.gamma_max(prob)
        init = np.zeros(d)
        init[stream(seed, 5).choice(d, 4, replace=False)] = 1.0
        stop = engine.StopRule(max_epochs=25, max_iterations=20_000)

        def run(sched, mode):
            kw = dict(seed=seed, objective_stride=5, mode=mode)
            if variant == "davepg":
                return engine.run_davepg(prob, gamma, sched, init, stop, **kw)
            dist = (uniform_distribution(d, 0.3) if variant == "spy"
                    else adaptive_distribution(init, 3.0))
            return engine.run_spy(prob, gamma, dist, sched, init, stop, **kw)

        interval = sys.getswitchinterval()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                if switch is not None:  # switch threads more often than by default
                    sys.setswitchinterval(switch)
                conc = run(engine.DelaySchedule.round_robin(M), "concurrent")
            finally:
                sys.setswitchinterval(interval)
            old, engine.DEBUG_CHECK = engine.DEBUG_CHECK, True
            try:
                replay = run(engine.DelaySchedule.fixed_trace(conc.worker_fires), "sim")
            finally:
                engine.DEBUG_CHECK = old
        assert conc.final_x.tobytes() == replay.final_x.tobytes()
        assert conc.records == replay.records
        assert conc.epoch_starts == replay.epoch_starts
        assert [s.tobytes() for s in conc] == [s.tobytes() for s in replay]
        assert conc.objective_log == replay.objective_log
        ledger = lambda t: (t.priming_up, t.priming_down, t.cum_up, t.cum_down)
        assert ledger(conc) == ledger(replay)


class TestTrace:
    def test_csv_columns(self, tmp_path):
        prob = quad_problem()
        trace = engine.run_davepg(prob, engine.gamma_max(prob),
                                  engine.DelaySchedule.round_robin(1), np.zeros(1),
                                  engine.StopRule(max_iterations=20), objective_stride=5)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "worker", "coords_up", "coords_down",
                           "support_size", "epoch_m", "objective"]
        assert len(rows) == 21

    def test_objective_log_stride(self):
        prob = quad_problem()
        trace = engine.run_davepg(prob, engine.gamma_max(prob),
                                  engine.DelaySchedule.round_robin(1), np.zeros(1),
                                  engine.StopRule(max_iterations=100), objective_stride=10)
        ks = [p.k for p in trace.objective_log]
        assert ks == [-1] + list(range(0, 100, 10))
        ups = [p.cum_up for p in trace.objective_log]
        assert all(a <= b for a, b in zip(ups, ups[1:]))

    @pytest.mark.parametrize("stride", [0, -3, 2.5, "7", True])
    def test_objective_stride_checked(self, stride):
        # 0 would silently log nothing and -3 would log at multiples of 3;
        # True is a bool, not a count, though it would log every iteration
        prob = quad_problem()
        with pytest.raises(ValueError, match="objective_stride"):
            engine.run_davepg(prob, engine.gamma_max(prob), engine.DelaySchedule.round_robin(1),
                              np.zeros(1), engine.StopRule(max_iterations=10),
                              objective_stride=stride)

    def test_dense_down_accounting(self):
        prob = strongly_convex_problem(d=9, M=3, seed=10)
        trace = engine.run_davepg(prob, engine.gamma_max(prob),
                                  engine.DelaySchedule.round_robin(3), np.zeros(9),
                                  engine.StopRule(max_iterations=30))
        assert all(r.coords_up == 9 for r in trace.records)
        # the last iteration sends no model
        assert [r.coords_down for r in trace.records] == [9] * 29 + [0]
        # priming: every worker receives and sends one dense vector, then gets
        # the dense post-priming model
        assert trace.priming_up == 3 * 9
        assert trace.priming_down == 2 * 3 * 9

    def test_sparse_down_accounting(self):
        prob = strongly_convex_problem(d=9, M=3, seed=11,
                                       reg=pb.Regularizer(kind="l1", lam=0.1))
        trace = engine.run_spy(prob, engine.gamma_max(prob), uniform_distribution(9, 0.4),
                               engine.DelaySchedule.round_robin(3), np.zeros(9),
                               engine.StopRule(max_iterations=50), seed=11)
        for r in trace.records:
            assert r.coords_down <= 9 + 9
            assert r.coords_up <= 9


class TestLedgerCountsMessages:
    """The ledger against the messages the sources carry, counted apart from
    it (``conftest.count_messages``)."""

    @pytest.mark.parametrize("stop", [engine.StopRule(max_iterations=50),
                                      engine.StopRule(max_epochs=6)], ids=["iterations", "epochs"])
    @pytest.mark.parametrize("variant", ["davepg", "spy", "spy-adaptive"])
    @pytest.mark.parametrize("mode", ["sim", "concurrent"])
    def test_engine_runs(self, monkeypatch, mode, variant, stop):
        prob = strongly_convex_problem(d=12, M=3, seed=14, reg=pb.Regularizer(kind="l1", lam=0.1))
        gamma = engine.gamma_max(prob)
        sched = engine.DelaySchedule.heterogeneous([1.0, 2.0, 4.0], seed=14)
        init = np.zeros(12)
        init[[2, 7]] = 1.0
        runs = count_messages(monkeypatch)
        kw = dict(seed=14, mode=mode, objective_stride=4)
        if variant == "davepg":
            trace = engine.run_davepg(prob, gamma, sched, init, stop, **kw)
        else:
            # uniform masks, or masks that hold init's support
            dist = (uniform_distribution(12, 0.4) if variant == "spy"
                    else adaptive_distribution(init, 3.0))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                trace = engine.run_spy(prob, gamma, dist, sched, init, stop, **kw)
        (messages,) = runs.values()
        check_ledger(trace, messages, 3, init, dense=variant == "davepg")
        up = np.cumsum([r.coords_up for r in trace.records])
        down = np.cumsum([r.coords_down for r in trace.records])
        assert [(p.cum_up, p.cum_down) for p in trace.objective_log[1:]] == \
            [(trace.priming_up + up[p.k], trace.priming_down + down[p.k])
             for p in trace.objective_log[1:]]


def count_oracle_calls(monkeypatch):
    """Counts the calls to the oracles through the names the engine looks up
    per call, the ones the benchmark traces: ``pb.grad_shard`` (reached
    through ``pb.local_gradient``), ``engine.draw_mask`` and ``pb.prox_reg``."""
    calls = dict.fromkeys(("grad_shard", "draw_mask", "prox_reg"), 0)
    for module, name in ((pb, "grad_shard"), (engine, "draw_mask"), (pb, "prox_reg")):
        def counted(*args, fn=getattr(module, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


class TestOracleCalls:
    """Per engine run in sim mode: grad_shard once per worker step and once
    per worker in priming, draw_mask as often for masked runs and never for
    dense ones, prox_reg once per iteration and once after priming.  An
    outer loop, plain or momentum, makes one engine run per outer step, on
    its session.  The fixed and budget criteria only: the relative one also
    calls the oracles in ``direct.solve``."""

    @pytest.mark.parametrize("schedule", ["round-robin", "random"])
    @pytest.mark.parametrize("variant", ["davepg", "spy", "spy-adaptive", "reconditioned",
                                         "reconditioned-budget", "momentum"])
    def test_one_call_per_step(self, monkeypatch, variant, schedule):
        M, d = 3, 12
        prob = strongly_convex_problem(d=d, M=M, seed=15, reg=pb.Regularizer(kind="l1", lam=0.1))
        gamma = engine.gamma_max(prob)
        sched = (engine.DelaySchedule.round_robin(M) if schedule == "round-robin"
                 else engine.DelaySchedule.random_uniform(M, seed=15))
        init = np.zeros(d)
        init[[2, 7]] = 1.0
        stop = engine.StopRule(max_epochs=6)
        calls = count_oracle_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if variant == "davepg":
                trace = engine.run_davepg(prob, gamma, sched, init, stop, seed=15,
                                          objective_stride=2)
            elif variant in ("reconditioned", "reconditioned-budget", "momentum"):
                params = rc.make_params(prob.mu, prob.lip, c=3.0, d=d)
                run = rc.run_momentum if variant == "momentum" else rc.run_reconditioned
                criterion = (rc.InnerCriterion("budget") if variant == "reconditioned-budget"
                             else rc.InnerCriterion("fixed", epochs=2))
                trace = run(prob, params, sched, init, criterion=criterion,
                            outer_budget=7, seed=15, objective_stride=5)
            else:
                dist = (uniform_distribution(d, 0.4) if variant == "spy"
                        else adaptive_distribution(init, 3.0))
                trace = engine.run_spy(prob, gamma, dist, sched, init, stop, seed=15,
                                       objective_stride=2)
        runs = trace.n_outer if variant.startswith(("reconditioned", "momentum")) else 1
        iters = trace.n_iterations
        assert runs >= 1 and iters > runs
        assert calls["grad_shard"] == iters + M * runs
        assert calls["draw_mask"] == (0 if variant == "davepg" else iters + M * runs)
        assert calls["prox_reg"] == iters + runs


def _textbook_run(prob, gamma, dist, schedule, init, stop, seed, stride):
    """DAve-PG (dense when dist is None) written out as a plain loop, as
    ``conftest.trace_bytes`` reads a trace."""
    M, d, reg = prob.n_workers, prob.dim, prob.reg
    rngs = [stream(seed, 101, i) for i in range(M)]

    def draw(i):  # worker i's next mask, Bernoulli(p) on each coordinate
        return None if dist is None else np.flatnonzero(rngs[i].random(d) < dist.p)

    def down(S):  # d per dense model message, else the model's support and the mask
        return d if S is None else np.count_nonzero(x) + S.size

    def value():
        return float(pb.eval_objective(prob, x)).hex()

    x_i = [init - gamma * pb.local_gradient(prob, i, init) for i in range(M)]
    xbar = np.zeros(d)
    for a, xi in zip(prob.alphas, x_i):
        xbar += a * xi
    x = pb.prox_reg(reg, gamma, xbar)
    masks = [draw(i) for i in range(M)]
    models = [x.copy() for _ in range(M)]
    up = M * d
    sent = M * (d if dist is None else np.count_nonzero(init)) + sum(map(down, masks))
    priming = (up, sent)
    log = [(-1, up, sent, value())] if stride else []
    records, starts, snapshots, fires = [], [0], [x.tobytes()], [[] for _ in range(M)]
    order = schedule.sequence()
    for k in itertools.count():
        i = next(order)
        S = masks[i]
        if S is None:
            u = models[i] - gamma * pb.local_gradient(prob, i, models[i])
            xbar += prob.alphas[i] * (u - x_i[i])
            x_i[i] = u
            x = pb.prox_reg(reg, gamma, xbar)
        else:
            u = models[i][S] - gamma * pb.local_gradient(prob, i, models[i], S)
            xbar[S] += prob.alphas[i] * (u - x_i[i][S])
            x_i[i][S] = u
            x[S] = pb.prox_reg(reg, gamma, xbar[S])
        masks[i] = draw(i)
        fires[i].append(k)
        new_epoch = k > 0 and all(len(f) > 1 and f[-2] >= starts[-1] for f in fires)
        if new_epoch:
            starts.append(k)
            snapshots.append(x.tobytes())
        last = k + 1 == stop.max_iterations or new_epoch and (
            stop.max_epochs is not None and len(starts) - 1 >= stop.max_epochs
            or stop.target_objective is not None
            and pb.eval_objective(prob, x) <= stop.target_objective)
        up_k, sent_k = d if S is None else S.size, 0 if last else down(masks[i])
        records.append((i, up_k, sent_k, np.count_nonzero(x), len(starts) - 1))
        up, sent = up + up_k, sent + sent_k
        if stride and k % stride == 0:
            log.append((k, up, sent, value()))
        if last:
            break
        models[i] = x.copy()
    return {"records": np.array(records, dtype=np.int64).T.tobytes(), "epoch_starts": starts,
            "epoch_snapshots": snapshots, "objective_log": log, "ledger": (*priming, up, sent),
            "final_x": x.tobytes()}


class TestTextbookRecursion:
    """The engine in sim mode equals, bit for bit, the recursion written out
    as a plain loop: records, epoch starts and snapshots, objective log,
    ledger and final point."""

    @pytest.mark.parametrize("stop", ["epochs", "target"])
    @pytest.mark.parametrize("schedule", ["round-robin", "random"])
    @pytest.mark.parametrize("variant", ["dense", "uniform", "adaptive"])
    @pytest.mark.parametrize("rho", [0.0, 0.7])
    @pytest.mark.parametrize("shape", ["tall", "wide", "csc", "logistic"])
    def test_equals_engine(self, shape, rho, variant, schedule, stop):
        prob = shaped_problem(shape, rho)
        M, d = prob.n_workers, prob.dim
        gamma = engine.gamma_max(prob)
        sched = (engine.DelaySchedule.round_robin(M) if schedule == "round-robin"
                 else engine.DelaySchedule.random_uniform(M, seed=4))
        init = np.zeros(d)
        init[[0, 4]] = [0.5, -1.0]
        dist = {"dense": None, "uniform": uniform_distribution(d, 0.3),
                "adaptive": adaptive_distribution(init, 3.0)}[variant]
        if stop == "epochs":
            rule, stride = engine.StopRule(max_epochs=8), 3
        else:
            f_star = pb.eval_objective(prob, direct.solve(prob, tol=1e-10)[0])
            target = f_star + 0.01 * (pb.eval_objective(prob, init) - f_star)
            rule, stride = engine.StopRule(max_iterations=400, target_objective=target), None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if dist is None:
                trace = engine.run_davepg(prob, gamma, sched, init, rule, seed=9,
                                          objective_stride=stride)
            else:
                trace = engine.run_spy(prob, gamma, dist, sched, init, rule, seed=9,
                                       objective_stride=stride)
        want = _textbook_run(prob, gamma, dist, sched, init, rule, 9, stride)
        assert trace_bytes(trace) == want


# bit patterns of the entries points are built from: both zeros, both
# infinities, NaNs of either sign with payloads, subnormals and normals
_ENTRIES = np.array([0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
                     0x7FF8000000000000, 0xFFF8000000000001, 0x7FF0000000000123,
                     0x0000000000000001, 0x8000000000000003, 0x3FF0000000000000,
                     0xC004000000000000], dtype=np.uint64).view(np.float64)
_POOLS = {"zero": _ENTRIES[:2], "nonzero": _ENTRIES[2:], "mixed": _ENTRIES}


def _as_bytes(points):
    return [x.tobytes() for x in points]


def _read_back(points):
    """The bytes points read back with: each nonzero's own, +0.0 for a zero."""
    return _as_bytes(np.where(x == 0, 0.0, x) for x in points)


class TestCompactTraces:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           # from hundreds of buffered points down to one
           d=st.sampled_from([1, 2, 7, 64, 3000, 9000]),
           kinds=st.lists(st.sampled_from(sorted(_POOLS)), max_size=12),
           reads=st.sets(st.integers(0, 12)),
           cut=st.slices(14))
    def test_points_read_back_exactly(self, seed, d, kinds, reads, cut):
        rng = np.random.default_rng(seed)
        dense = [_POOLS[k][rng.integers(len(_POOLS[k]), size=d)] for k in kinds]
        appended = engine.SparsePoints()
        for n, x in enumerate(dense):
            if n in reads:  # a read between appends encodes the buffered points
                assert _as_bytes(appended) == _read_back(dense[:n])
            appended.append(x)
        n = len(dense)
        for points in (appended, engine.SparsePoints(dense), pickle.loads(pickle.dumps(appended))):
            assert len(points) == n
            assert _as_bytes(points) == _read_back(dense)
            assert [points[i].tobytes() for i in range(-n, n)] == _read_back(dense + dense)
            for part in (cut, slice(None, None, -1), slice(-3, None), slice(5, 1, -2)):
                assert _as_bytes(points[part]) == _read_back(dense[part])
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    points[i]

    def test_records_read_as_a_sequence(self):
        prob = strongly_convex_problem(d=9, M=3, seed=12, reg=pb.Regularizer(kind="l1", lam=0.1))
        trace = engine.run_spy(prob, engine.gamma_max(prob), uniform_distribution(9, 0.4),
                               engine.DelaySchedule.random_uniform(3, seed=12), np.zeros(9),
                               engine.StopRule(max_iterations=2500), seed=12, objective_stride=3)
        records = trace.records
        as_list = list(records)
        assert len(records) == len(as_list) == trace.n_iterations == 2500
        assert all(isinstance(r, engine.IterRecord) for r in as_list)
        assert [r.k for r in as_list] == list(range(2500))
        assert records == as_list and records != as_list[:-1]
        assert [records[i] for i in (0, 1023, 1024, -1, -2500)] == \
            [as_list[i] for i in (0, 1023, 1024, -1, -2500)]
        assert records[1020:1030] == as_list[1020:1030]
        assert records[::-7] == as_list[::-7]
        assert trace.worker_fires == [r.worker for r in as_list]
        # the support is read where the objective is logged
        assert trace.support_curve() == [(p.k + 1, records[p.k].support_size)
                                         for p in trace.objective_log if p.k >= 0]
        assert len(trace.support_curve()) == len(as_list[::3])
        unlogged = engine.run_spy(prob, engine.gamma_max(prob), uniform_distribution(9, 0.4),
                                  engine.DelaySchedule.random_uniform(3, seed=12), np.zeros(9),
                                  engine.StopRule(max_iterations=50), seed=12)
        assert unlogged.support_curve() == []
        assert trace.cum_down == trace.priming_down + sum(r.coords_down for r in as_list)

    def test_points_hold_no_negative_zero(self):
        # prox_reg writes +0.0, so no epoch snapshot or final point holds
        # -0.0, from a start of +0.0 or of -0.0
        prob = strongly_convex_problem(d=30, M=3, seed=13, reg=pb.Regularizer(kind="l1", lam=0.2))
        for init in (np.zeros(30), np.full(30, -0.0)):
            trace = engine.run_spy(prob, engine.gamma_max(prob), uniform_distribution(30, 0.3),
                                   engine.DelaySchedule.round_robin(3), init,
                                   engine.StopRule(max_iterations=1001), seed=13)
            points = [*trace.epoch_snapshots, trace.final_x]
            assert any(np.any(x < 0) for x in points)
            assert any(np.any(x == 0) for x in points)
            assert not any(np.signbit(x[x == 0]).any() for x in points)

    @pytest.mark.parametrize("mode", ["sim", "concurrent"])
    def test_trace_pickles_byte_identical(self, mode):
        prob = strongly_convex_problem(d=30, M=3, seed=13, reg=pb.Regularizer(kind="l1", lam=0.2))
        trace = engine.run_spy(prob, engine.gamma_max(prob), uniform_distribution(30, 0.3),
                               engine.DelaySchedule.round_robin(3), np.zeros(30),
                               engine.StopRule(max_iterations=3000), seed=13,
                               objective_stride=7, mode=mode)
        back = pickle.loads(pickle.dumps(trace))
        assert trace_bytes(back) == trace_bytes(trace)
        assert back.records == trace.records
        assert trace.n_epochs > 100 and len(trace.epoch_snapshots) == trace.n_epochs + 1

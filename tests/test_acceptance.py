"""Acceptance suite: one test per release criterion.

Each test states its criterion in the docstring and is self-contained apart
from the module-scoped fixtures that share the two expensive experiment
set-ups (the mu>0 lasso used by criteria 6/8/10 and the large sparse lasso
used by criteria 7/9).
"""

import pickle
import time
import warnings

import numpy as np
import pytest

from conftest import shifted_initial_radius, strongly_convex_problem
from test_engine import brute_force_boundaries

from sparsepg import data, direct, engine, metrics, problem as pb
from sparsepg import recondition as rc
from sparsepg.rng import stream
from sparsepg.sparsifier import uniform_distribution


def quadratic_minimizer(problem):
    """Independent closed-form solution for unregularized least squares."""
    d = problem.dim
    H = np.zeros((d, d))
    rhs = np.zeros(d)
    for alpha, shard in zip(problem.alphas, problem.shards):
        m = shard.A.shape[0]
        H += alpha * (2.0 / m) * shard.A.T @ shard.A
        rhs += alpha * (2.0 / m) * shard.A.T @ shard.b
    return np.linalg.solve(H, rhs)


class IterateRecorder:
    """objective_fn stand-in that stores every iterate it is shown."""

    def __init__(self):
        self.xs = []

    def __call__(self, x):
        self.xs.append(np.array(x, copy=True))
        return 0.0


# --------------------------------------------------------------------------
# shared experiment set-ups
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lasso_mu_pos():
    """mu>0 lasso (d=200, s*=8, c=8) plus 20 budget-criterion outer runs.

    Shared by criteria 6, 8 and 10.
    """
    d = 200
    ds, _ = data.generate_lasso(d=d, m=2000, sparsity=0.96, noise_std=0.01, seed=0)
    plan = data.shard_even(ds, 4, seed=0)
    builder = lambda lam: data.lasso_problem(ds, plan, lam)
    lam_hi = float(np.max(np.abs(pb.smooth_gradient(builder(1.0), np.zeros(d)))))
    lam = metrics.calibrate_l1(builder, target_support=8, lam_hi=lam_hi)
    problem = builder(lam)
    assert problem.mu > 0
    ref = metrics.reference_solution(problem, tol=1e-12)
    assert ref.s_star == 8
    params = rc.make_params(problem.mu, problem.lip, c=8, d=d)
    sched = engine.DelaySchedule.round_robin(4)
    traces = [
        rc.run_reconditioned(
            problem, params, sched, np.zeros(d),
            criterion=rc.InnerCriterion(kind="budget"),
            outer_budget=40, seed=s,
        )
        for s in range(1, 21)
    ]
    return {"problem": problem, "ref": ref, "params": params,
            "schedule": sched, "traces": traces}


@pytest.fixture(scope="module")
def lasso_large_sparse():
    """Large sparse lasso (d=1000, m=500, s*=12) plus 20 one-epoch outer runs
    at c=12 and the dense baseline run. Shared by criteria 7 and 9."""
    d = 1000
    ds, _ = data.generate_lasso(d=d, m=500, sparsity=0.985, noise_std=0.01, seed=2)
    plan = data.shard_even(ds, 4, seed=0)
    builder = lambda lam: data.lasso_problem(ds, plan, lam)
    lam_hi = float(np.max(np.abs(pb.smooth_gradient(builder(1.0), np.zeros(d)))))
    lam = metrics.calibrate_l1(builder, target_support=12, lam_hi=lam_hi)
    problem = builder(lam)
    ref = metrics.reference_solution(problem, tol=1e-12, assume_unique_minimizer=True)
    assert ref.s_star == 12
    margin = metrics.check_nondegeneracy(problem, ref)
    assert margin > 0
    sched = engine.DelaySchedule.round_robin(4)
    params12 = rc.make_params(problem.mu, problem.lip, c=12, d=d)
    traces12 = [
        rc.run_reconditioned(
            problem, params12, sched, np.zeros(d),
            criterion=rc.InnerCriterion(kind="fixed", epochs=1),
            outer_budget=20000, target_objective=ref.f_star + 1e-7,
            seed=s, objective_stride=7,
        )
        for s in range(1, 21)
    ]
    baseline = engine.run_davepg(
        problem, engine.gamma_max(problem), sched, np.zeros(d),
        engine.StopRule(max_iterations=400000, target_objective=ref.f_star + 1e-7),
        seed=0, objective_stride=10,
    )
    return {"problem": problem, "ref": ref, "margin": margin, "schedule": sched,
            "traces12": traces12, "baseline": baseline}


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------


def test_c01_prox_and_gradient_oracles():
    """Criterion 1: prox matches a 1e-5 brute-force grid within 1e-4 on 100
    random (lam1, gamma, u) triples; gradients match finite differences with
    relative error < 1e-5 for both loss kinds. Runtime < 10 s."""
    start = time.time()
    rng = stream(0, 900)
    for _ in range(100):
        lam = float(rng.uniform(0.0, 1.0))
        gamma = float(rng.uniform(0.01, 1.0))
        u = float(rng.uniform(-2.0, 2.0))
        reg = pb.Regularizer(kind="l1", lam=lam)
        got = float(pb.prox_reg(reg, gamma, np.array([u]))[0])
        grid = np.arange(-abs(u) - 1.0, abs(u) + 1.0, 1e-5)
        vals = 0.5 * (grid - u) ** 2 + gamma * lam * np.abs(grid)
        best = grid[int(np.argmin(vals))]
        assert abs(got - best) <= 1e-4

    h = 1e-6
    for kind, b in ((pb.LEAST_SQUARES, None), (pb.LOGISTIC, None)):
        A = stream(1, 901).standard_normal((12, 6))
        if kind == pb.LOGISTIC:
            b = np.sign(stream(1, 902).standard_normal(12))
            b[b == 0] = 1.0
        else:
            b = stream(1, 903).standard_normal(12)
        shard = pb.LossShard(kind=kind, A=A, b=b, l2=0.05)
        x = stream(1, 904).standard_normal(6)
        g = pb.grad_shard(shard, x)
        fd = np.zeros(6)
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            fd[j] = (pb.shard_value(shard, x + e) - pb.shard_value(shard, x - e)) / (2 * h)
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-5
    assert time.time() - start < 10


def test_c02_epoch_machinery_vs_brute_force():
    """Criterion 2: epoch_boundaries equals an independent brute-force
    implementation on 100 random schedules (M <= 8, 500 iterations), exact
    equality. Runtime < 5 s."""
    start = time.time()
    rng = stream(0, 910)
    for _ in range(100):
        M = int(rng.integers(1, 9))
        log = list(range(M)) + list(rng.integers(0, M, size=500 - M))
        assert engine.epoch_boundaries(log, M) == brute_force_boundaries(log, M)
    assert time.time() - start < 5


def test_c03_spy_all_ones_reduces_to_dense():
    """Criterion 3: the sparsified runner with p = 1 reproduces the dense
    runner's iterates to 1e-12 under identical schedules, 10 random problems.
    Runtime < 30 s."""
    start = time.time()
    for seed in range(10):
        prob = strongly_convex_problem(d=9, M=3, kappa=0.2, seed=seed,
                                       reg=pb.Regularizer(kind="l1", lam=0.05))
        gamma = engine.gamma_max(prob)
        stop = engine.StopRule(max_iterations=200)
        init = stream(seed, 911).standard_normal(9)
        rec_dense, rec_spy = IterateRecorder(), IterateRecorder()
        sched = engine.DelaySchedule.random_uniform(3, seed=seed)
        engine.run_davepg(prob, gamma, sched, init, stop, seed=seed,
                          objective_stride=1, objective_fn=rec_dense)
        sched = engine.DelaySchedule.random_uniform(3, seed=seed)
        engine.run_spy(prob, gamma, uniform_distribution(9, 1.0), sched, init,
                       stop, seed=seed, objective_stride=1, objective_fn=rec_spy)
        assert len(rec_dense.xs) == len(rec_spy.xs)
        for a, b in zip(rec_dense.xs, rec_spy.xs):
            assert np.max(np.abs(a - b)) <= 1e-12
    assert time.time() - start < 30


def test_c04_dense_epoch_error_bound():
    """Criterion 4: on a strongly convex problem (d=50, M=4, mu/L = 0.1,
    round-robin), ||x^{k_m} - x*||^2 <= ((1-kappa)/(1+kappa))^{2m} *
    max_i ||x_i^0 - x_i*||^2 at every logged epoch for 20/20 seeds.
    Runtime < 1 min."""
    start = time.time()
    for seed in range(20):
        prob = strongly_convex_problem(d=50, M=4, kappa=0.1, seed=seed)
        gamma = engine.gamma_max(prob)
        x_star = quadratic_minimizer(prob)
        init = np.zeros(50)
        trace = engine.run_davepg(prob, gamma, engine.DelaySchedule.round_robin(4),
                                  init, engine.StopRule(max_epochs=20), seed=seed)
        radius = shifted_initial_radius(prob, gamma, init, x_star)
        rate = (1 - prob.kappa) / (1 + prob.kappa)
        for m, snap in enumerate(trace.epoch_snapshots):
            assert np.sum((snap - x_star) ** 2) <= rate ** (2 * m) * radius + 1e-12
    assert time.time() - start < 60


def test_c05_sparsified_epoch_bound_in_mean():
    """Criterion 5: uniform sparsification with pi in {0.3, 0.6} on the same
    problem -- the mean over 50 seeds of ||x^{k_m} - x*||^2 stays below
    (p_max (1-gamma mu)^2 + 1 - p_min)^m * max_i ||x_i^0 - x_i*||^2 for all
    m <= 40. Runtime < 5 min."""
    start = time.time()
    prob = strongly_convex_problem(d=50, M=4, kappa=0.1, seed=0)
    gamma = engine.gamma_max(prob)
    x_star = quadratic_minimizer(prob)
    init = np.zeros(50)
    radius = shifted_initial_radius(prob, gamma, init, x_star)
    for pi in (0.3, 0.6):
        factor = pi * (1 - gamma * prob.mu) ** 2 + 1 - pi
        errs = np.zeros(41)
        for seed in range(50):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                trace = engine.run_spy(
                    prob, gamma, uniform_distribution(50, pi),
                    engine.DelaySchedule.round_robin(4), init,
                    engine.StopRule(max_epochs=41), seed=seed,
                )
            snaps = trace.epoch_snapshots[:41]
            assert len(snaps) == 41
            errs += [np.sum((s - x_star) ** 2) for s in snaps]
        errs /= 50
        for m in range(41):
            assert errs[m] <= factor ** m * radius + 1e-12, (pi, m)
    assert time.time() - start < 300


def test_c06_outer_loop_contraction(lasso_mu_pos):
    """Criterion 6: reconditioned runs with the epoch-budget criterion on a
    mu>0 lasso (d=200, s*=8, c=8) -- the fitted per-outer-step contraction of
    the mean squared error over 20 seeds is <= (1 - mu/(mu + rho/2)) + 0.05.
    Runtime < 5 min."""
    ref, params = lasso_mu_pos["ref"], lasso_mu_pos["params"]
    n_outer = min(len(t.centers) for t in lasso_mu_pos["traces"])
    mean_err = np.zeros(n_outer)
    for trace in lasso_mu_pos["traces"]:
        mean_err += [np.sum((c - ref.x_star) ** 2) for c in trace.centers[:n_outer]]
    mean_err /= len(lasso_mu_pos["traces"])
    slope = np.polyfit(np.arange(n_outer), np.log(mean_err), 1)[0]
    fitted = float(np.exp(slope))
    assert fitted <= params.outer_rate + 0.05


def test_c07_identification_is_finite(lasso_large_sparse):
    """Criterion 7: on the large sparse lasso (d=1000, m=500, s*=12, verified
    nondegeneracy margin > 0), the support-identification time is finite in
    20/20 one-epoch reconditioned runs. Runtime < 10 min."""
    assert lasso_large_sparse["margin"] > 0
    ref = lasso_large_sparse["ref"]
    for trace in lasso_large_sparse["traces12"]:
        assert metrics.identification_time(trace, ref) is not None


def test_c08_improved_rate_after_identification(lasso_mu_pos):
    """Criterion 8: restricted to post-identification inner epochs of
    criterion 6's runs, the Monte-Carlo mean per-epoch contraction of
    ||x - x_sub*||^2 is <= ((1-kappa)/(1+kappa))^2 + 0.05 (kappa being the
    reconditioned condition target). Epochs already at the numerical floor
    (error below 1e-20) carry no rate information and are excluded."""
    problem, ref, params = (lasso_mu_pos[k] for k in ("problem", "ref", "params"))
    bound = ((1 - params.kappa) / (1 + params.kappa)) ** 2 + 0.05
    ratios = []
    for trace in lasso_mu_pos["traces"]:
        lam_id = metrics.identification_time(trace, ref)
        assert lam_id is not None
        for ell in range(lam_id + 1, len(trace.centers)):
            center = trace.centers[ell - 1]
            sub_star = rc.prox_oracle(problem, params.rho, center, tol=1e-13)
            snaps = trace.inner_traces[ell - 1].epoch_snapshots
            errs = [float(np.sum((s - sub_star) ** 2)) for s in snaps]
            for a, b in zip(errs, errs[1:]):
                if a >= 1e-20:
                    ratios.append(b / a)
    assert ratios
    assert float(np.mean(ratios)) <= bound


def test_c09_communication_gain(lasso_large_sparse):
    """Criterion 9: on the large sparse lasso with c in {s*, 3 s*}, the
    reconditioned runs exchange strictly fewer coordinates than the dense
    baseline to reach a 1e-6 gap in >= 18/20 seeds; and on the logistic
    elastic-net study, uniform sparsification at pi=0.3 exchanges more than
    the dense baseline, reproducing the inefficiency finding.
    Runtime < 15 min."""
    problem, ref, sched = (lasso_large_sparse[k] for k in ("problem", "ref", "schedule"))
    base_cx = metrics.empirical_complexity(lasso_large_sparse["baseline"], ref, 1e-6)

    wins12 = sum(
        metrics.empirical_complexity(t, ref, 1e-6) < base_cx
        for t in lasso_large_sparse["traces12"]
    )
    assert wins12 >= 18

    params36 = rc.make_params(problem.mu, problem.lip, c=36, d=problem.dim)
    wins36 = 0
    for seed in range(1, 21):
        trace = rc.run_reconditioned(
            problem, params36, sched, np.zeros(problem.dim),
            criterion=rc.InnerCriterion(kind="fixed", epochs=1),
            outer_budget=20000, target_objective=ref.f_star + 1e-7,
            seed=seed, objective_stride=7,
        )
        wins36 += metrics.empirical_complexity(trace, ref, 1e-6) < base_cx
    assert wins36 >= 18

    # uniform-sparsification inefficiency on the logistic elastic net
    from sparsepg import cli

    cfg = cli.preset_configs("sm1")[0][0]
    log_prob = cli.build_problem(cfg)
    log_ref = metrics.reference_solution(log_prob, tol=1e-12)
    gam = engine.gamma_max(log_prob)
    sched2 = engine.DelaySchedule.round_robin(cfg.workers)
    dense = engine.run_davepg(
        log_prob, gam, sched2, np.zeros(cfg.d),
        engine.StopRule(max_iterations=500000, target_objective=log_ref.f_star + 1e-7),
        objective_stride=10,
    )
    dense_cx = metrics.empirical_complexity(dense, log_ref, 1e-6)
    for seed in (1, 2, 3):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            spy = engine.run_spy(
                log_prob, gam, uniform_distribution(cfg.d, 0.3), sched2,
                np.zeros(cfg.d),
                engine.StopRule(max_iterations=500000,
                                target_objective=log_ref.f_star + 1e-7),
                seed=seed, objective_stride=10,
            )
        assert metrics.empirical_complexity(spy, log_ref, 1e-6) > dense_cx


def test_c10_one_epoch_vs_relative_criterion(lasso_mu_pos):
    """Criterion 10: the one-epoch and relative-accuracy stopping rules give
    exchange counts at a 1e-8 gap that agree within a factor of 3 on a
    lasso."""
    problem, ref, params, sched = (lasso_mu_pos[k] for k in
                                   ("problem", "ref", "params", "schedule"))
    cx = {}
    for name, crit in (("one-epoch", rc.InnerCriterion(kind="fixed", epochs=1)),
                       ("relative", rc.InnerCriterion(kind="relative"))):
        trace = rc.run_reconditioned(
            problem, params, sched, np.zeros(problem.dim), criterion=crit,
            outer_budget=5000, target_objective=ref.f_star + 1e-9,
            seed=1, objective_stride=7,
        )
        cx[name] = metrics.empirical_complexity(trace, ref, 1e-8)
    assert max(cx.values()) <= 3 * min(cx.values()), cx


def test_c11_momentum_rates():
    """Criterion 11: accelerated outer loop -- on a mu=0 lasso the log-log
    slope of the gap versus outer step is <= -1.8; on a strongly convex
    problem the fitted linear factor is <= (1 - sqrt(mu/(4mu+4rho))) + 0.05."""
    # mu = 0
    ds, _ = data.generate_lasso(d=100, m=80, sparsity=0.95, noise_std=0.01, seed=5)
    plan = data.shard_even(ds, 4, seed=0)
    problem = data.lasso_problem(ds, plan, 0.5)
    assert problem.mu == 0
    ref = metrics.reference_solution(problem, tol=1e-12, assume_unique_minimizer=True)
    params = rc.make_params(problem.mu, problem.lip, c=50, d=100)
    trace = rc.run_momentum(
        problem, params, engine.DelaySchedule.round_robin(4), np.zeros(100),
        criterion=rc.InnerCriterion(kind="fixed", epochs=60),
        outer_budget=60, seed=1,
    )
    gaps = np.array([r.objective - ref.f_star for r in trace.records])
    ells = np.arange(1, len(gaps) + 1)
    keep = (gaps > 1e-7) & (ells >= 3)
    assert keep.sum() >= 5
    slope = np.polyfit(np.log(ells[keep]), np.log(gaps[keep]), 1)[0]
    assert slope <= -1.8

    # mu > 0
    prob2 = strongly_convex_problem(d=30, M=4, kappa=0.1, seed=9,
                                    reg=pb.Regularizer(kind="l1", lam=0.05))
    x_star, _ = direct.solve(prob2, tol=1e-14)
    f_star = pb.eval_objective(prob2, x_star)
    params2 = rc.make_params(prob2.mu, prob2.lip, c=15, d=30)
    bound = 1 - np.sqrt(prob2.mu / (4 * prob2.mu + 4 * params2.rho)) + 0.05
    trace2 = rc.run_momentum(
        prob2, params2, engine.DelaySchedule.round_robin(4), np.zeros(30),
        criterion=rc.InnerCriterion(kind="fixed", epochs=40),
        outer_budget=40, seed=1,
    )
    gaps2 = np.array([r.objective - f_star for r in trace2.records])
    keep2 = gaps2 > 1e-10
    assert keep2.sum() >= 4
    slope2 = np.polyfit(np.arange(1, len(gaps2) + 1)[keep2], np.log(gaps2[keep2]), 1)[0]
    assert float(np.exp(slope2)) <= bound


def test_c12_determinism_and_concurrency(tmp_path):
    """Criterion 12: simulation mode is bit-identical across repeated runs;
    concurrent mode with 4 workers reaches the reference minimizer within
    1e-8 on 5 seeds (trajectories may differ, the endpoint must not)."""
    prob = strongly_convex_problem(d=20, M=4, kappa=0.3, seed=21,
                                   reg=pb.Regularizer(kind="l1", lam=0.02))
    gamma = engine.gamma_max(prob)
    dist = uniform_distribution(20, 0.5)

    def one_run():
        return engine.run_spy(
            prob, gamma, dist, engine.DelaySchedule.random_uniform(4, seed=3),
            np.zeros(20), engine.StopRule(max_iterations=500), seed=7,
            objective_stride=10,
        )

    a, b = one_run(), one_run()
    assert a.final_x.tobytes() == b.final_x.tobytes()
    a.to_csv(tmp_path / "a.csv")
    b.to_csv(tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()
    assert [p.value for p in a.objective_log] == [p.value for p in b.objective_log]

    x_star, _ = direct.solve(prob, tol=1e-14)
    for seed in range(5):
        trace = engine.run_davepg(
            prob, gamma, engine.DelaySchedule.round_robin(4), np.zeros(20),
            engine.StopRule(max_iterations=4000), seed=seed, mode="concurrent",
        )
        assert np.max(np.abs(trace.final_x - x_star)) <= 1e-8


def test_traces_pickle_compactly(lasso_mu_pos, lasso_large_sparse):
    """Traces keep records as integer columns and points as their nonzeros:
    a budget-criterion run of the mu>0 lasso pickles to at most a quarter of
    the 17.1 MiB it took with a record object per iteration and a dense
    snapshot per epoch, and a one-epoch run of the large sparse lasso to at
    most a tenth of its 22.7 MiB."""
    assert len(pickle.dumps(lasso_mu_pos["traces"][0])) <= 17.1 * 2**20 / 4
    assert len(pickle.dumps(lasso_large_sparse["traces12"][0])) <= 22.7 * 2**20 / 10

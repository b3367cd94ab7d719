"""Benchmark workloads: a pinned problem instance each, built and solved
through sparsepg's public functions.

A workload has three steps.  ``setup()`` builds the problem and its reference
solution (the part ``setup_s`` times).  ``solve(fixture, seed)`` runs one pass
of solves to the workload's gap (the part ``solve_s`` times); the seed picks
the mask and schedule streams, never the data.  ``check(fixture, raw)`` turns
the pass's raw results into per-solve outcomes outside the timed region.

Library functions are always called through their module (``data.lasso_problem``),
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from sparsepg import cli, data, engine, metrics, problem as pb, recondition as rc


@dataclass
class Outcome:
    """One solve: its counts, its final gap against the reference, and checks."""

    iters: int
    coords: int
    gap: float
    reached: bool
    ledger_ok: bool
    error: str = ""


def engine_ledger_ok(trace) -> bool:
    """cum_up == priming_up + sum of per-iteration uploads, same for downloads."""
    return (
        trace.cum_up == trace.priming_up + sum(r.coords_up for r in trace.records)
        and trace.cum_down == trace.priming_down + sum(r.coords_down for r in trace.records)
    )


def outer_ledger_ok(trace) -> bool:
    """Every inner engine ledger holds and the outer totals are their sums."""
    return (
        all(engine_ledger_ok(t) for t in trace.inner_traces)
        and trace.cum_up == sum(t.cum_up for t in trace.inner_traces)
        and trace.cum_down == sum(t.cum_down for t in trace.inner_traces)
    )


@dataclass
class Fixture:
    problem: object
    ref: metrics.ReferenceSolution


class Reconditioned:
    """One ``run_reconditioned`` solve per pass in simulation mode, stopped at f* + eps."""

    threads = 0

    def __init__(self, name, build, M, c, criterion, eps,
                 objective_stride=None, outer_budget=20_000):
        self.name = name
        self._build = build
        self.M = M
        self.c = c
        self.criterion = criterion
        self.eps = eps
        self.objective_stride = objective_stride
        self.outer_budget = outer_budget

    def setup(self) -> Fixture:
        problem = self._build(self.M)
        ref = metrics.reference_solution(problem, tol=1e-12, cache_dir=None,
                                         assume_unique_minimizer=True)
        return Fixture(problem, ref)

    def solve(self, fx: Fixture, seed: int):
        problem = fx.problem
        params = rc.make_params(problem.mu, problem.lip, c=self.c, d=problem.dim)
        try:
            return rc.run_reconditioned(
                problem, params, engine.DelaySchedule.round_robin(self.M),
                np.zeros(problem.dim), criterion=self.criterion,
                outer_budget=self.outer_budget, target_objective=fx.ref.f_star + self.eps,
                seed=seed, objective_stride=self.objective_stride, mode="sim",
            )
        except (engine.DivergenceError, rc.InnerBudgetError) as exc:
            return exc

    def check(self, fx: Fixture, trace) -> list[Outcome]:
        if isinstance(trace, Exception):
            return [Outcome(0, 0, math.inf, False, True, f"{type(trace).__name__}: {trace}")]
        gap = pb.eval_objective(fx.problem, trace.final_x) - fx.ref.f_star
        return [Outcome(trace.total_iterations, trace.cum_up + trace.cum_down, gap,
                        bool(gap <= self.eps), outer_ledger_ok(trace))]


def _readme_lasso(M):
    """The README lasso: d=1000, m=500, s*=12 at lam1=0.64."""
    dataset, _ = data.generate_lasso(d=1000, m=500, sparsity=0.985, noise_std=0.01, seed=2)
    plan = data.shard_even(dataset, M, seed=0)
    return data.lasso_problem(dataset, plan, lam1=0.64)


def _mu_pos_lasso(M):
    """The acceptance suite's mu>0 lasso: d=200, m=2000, lam1 calibrated to s*=8."""
    dataset, _ = data.generate_lasso(d=200, m=2000, sparsity=0.96, noise_std=0.01, seed=0)
    plan = data.shard_even(dataset, M, seed=0)

    def builder(lam):
        return data.lasso_problem(dataset, plan, lam)

    zero = np.zeros(dataset.d)
    lam_hi = float(np.max(np.abs(pb.smooth_gradient(builder(1.0), zero))))
    lam = metrics.calibrate_l1(builder, target_support=8, lam_hi=lam_hi)
    return builder(lam)


class SM1Compare:
    """``cli.cmd_compare`` on the ``sm1`` preset: davepg and spy-uniform at
    pi = 0.1, 0.3, 0.6, one seed each, writing to a removed temp dir.

    The preset runs ten seeds per config on a thread pool of ``os.cpu_count()``
    threads.  With two or more seeds the pool's threads contend for the
    interpreter lock, and that contention follows the host's load: pass times
    of one run spread by 30% and no host-speed probe tracks them.  With one
    seed ``cli._run_seeds`` runs serially and a pass takes about 0.6 s."""

    name = "sm1-compare"
    n_seeds = 1

    def __init__(self, out_root: str):
        self.out_root = out_root
        # worker threads of the cli._run_seeds pool; a single seed runs serially
        workers = min(self.n_seeds, os.cpu_count() or 1)
        self.threads = workers if workers > 1 else 0
        self.eps = cli.preset_configs("sm1")[0][0].target_eps

    def _configs(self, seed: int):
        cfgs, labels = cli.preset_configs("sm1")
        seeds = tuple(range(self.n_seeds * seed + 1, self.n_seeds * (seed + 1) + 1))
        for cfg in cfgs:
            cfg.seeds = seeds
        return cfgs, labels

    def setup(self) -> Fixture:
        cfg = self._configs(0)[0][0]
        problem = cli.build_problem(cfg)
        return Fixture(problem, cli.get_reference(problem, cfg, cache_dir=None))

    def solve(self, fx: Fixture, seed: int):
        cfgs, labels = self._configs(seed)
        out_dir = tempfile.mkdtemp(prefix="sm1-", dir=self.out_root)
        solves = []
        run_algorithm = cli.run_algorithm  # the traced wrapper when tracing is on

        def capture(problem, cfg, run_seed, ref, **kwargs):
            try:
                trace = run_algorithm(problem, cfg, run_seed, ref, **kwargs)
            except Exception as exc:
                solves.append(exc)
                raise
            solves.append((trace.n_iterations, trace.cum_up + trace.cum_down,
                           engine_ledger_ok(trace), trace.final_x))
            return trace

        cli.run_algorithm = capture
        try:
            code = cli.cmd_compare(cfgs, labels, out_dir, "sim", cache_dir=None)
        finally:
            cli.run_algorithm = run_algorithm
        return code, solves, out_dir

    def check(self, fx: Fixture, raw) -> list[Outcome]:
        """Outcomes of the pass's solves; also keeps the bytes the pass wrote
        in ``last_bytes_written`` and removes its output directory."""
        code, solves, out_dir = raw
        self.last_bytes_written = sum(
            os.path.getsize(os.path.join(root, f))
            for root, _, files in os.walk(out_dir) for f in files
        )
        shutil.rmtree(out_dir)
        out = []
        for item in solves:
            if isinstance(item, Exception):
                out.append(Outcome(0, 0, math.inf, False, True, f"{type(item).__name__}: {item}"))
                continue
            iters, coords, ledger_ok, final_x = item
            gap = pb.eval_objective(fx.problem, final_x) - fx.ref.f_star
            out.append(Outcome(iters, coords, gap, bool(gap <= self.eps), ledger_ok))
        expected = self.n_seeds * len(cli.preset_configs("sm1")[0])
        if len(out) != expected or (code != cli.EXIT_OK and all(o.reached for o in out)):
            out.append(Outcome(0, 0, math.inf, False, True,
                               f"cmd_compare exit code {code}, {len(solves)} of {expected} solves seen"))
        return out


def make_workloads(out_root: str) -> dict:
    # Every workload runs in simulation mode.  The same lasso in concurrent
    # mode (M=2 worker threads) was dropped: its thread interleaving follows
    # the host's load, so its iteration count moved by up to 20% between runs
    # of the same code (2089-2486) and its time by 0.16-0.53.
    fixed1 = rc.InnerCriterion("fixed", epochs=1)
    workloads = [
        Reconditioned("lasso-recond", _readme_lasso, M=4, c=12, criterion=fixed1,
                      eps=1e-6, objective_stride=7),
        Reconditioned("lasso-budget", _mu_pos_lasso, M=4, c=8,
                      criterion=rc.InnerCriterion("budget"), eps=1e-3, outer_budget=500),
        SM1Compare(out_root),
    ]
    return {w.name: w for w in workloads}

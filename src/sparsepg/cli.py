"""Experiment runner: config parsing, multi-seed execution, CSV emission.

Subcommands:
  run        -- execute one experiment config across seeds
  compare    -- run several configs on the same problem and merge their curves
  defaults   -- print the default config
  presets    -- list or materialize packaged study configs

A config with a [warmstart] section runs, for each seed, a dense phase until
its trigger holds and then the configured method from the point reached.

All emitted CSVs carry per-seed curves plus pointwise median / interquartile
rows over the common prefix; no resampling or smoothing.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import data, engine, metrics, problem as pb, recondition as rc
from .sparsifier import adaptive_distribution, uniform_distribution

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_TARGET = 4

ALGORITHMS = ("davepg", "spy-uniform", "reconditioned", "catalyst")
PROBLEM_KINDS = ("synthetic-lasso", "synthetic-logistic", "libsvm-lasso", "libsvm-logistic")
SCHEDULES = ("round_robin", "random_uniform", "heterogeneous")

REF_TOL = 1e-12  # tolerance of every reference solution

_REQUIRED = object()  # the empty value of an option that must be set


def boolean(raw):
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(raw)


def int_list(raw):
    return tuple(int(t) for t in raw.split(",") if t.strip())


def float_list(raw):
    return tuple(float(t) for t in raw.split(",") if t.strip())


# the INI spelling of a value, by the parser that reads it back
_TEXT = {
    str: str, int: str, float: repr, boolean: lambda v: str(v).lower(),
    int_list: lambda v: ",".join(str(s) for s in v),
    float_list: lambda v: ",".join(repr(w) for w in v),
}


def _option(section, key, default, parse, check=None, empty=_REQUIRED):
    """A config field read from ``[section] key`` by ``parse``: ``check`` is
    its range test, or the tuple of its valid values, and ``empty`` the value
    of an empty entry."""
    return field(default=default, metadata={
        "section": section, "key": key, "parse": parse, "check": check, "empty": empty})


class ConfigError(ValueError):
    """Carries every validation problem found in a config at once."""

    def __init__(self, problems):
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in problems))
        self.problems = list(problems)


@dataclass
class ExperimentConfig:
    """One experiment; every field but ``warmstart`` is one INI option."""

    kind: str = _option("problem", "kind", "synthetic-lasso", str, PROBLEM_KINDS)
    d: int = _option("problem", "d", 1000, int, lambda v: v >= 1)
    m: int = _option("problem", "m", 500, int, lambda v: v >= 1)
    sparsity: float = _option("problem", "sparsity", 0.99, float, lambda v: 0 <= v <= 1)
    noise_std: float = _option("problem", "noise_std", 0.01, float, lambda v: v >= 0)
    data_seed: int = _option("problem", "data_seed", 0, int, lambda v: v >= 0)
    path: str = _option("problem", "path", "", str, empty="")
    lam1: float | None = _option("problem", "lam1", None, float, lambda v: v > 0, empty=None)
    target_support: int | None = _option("problem", "target_support", 12, int, lambda v: v >= 1,
                                         empty=None)
    lam2: float = _option("problem", "lam2", 0.001, float, lambda v: v >= 0)
    scale: bool = _option("problem", "scale", False, boolean)
    algorithm: str = _option("run", "algorithm", "reconditioned", str, ALGORITHMS)
    workers: int = _option("run", "workers", 5, int, lambda v: v >= 1)
    pi: float = _option("run", "pi", 0.3, float, lambda v: 0 < v <= 1)
    c: float = _option("run", "c", 12.0, float, lambda v: v > 0)
    criterion: str = _option("run", "criterion", "fixed", str)
    schedule: str = _option("run", "schedule", "random_uniform", str, SCHEDULES)
    weights: tuple = _option("run", "weights", (), float_list, lambda v: all(w > 0 for w in v),
                             empty=())
    seeds: tuple = _option("run", "seeds", tuple(range(1, 11)), int_list,
                           lambda v: 0 < len(v) == len(set(v)) and min(v) >= 0)
    target_eps: float = _option("run", "target_eps", 1e-6, float, lambda v: v > 0)
    max_iterations: int = _option("run", "max_iterations", 200000, int, lambda v: v >= 1)
    outer_budget: int = _option("run", "outer_budget", 600, int, lambda v: v >= 1)
    log_stride: int = _option("run", "log_stride", 20, int, lambda v: v >= 1)
    warmstart: bool = False  # whether the config has a [warmstart] section
    ws_max_epochs: int = _option("warmstart", "max_epochs", 2000, int, lambda v: v >= 1)

    def to_ini(self) -> str:
        sections = _ini_sections(self)
        if not self.warmstart:
            del sections["warmstart"]
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_dict(sections)
        out = io.StringIO()
        cp.write(out)
        return out.getvalue()


_OPTIONS = {f.name: f for f in fields(ExperimentConfig) if f.metadata}


def _ini_sections(cfg: ExperimentConfig) -> dict:
    """{section: {key: text}} of every option, in declaration order."""
    sections: dict = {}
    for f in _OPTIONS.values():
        value = getattr(cfg, f.name)
        text = "" if value is None else _TEXT[f.metadata["parse"]](value)
        sections.setdefault(f.metadata["section"], {})[f.metadata["key"]] = text
    return sections


def default_config_text() -> str:
    """The default config as INI text.  It has no [warmstart] section: the
    section's presence turns the warm start on, and the default has none."""
    return ExperimentConfig().to_ini()


def _finite(value) -> bool:
    """Whether every float of an option's value is finite: a float option
    that is not, inf as well as nan, is out of range whatever its check."""
    values = value if isinstance(value, tuple) else (value,)
    return all(math.isfinite(v) for v in values if isinstance(v, float))


def _parse_option(f, raw: str, problems: list):
    """The value of option ``f`` spelled ``raw``.  A problem with it is
    appended to ``problems``, and the option's empty value is returned, or its
    default when an empty entry is an error."""
    meta = f.metadata
    section, key, parse, check, empty = (
        meta["section"], meta["key"], meta["parse"], meta["check"], meta["empty"])
    if raw == "":
        if empty is not _REQUIRED:
            return empty
        problems.append(f"[{section}] {key} must be set")
    else:
        try:
            value = parse(raw)
        except Exception:
            problems.append(f"[{section}] {key}={raw!r} is not a valid {parse.__name__}")
        else:
            choices = check if isinstance(check, tuple) else ()
            in_range = value in choices if choices else check is None or check(value)
            if _finite(value) and in_range:
                return value
            valid = f" (one of {', '.join(choices)})" if choices else ""
            problems.append(f"[{section}] {key}={raw!r} out of range{valid}")
    return f.default if empty is _REQUIRED else empty


def parse_config(text: str) -> ExperimentConfig:
    """Parse an INI config on top of the defaults, validating fully.  A
    section or key that no option declares is an error, a [DEFAULT] key too."""
    defaults = _ini_sections(ExperimentConfig())
    # no interpolation: a % in a value is an ordinary character
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"malformed config: {exc}"]) from None
    problems = [f"[{cp.default_section}] {key} is not an option" for key in cp.defaults()]
    for section in cp.sections():
        if section not in defaults:
            problems.append(f"[{section}] is not a section ({', '.join(defaults)} are)")
            continue
        problems += [f"[{section}] {key} is not an option" for key in cp.options(section)
                     if key not in defaults[section] and key not in cp.defaults()]
    failed = set()  # options that did not parse or were out of range
    cfg = ExperimentConfig(warmstart=cp.has_section("warmstart"))
    for f in _OPTIONS.values():
        section, key = f.metadata["section"], f.metadata["key"]
        if section != "warmstart" or cfg.warmstart:
            raw = cp.get(section, key, fallback=defaults[section][key])
            n = len(problems)
            setattr(cfg, f.name, _parse_option(f, raw, problems))
            if len(problems) > n:
                failed.add(f.name)

    # cross-field validation
    if cfg.kind.startswith("libsvm"):
        if not cfg.path:
            problems.append("[problem] path required for libsvm datasets")
        elif not os.path.exists(cfg.path):
            problems.append(f"[problem] dataset file not found: {cfg.path}")
    if cfg.kind.endswith("lasso"):
        if cfg.lam1 is None and cfg.target_support is None:
            problems.append("[problem] set lam1 or target_support")
        elif (cfg.lam1 is None and cfg.kind.startswith("synthetic")
                and failed.isdisjoint({"d", "m", "target_support"})
                and cfg.target_support > min(cfg.d, cfg.m)):
            # a unique lasso solution has at most min(d, m) nonzeros (Tibshirani 2013)
            problems.append(f"[problem] target_support={cfg.target_support} exceeds "
                            f"min(d, m)={min(cfg.d, cfg.m)}")
    elif cfg.lam1 is None:
        cfg.lam1 = 0.03  # logistic default weight when uncalibrated
    if cfg.algorithm in ("reconditioned", "catalyst"):
        valid = rc.INNER_KINDS if cfg.algorithm == "reconditioned" else ("fixed",)
        if cfg.criterion not in valid:
            problems.append(f"[run] criterion {cfg.criterion!r} invalid for {cfg.algorithm} (use one of {valid})")
    if (cfg.schedule == "heterogeneous" and failed.isdisjoint({"weights", "workers"})
            and len(cfg.weights) != cfg.workers):
        problems.append("[run] heterogeneous schedule needs one weight per worker")
    if (cfg.schedule != "heterogeneous" and failed.isdisjoint({"schedule", "weights"})
            and cfg.weights):
        problems.append(f"[run] weights are read by the heterogeneous schedule only, "
                        f"not by {cfg.schedule}")
    if problems:
        raise ConfigError(problems)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    """The config in file ``path``; a file that cannot be read as text (missing,
    a directory, not in the locale's encoding) raises ``ConfigError``."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"config file {path} cannot be read: {exc}"]) from None
    return parse_config(text)


# -- problem construction ----------------------------------------------------


def build_problem(cfg: ExperimentConfig):
    """Deterministic problem instance for a config (independent of run seeds).

    A lasso without ``lam1`` is calibrated to ``target_support``; the weight
    found is the problem's ``reg.lam``, and ``cfg`` is left unchanged.  Data
    that cannot be made into the problem (a malformed file, labels other than
    +/-1, fewer examples than workers, a dimension too large for the machine's
    memory) or calibrated raises ``ConfigError``."""
    try:
        if cfg.kind.startswith("synthetic"):
            dataset, _ = data.generate_lasso(cfg.d, cfg.m, cfg.sparsity, cfg.noise_std,
                                             cfg.data_seed)
            if cfg.kind == "synthetic-logistic":
                dataset = data.Dataset(X=dataset.X, y=np.sign(dataset.y) + (dataset.y == 0))
        else:
            dataset = data.parse_libsvm(cfg.path)
            if cfg.kind == "libsvm-logistic":  # LibSVM class labels 0/1 read as -1/+1
                dataset = data.Dataset(X=dataset.X, y=np.where(dataset.y == 0, -1.0, dataset.y))
        plan = data.shard_even(dataset, cfg.workers, seed=cfg.data_seed)
        if cfg.scale:
            dataset = data.scale_features(dataset)
        if not cfg.kind.endswith("lasso"):
            return data.logistic_problem(dataset, plan, cfg.lam1, cfg.lam2)
        if cfg.lam1 is not None:
            return data.lasso_problem(dataset, plan, cfg.lam1)
        # lam1 changes only the regularizer: build the shards and (mu, L) once
        base = data.lasso_problem(dataset, plan, 1.0)

        def at(lam):
            return replace(base, reg=pb.Regularizer("l1", lam))

        return at(metrics.calibrate_l1(at, cfg.target_support, _lam_max(base)))
    except (OSError, ValueError) as exc:
        source = f"dataset {cfg.path}" if cfg.kind.startswith("libsvm") else f"{cfg.kind} data"
        raise ConfigError([f"[problem] {source}: {exc}"]) from None


def _problem_key(cfg: ExperimentConfig) -> tuple:
    """The config fields that ``build_problem`` reads: every [problem] option
    and ``workers``."""
    return tuple(getattr(cfg, f.name) for f in _OPTIONS.values()
                 if f.metadata["section"] == "problem") + (cfg.workers,)


def _lam_max(problem) -> float:
    """Smallest l1 weight giving the all-zero lasso solution."""
    g = pb.smooth_gradient(problem, np.zeros(problem.dim))
    return float(np.max(np.abs(g)))


def get_reference(problem, _cfg=None, cache_dir=None) -> metrics.ReferenceSolution:
    """The reference solution of ``problem``, solved to ``REF_TOL`` whatever
    the config: the second argument is not read."""
    return metrics.reference_solution(
        problem, tol=REF_TOL, cache_dir=cache_dir, assume_unique_minimizer=True
    )


# -- single-seed execution ---------------------------------------------------


def _make_schedule(cfg: ExperimentConfig, seed: int) -> engine.DelaySchedule:
    if cfg.schedule == "round_robin":
        return engine.DelaySchedule.round_robin(cfg.workers)
    if cfg.schedule == "heterogeneous":
        return engine.DelaySchedule.heterogeneous(cfg.weights, seed)
    return engine.DelaySchedule.random_uniform(cfg.workers, seed)


def _run_engine(problem, cfg: ExperimentConfig, seed: int,
                init: np.ndarray, stop: engine.StopRule, mode: str) -> engine.RunTrace:
    """One engine run of ``davepg`` or ``spy-uniform``."""
    gamma = engine.gamma_max(problem)
    schedule = _make_schedule(cfg, seed)
    kwargs = dict(seed=seed, objective_stride=cfg.log_stride, mode=mode)
    if cfg.algorithm == "davepg":
        return engine.run_davepg(problem, gamma, schedule, init, stop, **kwargs)
    dist = uniform_distribution(problem.dim, cfg.pi)  # spy-uniform
    return engine.run_spy(problem, gamma, dist, schedule, init, stop, **kwargs)


def run_algorithm(problem, cfg: ExperimentConfig, seed: int,
                  ref: metrics.ReferenceSolution, mode: str = "sim",
                  init: np.ndarray | None = None):
    """One seed of the configured algorithm; returns an engine or outer trace.
    ``ref`` only sets the target objective, f* + target_eps."""
    d = problem.dim
    init = np.zeros(d) if init is None else init
    target = ref.f_star + cfg.target_eps
    if cfg.algorithm in ("davepg", "spy-uniform"):
        stop = engine.StopRule(max_iterations=cfg.max_iterations, target_objective=target)
        return _run_engine(problem, cfg, seed, init, stop, mode)
    schedule = _make_schedule(cfg, seed)
    params = rc.make_params(problem.mu, problem.lip, cfg.c, d)
    criterion = rc.InnerCriterion(kind=cfg.criterion)
    run = rc.run_reconditioned if cfg.algorithm == "reconditioned" else rc.run_momentum
    return run(problem, params, schedule, init, criterion=criterion,
               outer_budget=cfg.outer_budget, target_objective=target,
               seed=seed, objective_stride=cfg.log_stride, mode=mode)


# -- curve extraction and CSV emission ---------------------------------------


def _fold(runs, f_star):
    """(iterations, cum_up, cum_down, subopt, support) of a seed's runs, each
    run starting where the one before it ended: the counts add up, and each
    run's curve points move by the iterations and coordinates of the runs
    before it.  subopt is [(iteration, exchanged, gap)] from the objective
    logs, the iteration being the number completed, k + 1, so that the gap a
    run logs before its first iteration (k = -1) lands where the run before
    it ended and replaces that run's point there; support is
    [(iteration, support_size)]."""
    iterations = up = down = 0
    subopt, support = [], []
    for run in runs:
        subopt = [p for p in subopt if p[0] < iterations]
        subopt += [(iterations + p.k + 1, up + p.cum_up + down + p.cum_down, p.value - f_star)
                   for p in run.objective_log]
        support += [(iterations + it, size) for it, size in run.support_curve()]
        iterations, up, down = iterations + run.n_iterations, up + run.cum_up, down + run.cum_down
    return iterations, up, down, subopt, support


def _write_curves_csv(path, header, per_seed):
    """per_seed: {label: [(x, y), ...]}; adds pointwise median/q25/q75 rows."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["seed", "point"] + header)
        for label, curve in per_seed.items():
            for idx, row in enumerate(curve):
                w.writerow([label, idx] + list(row))
        if len(per_seed) > 1:
            curves = list(per_seed.values())
            n = min(len(c) for c in curves)
            for name, q in (("median", 50), ("q25", 25), ("q75", 75)):
                for idx in range(n):
                    vals = np.array([c[idx] for c in curves], dtype=float)
                    w.writerow([name, idx] + list(np.percentile(vals, q, axis=0)))


@dataclass
class SeedResult:
    seed: int
    status: str  # ok | target-not-reached | diverged | inner-budget
    final_gap: float | None = None
    identification: int | None = None
    error: str = ""
    runs: list = field(default_factory=list)  # traces: the [warmstart] phase's, then the method's


class TriggerUnreachable(RuntimeError):
    """A [warmstart] phase ended without meeting its trigger."""


def _mask_size(cfg: ExperimentConfig, x: np.ndarray) -> float:
    """The expected size of one mask that ``cfg.algorithm`` draws at x: d for
    ``davepg``, pi d for ``spy-uniform``, and nnz(x) + min(c, d - nnz(x)) for
    the outer loops, whose masks hold supp(x)."""
    if cfg.algorithm == "davepg":
        return x.size
    if cfg.algorithm == "spy-uniform":
        return cfg.pi * x.size
    return float(adaptive_distribution(x, cfg.c).p.sum())  # the outer loops


def _smaller_than_dense(cfg: ExperimentConfig, x: np.ndarray) -> bool:
    """Whether an exchange of ``cfg.algorithm`` at x is expected to be smaller than a
    dense one: nnz(x) + 2 m(x) < 2d, down nnz(x) + m(x) and up m(x) against d each way."""
    return np.count_nonzero(x) + 2 * _mask_size(cfg, x) < 2 * x.size


def _identified(start: np.ndarray, cfg: ExperimentConfig):
    """The [warmstart] trigger, an epoch predicate reading x alone: supp(x) and its signs
    are those at the previous epoch end (``start`` at the first), and
    ``_smaller_than_dense`` holds at x."""
    prev = [pb.sign_pattern(start)]

    def predicate(x, m):
        before, prev[0] = prev[0], pb.sign_pattern(x)
        return prev[0] == before and _smaller_than_dense(cfg, x)
    return predicate


def _execute_seed(problem, cfg, seed, ref, mode) -> SeedResult:
    """One seed of the configured algorithm.

    With a [warmstart] section DAve-PG runs first, from 0 until ``_identified``
    holds at an epoch's end, the one at ``max_epochs`` included (else
    ``TriggerUnreachable``); the configured run starts at its final point and
    follows it in ``runs``."""
    runs, init = [], np.zeros(problem.dim)
    try:
        if cfg.warmstart:
            stop = engine.StopRule(max_epochs=cfg.ws_max_epochs,
                                   epoch_predicate=_identified(init, cfg))
            runs = [_run_engine(problem, replace(cfg, algorithm="davepg"), seed, init, stop, mode)]
            if not runs[0].predicate_met:
                raise TriggerUnreachable(f"seed {seed}: warmstart trigger unreachable "
                                         f"within {cfg.ws_max_epochs} epochs")
            init = runs[0].final_x
        runs.append(run_algorithm(problem, cfg, seed, ref, mode=mode, init=init))
    except engine.DivergenceError as exc:
        return SeedResult(seed=seed, status="diverged", error=str(exc))
    except rc.InnerBudgetError as exc:
        return SeedResult(seed=seed, status="inner-budget", error=str(exc))
    gap = pb.eval_objective(problem, runs[-1].final_x) - ref.f_star
    return SeedResult(
        seed=seed, status="ok" if gap <= cfg.target_eps else "target-not-reached",
        final_gap=gap, identification=metrics.identification_time(runs[-1], ref), runs=runs)


def _run_seeds(problem, cfg, ref, mode) -> list[SeedResult]:
    return [_execute_seed(problem, cfg, s, ref, mode) for s in cfg.seeds]


def _emit_experiment(out_dir, cfg, problem, ref, results) -> dict:
    """Writes a config's outputs; returns {seed: (subopt, support)}, seeds that
    diverged or hit an inner run's safety cap left out."""
    cfg = replace(cfg, lam1=problem.reg.lam)  # the weight used, calibrated or not
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.ini"), "w") as fh:
        fh.write(cfg.to_ini())
    seeds, curves, warmstart = {}, {}, {}
    for r in results:
        iterations, up, down, subopt, support = _fold(r.runs, ref.f_star)
        seeds[str(r.seed)] = {
            "status": r.status,
            "final_gap": r.final_gap,
            "iterations": iterations,
            "coords_up": up,
            "coords_down": down,
            "identification": r.identification,
            "error": r.error,
        }
        if r.status in ("diverged", "inner-budget"):
            continue
        r.runs[-1].to_csv(os.path.join(out_dir, f"trace_seed{r.seed}.csv"))
        curves[r.seed] = subopt, support
        if cfg.warmstart:
            dense = r.runs[0]
            phase1 = dense.cum_up + dense.cum_down
            warmstart[str(r.seed)] = {
                "phase1_exchanges": phase1,
                "total_exchanges": up + down,
                "phase1_fraction": phase1 / (up + down) if up + down else 0.0,
                "switch_iteration": dense.n_iterations,
                "switch_support": int(np.count_nonzero(dense.final_x)),
            }
    _write_curves_csv(
        os.path.join(out_dir, "support_vs_iters.csv"),
        ["iteration", "support_size"],
        {label: support for label, (_, support) in curves.items()},
    )
    _write_curves_csv(
        os.path.join(out_dir, "subopt_vs_iters.csv"),
        ["iteration", "gap"],
        {label: [(it, gap) for it, _, gap in subopt] for label, (subopt, _) in curves.items()},
    )
    _write_curves_csv(
        os.path.join(out_dir, "subopt_vs_exchanges.csv"),
        ["exchanged", "gap"],
        {label: [(ex, gap) for _, ex, gap in subopt] for label, (subopt, _) in curves.items()},
    )
    summary = {
        "fingerprint": ref.fingerprint,
        "f_star": ref.f_star,
        "s_star": ref.s_star,
        "nondegeneracy_margin": metrics.check_nondegeneracy(problem, ref),
        "lam1": cfg.lam1,
        "algorithm": cfg.algorithm,
        "seeds": seeds,
        "identification_times": [r.identification for r in results],
    }
    if cfg.warmstart:
        summary["warmstart"] = warmstart
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, default=float)
    return curves


def _exit_code(results) -> int:
    if all(r.status == "diverged" for r in results):
        return EXIT_DIVERGED
    if not any(r.status == "ok" for r in results):
        return EXIT_TARGET
    return EXIT_OK


# -- subcommands -------------------------------------------------------------


def _check_budget(cfg: ExperimentConfig, problem) -> None:
    """Refuses (``ConfigError``) an outer loop exploring c > d coordinates, and a
    [warmstart] whose trigger fails at 0: since m(x) >= m(0), it then fails at every x."""
    d = problem.dim
    if cfg.algorithm in ("reconditioned", "catalyst") and cfg.c > d:
        raise ConfigError([f"[run] c={cfg.c!r} exceeds the problem dimension d={d}"])
    zero = np.zeros(d)
    if cfg.warmstart and not _smaller_than_dense(cfg, zero):
        raise ConfigError([f"[warmstart] before {cfg.algorithm} never hands over: its mask "
                           f"at 0 has m(0) = {_mask_size(cfg, zero):.15g} of d = {d} coordinates, "
                           "so no exchange is smaller than a dense one"])


def cmd_run(cfg: ExperimentConfig, out_dir: str, mode: str, cache_dir=None) -> int:
    problem = build_problem(cfg)
    _check_budget(cfg, problem)
    ref = get_reference(problem, cache_dir=cache_dir)
    results = _run_seeds(problem, cfg, ref, mode)
    _emit_experiment(out_dir, cfg, problem, ref, results)
    return _exit_code(results)


def cmd_compare(cfgs, labels, out_dir: str, mode: str, cache_dir=None) -> int:
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        print(f"error: compare writes each config to out/<label>, and two configs share "
              f"the label {', '.join(repeated)} (the config file name)", file=sys.stderr)
        return EXIT_CONFIG
    built = {}
    for cfg in cfgs:
        key = _problem_key(cfg)
        if key not in built:
            built[key] = build_problem(cfg)
    if len({metrics.problem_fingerprint(p) for p in built.values()}) != 1:
        print("error: compare requires identical problems in every config", file=sys.stderr)
        return EXIT_CONFIG
    problem = built[_problem_key(cfgs[0])]
    for cfg in cfgs:
        _check_budget(cfg, problem)
    ref = get_reference(problem, cache_dir=cache_dir)
    os.makedirs(out_dir, exist_ok=True)
    merged = []
    codes = []
    for cfg, label in zip(cfgs, labels):
        results = _run_seeds(problem, cfg, ref, mode)
        curves = _emit_experiment(os.path.join(out_dir, label), cfg, problem, ref, results)
        codes.append(_exit_code(results))
        for seed, (subopt, _) in curves.items():
            merged += [(label, seed, idx, *point) for idx, point in enumerate(subopt)]
    with open(os.path.join(out_dir, "compare_subopt.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label", "seed", "point", "iteration", "exchanged", "gap"])
        w.writerows(merged)
    return max(codes)


# -- presets -----------------------------------------------------------------


def preset_configs(name: str) -> tuple[list[ExperimentConfig], list[str]]:
    """Packaged study configs; all desk-scale and fully synthetic."""
    if name == "sm1":
        # uniform sparsification at several rates vs the dense baseline on a
        # logistic elastic-net problem (synthetic stand-in for the paper-scale
        # dataset, which is not bundled)
        base = {
            "kind": "synthetic-logistic", "d": 200, "m": 600, "sparsity": 0.9,
            "noise_std": 0.0, "data_seed": 3, "lam1": 0.005, "lam2": 0.01,
            "workers": 4, "seeds": tuple(range(1, 11)), "target_eps": 1e-6,
            "max_iterations": 300000, "log_stride": 50,
        }
        cfgs, labels = [], []
        cfgs.append(_mk(base, algorithm="davepg"))
        labels.append("davepg")
        for piv in (0.1, 0.3, 0.6):
            cfgs.append(_mk(base, algorithm="spy-uniform", pi=piv))
            labels.append(f"spy-uniform-{piv}")
        return cfgs, labels
    if name == "sm7":
        # one-epoch fixed budget vs the displacement-relative inner criterion
        base = {
            "kind": "synthetic-lasso", "d": 300, "m": 200, "sparsity": 0.96,
            "noise_std": 0.01, "data_seed": 5, "target_support": 12, "lam1": None,
            "workers": 5, "c": 12.0, "seeds": tuple(range(1, 11)),
            "target_eps": 1e-8, "outer_budget": 3000, "log_stride": 10,
        }
        return (
            [_mk(base, algorithm="reconditioned", criterion="fixed"),
             _mk(base, algorithm="reconditioned", criterion="relative")],
            ["fixed-1-epoch", "relative"],
        )
    if name == "fig-lasso":
        # exploration budget sweep around the optimal support size
        base = {
            "kind": "synthetic-lasso", "d": 1000, "m": 500, "sparsity": 0.99,
            "noise_std": 0.01, "data_seed": 0, "target_support": 12, "lam1": None,
            "workers": 5, "seeds": tuple(range(1, 11)), "target_eps": 1e-6,
            "outer_budget": 2000, "log_stride": 50,
        }
        s_star = 12
        cfgs, labels = [], []
        for cval in (s_star / 3, s_star, 3 * s_star, 10 * s_star):
            cfgs.append(_mk(base, algorithm="reconditioned", criterion="fixed", c=float(cval)))
            labels.append(f"c-{cval:g}")
        cfgs.append(_mk(base, algorithm="davepg"))
        labels.append("davepg")
        return cfgs, labels
    raise ConfigError([f"unknown preset {name!r} (available: sm1, sm7, fig-lasso)"])


def _mk(base: dict, **overrides) -> ExperimentConfig:
    return ExperimentConfig(**{**base, **overrides})


# -- entry point -------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sparsepg",
        description="Asynchronous proximal gradient with sparsified communication",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", action="append", default=[],
                       required=False, help="experiment config file (INI)")
        p.add_argument("--out", default="experiment-out", help="output directory")
        p.add_argument("--seeds", default=None, help="comma-separated seed override")
        p.add_argument("--mode", choices=("sim", "concurrent"), default="sim")
        p.add_argument("--cache-dir", default=None,
                       help=f"reference-solution cache (default ${metrics.CACHE_ENV})")

    common(sub.add_parser("run", help="run one experiment across seeds"))
    pc = sub.add_parser("compare", help="run several configs on one problem")
    common(pc)
    pc.add_argument("--preset", default=None, help="packaged study: sm1, sm7, fig-lasso")
    sub.add_parser("defaults", help="print the default config")
    pp = sub.add_parser("presets", help="list packaged presets or write their configs")
    pp.add_argument("--out", default=None, help="write preset configs here")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """``--seeds``, read and checked as ``[run] seeds`` is."""
    if args.seeds is not None:
        problems: list[str] = []
        cfg.seeds = _parse_option(_OPTIONS["seeds"], args.seeds, problems)
        if problems:
            raise ConfigError(problems)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "defaults":
        print(default_config_text(), end="")
        return EXIT_OK
    if args.command == "presets":
        for name in ("sm1", "sm7", "fig-lasso"):
            cfgs, labels = preset_configs(name)
            print(f"{name}: {', '.join(labels)}")
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                for cfg, label in zip(cfgs, labels):
                    with open(os.path.join(args.out, f"{name}-{label}.ini"), "w") as fh:
                        fh.write(cfg.to_ini())
        return EXIT_OK
    try:
        if args.command == "compare" and args.preset:
            if args.config:
                print("error: compare takes --preset or --config, not both", file=sys.stderr)
                return EXIT_CONFIG
            cfgs, labels = preset_configs(args.preset)
            for c in cfgs:
                _apply_overrides(c, args)
        else:
            if not args.config:
                print("error: --config is required", file=sys.stderr)
                return EXIT_CONFIG
            cfgs = [_apply_overrides(load_config(p), args) for p in args.config]
            labels = [os.path.splitext(os.path.basename(p))[0] for p in args.config]
        if args.command == "run":
            if len(cfgs) != 1:
                print("error: run takes exactly one --config", file=sys.stderr)
                return EXIT_CONFIG
            return cmd_run(cfgs[0], args.out, args.mode, args.cache_dir)
        if len(cfgs) < 2:
            print("error: compare needs at least two configs or a --preset", file=sys.stderr)
            return EXIT_CONFIG
        return cmd_compare(cfgs, labels, args.out, args.mode, args.cache_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TriggerUnreachable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TARGET


if __name__ == "__main__":
    sys.exit(main())

"""Proximally reconditioned outer loop with adaptive sparsification.

Each outer step ell solves, inexactly and with the asynchronous sparsified
engine, the reconditioned problem

    H_ell = sum_i alpha_i (f_i + (rho/2)||. - center_ell||^2) + r,

with selection probability 1 on the support of the current center and a small
exploration probability elsewhere.  One criterion type, ``InnerCriterion``,
says when each inner run stops, in one of three kinds (``INNER_KINDS``): a
per-step epoch budget derived from the theory ("budget"), a constant number
of epochs ("fixed"), and a validation-style rule comparing the inner iterate
to the exact proximal point ("relative").  The budget and relative tests use
the accuracy exponent ``DELTA`` = 0.5.  A momentum (accelerated) variant
centers each step at an extrapolated point and runs "fixed" only.  No
criterion reads the optimal value F*.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from . import direct
from . import problem as pb
from .engine import (DelaySchedule, ObjectivePoint, SparsePoints, StopRule, _check_count,
                     _check_stride, _Session, run_spy)
from .sparsifier import adaptive_distribution, min_conditioning

_SEED_STRIDE = 100_003
_ORACLE_TOL = 1e-11  # tolerance of the proximal point the relative test solves for
SAFETY_EPOCHS = 20_000  # epochs before an inner run with the relative test gives up
DELTA = 0.5  # accuracy exponent in (0, 1) of the budget and relative tests

INNER_KINDS = ("budget", "fixed", "relative")


class InnerBudgetError(RuntimeError):
    """An inner run hit its safety cap before meeting its stopping test."""


@dataclass(frozen=True)
class ReconditionParams:
    """The reconditioned scheme's constants, derived from its inputs: c of d
    coordinates explored, smoothness constants mu and L.  The reconditioned
    problem gets condition number kappa, so that masks with p_min >= pi - alpha
    still contract, and the inner stepsize gamma = 2/(mu + L + 2 rho) is the
    one at which (1 - gamma (mu + rho))^2 = pi - alpha.  ``replace``
    re-derives the five and refuses to set one."""

    c: float
    d: int
    mu: float
    lip: float
    pi: float = field(init=False)     # baseline exploration probability c/d
    alpha: float = field(init=False)  # probability margin c/(2d)
    kappa: float = field(init=False)  # target condition number of the reconditioned problem
    rho: float = field(init=False)    # reconditioning weight, 0 if already conditioned enough
    gamma: float = field(init=False)  # inner stepsize

    def __post_init__(self):
        c, d, mu, lip = self.c, self.d, self.mu, self.lip
        if not 0 < c <= d:
            raise ValueError("exploration budget c must lie in (0, d]")
        if not 0 <= mu <= lip:
            raise ValueError("need 0 <= mu <= L")
        if lip <= 0:
            raise ValueError("L must be positive")
        pi = c / d
        alpha = c / (2.0 * d)
        kappa = min_conditioning(pi - alpha)
        rho = max((kappa * lip - mu) / (1.0 - kappa), 0.0)
        derived = dict(pi=pi, alpha=alpha, kappa=kappa, rho=rho,
                       gamma=2.0 / (mu + lip + 2.0 * rho))
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def needs_reconditioning(self) -> bool:
        return self.rho > 0

    def inner_contraction(self, pi_ell: float) -> float:
        """Per-epoch contraction factor 1 - alpha_ell of the inner runs."""
        rate = 1.0 - self.alpha - (pi_ell - self.pi)
        return max(rate, 0.0)

    @property
    def outer_rate(self) -> float:
        """Per-step contraction of ||x_ell - x*||^2 for exact proximal steps."""
        if self.mu == 0:
            return 1.0
        return 1.0 - self.mu / (self.mu + self.rho / 2.0)


def make_params(mu: float, lip: float, c: float, d: int) -> ReconditionParams:
    """``ReconditionParams(c, d, mu, lip)``: a ``ValueError`` unless 0 < c <= d
    and 0 <= mu <= L with L > 0.  The inner tests' accuracy exponent is
    ``DELTA``, a constant."""
    return ReconditionParams(c=c, d=d, mu=mu, lip=lip)


def epoch_budget(ell: int, params: ReconditionParams, pi_ell: float) -> int:
    """Inner epoch count guaranteeing the required outer accuracy at step ell."""
    if ell < 1:
        raise ValueError("outer steps are counted from 1")
    rate = params.inner_contraction(pi_ell)
    if rate >= 1.0:
        raise ValueError("inner runs do not contract with these probabilities")
    rate = max(rate, 1e-300)
    log_inv = math.log(1.0 / rate)
    mu, rho = params.mu, params.rho
    if rho <= 0:
        raise ValueError("epoch budget undefined without reconditioning (rho = 0)")
    m = (1.0 + DELTA) * math.log(ell) / log_inv
    m += math.log((2.0 * mu + rho) / ((1.0 - DELTA) * rho)) / log_inv
    return max(int(math.ceil(m)), 1)


def prox_oracle(
    problem: pb.CompositeProblem,
    rho: float,
    center: np.ndarray,
    tol: float = _ORACLE_TOL,
) -> np.ndarray:
    """prox_{F/rho}(center) to distance tol, by the direct solver started at
    center."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    sub = pb.reconditioned(problem, rho, np.asarray(center, dtype=float))
    x, _ = direct.solve(sub, tol=tol, x0=center)
    return x


# -- outer trace -------------------------------------------------------------


@dataclass
class OuterRecord:
    ell: int
    pi_ell: float
    inner_epochs: int
    inner_iterations: int
    support_size: int
    cum_up: int
    cum_down: int
    objective: float


@dataclass
class OuterTrace:
    """Per-outer-step log plus the objective log of the outer sequence: with
    a stride s, F(init) at k = -1, then F(x_ell) at the run-wide index of step
    ell's last inner iteration when the step's iterations include a multiple
    of s.  Inner runs log no objective.

    ``centers`` is a list, built when read, of the start and each step's
    center as dense copies.  Each point is stored once, as its nonzeros
    (``SparsePoints``): x_ell as the final point of inner run ell, and the
    start and the momentum loop's extrapolated centers in the trace.
    ``final_x``, the outer result, is read from there too.

    Iterating the trace yields the initial point and then each outer step's
    result x_ell, the final point of its inner run.  These are the centers
    of the plain loop but not of the momentum loop, whose centers are
    extrapolated."""

    records: list = field(default_factory=list)
    inner_traces: list = field(default_factory=list)
    objective_log: list = field(default_factory=list)
    total_iterations: int = 0
    stored_centers: SparsePoints = field(default_factory=SparsePoints, repr=False)

    @property
    def final_x(self) -> np.ndarray | None:
        """x_ell of the last step, else the start; None for an empty trace."""
        runs = self.inner_traces
        return runs[-1].final_x if runs else next(iter(self.stored_centers), None)

    @property
    def centers(self) -> list:
        if len(self.stored_centers) > 1:  # the loop stored its extrapolated centers
            return list(self.stored_centers)
        return list(self)

    def __iter__(self):
        return iter(self.stored_centers[:1] + [t.final_x for t in self.inner_traces])

    @property
    def n_iterations(self) -> int:
        return self.total_iterations

    @property
    def n_outer(self) -> int:
        return len(self.records)

    @property
    def cum_up(self) -> int:
        return self.records[-1].cum_up if self.records else 0

    @property
    def cum_down(self) -> int:
        return self.records[-1].cum_down if self.records else 0

    def support_curve(self) -> list:
        """[(iteration, support_size)], one point per outer step: the inner
        iterations completed when the step ends."""
        curve, end = [], 0
        for r in self.records:
            end += r.inner_iterations
            curve.append((end, r.support_size))
        return curve

    def to_csv(self, path) -> None:
        """One row per outer step: ell, pi_ell, inner_epochs,
        inner_iterations, support_size, cum_up, cum_down and objective."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f.name for f in fields(OuterRecord)])
            w.writerows(astuple(r) for r in self.records)


# -- stopping criteria -------------------------------------------------------


@dataclass(frozen=True)
class InnerCriterion:
    """How each inner run of either outer loop decides it is accurate
    enough; the momentum loop runs "fixed" only.  ``epochs`` is an integer
    >= 1, read by "fixed".

    kinds (``INNER_KINDS``):
      budget    -- run exactly the theory-derived epoch budget for step ell
      fixed     -- run a constant number of epochs (``epochs``)
      relative  -- stop once ||x - prox||^2 is small relative to the realized
                   displacement ||x - center||^2 (solves for the proximal
                   point on every outer step)
    """

    kind: str = "budget"
    epochs: int = 1

    def __post_init__(self):
        if self.kind not in INNER_KINDS:
            raise ValueError(f"unknown inner criterion {self.kind!r}")
        _check_count("epochs", self.epochs, 1)


def _inner_stop(criterion, ell, params, pi_ell, center, sub):
    """The engine StopRule of outer step ell of either loop; ``sub`` is the
    problem reconditioned at ``center``, whose minimizer is the proximal point."""
    if criterion.kind == "budget":
        return StopRule(max_epochs=epoch_budget(ell, params, pi_ell))
    if criterion.kind == "fixed":
        return StopRule(max_epochs=criterion.epochs)
    # relative
    prox_pt, _ = direct.solve(sub, tol=_ORACLE_TOL, x0=center)
    mu, rho = params.mu, params.rho
    coeff = rho / (4.0 * (2.0 * mu + rho) * ell ** (2.0 + 2.0 * DELTA))

    def pred(x, m):
        return float(np.sum((x - prox_pt) ** 2)) <= coeff * float(np.sum((x - center) ** 2))

    return StopRule(max_epochs=SAFETY_EPOCHS, epoch_predicate=pred)


def _outer_loop(problem, params, schedule, init, outer_budget, target_objective,
                seed, objective_stride, mode, criterion, weight=None) -> OuterTrace:
    """The proximal outer loop behind run_reconditioned and run_momentum.

    Step ell solves the problem reconditioned at the current center with the
    inner StopRule ``_inner_stop`` makes of ``criterion``.  Its result x_ell
    gives the next center x_ell + b (x_ell - x_{ell-1}) with b =
    ``weight(ell)``, and x_ell itself when there is no weight.
    """
    if not params.needs_reconditioning:
        raise ValueError(
            "rho = 0: the problem is already conditioned for this exploration "
            "level; run the sparsified engine directly"
        )
    _check_stride(objective_stride)
    _check_count("outer_budget", outer_budget, 0)
    # every step's problem has the shards of ``problem`` and the ridge weight
    # rho, so the session checks the mode, the schedule and gamma once
    with _Session(problem, params.gamma, schedule, mode, rho=params.rho) as session:
        x = np.asarray(init, dtype=float).copy()
        center = x
        trace = OuterTrace()
        trace.stored_centers.append(center)
        f_x = pb.eval_objective(problem, x)  # F(x): at the start, then at each result x_ell
        if objective_stride:
            trace.objective_log.append(ObjectivePoint(-1, 0, 0, f_x))
        for ell in range(1, outer_budget + 1):
            if target_objective is not None and f_x <= target_objective:
                break
            dist = adaptive_distribution(center, params.c)
            pi_ell = dist.p_min
            sub = pb.reconditioned(problem, params.rho, center)
            stop = _inner_stop(criterion, ell, params, pi_ell, center, sub)
            # a random schedule draws a fresh worker order for each step (step 1
            # keeps the schedule's seed); a fixed trace, which reads no seed,
            # restarts at every step
            step_schedule = schedule if schedule.kind == "fixed_trace" else replace(
                schedule, seed=schedule.seed + _SEED_STRIDE * (ell - 1))
            inner = run_spy(
                sub, params.gamma, dist, step_schedule, init=center, stop=stop,
                seed=seed + _SEED_STRIDE * ell, mode=mode,
                # only the first inner solve pays for the initial dense exchange;
                # later solves are not charged for re-priming their workers
                charge_priming=(ell == 1), _session=session,
            )
            if stop.epoch_predicate is not None and not inner.predicate_met:
                raise InnerBudgetError(
                    f"outer step {ell}: inner run exhausted {stop.max_epochs} "
                    "epochs without meeting its accuracy test"
                )
            x_new = inner.final_x
            if weight is None:
                center = x_new
            else:
                center = x_new + weight(ell) * (x_new - x)
                trace.stored_centers.append(center)
            x = x_new
            f_x = pb.eval_objective(problem, x)
            start = trace.total_iterations
            trace.records.append(OuterRecord(
                ell=ell,
                pi_ell=pi_ell,
                inner_epochs=inner.n_epochs,
                inner_iterations=inner.n_iterations,
                support_size=int(np.count_nonzero(x)),
                cum_up=trace.cum_up + inner.cum_up,
                cum_down=trace.cum_down + inner.cum_down,
                objective=f_x,
            ))
            trace.total_iterations += inner.n_iterations
            end = trace.total_iterations - 1
            # logged when the step's run-wide iterations [start, end] contain a
            # multiple of the stride
            if objective_stride and end // objective_stride > (start - 1) // objective_stride:
                trace.objective_log.append(ObjectivePoint(end, trace.cum_up, trace.cum_down, f_x))
            trace.inner_traces.append(inner)
        trace.stored_centers.flush()
        return trace


def run_reconditioned(
    problem: pb.CompositeProblem,
    params: ReconditionParams,
    schedule: DelaySchedule,
    init: np.ndarray,
    criterion: InnerCriterion = InnerCriterion(),
    outer_budget: int = 500,
    target_objective: float | None = None,
    seed: int = 0,
    objective_stride: int | None = None,
    mode: str = "sim",
) -> OuterTrace:
    """Outer proximal loop around sparsified asynchronous inner solves, each
    centered at the previous step's result.

    Stops when F(x_ell) <= target_objective (checked before each step, so a
    start at the solution performs no inner work) or after outer_budget steps.
    ``objective_stride`` logs F at init and at the x_ell, as ``OuterTrace`` says.
    """
    return _outer_loop(problem, params, schedule, init, outer_budget, target_objective,
                       seed, objective_stride, mode, criterion)


# -- accelerated variant -----------------------------------------------------


def momentum_weight(ell: int, mu: float, rho: float) -> float:
    """Extrapolation weight beta_ell for the accelerated outer loop."""
    if mu > 0:
        q = mu / (mu + rho)
        s = math.sqrt(q)
        return (1.0 - s) / (1.0 + s)
    return (ell - 1.0) / (ell + 2.0)


def run_momentum(
    problem: pb.CompositeProblem,
    params: ReconditionParams,
    schedule: DelaySchedule,
    init: np.ndarray,
    criterion: InnerCriterion = InnerCriterion(kind="fixed"),
    outer_budget: int = 500,
    target_objective: float | None = None,
    seed: int = 0,
    objective_stride: int | None = None,
    mode: str = "sim",
) -> OuterTrace:
    """Accelerated outer loop: inner solves centered at an extrapolated point.
    Its criterion is "fixed"; "budget" and "relative" are refused, since their
    accuracy tests are derived for the plain loop.  ``objective_stride`` logs
    F at init and at the x_ell, as ``OuterTrace`` says."""
    if criterion.kind != "fixed":
        raise ValueError(f"the momentum loop runs the fixed criterion only, not {criterion.kind!r}")
    mu, rho = params.mu, params.rho

    def weight(ell):
        return momentum_weight(ell + 1, mu, rho) if mu == 0 else momentum_weight(ell, mu, rho)

    return _outer_loop(problem, params, schedule, init, outer_budget, target_objective,
                       seed, objective_stride, mode, criterion, weight)


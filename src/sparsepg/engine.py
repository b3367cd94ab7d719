"""Asynchronous coordinator/worker execution of proximal-gradient methods.

One coordinator loop runs both variants (dense, and masked by a
``SelectorDistribution``) in two modes that differ only in where worker
replies come from:

* simulation (default): a delay schedule picks which worker replies at each
  global time k, and that worker's step runs in-process.  Single-threaded,
  bit-identical for a fixed (seed, schedule, problem).
* concurrent: a pool of M threads runs the same steps, and replies are taken
  in the order the steps finish; that arrival order defines k, so
  trajectories vary between runs but the limit point does not.  A run equals,
  bit for bit, the simulation run on ``DelaySchedule.fixed_trace`` of its own
  ``worker_fires`` (tested for stop rules without an ``epoch_predicate``).  A
  worker's exception is raised in the caller.

Runs take place in a session, which holds the M workers and the message
source and checks once what its runs share: a session per outer loop, whose
inner runs re-prime the same workers at their own centers, with one pool of
M threads for the whole loop in concurrent mode; a direct run is a session
of one.

The coordinator holds xbar (the alpha-weighted average of the workers'
points) and x = prox(xbar).  A worker, when served, applies a gradient step
on the coordinates of the mask it received with the model, and sends back
only the masked delta.  The synchronous priming round runs in the caller in
both modes, and both modes charge communication by the same rules.
"""

from __future__ import annotations

import csv
import itertools
import operator
import queue
import warnings
from array import array
from collections.abc import Sequence
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import problem as pb
from .rng import stream
from .sparsifier import SelectorDistribution, convergence_gap_ok, draw_mask

DIVERGENCE_NORM = 1e12

# when True, every iteration asserts that the running support count equals
# count_nonzero(x) and that x = prox(xbar), and simulation mode re-derives xbar
# from the worker mirrors and asserts agreement (slow; meant for tests)
DEBUG_CHECK = False

_MASK_TAG = 101
_SCHED_TAG = 102


class DivergenceError(RuntimeError):
    def __init__(self, iteration: int):
        super().__init__(f"iterate blew up at iteration {iteration}")
        self.iteration = iteration


# -- delay schedules --------------------------------------------------------


@dataclass(frozen=True)
class DelaySchedule:
    """Which worker fires at each global time in simulation mode.

    Kinds: fixed_trace (cycled; round robin is the trace 0, 1, ..., M-1),
    random_uniform, heterogeneous (categorical draw by speed weights).  A
    schedule holds only what its kind reads, so schedules that draw the same
    workers compare equal.  Every worker fires infinitely often in any
    infinite extension, which every construction, ``replace`` included,
    checks in O(len(trace) + M).
    """

    kind: str
    M: int
    trace: tuple = ()
    weights: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("fixed_trace", "random_uniform", "heterogeneous"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "fixed_trace" and not self.trace:
            raise ValueError("fixed trace must be non-empty")
        for t in self.trace:
            _check_count("a worker id", t, 0)
        object.__setattr__(self, "trace", tuple(map(int, self.trace)))
        object.__setattr__(self, "weights", tuple(map(float, self.weights)))
        _check_count("M", self.M, 1)
        if self.trace and self.kind != "fixed_trace":
            raise ValueError(f"a {self.kind} schedule reads no trace")
        if self.weights and self.kind != "heterogeneous":
            raise ValueError(f"a {self.kind} schedule reads no speed weights")
        if self.seed != 0 and self.kind == "fixed_trace":
            raise ValueError("a fixed_trace schedule reads no seed")
        if self.kind == "fixed_trace" and set(self.trace) != set(range(self.M)):
            raise ValueError("a fixed trace must mention every worker 0, ..., M-1, only")
        if self.kind == "heterogeneous" and len(self.weights) != self.M:
            raise ValueError("a heterogeneous schedule needs one speed weight per worker")
        if any(w <= 0 for w in self.weights):
            raise ValueError("speed weights must be positive")
        if not np.isfinite(self.weights).all():
            raise ValueError("speed weights must be finite")

    @staticmethod
    def round_robin(M: int) -> "DelaySchedule":
        return DelaySchedule.fixed_trace(range(M))

    @staticmethod
    def random_uniform(M: int, seed: int) -> "DelaySchedule":
        return DelaySchedule(kind="random_uniform", M=M, seed=seed)

    @staticmethod
    def fixed_trace(trace) -> "DelaySchedule":
        """The trace of worker ids 0, ..., M-1, cycled; M = max(trace) + 1."""
        trace = tuple(trace)
        return DelaySchedule(kind="fixed_trace", M=max(trace, default=0) + 1, trace=trace)

    @staticmethod
    def heterogeneous(weights, seed: int) -> "DelaySchedule":
        weights = tuple(weights)
        return DelaySchedule(kind="heterogeneous", M=len(weights), weights=weights, seed=seed)

    def sequence(self):
        """Infinite iterator of worker ids."""
        if self.kind == "fixed_trace":
            return itertools.cycle(self.trace)
        rng = stream(self.seed, _SCHED_TAG)
        if self.kind == "random_uniform":
            return (int(rng.integers(self.M)) for _ in itertools.count())
        w = np.array(self.weights)  # heterogeneous
        p = w / w.sum()
        return (int(rng.choice(self.M, p=p)) for _ in itertools.count())


# -- epochs -----------------------------------------------------------------


class _EpochTracker:
    """The epoch stopping times (k_m) of M workers, one firing at a time.

    k_0 = 0; the next boundary is the first k at which every worker's
    penultimate firing happened at or after the previous boundary.  Plain
    lists: numpy calls on M-element arrays cost more than the work in them."""

    def __init__(self, M: int):
        self.last = [-1] * M
        self.penult = [-1] * M
        self.fired_twice = 0
        self.boundaries = [0]

    def record(self, k: int, i: int) -> bool:
        """Returns True when k starts a new epoch."""
        last = self.last[i]
        if last >= 0:
            if self.penult[i] < 0:
                self.fired_twice += 1
            self.penult[i] = last
        self.last[i] = k
        if (
            k > 0
            and self.fired_twice == len(self.last)
            and min(self.penult) >= self.boundaries[-1]
        ):
            self.boundaries.append(k)
            return True
        return False


def epoch_boundaries(worker_log, M: int) -> list[int]:
    """Stopping times (k_m) from a firing log (i^k for k = 0, 1, ...), as the
    engine's tracker finds them."""
    tracker = _EpochTracker(M)
    for k, i in enumerate(worker_log):
        tracker.record(k, i)
    return tracker.boundaries


# -- traces -----------------------------------------------------------------


@dataclass
class IterRecord:
    k: int
    worker: int
    coords_up: int
    coords_down: int
    support_size: int
    epoch_m: int


@dataclass
class ObjectivePoint:
    k: int
    cum_up: int
    cum_down: int
    value: float


class _Rows(Sequence):
    """Sequence reads over ``_row(i)``: negative indices, and slices as lists."""

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            return [self._row(j) for j in range(*i.indices(n))]
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError("index out of range")
        return self._row(i % n)

    def __iter__(self):
        return (self._row(i) for i in range(len(self)))


_POINT_BUFFER = 8192  # dense entries of appended points kept before they are encoded


class RecordColumns(_Rows):
    """A run's per-iteration records in one int64 buffer, a row of
    len(FIELDS) values per iteration.  Iteration k is row k.  Items are
    ``IterRecord``s built when read."""

    FIELDS = ("worker", "coords_up", "coords_down", "support_size", "epoch_m")

    def __init__(self):
        self._values = array("q")

    def append(self, worker, coords_up, coords_down, support_size, epoch_m):
        self._values.extend((worker, coords_up, coords_down, support_size, epoch_m))

    def columns(self) -> np.ndarray:
        """All records as a fresh (len(FIELDS), n) int64 array, a row per
        field; a copy, so that a run can go on appending."""
        return np.array(self._values, dtype=np.int64).reshape(-1, len(self.FIELDS)).T

    def column(self, name) -> np.ndarray:
        return self.columns()[self.FIELDS.index(name)]

    def __len__(self):
        return len(self._values) // len(self.FIELDS)

    def _row(self, k):
        n = len(self.FIELDS)
        return IterRecord(k, *self._values[k * n:(k + 1) * n])

    def __iter__(self):
        return (IterRecord(k, *row) for k, row in enumerate(self.columns().T.tolist()))

    def __eq__(self, other):
        if isinstance(other, RecordColumns):
            return self._values == other._values
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented


class SparsePoints(_Rows):
    """Float vectors of one length, each stored as the indices and values of
    its nonzero entries (NaN counts as nonzero), appended points a buffer at
    a time.  Reads return dense copies: each nonzero has the bytes given, and
    every zero, -0.0 included, reads as +0.0."""

    def __init__(self, points=()):
        self.dim = None
        self._buf = None  # dense points not yet encoded, the first _n rows
        self._n = 0
        # (offsets, indices, values) per block of points; point j's nonzeros
        # are entries offsets[j]:offsets[j + 1]
        self._blocks = []
        for x in points:
            self.append(np.asarray(x, dtype=float))
        self.flush()

    def append(self, x):
        if self._buf is None:
            self.dim = x.size
            self._buf = np.empty((max(1, _POINT_BUFFER // x.size), x.size))
        self._buf[self._n] = x
        self._n += 1
        if self._n == len(self._buf):
            self.flush()

    def flush(self):
        """Encodes the buffered points and releases the buffer."""
        if self._n:
            self._encode(self._buf[:self._n])
        self._buf, self._n = None, 0

    def _encode(self, rows):
        # few numpy calls per block: each costs microseconds next to the
        # short inner runs of the outer loops
        k, d = rows.shape
        flat = (rows.ravel() != 0).nonzero()[0]  # nonzero() is several times faster on bools
        # flat < k d <= max(d, _POINT_BUFFER), so the cast is exact
        index = np.int32 if d < 2**31 else np.int64
        indices = np.remainder(flat, d, dtype=index, casting="unsafe")
        offsets = np.searchsorted(flat, np.arange(0, k * d + 1, d))
        self._blocks.append((offsets, indices, rows.ravel()[flat]))

    def _block(self):
        """All points as one block, joining the blocks when there are several."""
        self.flush()
        if len(self._blocks) > 1:
            offsets, indices, values = zip(*self._blocks)
            counts = np.concatenate([np.diff(o) for o in offsets])
            self._blocks = [(np.concatenate(([0], np.cumsum(counts))), np.concatenate(indices),
                             np.concatenate(values))]
        return self._blocks[0]

    def __len__(self):
        return sum(len(b[0]) - 1 for b in self._blocks) + self._n

    def _row(self, j):
        offsets, indices, values = self._block()
        start, stop = offsets[j], offsets[j + 1]
        x = np.zeros(self.dim)
        x[indices[start:stop]] = values[start:stop]
        return x


@dataclass
class RunTrace:
    """Complete per-iteration log of one engine run.

    ``records`` keeps one ``IterRecord`` per iteration as integer columns
    (``RecordColumns``); ``epoch_snapshots``, the point at the start of each
    epoch, and ``final_x`` are kept as their nonzeros (``SparsePoints``), the
    final point apart only when the run did not end at an epoch start.  Reads
    of points return dense copies, zeros +0.0.  ``cum_up``/``cum_down`` are
    running totals: the priming charge plus every iteration's
    ``coords_up``/``coords_down``.  ``predicate_met`` is whether the run
    ended because its stop rule's ``epoch_predicate`` held.  Iterating the
    trace yields its epoch snapshots, one point per epoch."""

    records: RecordColumns = field(default_factory=RecordColumns)
    epoch_starts: list = field(default_factory=lambda: [0])
    epoch_snapshots: SparsePoints = field(default_factory=SparsePoints)
    objective_log: list = field(default_factory=list)
    priming_up: int = 0
    priming_down: int = 0
    cum_up: int = 0
    cum_down: int = 0
    predicate_met: bool = False
    _final: SparsePoints | None = field(default=None, repr=False)

    @property
    def final_x(self) -> np.ndarray | None:
        """The last iterate, a dense copy: the last epoch snapshot unless
        another point was set.  None while there is neither."""
        if self._final is not None:
            return self._final[0]
        return self.epoch_snapshots[-1] if len(self.epoch_snapshots) else None

    @property
    def n_iterations(self) -> int:
        return len(self.records)

    @property
    def n_epochs(self) -> int:
        return len(self.epoch_starts) - 1

    @property
    def worker_fires(self) -> list[int]:
        return self.records.column("worker").tolist()

    def __iter__(self):
        return iter(self.epoch_snapshots)

    def support_curve(self) -> list:
        """[(iteration, support_size)] where the objective is logged: after
        each logged iteration k, at k + 1 iterations completed.  Empty
        without an objective log."""
        support = self.records.column("support_size")
        return [(p.k + 1, int(support[p.k])) for p in self.objective_log if p.k >= 0]

    def to_csv(self, path) -> None:
        """One row per iteration: k, worker, coords_up, coords_down,
        support_size, epoch_m and the logged objective, empty where none."""
        values = {p.k: p.value for p in self.objective_log}
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", *RecordColumns.FIELDS, "objective"])
            w.writerows([k, *row, values.get(k, "")]
                        for k, row in enumerate(self.records.columns().T.tolist()))


@dataclass
class StopRule:
    """When to stop a run; accuracy-style conditions are checked at epoch
    boundaries only (matching how the convergence theory is indexed).  The
    ``epoch_predicate`` is tested at every epoch end, the last included,
    before the other conditions."""

    max_epochs: int | None = None
    max_iterations: int | None = None
    target_objective: float | None = None
    epoch_predicate: object = None  # callable (x, m) -> bool

    def __post_init__(self):
        if self.max_epochs is None and self.max_iterations is None:
            raise ValueError("a stop rule needs max_epochs or max_iterations")
        if self.max_epochs is not None:
            _check_count("max_epochs", self.max_epochs, 1)
        if self.max_iterations is not None:
            _check_count("max_iterations", self.max_iterations, 0)


def _check_count(name, value, least):
    """Refuses a count that is not an integer >= least; bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")


# -- workers and message sources -------------------------------------------


class _Worker:
    """Worker i's point x_i and its step, shared by both modes.  ``prime``
    starts it, for each run, at init - gamma grad_i(init) on the run's
    problem.  The oracles' results are new arrays, so the step works on them
    in place: gamma g has the bits of g gamma, and a - b is computed as is."""

    def __init__(self, i, gamma):
        self.i, self.gamma = i, gamma
        self.problem = self.x = None

    def prime(self, problem, init):
        self.problem = problem
        g = pb.local_gradient(problem, self.i, init)
        g *= self.gamma
        self.x = np.subtract(init, g, out=g)

    def step(self, model, mask):
        """Gradient step at the received model on the mask's coordinates (all
        of them when mask is None); returns the reply, the change of x_i on
        those coordinates, one entry per coordinate sent."""
        g = pb.local_gradient(self.problem, self.i, model, mask)
        g *= self.gamma
        if mask is None:
            u = np.subtract(model, g, out=g)
            delta = np.subtract(u, self.x, out=self.x)  # the old x_i's buffer takes the change
            self.x = u
            return delta
        u = model[mask]
        u -= g
        delta = self.x[mask]
        self.x[mask] = u
        return np.subtract(u, delta, out=delta)


class _Inline:
    """Simulation mode: the schedule picks which worker replies next, and
    that worker's step runs in the caller."""

    def __init__(self, workers, schedule: DelaySchedule):
        self.workers = workers
        self.order = schedule.sequence()
        self.inbox = [None] * len(workers)

    def send(self, i, model, mask):
        self.inbox[i] = (model, mask)

    def receive(self):
        i = next(self.order)
        return i, self.workers[i].step(*self.inbox[i])

    def close(self):
        pass


class _Pool:
    """Concurrent mode: one run's steps on the session's pool of one thread
    per worker, its replies taken in the order the steps finish."""

    def __init__(self, workers, pool: ThreadPoolExecutor):
        self.workers, self.pool = workers, pool
        self.replies: queue.SimpleQueue = queue.SimpleQueue()
        self.steps = [None] * len(workers)  # each worker's last step

    def send(self, i, model, mask):
        self.steps[i] = step = self.pool.submit(self.workers[i].step, model, mask)
        step.add_done_callback(lambda f: self.replies.put((i, f)))

    def receive(self):
        i, step = self.replies.get()
        return i, step.result()  # a worker's exception is raised here

    def close(self):
        # the replies a run never takes are of steps sim mode never computes:
        # those not started are cancelled and the others waited for, so that
        # none changes a worker after the run, and their results and errors
        # are dropped with this run's queue
        steps = [f for f in self.steps if f is not None and not f.cancel()]
        futures.wait(steps)


class _Session:
    """The workers and the message source behind a sequence of engine runs:
    the inner runs of an outer loop, or a direct run, a session of one.

    Opening it checks what every run shares: the mode, the schedule's worker
    count, and gamma <= 2/(mu + L) for the moduli of its problems, which have
    the shards of ``problem`` and the ridge weight problem.rho + rho.  A run
    checks that its problem has them, and re-primes the same M workers at its
    own start.  The message source is each run's schedule order in sim mode,
    and in concurrent mode one pool of M threads for all runs, shut down when
    the session closes."""

    def __init__(self, problem: pb.CompositeProblem, gamma: float, schedule: DelaySchedule,
                 mode: str, rho: float = 0.0):
        if mode not in ("sim", "concurrent"):
            raise ValueError(f"unknown mode {mode!r} (sim or concurrent)")
        M = problem.n_workers
        _check_workers(schedule, M)
        _check_gamma(gamma, problem.mu + rho, problem.lip + rho)
        self.shards, self.rho = problem.shards, problem.rho + rho
        self.gamma, self.mode = gamma, mode
        self.workers = [_Worker(i, gamma) for i in range(M)]
        self.pool = ThreadPoolExecutor(M) if mode == "concurrent" else None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)


# -- the coordinator --------------------------------------------------------


def gamma_max(problem: pb.CompositeProblem) -> float:
    return 2.0 / (problem.mu + problem.lip)


def _check_gamma(gamma, mu, lip):
    bound = 2.0 / (mu + lip)
    if not 0 < gamma <= bound * (1 + 1e-12):
        raise ValueError(f"gamma={gamma} outside (0, 2/(mu+L)] = (0, {bound}]")


def _check_workers(schedule, M):
    if schedule.M != M:
        raise ValueError("schedule worker count does not match the problem")


def _check_stride(stride):
    """Refuses an objective stride that is neither None nor a count >= 1."""
    if stride is not None:
        _check_count("objective_stride", stride, 1)


def _run(session, problem, gamma, dist, schedule, init, stop, seed, mode,
         objective_stride=None, objective_fn=None, charge_priming=True) -> RunTrace:
    """One engine run of ``session``: dense when dist is None, else masked by dist."""
    if (problem.shards is not session.shards or problem.rho != session.rho
            or gamma != session.gamma):
        raise ValueError("a session's runs share its shards, ridge weight and stepsize")
    if mode != session.mode:
        raise ValueError(f"a run in {mode!r} mode of a {session.mode!r} session")
    workers = session.workers
    M, d = len(workers), problem.dim
    _check_workers(schedule, M)
    _check_stride(objective_stride)
    init = np.asarray(init, dtype=float)
    if init.shape != (d,):
        raise ValueError("init dimension mismatch")
    if dist is not None:
        if dist.d != d:
            raise ValueError("selector dimension mismatch")
        if not convergence_gap_ok(dist, gamma, problem.mu):
            warnings.warn(
                "selection probabilities violate p_min/p_max >= (1-gamma*mu)^2; "
                "linear convergence is not guaranteed",
                RuntimeWarning,
            )
        mask_rngs = [stream(seed, _MASK_TAG, i) for i in range(M)]

    def new_mask(i):
        """Worker i's next mask; None, every coordinate, when dense."""
        return None if dist is None else draw_mask(dist, mask_rngs[i])

    tracker = _EpochTracker(M)
    trace = RunTrace(epoch_starts=tracker.boundaries)

    def down(nnz, mask):
        """Coordinates of a model message: d when dense (no mask), else the
        model's support and the mask."""
        return d if mask is None else nnz + mask.size

    # synchronous priming round: x_i^0 = init - gamma * grad_i(init); a masked
    # run sends init's support down, a dense run all of init
    xbar, scaled = np.zeros(d), np.empty(d)
    alphas = problem.alphas.tolist()  # a float times an array has the bits of alpha_i times it
    init_down = d if dist is None else int(np.count_nonzero(init))
    for i, w in enumerate(workers):
        w.prime(problem, init)
        xbar += np.multiply(alphas[i], w.x, out=scaled)
    if charge_priming:
        trace.priming_down += M * init_down
        trace.priming_up += M * d
    x = pb.prox_reg(problem.reg, gamma, xbar)
    nnz = int(np.count_nonzero(x))
    obj = objective_fn if objective_fn is not None else (lambda xx: pb.eval_objective(problem, xx))

    def log_objective(k, xx, cum_up, cum_down):
        trace.objective_log.append(ObjectivePoint(k, cum_up, cum_down, obj(xx)))

    source = _Inline(workers, schedule) if session.pool is None else _Pool(workers, session.pool)
    masks = [None] * M  # the mask each worker was last sent
    # the loop's per-iteration calls, looked up once; the oracles (pb.prox_reg,
    # draw_mask, and pb.grad_shard in the worker step) are looked up per call
    receive, send = source.receive, source.send
    record, snapshot = trace.records.append, trace.epoch_snapshots.append
    max_iterations, limit = stop.max_iterations, DIVERGENCE_NORM ** 2
    try:
        for i in range(M):
            masks[i] = mask = new_mask(i)
            if charge_priming:
                trace.priming_down += down(nnz, mask)
            send(i, x.copy(), mask)
        cum_up, cum_down = trace.priming_up, trace.priming_down
        snapshot(x)
        if objective_stride:
            log_objective(-1, x, cum_up, cum_down)

        m = 0
        new_epoch = True  # x is the last snapshot
        for k in itertools.count() if max_iterations is None else range(max_iterations):
            i, delta = receive()
            # only the mask's coordinates of xbar, and so of x, move: one
            # gather of xbar[S] (a view when dense), and one write-back; the
            # reply is the worker's new array, scaled in place
            S = masks[i] if masks[i] is not None else slice(None)
            xb = xbar[S]
            delta *= alphas[i]
            xb += delta
            xbar[S] = xb
            x_S = pb.prox_reg(problem.reg, gamma, xb)
            nnz += int(np.count_nonzero(x_S)) - int(np.count_nonzero(x[S]))
            x[S] = x_S
            if DEBUG_CHECK:
                assert nnz == np.count_nonzero(x), "running support count drifted"
                assert np.array_equal(x, pb.prox_reg(problem.reg, gamma, xbar)), "x != prox(xbar)"
                if session.pool is None:
                    rebuilt = sum(a * w.x for a, w in zip(problem.alphas, workers))
                    assert np.allclose(xbar, rebuilt, atol=1e-10), "coordinator average drifted"
            # ||x||^2 as np.linalg.norm computes it; NaN fails the comparison too
            if not x.dot(x) <= limit:
                raise DivergenceError(k)
            # drawn on the last iteration too, so that a run's mask streams do
            # not depend on how it stops
            masks[i] = mask = new_mask(i)
            new_epoch = tracker.record(k, i)
            last = k + 1 == max_iterations
            if new_epoch:
                snapshot(x)
                m += 1
                # the predicate first, so that every epoch end tests it
                trace.predicate_met = (stop.epoch_predicate is not None
                                       and bool(stop.epoch_predicate(x, m)))
                last = (last or trace.predicate_met
                        or (stop.max_epochs is not None and m >= stop.max_epochs)
                        or (stop.target_objective is not None
                            and pb.eval_objective(problem, x) <= stop.target_objective))
            # the last iteration sends no model, so it is charged none
            up, sent = delta.size, 0 if last else down(nnz, mask)
            cum_up += up
            cum_down += sent
            record(i, up, sent, nnz, m)
            if objective_stride and (k % objective_stride == 0):
                log_objective(k, x, cum_up, cum_down)
            if last:
                break
            send(i, x.copy(), mask)
        trace.cum_up, trace.cum_down = cum_up, cum_down
    finally:
        source.close()

    trace.epoch_snapshots.flush()
    if not new_epoch:
        trace._final = SparsePoints([x])
    return trace


# -- public entry points ----------------------------------------------------


def run_davepg(
    problem: pb.CompositeProblem,
    gamma: float,
    schedule: DelaySchedule,
    init: np.ndarray,
    stop: StopRule,
    seed: int = 0,
    objective_stride: int | None = None,
    mode: str = "sim",
    objective_fn=None,
) -> RunTrace:
    """Asynchronous proximal gradient without sparsification (dense deltas)."""
    with _Session(problem, gamma, schedule, mode) as session:
        return _run(session, problem, gamma, None, schedule, init, stop, seed, mode,
                    objective_stride, objective_fn)


def run_spy(
    problem: pb.CompositeProblem,
    gamma: float,
    dist: SelectorDistribution,
    schedule: DelaySchedule,
    init: np.ndarray,
    stop: StopRule,
    seed: int = 0,
    objective_stride: int | None = None,
    mode: str = "sim",
    objective_fn=None,
    charge_priming: bool = True,
    _session: _Session | None = None,
) -> RunTrace:
    """Sparsified variant: workers update and send only masked coordinates.

    ``charge_priming=False`` runs the synchronous priming round as usual but
    leaves its communication out of the ledger: the reconditioned outer loop
    charges it on its first inner run only.  ``_session``, internal, is the
    outer loop's session this run re-primes and runs on; without one the run
    is a session of one.
    """
    if _session is not None:
        return _run(_session, problem, gamma, dist, schedule, init, stop, seed, mode,
                    objective_stride, objective_fn, charge_priming)
    with _Session(problem, gamma, schedule, mode) as session:
        return _run(session, problem, gamma, dist, schedule, init, stop, seed, mode,
                    objective_stride, objective_fn, charge_priming)

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

from sparsepg import data, engine, problem as pb
from sparsepg.rng import stream


def strongly_convex_problem(d=10, M=3, kappa=0.1, seed=0, reg=None):
    """Least-squares problem with controlled spectrum: every shard's Gram
    matrix has eigenvalues in [kappa, 1] (so mu/L = kappa exactly)."""
    rng = stream(seed, 77)
    shards = []
    for i in range(M):
        lams = rng.uniform(kappa, 1.0, size=d)
        lams[0], lams[1] = kappa, 1.0  # pin the extremes
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        A = np.diag(np.sqrt(lams * d / 2.0)) @ Q.T  # A^T A = Q diag(lams d/2) Q^T
        b = A @ rng.standard_normal(d)
        shards.append(pb.LossShard(kind=pb.LEAST_SQUARES, A=A, b=b))
    prob = pb.CompositeProblem(shards, reg=reg or pb.Regularizer())
    # the scaling above makes each shard's (mu, lip) equal (kappa, 1)
    assert abs(prob.mu - kappa) < 1e-6 and abs(prob.lip - 1.0) < 1e-6
    return prob


def shaped_problem(shape, rho=0.0):
    """Three shards of least squares, tall (each holds all of A^T A), wide
    (columns of A^T A computed as used), CSC, or logistic; l1 at 0.4 of the
    smallest weight whose solution is 0, so that supports stay few enough
    for the wide shards to compute from their columns.
    Reconditioned around a point with three nonzeros when rho > 0."""
    rng = np.random.default_rng(31)
    d, m = (10, 24) if shape == "tall" else (64, 12)
    truth = np.zeros(d)
    truth[[1, 4, 6]] = [2.0, -1.5, 1.0]
    shards = []
    for _ in range(3):
        A = rng.standard_normal((m, d))
        if shape == "csc":
            A = scipy.sparse.csc_matrix(A * (rng.random((m, d)) < 0.3))
        if shape == "logistic":
            b = np.where(A @ truth + 0.5 * rng.standard_normal(m) > 0, 1.0, -1.0)
            shards.append(pb.LossShard(kind=pb.LOGISTIC, A=A, b=b, l2=0.05))
        else:
            shards.append(pb.LossShard(kind=pb.LEAST_SQUARES, A=A, b=A @ truth))
    plain = pb.CompositeProblem(shards)
    lam_max = float(np.max(np.abs(pb.smooth_gradient(plain, np.zeros(d)))))
    prob = replace(plain, reg=pb.Regularizer(kind="l1", lam=0.4 * lam_max))
    return pb.reconditioned(prob, rho, truth) if rho > 0 else prob


def mu_pos_lasso():
    """A lasso with mu > 0 (d=100, m=800 over M=4 workers; mu = 0.17) at a
    tenth of the smallest weight whose solution is 0; x* has 10 nonzeros."""
    ds, _ = data.generate_lasso(d=100, m=800, sparsity=0.9, noise_std=0.01, seed=0)
    base = data.lasso_problem(ds, data.shard_even(ds, 4, seed=0), 1.0)
    lam_max = float(np.max(np.abs(pb.smooth_gradient(base, np.zeros(100)))))
    return replace(base, reg=pb.Regularizer("l1", 0.1 * lam_max))


def shifted_initial_radius(problem, gamma, init, x_star):
    """max_i ||x_i^0 - x_i*||^2 with x_i^0 = init - gamma grad_i(init) and
    x_i* = x* - gamma grad_i(x*), the quantity the epoch bounds start from."""
    worst = 0.0
    for shard in problem.shards:
        xi0 = init - gamma * pb.grad_shard(shard, init)
        xis = x_star - gamma * pb.grad_shard(shard, x_star)
        worst = max(worst, float(np.sum((xi0 - xis) ** 2)))
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def trace_bytes(trace):
    """Every field of an engine trace as bytes or exact values, for
    byte-for-byte comparison of two traces."""
    return {
        "records": trace.records.columns().tobytes(),
        "epoch_starts": list(trace.epoch_starts),
        "epoch_snapshots": [x.tobytes() for x in trace.epoch_snapshots],
        "objective_log": [(p.k, p.cum_up, p.cum_down, float(p.value).hex())
                          for p in trace.objective_log],
        "ledger": (trace.priming_up, trace.priming_down, trace.cum_up, trace.cum_down),
        "final_x": trace.final_x.tobytes(),
    }


def count_messages(monkeypatch):
    """Counts the messages the engine's message sources carry, from the
    messages themselves: {source: ([model message sizes], [reply sizes])},
    one source per engine run, in the order the runs started.  A model
    message is d coordinates when dense (no mask), else the model's nonzeros
    plus the mask; a reply is the delta the worker returned, counted when the
    coordinator takes it."""
    runs = {}
    for cls in (engine._Inline, engine._Pool):
        def send(self, i, model, mask, send=cls.send):
            size = model.size if mask is None else np.count_nonzero(model) + mask.size
            runs.setdefault(self, ([], []))[0].append(int(size))
            send(self, i, model, mask)

        def receive(self, receive=cls.receive):
            reply = receive(self)
            runs.setdefault(self, ([], []))[1].append(int(reply[1].size))
            return reply

        monkeypatch.setattr(cls, "send", send)
        monkeypatch.setattr(cls, "receive", receive)
    return runs


def check_ledger(trace, messages, M, init, dense, charged=True):
    """An engine trace's ledger and records against the messages of its run:
    the priming round (init down to, and x_i^0 up from, each of the M
    workers, then the first M model messages) when charged, then one reply
    and one model message per iteration, and no model message after the
    last."""
    down, up = messages
    d = init.size
    init_down = d if dense else int(np.count_nonzero(init))
    priming = (M * d, M * init_down + sum(down[:M])) if charged else (0, 0)
    assert (trace.priming_up, trace.priming_down) == priming
    assert [r.coords_up for r in trace.records] == up
    assert [r.coords_down for r in trace.records] == down[M:] + [0] * (trace.n_iterations > 0)
    assert trace.cum_up == priming[0] + sum(up)
    assert trace.cum_down == priming[1] + sum(down[M:])

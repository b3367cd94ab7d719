"""Datasets: synthetic generation, LibSVM ingestion, and sharding across workers."""

from __future__ import annotations

import gzip
import os
from dataclasses import dataclass

import numpy as np

from . import problem as pb
from .rng import stream


@dataclass(frozen=True)
class Dataset:
    """Design matrix (dense ndarray or CSR with sorted indices) plus a
    label/target vector, all finite.  A sparse matrix whose indices are not
    sorted is sorted in a copy; the caller's arrays are left as they are."""

    X: object
    y: np.ndarray

    def __post_init__(self):
        X = self.X
        if pb.issparse(X):
            import scipy.sparse as sp

            X = sp.csr_matrix(X)
            if not X.has_sorted_indices:
                X = X.sorted_indices()
            object.__setattr__(self, "X", X)
        else:
            object.__setattr__(self, "X", np.asarray(X, dtype=float))
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        if self.X.shape[0] < 1:
            raise ValueError("dataset needs at least one example")
        if y.shape != (self.X.shape[0],):
            raise ValueError("label count does not match example count")
        values = self.X.data if pb.issparse(self.X) else self.X
        if not np.all(np.isfinite(values)):
            raise ValueError("design matrix has non-finite entries")
        if not np.all(np.isfinite(y)):
            raise ValueError("labels have non-finite entries")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def generate_lasso(d: int, m: int, sparsity: float, noise_std: float, seed: int):
    """Random lasso instance: A ~ N(0,1), b = A x0 + noise, x0 mostly zero.

    Returns (dataset, x0) where x0 has exactly round((1-sparsity)*d) nonzeros.
    """
    if d < 1 or m < 1:
        raise ValueError("d and m must be positive")
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError("sparsity must lie in [0, 1]")
    if noise_std < 0:
        raise ValueError("noise_std must be nonnegative")
    rng = stream(seed, 0)
    A = rng.standard_normal((m, d))
    k = int(round((1.0 - sparsity) * d))
    support = rng.choice(d, size=k, replace=False)
    x0 = np.zeros(d)
    x0[support] = rng.standard_normal(k)
    e = noise_std * rng.standard_normal(m)
    # not A @ x0: BLAS sums in an order that depends on its thread count
    supp = np.sort(support)
    b = (A[:, supp] * x0[supp]).sum(axis=1) + e
    return Dataset(X=A, y=b), x0


_MAX_INDEX = 2**31 - 1  # feature indices are stored as int32


class LibSVMFormatError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_libsvm(source) -> Dataset:
    """Parse LibSVM text (``<label> <idx>:<val> ...``, 1-based indices).

    ``source`` is a path (a str or path-like; ``.gz`` accepted) or a text
    stream.  Labels are kept as written.  The dimension is the largest index
    seen, at most 2**31 - 1.
    """
    lines = _read_lines(source)
    labels: list[float] = []
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    d_seen = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise LibSVMFormatError(line_no, f"bad label {tokens[0]!r}") from None
        labels.append(label)
        prev = 0
        for tok in tokens[1:]:
            try:
                idx_s, val_s = tok.split(":", 1)
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise LibSVMFormatError(line_no, f"bad feature token {tok!r}") from None
            if idx < 1:
                raise LibSVMFormatError(line_no, f"index {idx} is not 1-based")
            if idx > _MAX_INDEX:
                raise LibSVMFormatError(line_no, f"index {idx} exceeds {_MAX_INDEX}")
            if idx <= prev:
                raise LibSVMFormatError(line_no, f"indices not strictly increasing at {idx}")
            prev = idx
            indices.append(idx - 1)
            values.append(val)
        d_seen = max(d_seen, prev)
        indptr.append(len(indices))
    if not labels:
        raise LibSVMFormatError(0, "empty input")
    import scipy.sparse as sp

    X = sp.csr_matrix(
        (np.array(values), np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)),
        shape=(len(labels), d_seen),
    )
    return Dataset(X=X, y=np.array(labels))


def _read_lines(source):
    if hasattr(source, "read"):
        return source.read().splitlines()
    if isinstance(source, (str, os.PathLike)):
        path = os.fspath(source)
        opener = gzip.open if path.endswith(".gz") else open
        with opener(path, "rt") as fh:
            return fh.read().splitlines()
    raise TypeError(f"cannot read LibSVM data from {type(source)!r}")


def scale_features(dataset: Dataset) -> Dataset:
    """Per-feature max-abs scaling (columns with all zeros are left alone)."""
    if pb.issparse(dataset.X):
        import scipy.sparse as sp

        maxabs = np.asarray(np.abs(dataset.X).max(axis=0).todense()).ravel()
        maxabs[maxabs == 0] = 1.0
        D = sp.diags(1.0 / maxabs)
        return Dataset(X=sp.csr_matrix(dataset.X @ D), y=dataset.y)
    maxabs = np.abs(dataset.X).max(axis=0)
    maxabs[maxabs == 0] = 1.0
    return Dataset(X=dataset.X / maxabs, y=dataset.y)


def shard_even(dataset: Dataset, M: int, seed: int) -> tuple:
    """Shuffle examples by seed and split them as evenly as possible over M
    workers.  The plan is each worker's example indices, sorted.

    Raises ValueError when a problem of the dataset's dimension d on M shards
    cannot fit in this machine's physical memory, before any shard is cut.
    The estimate is a lower bound: the d + 1 int32 column pointers of each
    sparse shard's CSC matrix, and the engine's 2M + 2 dense d-vectors (each
    worker's point and the model sent to it, the average and its prox)."""
    if not 1 <= M <= dataset.n:
        raise ValueError("need 1 <= M <= number of examples")
    d = dataset.d
    need = (2 * M + 2) * 8 * d + (M * 4 * (d + 1) if pb.issparse(dataset.X) else 0)
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > total:
        raise ValueError(f"d={d} on {M} workers needs at least {need / 2**30:.1f} GiB, "
                         f"more than the {total / 2**30:.1f} GiB of physical memory")
    perm = stream(seed, 1).permutation(dataset.n)
    return tuple(np.sort(chunk) for chunk in np.array_split(perm, M))


def make_shards(dataset: Dataset, plan: tuple, kind: str, l2: float = 0.0):
    """Cut the dataset into per-worker loss shards."""
    return [pb.LossShard(kind=kind, A=dataset.X[idx], b=dataset.y[idx], l2=l2) for idx in plan]


def lasso_problem(dataset: Dataset, plan: tuple, lam1: float) -> pb.CompositeProblem:
    shards = make_shards(dataset, plan, pb.LEAST_SQUARES)
    return pb.CompositeProblem(shards, reg=pb.Regularizer(kind="l1", lam=lam1))


def logistic_problem(
    dataset: Dataset, plan: tuple, lam1: float, lam2: float
) -> pb.CompositeProblem:
    shards = make_shards(dataset, plan, pb.LOGISTIC, l2=lam2)
    return pb.CompositeProblem(shards, reg=pb.Regularizer(kind="l1", lam=lam1))

import gzip
import io
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepg import data

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestGenerateLasso:
    def test_ground_truth_support_size(self):
        _, x0 = data.generate_lasso(d=1000, m=50, sparsity=0.99, noise_std=0.01, seed=0)
        assert np.count_nonzero(x0) == 10

    def test_zero_noise_zero_truth(self):
        ds, x0 = data.generate_lasso(d=5, m=4, sparsity=1.0, noise_std=0.0, seed=1)
        assert np.count_nonzero(x0) == 0
        assert np.all(ds.y == 0)

    def test_deterministic(self):
        a = data.generate_lasso(d=20, m=10, sparsity=0.9, noise_std=0.1, seed=7)
        b = data.generate_lasso(d=20, m=10, sparsity=0.9, noise_std=0.1, seed=7)
        assert np.array_equal(a[0].X, b[0].X)
        assert np.array_equal(a[0].y, b[0].y)
        assert np.array_equal(a[1], b[1])

    def test_model_consistency(self):
        ds, x0 = data.generate_lasso(d=8, m=6, sparsity=0.5, noise_std=0.0, seed=2)
        assert ds.X @ x0 == pytest.approx(ds.y)

    def test_labels_do_not_depend_on_blas_threads(self):
        code = (
            "import hashlib\n"
            "from sparsepg import data\n"
            "ds, _ = data.generate_lasso(d=1000, m=500, sparsity=0.985, noise_std=0.01, seed=2)\n"
            "print(hashlib.sha256(ds.y.tobytes()).hexdigest())\n"
        )
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
            out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True, timeout=120)
            digests.add(out.stdout.strip())
        assert len(digests) == 1

    @pytest.mark.parametrize("bad", [
        dict(d=0, m=1, sparsity=0.5, noise_std=0.1, seed=0),
        dict(d=1, m=1, sparsity=1.5, noise_std=0.1, seed=0),
        dict(d=1, m=1, sparsity=0.5, noise_std=-1, seed=0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            data.generate_lasso(**bad)

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 40), sparsity=st.floats(0, 1))
    def test_support_count_exact(self, d, sparsity):
        _, x0 = data.generate_lasso(d=d, m=3, sparsity=sparsity, noise_std=0.0, seed=0)
        assert np.count_nonzero(x0) == int(round((1 - sparsity) * d))


class TestParseLibsvm:
    def test_basic_line(self):
        ds = data.parse_libsvm(io.StringIO("+1 1:0.5 3:2\n"))
        assert (ds.n, ds.d) == (1, 3)
        assert ds.X.toarray().ravel() == pytest.approx([0.5, 0.0, 2.0])
        assert ds.y == pytest.approx([1.0])

    def test_zero_label_kept(self):
        # a label is kept as written: 0 is a regression target too
        ds = data.parse_libsvm(io.StringIO("0 2:1\n-0.0 1:1\n"))
        assert ds.y.tolist() == [0.0, 0.0]

    def test_index_beyond_int32_rejected(self):
        # indices are stored as int32: 2**31 - 1 is the largest that fits
        text = "-1 2:1\n+1 1:0.5 3000000000:1.0\n"
        with pytest.raises(data.LibSVMFormatError, match="index 3000000000") as err:
            data.parse_libsvm(io.StringIO(text))
        assert err.value.line_no == 2
        with pytest.raises(data.LibSVMFormatError):
            data.parse_libsvm(io.StringIO(f"1 {2**31}:1\n"))

    def test_bad_token(self):
        with pytest.raises(data.LibSVMFormatError) as err:
            data.parse_libsvm(io.StringIO("1 1:1\n-1 2:x\n"))
        assert err.value.line_no == 2

    def test_non_increasing_indices(self):
        with pytest.raises(data.LibSVMFormatError) as err:
            data.parse_libsvm(io.StringIO("1 3:1 2:1\n"))
        assert err.value.line_no == 1

    def test_zero_based_index_rejected(self):
        with pytest.raises(data.LibSVMFormatError):
            data.parse_libsvm(io.StringIO("1 0:1\n"))

    def test_gzip_path(self, tmp_path):
        text = "1 1:2.5\n-1 2:1\n"
        path = tmp_path / "toy.txt.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(text)
        plain = tmp_path / "toy.txt"
        plain.write_text(text)
        for source in (str(path), path, str(plain), plain):
            ds = data.parse_libsvm(source)
            assert (ds.n, ds.d) == (2, 2)
            assert np.array_equal(ds.X.toarray(), [[2.5, 0.0], [0.0, 1.0]])

    def test_stream_input(self):
        ds = data.parse_libsvm(io.StringIO("1 1:1\n"))
        assert ds.n == 1

    def test_str_is_a_path(self):
        # text comes as a stream: a str, newline or not, names a file
        with pytest.raises(FileNotFoundError):
            data.parse_libsvm("1 1:1\n")


class TestNonFiniteInput:
    def test_libsvm_values_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            data.parse_libsvm(io.StringIO("1 1:nan 2:inf\n"))

    def test_libsvm_label_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            data.parse_libsvm(io.StringIO("inf 1:1\n"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dense_matrix_rejected(self, bad):
        X = np.ones((2, 2))
        X[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            data.Dataset(X=X, y=np.ones(2))

    def test_sparse_matrix_rejected(self):
        import scipy.sparse as sp
        X = sp.csr_matrix(np.array([[0.0, np.nan], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            data.Dataset(X=X, y=np.ones(2))

    def test_labels_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            data.Dataset(X=np.ones((2, 2)), y=np.array([1.0, np.nan]))


class TestDataset:
    def test_unsorted_sparse_input_left_unchanged(self):
        import scipy.sparse as sp
        X = sp.csr_matrix((np.array([2.0, 1.0]), np.array([1, 0]), np.array([0, 2])),
                          shape=(1, 2))
        ds = data.Dataset(X=X, y=np.ones(1))
        # the dataset's copy is sorted; the caller's arrays keep their order
        assert list(ds.X.indices) == [0, 1] and list(ds.X.data) == [1.0, 2.0]
        assert list(X.indices) == [1, 0] and list(X.data) == [2.0, 1.0]
        assert np.array_equal(ds.X.toarray(), X.toarray())


class TestSharding:
    def test_even_split(self):
        ds, _ = data.generate_lasso(d=3, m=10, sparsity=0.5, noise_std=0.0, seed=0)
        plan = data.shard_even(ds, 5, seed=1)
        assert [idx.size for idx in plan] == [2, 2, 2, 2, 2]

    def test_remainder_rule(self):
        ds, _ = data.generate_lasso(d=3, m=7, sparsity=0.5, noise_std=0.0, seed=0)
        plan = data.shard_even(ds, 2, seed=1)
        assert sorted(idx.size for idx in plan) == [3, 4]

    def test_too_many_workers(self):
        ds, _ = data.generate_lasso(d=3, m=4, sparsity=0.5, noise_std=0.0, seed=0)
        with pytest.raises(ValueError):
            data.shard_even(ds, 5, seed=0)

    def test_dimension_beyond_memory_refused(self, tmp_path):
        # a library caller's path to a problem: parse, shard, build.  Index
        # 2e9 would give each shard's CSC matrix 2e9 column pointers (8 GB);
        # shard_even refuses before any shard is cut.  The child's address
        # space is capped, so a missing check fails fast.
        path = tmp_path / "data.svm"
        path.write_text("+1 1:0.5 2000000000:1.0\n-1 2:1.0\n")
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from sparsepg import data\n"
            "ds = data.parse_libsvm(sys.argv[1])\n"
            "try:\n"
            "    data.lasso_problem(ds, data.shard_even(ds, 2, seed=0), 0.1)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("d=2000000000 on 2 workers needs at least")
        assert "of physical memory" in out.stdout

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 60), M=st.integers(1, 8), seed=st.integers(0, 100))
    def test_partition_property(self, n, M, seed):
        if M > n:
            return
        ds, _ = data.generate_lasso(d=2, m=n, sparsity=0.5, noise_std=0.0, seed=0)
        plan = data.shard_even(ds, M, seed=seed)
        # M disjoint shards, each sorted, covering everything, sizes within 1
        assert len(plan) == M
        assert all(np.all(np.diff(idx) > 0) for idx in plan)
        all_idx = np.concatenate(plan)
        assert sorted(all_idx) == list(range(n))
        sizes = np.array([idx.size for idx in plan])
        assert sizes.max() - sizes.min() <= 1

    def test_shards_preserve_rows(self):
        ds, _ = data.generate_lasso(d=4, m=9, sparsity=0.5, noise_std=0.1, seed=3)
        plan = data.shard_even(ds, 3, seed=4)
        shards = data.make_shards(ds, plan, "least_squares")
        for idx, shard in zip(plan, shards, strict=True):
            assert np.array_equal(shard.A, ds.X[idx])
            assert np.array_equal(shard.b, ds.y[idx])


class TestScaling:
    def test_max_abs_scaling(self):
        ds = data.Dataset(X=np.array([[2.0, 0.0], [-4.0, 0.0]]), y=np.array([1.0, -1.0]))
        scaled = data.scale_features(ds)
        assert np.abs(scaled.X).max(axis=0) == pytest.approx([1.0, 0.0])

    def test_sparse_scaling(self):
        import scipy.sparse as sp
        X = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, -5.0]]))
        scaled = data.scale_features(data.Dataset(X=X, y=np.array([1.0, 1.0])))
        assert np.abs(scaled.X.toarray()).max(axis=0) == pytest.approx([1.0, 1.0])

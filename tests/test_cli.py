import csv
import dataclasses
import filecmp
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from sparsepg import cli, data, engine, metrics, problem as pb, recondition as rc

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SMALL_LASSO = """
[problem]
kind = synthetic-lasso
d = 40
m = 60
sparsity = 0.9
target_support = 5
data_seed = 4

[run]
algorithm = reconditioned
criterion = fixed
workers = 3
c = 5
seeds = 1,2
target_eps = 1e-6
outer_budget = 600
log_stride = 5
"""

SMALL_DAVE = SMALL_LASSO.replace(
    "algorithm = reconditioned\ncriterion = fixed", "algorithm = davepg"
).replace("outer_budget = 600", "max_iterations = 60000")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = cli.parse_config(cli.default_config_text())
        assert cli.parse_config(cfg.to_ini()) == cfg

    # a valid value other than the default for every option, each valid on
    # its own on top of ROUND_TRIP_BASE
    NON_DEFAULT = {
        "kind": "synthetic-logistic", "d": 37, "m": 41, "sparsity": 0.25, "noise_std": 0.5,
        "data_seed": 3, "path": "data/train.svm", "lam1": 0.125, "target_support": None,
        "lam2": 0.0, "scale": True, "algorithm": "spy-uniform", "workers": 2, "pi": 0.75,
        "c": 3.7, "criterion": "relative",
        "schedule": "heterogeneous", "weights": (1.5, 0.1), "seeds": (7, 0, 2),
        "target_eps": 2.5e-9, "max_iterations": 5, "outer_budget": 9, "log_stride": 3,
        "ws_max_epochs": 1,
    }
    ROUND_TRIP_BASE = cli.ExperimentConfig(lam1=0.05, warmstart=True)
    # what an option needs set with it to be valid on top of ROUND_TRIP_BASE (5
    # workers): weights are read by the heterogeneous schedule alone, and that
    # schedule needs one weight per worker
    PARTNERS = {"schedule": {"weights": (1.0,) * 5},
                "weights": {"schedule": "heterogeneous", "workers": 2}}

    def test_every_option_round_trips(self):
        options = [f.name for f in dataclasses.fields(cli.ExperimentConfig) if f.metadata]
        assert sorted(options) == sorted(self.NON_DEFAULT)
        base = self.ROUND_TRIP_BASE
        assert cli.parse_config(base.to_ini()) == base
        for name, value in self.NON_DEFAULT.items():
            cfg = dataclasses.replace(base, **self.PARTNERS.get(name, {}), **{name: value})
            assert getattr(cfg, name) != getattr(cli.ExperimentConfig(), name), name
            assert cli.parse_config(cfg.to_ini()) == cfg, name
        everything = dataclasses.replace(base, **self.NON_DEFAULT)
        assert cli.parse_config(everything.to_ini()) == everything

    def test_problem_key_covers_problem_options(self):
        # every [problem] option, and the worker count that shards the data
        read_by_build = {"kind", "d", "m", "sparsity", "noise_std", "data_seed", "path",
                         "lam1", "target_support", "lam2", "scale", "workers"}
        for name, value in self.NON_DEFAULT.items():
            base = dataclasses.replace(self.ROUND_TRIP_BASE, **self.PARTNERS.get(name, {}))
            cfg = dataclasses.replace(base, **{name: value})
            changed = cli._problem_key(cfg) != cli._problem_key(base)
            assert changed == (name in read_by_build), name

    def test_all_errors_reported_at_once(self):
        bad = "[run]\nalgorithm = nope\nworkers = 0\nseeds = \n"
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(bad)
        assert len(err.value.problems) >= 3

    def test_unknown_sections_and_keys(self):
        # a misspelled key or section, a [DEFAULT] key and options no longer
        # declared would each run another experiment than the one meant
        text = ("[DEFAULT]\nseeds = 3\n[problem]\nd = 20\nlam_1 = 5\n[run]\n"
                "algoritm = davepg\ngamma_frac = 0.5\ndelta = 0.9\n[runn]\nx = 1\n"
                "[warmstart]\nsubopt_threshold = 1e-2\n")
        with pytest.raises(cli.ConfigError) as info:
            cli.parse_config(text)
        assert info.value.problems == [
            "[DEFAULT] seeds is not an option",
            "[problem] lam_1 is not an option",
            "[run] algoritm is not an option",
            "[run] gamma_frac is not an option",
            "[run] delta is not an option",
            "[runn] is not a section (problem, run, warmstart are)",
            "[warmstart] subopt_threshold is not an option",
        ]

    @pytest.mark.parametrize("key", ["epochs", "ref_tol"])
    def test_removed_run_options_refused(self, tmp_path, capsys, key):
        # "fixed" runs one epoch per outer step and references are solved to
        # REF_TOL: neither is an option, and a config naming one is refused
        cfgp = write(tmp_path, "exp.ini", SMALL_LASSO + f"{key} = 1\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == cli.EXIT_CONFIG
        assert f"[run] {key} is not an option" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seeds_refused(self, tmp_path, capsys):
        # numpy's seed sequences take non-negative integers only: a negative
        # seed is refused when the config is read, before any seed runs
        for text, extra, problem in (
                (SMALL_LASSO.replace("seeds = 1,2", "seeds = 1,-2"), [], "[run] seeds='1,-2'"),
                (SMALL_LASSO, ["--seeds=-2"], "[run] seeds='-2'"),
                (SMALL_LASSO.replace("data_seed = 4", "data_seed = -1"), [],
                 "[problem] data_seed='-1'")):
            cfgp = write(tmp_path, "exp.ini", text)
            out = tmp_path / "out"
            assert cli.main(["run", "--config", cfgp, "--out", str(out)] + extra) == cli.EXIT_CONFIG
            assert f"{problem} out of range" in capsys.readouterr().err
            assert not out.exists()

    def test_mk_refuses_unknown_fields(self):
        with pytest.raises(TypeError, match="epochs"):
            cli._mk({"d": 20}, epochs=1)

    def test_missing_dataset_file(self):
        text = "[problem]\nkind = libsvm-lasso\npath = /does/not/exist\nlam1 = 0.1\n"
        with pytest.raises(cli.ConfigError, match="not found"):
            cli.parse_config(text)

    def test_percent_in_value(self, tmp_path, capsys):
        # a % is an ordinary character in a value, not an interpolation
        cfg = cli.parse_config("[problem]\nkind = synthetic-lasso\npath = a%b\nlam1 = 0.1\n")
        assert cfg.path == "a%b"
        assert cli.parse_config(cfg.to_ini()) == cfg
        missing = str(tmp_path / "data%1.svm")
        cfgp = write(tmp_path, "pct.ini",
                     f"[problem]\nkind = libsvm-lasso\npath = {missing}\nlam1 = 0.1\n")
        assert cli.main(["run", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
        assert f"dataset file not found: {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm, criterion", [
        ("catalyst", "relative"), ("reconditioned", "absolute"),
        ("catalyst", "absolute"), ("catalyst", "adaptive"), ("catalyst", "budget")])
    def test_criterion_algorithm_mismatch(self, algorithm, criterion):
        text = f"[run]\nalgorithm = {algorithm}\ncriterion = {criterion}\n"
        with pytest.raises(cli.ConfigError, match=f"criterion '{criterion}' invalid for {algorithm}"):
            cli.parse_config(text)

    def test_heterogeneous_needs_weights(self):
        text = "[run]\nschedule = heterogeneous\nworkers = 3\nweights = 1,2\n"
        with pytest.raises(cli.ConfigError, match="weight"):
            cli.parse_config(text)

    @pytest.mark.parametrize("schedule", ["random_uniform", "round_robin"])
    def test_weights_need_heterogeneous_schedule(self, tmp_path, capsys, schedule):
        # weights another schedule ignores would run the experiment without them
        text = f"[run]\nschedule = {schedule}\nworkers = 2\nweights = 1.0,2.0\n"
        with pytest.raises(cli.ConfigError) as info:
            cli.parse_config(text)
        assert info.value.problems == [f"[run] weights are read by the heterogeneous "
                                       f"schedule only, not by {schedule}"]
        cfgp = write(tmp_path, "exp.ini", SMALL_LASSO + "weights = 1.0,2.0,3.0\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == cli.EXIT_CONFIG
        assert "not by random_uniform" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("weights", ["1,2,0", "1,nan,2", "-1,2,3", "1,2,inf"])
    def test_heterogeneous_weights_range(self, tmp_path, capsys, weights):
        cfgp = write(tmp_path, "exp.ini",
                     SMALL_LASSO + f"schedule = heterogeneous\nweights = {weights}\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == cli.EXIT_CONFIG
        assert f"[run] weights={weights!r} out of range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers, weights, problem", [
        ("2", "1.0,0.0", "[run] weights='1.0,0.0' out of range"),
        ("2", "1,x", "[run] weights='1,x' is not a valid float_list"),
        ("0", "1,2", "[run] workers='0' out of range"),
    ], ids=["zero-weight", "bad-weight", "zero-workers"])
    def test_failed_weights_or_workers_skip_weight_count(self, workers, weights, problem):
        # the weight count is only checked on values that were read
        text = f"[run]\nschedule = heterogeneous\nworkers = {workers}\nweights = {weights}\n"
        with pytest.raises(cli.ConfigError) as info:
            cli.parse_config(text)
        assert info.value.problems == [problem]

    FLOAT_OPTIONS = [f.metadata for f in dataclasses.fields(cli.ExperimentConfig)
                     if f.metadata and f.metadata["parse"] is float]

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
    def test_float_options_must_be_finite(self, raw):
        # inf passes a check like v > 0 and nan fails every check: both are
        # out of range by one rule, whatever the option's own check
        assert len(self.FLOAT_OPTIONS) == 7
        for meta in self.FLOAT_OPTIONS:
            section, key = meta["section"], meta["key"]
            with pytest.raises(cli.ConfigError) as info:
                cli.parse_config(f"[{section}]\n{key} = {raw}\n")
            assert info.value.problems == [f"[{section}] {key}={raw!r} out of range"], key

    def test_malformed_ini(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("not an ini file [[[")

    @pytest.mark.parametrize("d, m", [(20, 500), (500, 20)])
    def test_target_support_above_d_or_m(self, d, m):
        # no lam1 gives 50 nonzeros: rejected before the bisection
        with pytest.raises(cli.ConfigError) as info:
            cli.parse_config(f"[problem]\nd = {d}\nm = {m}\ntarget_support = 50\n")
        assert info.value.problems == ["[problem] target_support=50 exceeds min(d, m)=20"]
        # a given lam1 is not calibrated, so target_support is not read
        cfg = cli.parse_config(f"[problem]\nd = {d}\nm = {m}\ntarget_support = 50\nlam1 = 0.1\n")
        assert cfg.target_support == 50


class TestBuildProblem:
    def test_synthetic_logistic_labels(self):
        cfg = cli.parse_config(
            "[problem]\nkind = synthetic-logistic\nd = 10\nm = 20\nlam1 = 0.01\n"
            "[run]\nalgorithm = davepg\nworkers = 2\n"
        )
        prob = cli.build_problem(cfg)
        assert prob.mu == pytest.approx(cfg.lam2)
        for shard in prob.shards:
            assert np.all(np.abs(shard.b) == 1.0)

    def test_lam1_calibration(self):
        cfg = cli.parse_config(SMALL_LASSO)
        prob = cli.build_problem(cfg)
        ref = metrics.reference_solution(prob, tol=1e-10, assume_unique_minimizer=True)
        assert ref.s_star == 5
        assert prob.reg.lam > 0
        assert cfg.lam1 is None  # the weight lives in the problem, not the config

    def test_libsvm_lasso_lam1_calibrated(self, tmp_path):
        # without lam1 a LibSVM lasso is calibrated to target_support, as a
        # synthetic one is; the logistic default weight is for logistic kinds
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 10))
        y = X @ np.r_[3.0, -2.0, 1.5, 0.5, np.zeros(6)] + 0.1 * rng.standard_normal(40)
        lines = [f"{t!r} " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row))
                 for t, row in zip(y.tolist(), X.tolist())]
        path = write(tmp_path, "data.svm", "\n".join(lines) + "\n")
        cfg = cli.parse_config(f"[problem]\nkind = libsvm-lasso\npath = {path}\n"
                               "target_support = 3\n\n[run]\nworkers = 2\n")
        assert cfg.lam1 is None
        prob = cli.build_problem(cfg)
        assert cli.get_reference(prob).s_star == 3
        with pytest.raises(cli.ConfigError, match="set lam1 or target_support"):
            cli.parse_config(f"[problem]\nkind = libsvm-lasso\npath = {path}\n"
                             "target_support =\n")
        logistic = cli.parse_config(f"[problem]\nkind = libsvm-logistic\npath = {path}\n")
        assert logistic.lam1 == 0.03

    def test_libsvm_lasso_keeps_zero_targets(self, tmp_path):
        # a regression target of 0 is a target, not a class label
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 10))
        y = X @ np.r_[3.0, -2.0, 1.5, 0.5, np.zeros(6)]
        y[::4] = 0.0
        lines = [f"{t!r} " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row))
                 for t, row in zip(y.tolist(), X.tolist())]
        path = write(tmp_path, "data.svm", "\n".join(lines) + "\n")
        cfg = cli.parse_config(f"[problem]\nkind = libsvm-lasso\npath = {path}\nlam1 = 0.1\n\n"
                               "[run]\nworkers = 2\n")
        targets = np.concatenate([s.b for s in cli.build_problem(cfg).shards])
        assert np.count_nonzero(targets == 0) == 10
        assert np.count_nonzero(targets == -1) == 0
        assert sorted(targets.tolist()) == sorted(y.tolist())

    def test_libsvm_logistic_reads_zero_labels_as_minus_one(self, tmp_path):
        # LibSVM class labels 0/1 are the logistic labels -1/+1
        path = write(tmp_path, "data.svm", "0 1:0.5\n1 2:1.0\n0 1:1 2:1\n1 1:-1\n")
        cfg = cli.parse_config(f"[problem]\nkind = libsvm-logistic\npath = {path}\n\n"
                               "[run]\nworkers = 2\n")
        labels = np.concatenate([s.b for s in cli.build_problem(cfg).shards])
        assert sorted(labels.tolist()) == [-1.0, -1.0, 1.0, 1.0]

    def test_calibration_builds_shards_once(self, monkeypatch):
        # the same bisection with a builder that makes the problem from the data
        cfg = cli.parse_config(SMALL_LASSO)
        dataset, _ = data.generate_lasso(cfg.d, cfg.m, cfg.sparsity, cfg.noise_std, cfg.data_seed)
        plan = data.shard_even(dataset, cfg.workers, seed=cfg.data_seed)
        lam_hi = float(np.max(np.abs(pb.smooth_gradient(
            data.lasso_problem(dataset, plan, 1.0), np.zeros(cfg.d)))))
        lam = metrics.calibrate_l1(lambda v: data.lasso_problem(dataset, plan, v),
                                   cfg.target_support, lam_hi)
        want = data.lasso_problem(dataset, plan, lam)

        builds = []
        make_shards = data.make_shards
        monkeypatch.setattr(data, "make_shards",
                            lambda *a, **k: builds.append(1) or make_shards(*a, **k))
        prob = cli.build_problem(cfg)
        assert len(builds) == 1
        assert prob.reg.lam == lam
        assert cfg.lam1 is None
        assert metrics.problem_fingerprint(prob) == metrics.problem_fingerprint(want)
        assert (prob.mu, prob.lip) == (want.mu, want.lip)


class TestRun:
    @pytest.mark.parametrize("text, problem", [
        ("+1 1:0.5\n-1 2:1.0\nbad 1:1\n", "line 3: bad label 'bad'"),
        ("1 1:0.5\n2 2:1.0\n1 1:1\n2 2:0.5\n", "logistic labels must be exactly +/-1"),
        ("+1 1:0.5 3000000000:1.0\n-1 2:1.0\n", "line 1: index 3000000000 exceeds 2147483647"),
    ], ids=["malformed", "labels-1-2", "index-beyond-int32"])
    def test_unusable_dataset_exit(self, tmp_path, capsys, text, problem):
        path = write(tmp_path, "data.svm", text)
        cfgp = write(tmp_path, "exp.ini", f"[problem]\nkind = libsvm-logistic\npath = {path}\n\n"
                                          "[run]\nalgorithm = davepg\nworkers = 2\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == cli.EXIT_CONFIG
        assert f"[problem] dataset {path}: {problem}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
    def test_unreadable_config_exit(self, tmp_path, capsys, kind):
        path = tmp_path / "exp.ini"
        if kind == "directory":
            path.mkdir()
        elif kind == "non-utf8":
            path.write_bytes(b"\xff\xfe")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        assert f"config file {path} cannot be read" in capsys.readouterr().err
        assert not out.exists()

    def test_dimension_beyond_memory_exit(self, tmp_path):
        # index 2e9 is valid LibSVM, but each shard's CSC matrix would hold
        # 2e9 column pointers (8 GB); the run stops before it builds a shard.
        # The child's address space is capped, so a missing check fails fast.
        path = write(tmp_path, "data.svm", "+1 1:0.5 2000000000:1.0\n-1 2:1.0\n")
        cfgp = write(tmp_path, "exp.ini", f"[problem]\nkind = libsvm-logistic\npath = {path}\n\n"
                                          "[run]\nalgorithm = davepg\nworkers = 2\n")
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                "from sparsepg import cli\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code, "run", "--config", cfgp,
                              "--out", str(tmp_path / "out")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == cli.EXIT_CONFIG, out.stderr
        assert f"[problem] dataset {path}: d=2000000000 on 2 workers needs at least" in out.stderr
        assert "of physical memory" in out.stderr
        assert not (tmp_path / "out").exists()

    def test_uncalibrated_support_exit(self, tmp_path, capsys):
        # b = 0 (x0 = 0, no noise): every weight gives x* = 0, so the
        # bisection ends without the target
        cfgp = write(tmp_path, "exp.ini", "[problem]\nd = 20\nm = 40\nsparsity = 1.0\n"
                                          "noise_std = 0.0\ntarget_support = 5\n\n"
                                          "[run]\nalgorithm = davepg\nworkers = 2\n")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == cli.EXIT_CONFIG
        assert ("[problem] synthetic-lasso data: could not calibrate lam1 to support size 5"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_calibration_builder_ignoring_its_weight_exit(self, tmp_path, capsys, monkeypatch):
        # the builder handed to calibrate_l1 returns the problem at another weight
        calibrate = metrics.calibrate_l1
        monkeypatch.setattr(metrics, "calibrate_l1", lambda builder, target, lam_hi: calibrate(
            lambda lam: builder(lam_hi / 2), target, lam_hi))
        cfgp = write(tmp_path, "exp.ini", SMALL_LASSO)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == cli.EXIT_CONFIG
        assert "[problem] synthetic-lasso data: problem_builder(" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "[problem]\nkind = synthetic-logistic\nlam2 = inf\n",
        SMALL_LASSO.replace("target_eps = 1e-6", "target_eps = inf"),
    ], ids=["lam2", "target_eps"])
    def test_infinite_float_exit(self, tmp_path, capsys, text):
        cfgp = write(tmp_path, "exp.ini", text)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == cli.EXIT_CONFIG
        assert "='inf' out of range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["reconditioned", "catalyst"])
    def test_budget_above_d_exit(self, tmp_path, capsys, algorithm):
        # c is checked against the built problem's d, before any seed runs,
        # by run and for every config of compare
        text = SMALL_LASSO.replace("c = 5", "c = 50").replace(
            "algorithm = reconditioned", f"algorithm = {algorithm}")
        wide = write(tmp_path, "wide.ini", text)
        dave = write(tmp_path, "dave.ini", SMALL_DAVE)
        problem = "[run] c=50.0 exceeds the problem dimension d=40"
        for argv in (["run", "--config", wide], ["compare", "--config", dave, "--config", wide]):
            out = tmp_path / "out"
            assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
            assert problem in capsys.readouterr().err
            assert not out.exists()

    def test_budget_not_read_by_engine_runs(self, tmp_path):
        # DAve-PG and SPY draw no exploration budget: c is not checked
        cfgp = write(tmp_path, "exp.ini", SMALL_DAVE.replace("c = 5", "c = 50"))
        assert cli.main(["run", "--config", cfgp, "--out", str(tmp_path / "o"),
                         "--seeds", "1"]) == cli.EXIT_OK

    def test_run_outputs_and_exit(self, tmp_path):
        cfgp = write(tmp_path, "exp.ini", SMALL_LASSO)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == 0
        names = sorted(os.listdir(out))
        assert "summary.json" in names and "config.ini" in names
        for fname in ("support_vs_iters.csv", "subopt_vs_iters.csv", "subopt_vs_exchanges.csv"):
            assert fname in names
        assert "trace_seed1.csv" in names and "trace_seed2.csv" in names
        summary = json.loads((out / "summary.json").read_text())
        assert summary["s_star"] == 5
        assert all(v["status"] == "ok" for v in summary["seeds"].values())

    def test_run_deterministic(self, tmp_path):
        cfgp = write(tmp_path, "exp.ini", SMALL_LASSO)
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--config", cfgp, "--out", str(a), "--seeds", "7"])
        cli.main(["run", "--config", cfgp, "--out", str(b), "--seeds", "7"])
        for name in os.listdir(a):
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_seed_override(self, tmp_path):
        cfgp = write(tmp_path, "exp.ini", SMALL_LASSO)
        out = tmp_path / "out"
        cli.main(["run", "--config", cfgp, "--out", str(out), "--seeds", "3"])
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary["seeds"]) == ["3"]

    @pytest.mark.parametrize("seeds", [",", "1,x", "", "2,1,2"])
    def test_seed_override_is_validated(self, tmp_path, capsys, seeds):
        cfgp = write(tmp_path, "exp.ini", SMALL_LASSO)
        out = tmp_path / "out"
        code = cli.main(["run", "--config", cfgp, "--out", str(out), "--seeds", seeds])
        assert code == cli.EXIT_CONFIG
        assert "[run] seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_row_counts_match_logs(self, tmp_path):
        cfgp = write(tmp_path, "exp.ini", SMALL_LASSO)
        out = tmp_path / "out"
        cli.main(["run", "--config", cfgp, "--out", str(out), "--seeds", "1"])
        with open(out / "subopt_vs_iters.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["seed"] == "1"]
        with open(out / "trace_seed1.csv") as fh:
            n_outer = sum(1 for _ in fh) - 1
        # one logged point per stride; at least one per outer step is not
        # guaranteed, but the log must be non-empty and monotone
        assert rows
        gaps = [float(r["gap"]) for r in rows]
        assert min(gaps) <= 1e-6
        assert n_outer >= 1

    def test_outer_subopt_iterations_increase(self, tmp_path):
        # one point at the start and at most one per outer step, each at the
        # number of iterations completed when the step ends
        cfgp = write(tmp_path, "exp.ini", SMALL_LASSO.replace("log_stride = 5", "log_stride = 1"))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        with open(out / "subopt_vs_iters.csv") as fh:
            rows = list(csv.DictReader(fh))
        for seed in ("1", "2"):
            its = [int(r["iteration"]) for r in rows if r["seed"] == seed]
            assert its[0] == 0 and len(its) > 2
            assert all(a < b for a, b in zip(its, its[1:])), seed
            assert its[-1] == summary["seeds"][seed]["iterations"]

    @pytest.mark.parametrize("mode", ["sim", "concurrent"])
    def test_engine_curves_count_iterations_completed(self, tmp_path, mode):
        # the gap logged before the first iteration is at 0, and the points
        # logged after iteration k (every 5th) are at k + 1
        cfgp = write(tmp_path, "exp.ini", SMALL_DAVE)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfgp, "--out", str(out), "--mode", mode,
                         "--seeds", "1"]) == 0
        iterations = json.loads((out / "summary.json").read_text())["seeds"]["1"]["iterations"]
        for name, start in (("subopt_vs_iters.csv", [0, 1, 6]), ("support_vs_iters.csv", [1, 6])):
            with open(out / name) as fh:
                its = [int(r["iteration"]) for r in csv.DictReader(fh) if r["seed"] == "1"]
            assert its[:len(start)] == start, name
            assert all(a < b for a, b in zip(its, its[1:])), name
            assert its[-1] <= iterations, name

    def test_target_not_reached_exit_code(self, tmp_path):
        text = SMALL_LASSO.replace("outer_budget = 600", "outer_budget = 2")
        cfgp = write(tmp_path, "exp.ini", text)
        assert cli.main(["run", "--config", cfgp, "--out", str(tmp_path / "o")]) == 4

    def test_concurrent_mode(self, tmp_path):
        cfgp = write(tmp_path, "exp.ini", SMALL_DAVE)
        code = cli.main(["run", "--config", cfgp, "--out", str(tmp_path / "o"),
                         "--mode", "concurrent", "--seeds", "1"])
        assert code == 0

    def test_bad_config_exit(self, tmp_path):
        cfgp = write(tmp_path, "bad.ini", "[run]\nalgorithm = nope\n")
        assert cli.main(["run", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2

    def test_deleted_algorithm_refused(self, tmp_path, capsys):
        # spy-slowdown, the damped-support variant, is not an algorithm: the
        # refusal lists the ones there are
        cfgp = write(tmp_path, "exp.ini", SMALL_DAVE.replace("algorithm = davepg",
                                                             "algorithm = spy-slowdown"))
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == cli.EXIT_CONFIG
        assert ("[run] algorithm='spy-slowdown' out of range "
                "(one of davepg, spy-uniform, reconditioned, catalyst)") in capsys.readouterr().err
        assert not out.exists()

    def test_diverged_seeds_exit(self, tmp_path, monkeypatch):
        # every seed diverges: each is reported, with no trace, and run exits 3
        def diverge(problem, cfg, seed, ref, **kwargs):
            raise engine.DivergenceError(seed * 10)

        monkeypatch.setattr(cli, "run_algorithm", diverge)
        cfgp = write(tmp_path, "exp.ini", SMALL_LASSO)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == cli.EXIT_DIVERGED
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seeds"] == {
            str(s): {"status": "diverged", "final_gap": None, "iterations": 0, "coords_up": 0,
                     "coords_down": 0, "identification": None,
                     "error": f"iterate blew up at iteration {s * 10}"}
            for s in (1, 2)}
        assert not any(name.startswith("trace_seed") for name in os.listdir(out))
        with open(out / "subopt_vs_iters.csv") as fh:
            assert list(csv.reader(fh)) == [["seed", "point", "iteration", "gap"]]

    def test_exit_code_divergence_logic(self):
        diverged = cli.SeedResult(seed=1, status="diverged")
        ok = cli.SeedResult(seed=2, status="ok")
        missed = cli.SeedResult(seed=3, status="target-not-reached")
        assert cli._exit_code([diverged]) == cli.EXIT_DIVERGED
        assert cli._exit_code([diverged, missed]) == cli.EXIT_TARGET
        assert cli._exit_code([diverged, ok]) == cli.EXIT_OK

    def test_inner_budget_seeds_exit(self, tmp_path, monkeypatch):
        # a relative inner run that reaches SAFETY_EPOCHS ends its seed, not
        # the command: each seed gets the status, with no trace, every file
        # is written, and run exits 4
        monkeypatch.setattr(rc, "SAFETY_EPOCHS", 1)
        cfgp = write(tmp_path, "exp.ini",
                     SMALL_LASSO.replace("criterion = fixed", "criterion = relative"))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfgp, "--out", str(out)]) == cli.EXIT_TARGET
        seeds = json.loads((out / "summary.json").read_text())["seeds"]
        assert sorted(seeds) == ["1", "2"]
        for entry in seeds.values():
            assert entry["status"] == "inner-budget"
            assert entry["error"].startswith("outer step ")
            assert "inner run exhausted 1 epochs" in entry["error"]
        assert sorted(os.listdir(out)) == ["config.ini", "subopt_vs_exchanges.csv",
                                           "subopt_vs_iters.csv", "summary.json",
                                           "support_vs_iters.csv"]
        inner = cli.SeedResult(seed=4, status="inner-budget")
        diverged = cli.SeedResult(seed=1, status="diverged")
        assert cli._exit_code([inner]) == cli.EXIT_TARGET
        assert cli._exit_code([diverged, inner]) == cli.EXIT_TARGET
        assert cli._exit_code([inner, cli.SeedResult(seed=2, status="ok")]) == cli.EXIT_OK


class TestAlgorithmsAndSchedules:
    @pytest.mark.parametrize("criterion", ["fixed"])
    def test_catalyst(self, tmp_path, criterion):
        text = SMALL_LASSO.replace("algorithm = reconditioned\ncriterion = fixed",
                                   f"algorithm = catalyst\ncriterion = {criterion}")
        cfgp = write(tmp_path, "exp.ini", text)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", cfgp, "--out", str(a)]) == cli.EXIT_OK
        summary = json.loads((a / "summary.json").read_text())
        assert summary["algorithm"] == "catalyst"
        assert [v["status"] for v in summary["seeds"].values()] == ["ok", "ok"]
        assert cli.main(["run", "--config", cfgp, "--out", str(b)]) == cli.EXIT_OK
        assert filecmp.cmp(a / "summary.json", b / "summary.json", shallow=False)

    @staticmethod
    def _workers(tmp_path, text):
        cfgp = write(tmp_path, "exp.ini", text)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfgp, "--out", str(out), "--seeds", "1"]) == 0
        with open(out / "trace_seed1.csv") as fh:
            return [int(r["worker"]) for r in csv.DictReader(fh)]

    def test_round_robin(self, tmp_path):
        workers = self._workers(tmp_path, SMALL_DAVE + "schedule = round_robin\n")
        assert len(workers) > 30
        assert workers == [k % 3 for k in range(len(workers))]

    def test_heterogeneous(self, tmp_path):
        # the replies come in the order the seed's weighted draw gives
        workers = self._workers(tmp_path, SMALL_DAVE + "schedule = heterogeneous\n"
                                                       "weights = 6,1,1\n")
        draws = engine.DelaySchedule.heterogeneous((6.0, 1.0, 1.0), 1).sequence()
        assert workers == list(itertools.islice(draws, len(workers)))
        counts = np.bincount(workers)
        assert counts[0] > 2 * (counts[1] + counts[2])


class TestCompare:
    def test_merged_output(self, tmp_path):
        a = write(tmp_path, "reco.ini", SMALL_LASSO)
        b = write(tmp_path, "dave.ini", SMALL_DAVE)
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--config", a, "--config", b,
                         "--out", str(out), "--seeds", "1"]) == 0
        with open(out / "compare_subopt.csv") as fh:
            rows = list(csv.DictReader(fh))
        labels = {r["label"] for r in rows}
        assert labels == {"reco", "dave"}

    def test_builds_once_per_problem_key(self, tmp_path, monkeypatch):
        lam = cli.build_problem(cli.parse_config(SMALL_LASSO)).reg.lam
        builds = []
        build = cli.build_problem
        monkeypatch.setattr(cli, "build_problem", lambda cfg: builds.append(cfg) or build(cfg))
        a = write(tmp_path, "reco.ini", SMALL_LASSO)
        b = write(tmp_path, "dave.ini", SMALL_DAVE)
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--config", a, "--config", b,
                         "--out", str(out), "--seeds", "1"]) == 0
        assert len(builds) == 1  # both configs have the same data and weight
        # another key that gives the same problem: built, then fingerprinted
        fixed = write(tmp_path, "fixed.ini", SMALL_LASSO.replace(
            "target_support = 5", f"target_support = 5\nlam1 = {lam!r}"))
        builds.clear()
        assert cli.main(["compare", "--config", a, "--config", fixed, "--config", b,
                         "--out", str(out), "--seeds", "1"]) == 0
        assert len(builds) == 2
        assert all(c.lam1 in (None, lam) for c in builds)  # configs are not changed
        for label in ("reco", "fixed", "dave"):
            summary = json.loads((out / label / "summary.json").read_text())
            assert summary["lam1"] == lam
            assert cli.parse_config((out / label / "config.ini").read_text()).lam1 == lam

    def test_fingerprint_mismatch(self, tmp_path):
        a = write(tmp_path, "a.ini", SMALL_LASSO)
        b = write(tmp_path, "b.ini", SMALL_LASSO.replace("data_seed = 4", "data_seed = 5"))
        assert cli.main(["compare", "--config", a, "--config", b,
                         "--out", str(tmp_path / "o")]) == 2

    def test_duplicate_labels(self, tmp_path, capsys):
        # the label is the config's file name, and it names the output directory
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = write(tmp_path / "a", "x.ini", SMALL_LASSO)
        b = write(tmp_path / "b", "x.ini", SMALL_DAVE)
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--config", a, "--config", b,
                         "--out", str(out), "--seeds", "1"]) == cli.EXIT_CONFIG
        assert "share the label x" in capsys.readouterr().err
        assert not out.exists()

    def test_needs_two_configs(self, tmp_path):
        a = write(tmp_path, "a.ini", SMALL_LASSO)
        assert cli.main(["compare", "--config", a, "--out", str(tmp_path / "o")]) == 2

    def test_preset_with_config_rejected(self, tmp_path, capsys):
        a = write(tmp_path, "a.ini", SMALL_LASSO)
        out = tmp_path / "o"
        assert cli.main(["compare", "--preset", "sm1", "--config", a,
                         "--out", str(out)]) == cli.EXIT_CONFIG
        assert "--preset or --config" in capsys.readouterr().err
        assert not out.exists()


# a dense phase that SMALL_LASSO's seeds end within its epoch cap, and one
# that ends at its first epoch end, where x has nonzeros and 0 has none
TWO_PHASE = "\n[warmstart]\nmax_epochs = 4000\n"
UNREACHABLE = "\n[warmstart]\nmax_epochs = 1\n"


def recorded(monkeypatch, name):
    """What the calls of ``cli.<name>`` to come return, in order."""
    returned, call = [], getattr(cli, name)

    def record(*args, **kwargs):
        returned.append(call(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(cli, name, record)
    return returned


def dense_phases(monkeypatch):
    """The traces of the ``cli._run_engine`` runs to come, in order."""
    return recorded(monkeypatch, "_run_engine")


class TestWarmstart:
    def test_two_phase_counters_accumulate(self, tmp_path, monkeypatch):
        phases = dense_phases(monkeypatch)
        cfgp = write(tmp_path, "exp.ini", SMALL_LASSO + TWO_PHASE)
        out = tmp_path / "ws"
        assert cli.main(["run", "--config", cfgp, "--out", str(out),
                         "--seeds", "1"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        info = summary["warmstart"]["1"]
        assert 0 < info["phase1_exchanges"] < info["total_exchanges"]
        # the switch: where the dense phase's trigger held, at a point where an
        # outer-loop exchange (down nnz + m, up m, m = nnz + c) is smaller than
        # a dense one (2d)
        assert phases[0].predicate_met
        assert info["switch_iteration"] == phases[0].n_iterations > 0
        support = info["switch_support"]
        assert support == np.count_nonzero(phases[0].final_x)
        assert 3 * support + 2 * 5 < 2 * 40
        with open(out / "subopt_vs_exchanges.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["seed"] == "1"]
        ex = [float(r["exchanged"]) for r in rows]
        assert all(a <= b for a, b in zip(ex, ex[1:]))

    def test_outer_support_curve_counts_iterations(self, tmp_path):
        # the outer loop's support points sit on the run-wide iteration scale
        # of subopt_vs_iters.csv, after the dense phase's points
        cfgp = write(tmp_path, "exp.ini", SMALL_LASSO + TWO_PHASE)
        out = tmp_path / "ws"
        assert cli.main(["run", "--config", cfgp, "--out", str(out),
                         "--seeds", "1"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["warmstart"]["1"]["phase1_exchanges"] > 0
        with open(out / "support_vs_iters.csv") as fh:
            its = [int(r["iteration"]) for r in csv.DictReader(fh) if r["seed"] == "1"]
        assert all(a <= b for a, b in zip(its, its[1:]))
        assert its[-1] == summary["seeds"]["1"]["iterations"]

    def test_iterations_strictly_increase_across_phases(self, tmp_path, monkeypatch):
        # seed 10's dense phase logs the gap after its last iteration, where
        # the outer loop logs F at its start
        phases = dense_phases(monkeypatch)
        cfgp = write(tmp_path, "exp.ini", SMALL_LASSO + TWO_PHASE)
        out = tmp_path / "ws"
        assert cli.main(["run", "--config", cfgp, "--out", str(out),
                         "--seeds", "10"]) == 0
        assert phases[0].objective_log[-1].k == phases[0].n_iterations - 1
        for name in ("subopt_vs_iters.csv", "support_vs_iters.csv"):
            with open(out / name) as fh:
                its = [int(r["iteration"]) for r in csv.DictReader(fh) if r["seed"] == "10"]
            assert all(a < b for a, b in zip(its, its[1:])), name

    @pytest.mark.parametrize("mode", ["sim", "concurrent"])
    @pytest.mark.parametrize("algorithm", ["reconditioned", "spy-uniform"])
    def test_runs_fold_into_one_curve(self, tmp_path, monkeypatch, algorithm, mode):
        # the method's run starts where the dense phase ended: its points
        # follow the phase's, the switch iteration once, and the counts add up
        results = recorded(monkeypatch, "_execute_seed")
        base = SMALL_LASSO if algorithm == "reconditioned" else SMALL_DAVE.replace(
            "algorithm = davepg", f"algorithm = {algorithm}")
        cfgp = write(tmp_path, "exp.ini", base + TWO_PHASE)
        out = tmp_path / "ws"
        assert cli.main(["run", "--config", cfgp, "--out", str(out), "--seeds", "1,2",
                         "--mode", mode]) == 0
        summary = json.loads((out / "summary.json").read_text())
        curves = {}
        for name in ("subopt_vs_iters.csv", "support_vs_iters.csv"):
            with open(out / name) as fh:
                rows = list(csv.DictReader(fh))
            for seed in ("1", "2"):
                curves[name, seed] = [int(r["iteration"]) for r in rows if r["seed"] == seed]
        assert [r.seed for r in results] == [1, 2]
        for r in results:
            seed = str(r.seed)
            dense, method = r.runs
            assert dense.predicate_met
            for name in ("subopt_vs_iters.csv", "support_vs_iters.csv"):
                its = curves[name, seed]
                assert all(a < b for a, b in zip(its, its[1:])), (name, seed)
            switch = summary["warmstart"][seed]["switch_iteration"]
            assert switch == dense.n_iterations
            assert curves["subopt_vs_iters.csv", seed].count(switch) == 1
            counts = summary["seeds"][seed]
            assert counts["iterations"] == dense.n_iterations + method.n_iterations
            assert counts["coords_up"] + counts["coords_down"] == sum(
                run.cum_up + run.cum_down for run in r.runs)

    def test_trigger(self):
        # supp(x) and its signs against the previous epoch end's, and an
        # exchange smaller than a dense one: nnz + 2 (nnz + c) < 2d, c = 0.5
        cfg = cli.ExperimentConfig(c=0.5)
        zero = np.zeros(4)
        sparse, flipped, moved, dense = (np.array(v) for v in (
            [0.0, 2.0, 0.0, -1.0], [0.0, 2.0, 0.0, 1.0], [3.0, 2.0, 0.0, 0.0],
            [1.0, 2.0, -1.0, -1.0]))
        for before, x, ends in [
            (sparse, 0.5 * sparse, True),  # 2 + 2 * 2.5 < 8
            (sparse, flipped, False),  # a sign flip
            (sparse, moved, False),  # a support change
            (dense, 0.5 * dense, False),  # same signs, 4 + 2 * 4 >= 8
            (sparse, np.array([-0.0, 1.0, -0.0, -3.0]), True),  # -0.0 is 0
            (np.full(4, -0.0), zero, True),
        ]:
            assert cli._identified(before, cfg)(x, 1) == ends, (before, x)
        # each epoch end is compared with the one before, the start with none
        ends = cli._identified(zero, cfg)
        assert [ends(x, m) for m, x in enumerate([sparse, flipped, flipped, zero], 1)] == [
            False, False, True, False]

    def test_mask_size(self):
        # the expected mask of each method at x, read from its distribution
        x = np.zeros(10)
        x[[2, 5]] = (1.0, -4.0)
        for algorithm, c, size in [
            ("davepg", 3.0, 10), ("spy-uniform", 3.0, 0.3 * 10),
            ("reconditioned", 3.0, 2 + 3), ("catalyst", 3.0, 2 + 3),
            ("reconditioned", 9.0, 10),  # c beyond the 8 null coordinates
        ]:
            cfg = cli.ExperimentConfig(algorithm=algorithm, pi=0.3, c=c)
            assert cli._mask_size(cfg, x) == pytest.approx(size), algorithm

    @staticmethod
    def epoch_ends(monkeypatch, seed):
        """[(x, met)] at each epoch end of SMALL_LASSO's dense phase."""
        ends, identified = [], cli._identified

        def recording(start, cfg):
            test = identified(start, cfg)

            def predicate(x, m):
                ends.append((x.copy(), test(x, m)))
                return ends[-1][1]
            return predicate

        monkeypatch.setattr(cli, "_identified", recording)
        cfg = cli.parse_config(SMALL_LASSO + TWO_PHASE)
        problem = cli.build_problem(cfg)
        cli._execute_seed(problem, cfg, seed, cli.get_reference(problem), "sim")
        return ends

    @pytest.mark.parametrize("seed", [1, 2])
    def test_stable_dense_point_does_not_hand_over(self, monkeypatch, seed):
        # SMALL_LASSO holds its signs over an epoch on a fully dense x long
        # before identification; an outer loop's exchange there is not smaller
        # than a dense one, so the phase goes on
        ends = self.epoch_ends(monkeypatch, seed)
        stable_dense = [met for (a, _), (x, met) in zip(ends, ends[1:])
                        if np.count_nonzero(x) == 40 and pb.sign_pattern(a) == pb.sign_pattern(x)]
        assert stable_dense and not any(stable_dense)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_hands_over_when_an_exchange_is_smaller(self, monkeypatch, seed):
        # the phase ends at the first epoch end where the signs held and
        # nnz + 2 (nnz + c) < 2d, c = 5 and d = 40
        ends = self.epoch_ends(monkeypatch, seed)
        points = [np.zeros(40)] + [x for x, _ in ends]
        expected = [pb.sign_pattern(a) == pb.sign_pattern(x)
                    and 3 * np.count_nonzero(x) + 2 * 5 < 2 * 40
                    for a, x in zip(points, points[1:])]
        assert [met for _, met in ends] == expected
        assert expected[-1] and not any(expected[:-1])

    def test_start_point_counts_as_the_first_pattern(self, tmp_path, monkeypatch):
        # lam1 above lam_max: x stays 0, the start point's pattern, so the
        # dense phase ends at its first epoch end
        phases = dense_phases(monkeypatch)
        text = SMALL_LASSO.replace("target_support = 5", "lam1 = 1e3") + TWO_PHASE
        cfgp = write(tmp_path, "exp.ini", text)
        out = tmp_path / "ws"
        assert cli.main(["run", "--config", cfgp, "--out", str(out),
                         "--seeds", "1"]) == 0
        assert [p.n_epochs for p in phases] == [1]
        assert not np.any(phases[0].final_x)
        info = json.loads((out / "summary.json").read_text())["warmstart"]["1"]
        assert info["phase1_exchanges"] == phases[0].cum_up + phases[0].cum_down

    def test_one_epoch_phase_compares_with_the_start(self, tmp_path, capsys, monkeypatch):
        # half of lam_max: x has nonzeros at the first epoch end and the start
        # point 0 has none, so a one-epoch phase does not meet its trigger
        phases = dense_phases(monkeypatch)
        text = (SMALL_LASSO.replace("target_support = 5", "lam1 = 1.8852724561545662")
                + UNREACHABLE)
        cfgp = write(tmp_path, "exp.ini", text)
        assert cli.main(["run", "--config", cfgp, "--out", str(tmp_path / "o"),
                         "--seeds", "1"]) == cli.EXIT_TARGET
        assert ("error: seed 1: warmstart trigger unreachable within 1 epochs"
                in capsys.readouterr().err)
        assert [p.n_epochs for p in phases] == [1]
        assert np.count_nonzero(phases[0].final_x) == 3
        assert not phases[0].predicate_met

    @pytest.mark.parametrize("error", [1.0, -1.0])
    def test_dense_phase_reads_no_reference(self, monkeypatch, error):
        # an f* wrong by 1.0 gives the same dense phase; the configured run
        # still stops at f* + eps of the reference it is given
        cfg = cli.parse_config(SMALL_LASSO + TWO_PHASE)
        problem = cli.build_problem(cfg)
        ref = cli.get_reference(problem)
        wrong = dataclasses.replace(ref, f_star=ref.f_star + error)
        phases = dense_phases(monkeypatch)
        right_result = cli._execute_seed(problem, cfg, 1, ref, "sim")
        wrong_result = cli._execute_seed(problem, cfg, 1, wrong, "sim")
        right, bad = phases
        assert right.records == bad.records
        assert (right.cum_up, right.cum_down) == (bad.cum_up, bad.cum_down)
        assert np.array_equal(right.final_x, bad.final_x)
        assert right_result.runs[0] is right and wrong_result.runs[0] is bad
        assert right.cum_up + right.cum_down > 0
        assert right_result.status == "ok"
        if error > 0:  # a target met sooner
            assert wrong_result.status == "ok"
            assert wrong_result.runs[-1].n_iterations < right_result.runs[-1].n_iterations
        else:  # a target below the minimum
            assert wrong_result.status == "target-not-reached"
            assert wrong_result.runs[-1].n_outer == cfg.outer_budget

    def test_unreachable_trigger(self, tmp_path, capsys):
        cfgp = write(tmp_path, "exp.ini", SMALL_LASSO + UNREACHABLE)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfgp, "--out", str(out),
                         "--seeds", "1"]) == cli.EXIT_TARGET
        assert ("error: seed 1: warmstart trigger unreachable within 1 epochs"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_density_threshold_refused(self, tmp_path, capsys):
        # the hand-set density guard is gone; a config naming it is refused
        cfgp = write(tmp_path, "exp.ini", SMALL_LASSO + TWO_PHASE + "density_threshold = 0.5\n")
        assert cli.main(["run", "--config", cfgp, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert "[warmstart] density_threshold is not an option" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("algorithm, dense, near", [
        pytest.param("davepg", "", None, id="davepg"),
        pytest.param("spy-uniform", "pi = 1", "pi = 0.99", id="spy-uniform"),
        pytest.param("reconditioned", "c = 40", "c = 39", id="reconditioned"),
        pytest.param("catalyst", "c = 40", "c = 39", id="catalyst"),
    ])
    def test_dense_phase_before_dense_masks_refused(self, tmp_path, capsys, algorithm, dense,
                                                    near):
        # a mask of m(0) = d coordinates at x = 0: since m(x) >= m(0), no exchange
        # is ever smaller than a dense one, so the trigger cannot hold.  Refused
        # once d is known, in run and for every config of compare, before any
        # seed runs and before anything is written
        def config(setting):
            return (SMALL_LASSO.replace("c = 5\n", "").replace(
                "algorithm = reconditioned", f"algorithm = {algorithm}\n{setting}"))
        full = write(tmp_path, "full.ini", config(dense) + TWO_PHASE)
        plain = write(tmp_path, "plain.ini", SMALL_LASSO)
        problem = (f"[warmstart] before {algorithm} never hands over: its mask at 0 has "
                   "m(0) = 40 of d = 40 coordinates")
        for argv in (["run", "--config", full], ["compare", "--config", plain, "--config", full]):
            out = tmp_path / "out"
            assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
            assert problem in capsys.readouterr().err
            assert not out.exists()
        # without the section a dense mask is valid, and a mask a little
        # below d at 0 leaves room for the trigger
        for text in [config(dense)] + ([config(near) + TWO_PHASE] if near else []):
            cfg = cli.parse_config(text)
            cli._check_budget(cfg, cli.build_problem(cfg))

    def test_compare_runs_the_dense_phase(self, tmp_path):
        # a config's outputs under compare are those of run on it alone, and
        # only a config with the section reports a warm start
        ws = write(tmp_path, "ws.ini", SMALL_LASSO + TWO_PHASE)
        plain = write(tmp_path, "plain.ini", SMALL_LASSO)
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--config", ws, "--config", plain,
                         "--out", str(out), "--seeds", "1"]) == 0
        assert cli.main(["run", "--config", ws, "--out", str(tmp_path / "run"),
                         "--seeds", "1"]) == 0
        names = sorted(os.listdir(tmp_path / "run"))
        assert sorted(os.listdir(out / "ws")) == names
        assert filecmp.cmpfiles(out / "ws", tmp_path / "run", names, shallow=False)[0] == names
        assert json.loads((out / "ws" / "summary.json").read_text())["warmstart"]["1"][
            "phase1_exchanges"] > 0
        assert "warmstart" not in json.loads((out / "plain" / "summary.json").read_text())

    def test_compare_stops_at_unreachable_trigger(self, tmp_path):
        plain = write(tmp_path, "plain.ini", SMALL_LASSO)
        ws = write(tmp_path, "ws.ini", SMALL_LASSO + UNREACHABLE)
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--config", plain, "--config", ws,
                         "--out", str(out), "--seeds", "1"]) == cli.EXIT_TARGET
        assert sorted(os.listdir(out)) == ["plain"]


class TestPresetsAndDefaults:
    def test_defaults_prints_parseable(self, capsys):
        assert cli.main(["defaults"]) == 0
        out = capsys.readouterr().out
        assert cli.parse_config(out) is not None

    def test_defaults_are_the_default_config(self):
        # no [warmstart] section: its presence would turn the dense phase on
        assert cli.parse_config(cli.default_config_text()) == cli.ExperimentConfig()

    def test_presets_listing(self, capsys, tmp_path):
        assert cli.main(["presets", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "sm1" in out and "sm7" in out and "fig-lasso" in out
        files = os.listdir(tmp_path)
        assert any(f.startswith("sm1-") for f in files)
        # every materialized preset config parses
        for f in files:
            cli.parse_config((tmp_path / f).read_text())

    def test_preset_shapes(self):
        cfgs, labels = cli.preset_configs("sm1")
        assert labels[0] == "davepg"
        assert all(c.kind == "synthetic-logistic" for c in cfgs)
        cfgs, labels = cli.preset_configs("sm7")
        assert [c.criterion for c in cfgs] == ["fixed", "relative"]
        cfgs, labels = cli.preset_configs("fig-lasso")
        assert len(cfgs) == 5

    def test_unknown_preset(self):
        with pytest.raises(cli.ConfigError):
            cli.preset_configs("nope")


class TestBenchmarkNames:
    def test_traced_names_exist(self):
        # perfbench/harness.py wraps each (module, attr) of its TRACED list and
        # reads metrics.CACHE_ENV; a name deleted from the package crashes
        # every benchmark run. Signatures are left to the benchmark's own runs.
        root = os.path.dirname(SRC)
        code = ("import sys\n"
                "sys.path[:0] = sys.argv[1:]\n"
                "import harness\n"
                "from sparsepg import metrics\n"
                "missing = [f'{m.__name__}.{a}' for _, m, a, _ in harness.TRACED\n"
                "           if not callable(getattr(m, a, None))]\n"
                "env = isinstance(getattr(metrics, 'CACHE_ENV', None), str)\n"
                "print(len(harness.TRACED), missing, env)\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", code, os.path.join(root, "perfbench"), SRC],
                             env=env, cwd=root, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        count, rest = out.stdout.strip().split(" ", 1)
        assert int(count) >= 20
        assert rest == "[] True"

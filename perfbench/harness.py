"""Measurement loop, output checks, per-layer split and the result line."""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from collections import namedtuple

import numpy as np
import scipy

import sparsepg
from sparsepg import cli, data, direct, engine, metrics, problem, recondition, rng, sparsifier

import speed
from tracer import SpanSummary, Tracer
from workloads import make_workloads

# set-up is repeated at least SETUP_REPEATS times and for at least
# SETUP_SECONDS, so short set-ups get enough samples for a steady median
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
MIN_PASSES = 3

_clock = time.perf_counter

# a timed region: its CPU seconds at nominal host speed (speed.py), the wall
# and CPU seconds it took, and the probe CPU seconds around it
Timed = namedtuple("Timed", "s wall_s cpu_s probe_s")


# -- tracing -----------------------------------------------------------------


def _count_threads(counts, args, kwargs, grad):
    # worker oracles run on every thread a workload starts
    counts["threads.alive_peak"] = max(counts["threads.alive_peak"], threading.active_count())


def _count_mask(counts, args, kwargs, mask):
    counts["sparsifier.draw_mask.coords"] += int(mask.size)
    counts["sparsifier.draw_mask.d"] += args[0].d


def _engine_measure(name):
    def measure(counts, args, kwargs, trace):
        M = args[0].n_workers
        counts[f"{name}.iters"] += trace.n_iterations
        counts[f"{name}.workers"] += M
        counts["engine.coords_up"] += trace.cum_up
        counts["engine.coords_down"] += trace.cum_down
        counts["engine.priming"] += trace.priming_up + trace.priming_down
    return measure


def _outer_measure(counts, args, kwargs, trace):
    counts["recondition.outer_steps"] += trace.n_outer
    counts["recondition.inner_epochs"] += sum(r.inner_epochs for r in trace.records)


# (span name, module, attribute, measure); layer names follow the modules
TRACED = [
    ("problem.grad_shard", problem, "grad_shard", _count_threads),
    ("problem.prox_reg", problem, "prox_reg", None),
    ("problem.eval_objective", problem, "eval_objective", None),
    ("problem.reconditioned", problem, "reconditioned", None),
    ("data.generate_lasso", data, "generate_lasso", None),
    ("data.lasso_problem", data, "lasso_problem", None),
    ("data.logistic_problem", data, "logistic_problem", None),
    ("sparsifier.draw_mask", sparsifier, "draw_mask", _count_mask),
    ("sparsifier.adaptive_distribution", sparsifier, "adaptive_distribution", None),
    ("rng.stream", rng, "stream", None),
    ("engine.run_spy", engine, "run_spy", _engine_measure("engine.run_spy")),
    ("engine.run_davepg", engine, "run_davepg", _engine_measure("engine.run_davepg")),
    ("recondition.run_reconditioned", recondition, "run_reconditioned", _outer_measure),
    ("metrics.reference_solution", metrics, "reference_solution", None),
    ("metrics.calibrate_l1", metrics, "calibrate_l1", None),
    ("direct.solve", direct, "solve", None),
    ("direct.polish_l1_least_squares", direct, "polish_l1_least_squares", None),
    ("cli.build_problem", cli, "build_problem", None),
    ("cli.get_reference", cli, "get_reference", None),
    ("cli.run_algorithm", cli, "run_algorithm", None),
    ("cli.cmd_compare", cli, "cmd_compare", None),
]
ENGINE_SPANS = ("engine.run_spy", "engine.run_davepg")
# problem/sparsifier/rng metrics count only the solver's own calls: those
# under these spans, plus the top-level calls of engine worker threads
SOLVE_SPANS = ENGINE_SPANS + ("recondition.run_reconditioned", "cli.run_algorithm")


def _install(tracer: Tracer) -> None:
    for name, module, attr, measure in TRACED:
        tracer.install(name, module, attr, measure)


def layer_metrics(tracer: Tracer, traced_pass_s: float, untraced_pass_s: float,
                  bytes_written: int) -> dict:
    """Per-layer totals over the traced set-up and the traced pass."""
    summary = SpanSummary(tracer.names, tracer.spans())
    counts = tracer.counts()
    worker_roots = (summary.spans["parent"] < 0) & (
        summary.spans["thread"] != threading.main_thread().ident)
    solver = summary.under(SOLVE_SPANS) | worker_roots
    out = {}

    def calls_and_seconds(name, where=None):
        out[f"{name}.calls"] = (summary.calls(name, where), "count")
        out[f"{name}.s"] = (summary.seconds(name, where), "s")

    for name in ("problem.grad_shard", "problem.prox_reg", "problem.eval_objective",
                 "problem.reconditioned"):
        calls_and_seconds(name, solver)
    for name in ("data.generate_lasso", "data.lasso_problem", "data.logistic_problem"):
        out[f"{name}.s"] = (summary.seconds(name), "s")
    calls_and_seconds("sparsifier.draw_mask", solver)
    out["sparsifier.draw_mask.coords"] = (counts["sparsifier.draw_mask.coords"], "count")
    drawn = counts["sparsifier.draw_mask.d"]
    out["sparsifier.mask_fraction"] = (
        counts["sparsifier.draw_mask.coords"] / drawn if drawn else 0.0, "ratio")
    calls_and_seconds("sparsifier.adaptive_distribution", solver)
    calls_and_seconds("rng.stream", solver)
    for name in ENGINE_SPANS:
        calls_and_seconds(name)
    out["engine.self_s"] = (summary.self_seconds(ENGINE_SPANS), "s")
    total = counts["engine.coords_up"] + counts["engine.coords_down"]
    out["engine.coords_up"] = (counts["engine.coords_up"], "count")
    out["engine.coords_down"] = (counts["engine.coords_down"], "count")
    out["engine.priming_share"] = (counts["engine.priming"] / total if total else 0.0, "ratio")
    out["engine.divergences"] = (
        sum(counts[f"{n}.raised.DivergenceError"] for n in ENGINE_SPANS), "count")
    out["recondition.run_reconditioned.s"] = (summary.seconds("recondition.run_reconditioned"), "s")
    out["recondition.self_s"] = (summary.self_seconds(["recondition.run_reconditioned"]), "s")
    out["recondition.outer_steps"] = (counts["recondition.outer_steps"], "count")
    out["recondition.inner_epochs"] = (counts["recondition.inner_epochs"], "count")
    out["recondition.inner_budget_errors"] = (
        counts["recondition.run_reconditioned.raised.InnerBudgetError"], "count")
    out["metrics.reference_solution.s"] = (summary.seconds("metrics.reference_solution"), "s")
    out["metrics.calibrate_l1.s"] = (summary.seconds("metrics.calibrate_l1"), "s")
    calls_and_seconds("direct.solve")
    out["direct.polish_l1_least_squares.s"] = (summary.seconds("direct.polish_l1_least_squares"), "s")
    out["cli.build_problem.s"] = (summary.seconds("cli.build_problem"), "s")
    out["cli.get_reference.s"] = (summary.seconds("cli.get_reference"), "s")
    calls_and_seconds("cli.run_algorithm")
    out["cli.self_s"] = (summary.uncovered_seconds(
        "cli.cmd_compare", ("cli.build_problem", "cli.get_reference", "cli.run_algorithm")), "s")
    out["cli.bytes_written"] = (bytes_written, "B")
    out["trace.overhead_frac"] = (traced_pass_s / untraced_pass_s - 1.0, "ratio")
    return out, summary, counts


def self_check(summary: SpanSummary, counts) -> list:
    """Call-count identities the engine guarantees in simulation mode."""
    in_engine = summary.under(ENGINE_SPANS)
    grads = summary.calls("problem.grad_shard", in_engine)
    expected_grads = sum(counts[f"{n}.iters"] + counts[f"{n}.workers"] for n in ENGINE_SPANS)
    masks = summary.calls("sparsifier.draw_mask")
    expected_masks = counts["engine.run_spy.iters"] + counts["engine.run_spy.workers"]
    return [
        ("tracer: grad_shard calls in engine spans == iterations + M x engine runs",
         grads == expected_grads, f"{grads} vs {expected_grads}"),
        ("tracer: draw_mask calls == iterations + M x run_spy runs",
         masks == expected_masks, f"{masks} vs {expected_masks}"),
    ]


# -- measurement ---------------------------------------------------------------


def _pass_counts(outcomes):
    return sum(o.iters for o in outcomes), sum(o.coords for o in outcomes)


def _time(fn):
    gc.collect()
    result, wall, cpu, probe_s = speed.timed(fn)
    return result, Timed(speed.scaled(cpu, probe_s), wall, cpu, probe_s)


def _timed_pass(wl, fx, seed, tracer=None):
    if tracer is not None:
        _install(tracer)
    try:
        raw, timed = _time(lambda: wl.solve(fx, seed))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return timed, wl.check(fx, raw)


def _passes(wl, fx, seed, seconds, min_passes):
    """Untraced passes while at least half a typical pass fits in ``seconds``.

    Runs then measure for ``seconds`` on average, not up to a pass less; that
    is one more pass for workloads whose passes take several seconds."""
    passes, took = [], []
    deadline = _clock() + seconds
    while True:
        t0 = _clock()
        passes.append(_timed_pass(wl, fx, seed))
        took.append(_clock() - t0)
        if len(passes) >= min_passes and _clock() + statistics.median(took) / 2 > deadline:
            return passes


def _solve_checks(wl, passes) -> list:
    outcomes = [o for _, outs in passes for o in outs]
    failed = [o for o in outcomes if not o.reached]
    checks = [
        ("every solve reached its gap against metrics.reference_solution",
         not failed, "; ".join(o.error or f"gap {o.gap:.3e}" for o in failed[:3])),
        ("ledger: cum == priming + sum of per-iteration coordinates on every engine trace",
         all(o.ledger_ok for o in outcomes), ""),
    ]
    counts = {_pass_counts(outs) for _, outs in passes}
    checks.append(("sim: repeated passes of one seed give identical iterations and coordinates",
                   len(counts) == 1, str(sorted(counts))))
    return checks


def _end_to_end(setups, passes) -> dict:
    solve_s = statistics.median(p[0].s for p in passes)
    iters = statistics.median(_pass_counts(outs)[0] for _, outs in passes)
    coords = statistics.median(_pass_counts(outs)[1] for _, outs in passes)
    outcomes = [o for _, outs in passes for o in outs]
    return {
        "setup_s": (statistics.median(t.s for t in setups), "s"),
        "solve_s": (solve_s, "s"),
        "us_per_iter": (solve_s / max(iters, 1) * 1e6, "us"),
        "iters_to_eps": (iters, "count"),
        "coords_to_eps": (coords, "count"),
        "solved_frac": (sum(o.reached for o in outcomes) / len(outcomes), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_untraced(wl, seed, seconds):
    setups = []
    while len(setups) < SETUP_REPEATS or sum(t.wall_s for t in setups) < SETUP_SECONDS:
        fx, timed = _time(wl.setup)
        setups.append(timed)
    passes = _passes(wl, fx, seed, seconds, MIN_PASSES)
    return _end_to_end(setups, passes), passes, _solve_checks(wl, passes), None, setups


def run_traced(wl, seed, seconds):
    tracer = Tracer()
    _install(tracer)
    try:
        fx = wl.setup()
    finally:
        tracer.uninstall()
    untraced = _passes(wl, fx, seed, seconds / 2, 1)
    traced, traced_outs = _timed_pass(wl, fx, seed, tracer)
    passes = untraced + [(traced, traced_outs)]
    layers, summary, counts = layer_metrics(
        tracer, traced.s, statistics.median(p[0].s for p in untraced),
        getattr(wl, "last_bytes_written", 0))
    checks = _solve_checks(wl, passes)
    checks += self_check(summary, counts)
    iters = sum(o.iters for o in traced_outs)
    checks.append(("tracer: engine spans saw every iteration of the pass",
                   counts["engine.run_spy.iters"] + counts["engine.run_davepg.iters"] == iters,
                   f"{iters} iterations"))
    return layers, passes, checks, tracer, []


# -- provenance and output -------------------------------------------------------


def _blas_threads():
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _git_commit(root):
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    return None


def provenance(root, wl, seed, threads_started):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sparsepg": sparsepg.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(root),
        "seed": seed,
        "workload": wl.name,
        "worker_threads": wl.threads,
        "threads_started_peak": threads_started,
        "reference_cache": os.environ.get(metrics.CACHE_ENV),
    }


def main(argv, root, out_root):
    workloads = make_workloads(out_root)
    parser = argparse.ArgumentParser(description="sparsepg benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    wl = workloads[args.workload]
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    runner = run_traced if args.trace else run_untraced
    values, passes, checks, tracer, setups = runner(wl, args.seed, args.seconds)
    if {m["name"]: m["unit"] for m in declared} != {k: unit for k, (_, unit) in values.items()}:
        print("error: measured metrics and units differ from BENCHMARK.json", file=sys.stderr)
        return 3

    # peak threads alive during worker oracle calls, less the main thread
    started = tracer.peak("threads.alive_peak") - 1 if tracer else wl.threads
    prov = provenance(root, wl, args.seed, started)
    if started > (os.cpu_count() or 1):
        print(f"warning: {wl.name} started {started} threads on {os.cpu_count()} cores",
              file=sys.stderr)
    outcomes = [o for _, outs in passes for o in outs]
    result = {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": len(outcomes),
        "failed": sum(not o.reached for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    report = {
        "provenance": prov,
        "nominal_probe_s": speed.NOMINAL_S,
        "passes": [p[0]._asdict() for p in passes],
        "setups": [t._asdict() for t in setups],
        "checks": [{"check": name, "ok": ok, "detail": detail} for name, ok, detail in checks],
        "result": result,
    }
    with open(os.path.join(out_root, stem + ".json"), "w") as fh:
        json.dump(report, fh, indent=2)
    if tracer is not None:
        spans = tracer.spans()
        np.savez_compressed(os.path.join(out_root, stem + "-spans.npz"),
                            names=np.array(tracer.names), **spans)
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail and not ok else ""))
    print("provenance " + json.dumps(prov))
    for name, (value, unit) in values.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0

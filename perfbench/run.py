"""sparsepg benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the package is imported from its
``src`` directory, never from an installed copy.  Results and span files are
written under ``perfbench/out``; the last line of standard output is the
result as one JSON object.
"""

import os
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    src = os.path.join(root, "src")
    # one BLAS thread: no workload starts more threads than it names, and
    # timings do not depend on BLAS thread scheduling
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # set-up time measures the reference computation, not a cache hit
    os.environ.pop("SPARSEPG_CACHE", None)
    sys.path.insert(0, src)
    try:
        import sparsepg
    except ImportError as exc:
        print(f"error: cannot import sparsepg from {src}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(sparsepg.__file__)) != os.path.join(src, "sparsepg"):
        print(f"error: sparsepg imported from {sparsepg.__file__}, not {src}", file=sys.stderr)
        return 2
    out_root = os.path.join(here, "out")
    os.makedirs(out_root, exist_ok=True)
    import harness

    return harness.main(sys.argv[1:], root, out_root)


if __name__ == "__main__":
    sys.exit(main())

"""Host-speed probe: a fixed kernel timed around every measured region.

The benchmark shares a few cores of a busy host, and two things move its
timings that have nothing to do with the code under test.  The hypervisor
takes the virtual CPUs away for a while (steal time), and other tenants slow
the CPUs down (shared caches, memory bandwidth, hyper-threads) by 20-30% over
seconds to minutes.  So regions are timed in process CPU seconds, which leave
steal out, and this kernel is timed, in CPU seconds too, just before and just
after each region; the region is reported at nominal host speed,
``cpu * NOMINAL_S / probe``, where ``probe`` is the mean of the two kernel
times around it.

The kernel is the same mix of work the library does on these workloads:
matrix-vector products on small dense shards, elementwise prox and logistic
arithmetic on short vectors, and Python call overhead in a loop.  It uses
numpy only, never sparsepg, so a change to the library moves the scaled times
exactly as it moves the CPU times.
"""

from __future__ import annotations

import time

import numpy as np

# median probe CPU time on the 2-vCPU host of the baseline (numpy 2.4,
# OpenBLAS, one BLAS thread); scaled times read as seconds at that speed
NOMINAL_S = 0.05
_STEPS = 1000

_rng = np.random.default_rng(20181209)
_A = _rng.standard_normal((500, 200)) / np.sqrt(500)
_B = _rng.standard_normal((150, 200)) / np.sqrt(150)
_b = _rng.standard_normal(500)
_clock = time.perf_counter
_cpu = time.process_time


def _kernel() -> float:
    x = np.zeros(200)
    total = 0.0
    for _ in range(_STEPS):
        y = x - 0.5 * (_A.T @ (_A @ x - _b))
        x = np.sign(y) * np.maximum(np.abs(y) - 1e-3, 0.0)
        z = _B @ x
        total += float(np.logaddexp(0.0, -z).sum())
    return total


def probe() -> float:
    """CPU seconds the kernel takes now."""
    t0 = _cpu()
    _kernel()
    return _cpu() - t0


def timed(fn):
    """Run ``fn()`` between two probes.

    Returns the result, the wall seconds and the process CPU seconds (all
    threads) ``fn`` took, and the mean probe CPU seconds around it."""
    before = probe()
    w0, c0 = _clock(), _cpu()
    result = fn()
    wall, cpu = _clock() - w0, _cpu() - c0
    after = probe()
    return result, wall, cpu, 0.5 * (before + after)


def scaled(cpu: float, probe_s: float) -> float:
    """``cpu`` seconds measured while the probe took ``probe_s``, at nominal speed."""
    return cpu * NOMINAL_S / probe_s

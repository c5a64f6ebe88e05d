"""Machine-speed calibration for the end-to-end timings.

On a shared host the same single-threaded code can run up to twice as
slow for tens of seconds at a time, with its CPU time equal to its wall
time and no steal recorded: the processor itself is slower, not the
process waiting.  No statistic over one run removes a slowdown that
lasts the whole run.

So the benchmark runs this fixed kernel between repetitions and divides
each repetition's times by ``slowdown = kernel time / REFERENCE_S``
measured around it.  The kernel mixes what lieflow's hot loops do:
per-item small-matrix LAPACK calls from a Python loop, one batched
solve over a few thousand rows, and dictionary-heavy interpreter work.
It depends only on numpy, so a change to lieflow cannot move it.

The CLI workload spends half its time starting interpreters and
importing numpy and scipy, which the kernel does not track.  Its
repetitions are calibrated instead by :func:`process_slowdown`: the
time to start ``python -c "import numpy, scipy.linalg, argparse,
json"``, relative to REFERENCE_PROCESS_S.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Typical kernel time on a 2-CPU x86-64 host (Python 3.11.7,
# numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread).  Only ratios to it
# matter; on another machine the calibrated times are in units of this
# host's seconds.
REFERENCE_S = 0.0185
REFERENCE_PROCESS_S = 0.46

_gen = np.random.default_rng(7)
_SPD = _gen.standard_normal((300, 4, 4))
_SPD = _SPD @ _SPD.transpose(0, 2, 1) + 4.0 * np.eye(4)
_ROWS = _gen.standard_normal((4000, 6))


def _kernel() -> float:
    acc = 0.0
    for m in _SPD:
        acc += np.linalg.eigvalsh(m)[0] + np.linalg.cholesky(m)[0, 0]
        acc += float(np.linalg.solve(m, m[0])[0])
    gram = np.einsum("na,nb->nab", _ROWS, _ROWS) + np.eye(6)
    acc += float(np.linalg.solve(gram, _ROWS[..., None]).sum())
    table: dict[int, float] = {}
    for k in range(20000):
        table[k % 97] = table.get(k % 97, 0.0) + 0.5 * k
    return acc + table[3]


def slowdown() -> float:
    """Median of 5 kernel times, relative to REFERENCE_S."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / REFERENCE_S


def process_slowdown() -> float:
    """Faster of 2 interpreter starts that import what the CLI imports
    apart from lieflow, relative to REFERENCE_PROCESS_S."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c",
                        "import numpy, scipy.linalg, argparse, json"],
                       check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return min(times) / REFERENCE_PROCESS_S

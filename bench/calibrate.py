"""Fixed kernels that measure how fast the host runs at the moment.

On a shared VM the speed of a core drifts by 20-40% over tens of seconds,
so the spread of raw wall times across runs is wider than any useful
regression bound.  Each pass times one of these kernels in its own
process just before and just after its jobs.  The run then scales wall
times to a reference host speed: wall_ref = wall * REFERENCE_S / kernel_s.
The kernels are part of the benchmark, so a change to the program cannot
change them.

`python` mirrors the interpreter-bound loops of the package (a Gray walk
with popcounts).  `blas` mirrors high-k decoding, where a float64 matrix
product dominates.  `noise` mirrors low-k simulation: uniform messages,
a gather, a block of normal draws, a tiny product and an argmax over
arrays of tens of MB.  Each workload names the one that matches where
its time goes.  A BLAS-bound kernel did not track the low-k workload:
its spread over 10 seeds went from 0.05-0.2 raw to 0.16 calibrated.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel seconds on a shared 2-vCPU Intel Xeon VM (OpenBLAS 0.3.31,
# 2 BLAS threads) where the benchmark was defined; only ratios matter.
REFERENCE_S = {"python": 0.018, "blas": 0.023, "noise": 0.020}
REPEATS = 3

_ROWS = tuple((0x9E3779B97F4A7C15 * (i + 1)) & ((1 << 64) - 1) for i in range(17))
_B = np.random.default_rng(2).standard_normal((64, 1024))
_SIGNS = 1.0 - 2.0 * np.random.default_rng(4).integers(0, 2, size=(16, 32))


def _python() -> None:
    counts = [0] * 65
    word = 0
    for i in range(1, 1 << 17):
        low = i & -i
        word ^= _ROWS[low.bit_length() - 1]
        counts[word.bit_count()] += 1


def _blas() -> None:
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 1024, size=4096)
    x = _B.T[idx] + rng.standard_normal((4096, 64))
    np.argmax(x @ _B, axis=1)


def _noise() -> None:
    rng = np.random.default_rng(5)
    msgs = rng.integers(0, 16, size=1 << 15)
    rx = _SIGNS[msgs] + 0.8 * rng.standard_normal((1 << 15, 32))
    np.count_nonzero(np.argmax(rx @ _SIGNS.T, axis=1) != msgs)


KERNELS = {"python": _python, "blas": _blas, "noise": _noise}


def sample(kind: str) -> list[float]:
    """REPEATS timings of the `kind` kernel, in seconds."""
    out = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        KERNELS[kind]()
        out.append(time.perf_counter() - t0)
    return out

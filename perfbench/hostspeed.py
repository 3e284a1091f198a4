"""The host's current speed, measured with a fixed piece of work.

On a shared 2-core host the same call runs up to 1.7x slower from one
second to the next while other tenants load the physical cores, which
moves a run's median by more than any useful bound. So the benchmark
times a fixed piece of work right before and right after each timed
call and scales the call's time by ``REFERENCE_S`` over the mean of the
two: a time then reads as it would on the host at its reference speed.
A change to the program moves it; a change in the host's load mostly
does not. The work uses only the standard library and numpy, so no
change to the program under test changes it.
"""

from __future__ import annotations

import random
import time

import numpy as np

#: Seconds :func:`measure` takes on an unloaded 2-core Xeon at 2.1 GHz.
REFERENCE_S = 0.035

_RNG = random.Random(0)
_ADJ: dict[int, set[int]] = {i: set() for i in range(600)}
for _ in range(5000):
    _u, _v = _RNG.randrange(600), _RNG.randrange(600)
    if _u != _v:
        _ADJ[_u].add(_v)
        _ADJ[_v].add(_u)
_PROBS = [_RNG.random() for _ in range(40)]
_ROWS = np.random.default_rng(0).integers(0, 2, size=(3000, 48),
                                          dtype=np.uint8)


def _work() -> float:
    # Set intersections, a Poisson-binomial DP and a row dedup: the same
    # kinds of work as the peel, the sigma(e) DP and the oracle.
    triangles = 0
    for u, nbrs in _ADJ.items():
        for v in nbrs:
            if u < v:
                triangles += len(nbrs & _ADJ[v])
    tail = 0.0
    for _ in range(40):
        pmf = [1.0]
        for q in _PROBS:
            nxt = [0.0] * (len(pmf) + 1)
            for i, mass in enumerate(pmf):
                nxt[i] += (1.0 - q) * mass
                nxt[i + 1] += q * mass
            pmf = nxt
        tail += pmf[-1]
    for _ in range(4):
        np.unique(_ROWS, axis=0)
    return triangles + tail


def measure() -> float:
    """Seconds the fixed work takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale of a time measured between two :func:`measure` calls."""
    return REFERENCE_S / ((before + after) / 2.0)

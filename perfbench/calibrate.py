"""Reference kernel: a fixed piece of work that measures the host's speed.

The host this benchmark runs on is a share of a machine whose speed drifts
by tens of percent over minutes, with other tenants' load.  A run times
this kernel before every pass and after the last one, so the kernel sees
the same stretch of time as the passes.  The time metrics are then scaled
to the speed at which the kernel takes `NOMINAL_S`: two runs of the same
program on a fast and on a slow stretch report about the same value.

The kernel does the kind of work the CLI does: small complex-matrix numpy
calls, interpreter-bound float loops and float formatting.  Its input is
fixed and never depends on the workload seed or on the program under test,
so it is the same work in every run and on every commit.
"""
from __future__ import annotations

import time

import numpy as np

# kernel seconds on the reference host (see README.md) when it runs at
# its usual speed; scaled values read as that host's figures
NOMINAL_S = 0.06

_ROUNDS = 36


def _inputs() -> list[np.ndarray]:
    rng = np.random.default_rng(20031001)
    out = []
    for n in (2, 3, 4) * 16:
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        out.append(a + a.conj().T)
    return out


_MATRICES = _inputs()


def kernel() -> float:
    """Run the reference kernel once; return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    text = []
    for _ in range(_ROUNDS):
        for a in _MATRICES:
            w, v = np.linalg.eigh(a)
            u = (v * np.exp(1j * w)) @ v.conj().T
            acc += abs(np.trace(u @ a @ u.conj().T))
            for x in w.tolist():
                acc += x * x / (1.0 + abs(x))
            text.append(",".join(repr(x) for x in w.tolist()))
    if not np.isfinite(acc) or not text:
        raise RuntimeError("reference kernel produced no finite result")
    return time.perf_counter() - start

"""Seeded invocation lists for the sun-phase benchmark workloads.

Each workload is a fixed list of `sun-phase` command lines, run as one
closed loop by a single client: the next invocation starts when the
previous one returns.  The workload seed derives every per-invocation
`--seed` (and, for the SU(2) commands, which take no seed, the loop
geometry), so the same seed always gives the same argv lists.  Every
invocation writes its report with `--out` (and CSV with `--csv`) into a
caller-supplied output directory.

The point count of an invocation is what the user asked for: sweep
points (`verify-group`), sweep plus bridge points (`verify-ray`), grid
cells (`su2-demo`), loop samples (`vortex`) and trace samples
(`superosc`).
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    points: int
    out: str
    csv: str | None = None


WHY = {
    "group-fd": "verify-group sweeps on the exp and cartan charts, where "
    "finite-difference chart partials do most of the work",
    "ray-bridge": "verify-ray sweeps with bridge points, where coset sections "
    "and the double-differenced bridge checks do most of the work",
    "su2-closed-form": "su2-demo grid with CSV and vortex loops on the SU(2) "
    "polar chart, whose closed-form partials bypass finite differences",
    "superosc-trace": "superosc phase traces with many samples and CSV, the "
    "only workload that reaches the superosc layer",
}

NAMES = tuple(WHY)


def _derived_seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


def _group_fd(rng: random.Random):
    # two seeded invocations of each kind: the headroom metric takes a
    # median over reports, which needs more than one report per check
    for n, chart, points, extra in (
        (3, "exp", 20, ()),
        (4, "exp", 15, ()),
        (3, "cartan", 15, ()),
        (3, "exp", 10, ("--per-point",)),
    ):
        argv = ("verify-group", "--n", str(n), "--chart", chart, "--points", str(points))
        for _ in range(2):
            yield argv + extra, points, False


def _ray_bridge(rng: random.Random):
    points, bridge = 60, 30
    for n in (3, 4):
        argv = ("verify-ray", "--n", str(n), "--points", str(points),
                "--bridge-points", str(bridge))
        yield argv, points + bridge, False


def _su2_closed_form(rng: random.Random):
    samples = 1024
    yield ("su2-demo", "--grid", "10"), 10**3, True
    # phi-circles wind once around the amplitude zero (sign flips with
    # --reverse); the contractible loop stays inside the chart margin and
    # encloses no zero, so it winds zero times
    for reverse in (False, True):
        chi = rng.uniform(0.3, math.pi - 0.3)
        theta = rng.uniform(0.1, math.pi - 0.1)
        argv = ("vortex", "--loop", "phi-circle", "--chi", repr(chi), "--theta", repr(theta),
                "--samples", str(samples))
        if reverse:
            yield argv + ("--reverse", "--expect", "-1"), samples, False
        else:
            yield argv + ("--expect", "1"), samples, False
    chi = rng.uniform(0.6, math.pi - 0.6)
    theta = rng.uniform(0.6, math.pi - 0.6)
    phi = rng.uniform(0.0, 2 * math.pi)
    yield ("vortex", "--loop", "contractible", "--chi", repr(chi), "--theta", repr(theta),
           "--phi", repr(phi), "--samples", str(samples), "--expect", "0"), samples, False


def _superosc_trace(rng: random.Random):
    samples = 15000
    for n in (3, 8):
        yield ("superosc", "--n", str(n), "--samples", str(samples)), samples, True


_BUILDERS = {
    "group-fd": _group_fd,
    "ray-bridge": _ray_bridge,
    "su2-closed-form": _su2_closed_form,
    "superosc-trace": _superosc_trace,
}

_SEEDED = {"verify-group", "verify-ray", "superosc"}


def build(workload: str, seed: int, out_dir: str) -> list[Invocation]:
    """The invocation list of `workload` for `seed`, writing into out_dir."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload '{workload}'")
    rng = random.Random(f"{workload}:{seed}")
    invocations = []
    for idx, (argv, points, with_csv) in enumerate(_BUILDERS[workload](rng)):
        if argv[0] in _SEEDED:
            argv = argv + ("--seed", _derived_seed(rng))
        out = os.path.join(out_dir, f"{idx:02d}-{argv[0]}.json")
        argv = argv + ("--out", out)
        csv = None
        if with_csv:
            csv = os.path.join(out_dir, f"{idx:02d}-{argv[0]}.csv")
            argv = argv + ("--csv", csv)
        invocations.append(Invocation(argv=argv, points=points, out=out, csv=csv))
    return invocations

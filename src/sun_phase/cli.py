"""Command-line driver: verification sweeps, demos, and scans.

Emits machine-readable JSON reports (schema "sun-phase/1") and CSV
grids.  Reports are byte-identical for identical configuration and
seed: the RNG is seeded explicitly, floats are printed with 17
significant digits, and no timestamps are recorded.

Every command evaluates stacks of points: the sweeps draw every point
in the order of the per-point draws, then evaluate blocks of
`Chart.block_rows()` points.  `verify-group --chart cartan` over random
pairs evaluates a block on a per-row chart, each row adapted to its own
psi_i.  `verify-ray` evaluates each block of section points, the slice
(y, 0, 0) of the full Cartan chart, once, and every ray and bridge check
reads that section point; it draws bridge candidates in rounds of at
most the points still missing.  `su2-demo` evaluates its grid in such
blocks and `vortex` its loop.  The low-amplitude skip reads p from the
block's phase gradient or section states, and `vortex` takes its
largest phase step from the phases the winding number was summed from.
Check gates come from `tolerances.CHECK_GATES`.

Exit codes: 0 all checks pass, 1 check failure or a library error (a guard
such as unitarity failing at a kept point: one `error:` line for the first
such point in draw order), 2 configuration error (including arguments
outside the domain of a chart, a loop or a trace, non-finite numbers, a
`--sample-scale` that is not positive, `--tol` names the command does
not report, and sizes whose arrays cannot be allocated), 3 inconclusive
sweep (more than half of the points skipped).
"""
from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import __version__
from .algebra import StatePair, build_gellmann_basis, haar_state
from .amplitude import phase_gradient, principal_angle, vortex_winding
from .charts import Chart, exp_chart, su2_polar_chart
from .coset import (
    bridge_residuals,
    build_cartan_frame,
    factorization_residual,
    full_cartan_chart,
    ray_relation_residuals,
    section,
    u1_berry_residuals,
    u1_eigenvalue,
)
from .errors import SunPhaseError
from .superosc import aligned_generator, superoscillation_report
from .tolerances import CHECK_GATES

SCHEMA = "sun-phase/1"

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_INCONCLUSIVE = 3

CSV_BLOCK_ROWS = 1024  # CSV rows formatted and written per block

P_SKIP = 1e-6      # group sweeps skip points below this squared amplitude
P_SKIP_RAY = 1e-4  # ray sweeps: the section derivatives are exact, so the
                   # residuals carry rounding error ~1/p only; a lower value
                   # would admit harder points and change what a seed reports


class ConfigError(SunPhaseError, ValueError):
    """Invalid command-line configuration."""


# ---------------------------------------------------------------------------
# deterministic serialization


def format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError("non-finite value in report")
    return format(float(x), ".17g")


def _json_chunks(obj, indent: int):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        yield "{\n"
        for idx, (key, value) in enumerate(obj.items()):
            yield f'{pad}  "{key}": '
            yield from _json_chunks(value, indent + 1)
            yield ",\n" if idx < len(obj) - 1 else "\n"
        yield pad + "}"
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            yield "[]"
            return
        yield "[\n"
        for idx, value in enumerate(obj):
            yield pad + "  "
            yield from _json_chunks(value, indent + 1)
            yield ",\n" if idx < len(obj) - 1 else "\n"
        yield pad + "]"
    elif isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        yield f'"{escaped}"'
    elif isinstance(obj, (bool, np.bool_)):
        yield "true" if obj else "false"
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        yield format_float(float(obj))
    elif obj is None:
        yield "null"
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def dump_report(report: dict) -> str:
    return "".join(_json_chunks(report, 0)) + "\n"


# `%` conversion per numpy dtype kind: floats with 17 significant digits,
# signed integers as decimals; a column of any other kind raises KeyError
_BLOCK_FORMATS = {"f": "%.17g", "i": "%d"}


def write_csv(path: str, header: list[str], columns) -> None:
    """Write equal-length float or signed-integer numpy columns as CSV rows.

    Floats print with 17 significant digits.  Rows are formatted
    CSV_BLOCK_ROWS at a time, in one `%` pass per block.
    """
    rows = len(columns[0])
    if len(columns) != len(header) or any(len(column) != rows for column in columns):
        raise ValueError("write_csv needs one column per header entry, all of one length")
    template = ",".join(_BLOCK_FORMATS[column.dtype.kind] for column in columns) + "\n"

    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, rows, CSV_BLOCK_ROWS):
            cells = [column[start:start + CSV_BLOCK_ROWS].tolist() for column in columns]
            handle.write((template * len(cells[0])) % tuple(chain.from_iterable(zip(*cells))))


# ---------------------------------------------------------------------------
# configuration


@dataclass
class SweepConfig:
    n: int
    chart: str = "exp"
    points: int = 200
    seed: int = 0
    pair_kind: str = "random"
    psi_i: np.ndarray | None = None
    psi_f: np.ndarray | None = None
    sample_scale: float = 1.0
    tolerances: dict = field(default_factory=dict)
    per_point: bool = False

    def echo(self) -> dict:
        out = {
            "n": self.n,
            "chart": self.chart,
            "points": self.points,
            "seed": self.seed,
            "pair": self.pair_kind,
            "sample_scale": self.sample_scale,
        }
        if self.psi_i is not None:
            out["psi_i"] = [format_float(v) for v in np.ravel([self.psi_i.real, self.psi_i.imag])]
            out["psi_f"] = [format_float(v) for v in np.ravel([self.psi_f.real, self.psi_f.imag])]
        if self.tolerances:
            out["tolerance_overrides"] = dict(sorted(self.tolerances.items()))
        return out


def _parse_state(text: str, n: int, name: str) -> np.ndarray:
    try:
        entries = [complex(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {name}: {exc}") from exc
    if len(entries) != n:
        raise ConfigError(f"{name} needs {n} comma-separated entries")
    v = np.array(entries, dtype=complex)
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"{name} has a non-finite entry")
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ConfigError(f"{name} is the zero vector")
    if abs(norm - 1.0) > 1e-6:
        print(
            f"warning: {name} norm deviates by {abs(norm - 1.0):.2e}; normalizing",
            file=sys.stderr,
        )
    return v / norm


def resolve_pair(config: SweepConfig, rng: np.random.Generator) -> StatePair:
    if config.pair_kind == "random":
        return StatePair(haar_state(config.n, rng), haar_state(config.n, rng))
    if config.pair_kind == "spin-flip":
        psi_i = np.zeros(config.n, dtype=complex)
        psi_f = np.zeros(config.n, dtype=complex)
        psi_i[0] = 1.0
        psi_f[1] = 1.0
        return StatePair(psi_i, psi_f)
    if config.pair_kind == "explicit":
        return StatePair(config.psi_i, config.psi_f)
    raise ConfigError(f"unknown pair kind '{config.pair_kind}'")


def resolve_chart(config: SweepConfig, psi_i: np.ndarray) -> Chart:
    """The chart of the sweep; the cartan chart is adapted to the reference
    state psi_i, or per row to a stack of them (N, n)."""
    if config.chart == "exp":
        return exp_chart(build_gellmann_basis(config.n))
    if config.chart == "su2-polar":
        if config.n != 2:
            raise ConfigError("chart 'su2-polar' requires --n 2")
        return su2_polar_chart()
    if config.chart == "cartan":
        return full_cartan_chart(build_cartan_frame(psi_i, build_gellmann_basis(config.n)))
    raise ConfigError(f"unknown chart '{config.chart}'")


# ---------------------------------------------------------------------------
# report assembly


_GATES = {name: gate for gates in CHECK_GATES.values() for name, gate in gates.items()}


def make_check(name: str, max_residual: float, overrides: dict | None = None) -> dict:
    """Check record gated by `overrides[name]`, else by the default gate."""
    tolerance = (overrides or {}).get(name, _GATES[name])
    return {
        "name": name,
        "max_residual": float(max_residual),
        "tolerance": float(tolerance),
        "pass": bool(max_residual <= tolerance),
    }


def base_report(command: str, config_echo: dict, seed: int) -> dict:
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "config": config_echo,
        "seed": seed,
    }


def finish_report(report: dict, checks: list[dict], out_path: str | None) -> int:
    """Write the report; a report marked inconclusive fails with exit code 3."""
    inconclusive = report.get("inconclusive", False)
    report["checks"] = checks
    report["pass"] = not inconclusive and all(c["pass"] for c in checks)
    text = dump_report(report)
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS if report["pass"] else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# verify-group


def run_group_sweep(config: SweepConfig, out_path: str | None = None) -> int:
    """Sweep the group-manifold gradient identities over random points."""
    if config.points < 1:
        raise ConfigError("--points must be >= 1")
    rng = np.random.default_rng(config.seed)
    n = config.n
    fixed = None if config.pair_kind == "random" else resolve_pair(config, rng)
    # the sample box and the domain of every chart depend only on n, so the
    # chart of any reference state gives them; a fixed pair's chart is shared
    chart = resolve_chart(config, np.eye(n, dtype=complex)[0] if fixed is None else fixed.psi_i)
    lo, hi = chart.sample_box.T
    half = (hi - lo) / 2.0 * config.sample_scale

    draws = []  # per point: psi_i and psi_f of a random pair, then x
    for _ in range(config.points):
        states = (haar_state(n, rng), haar_state(n, rng)) if fixed is None else ()
        draws.append((*states, rng.uniform((lo + hi) / 2.0 - half, (lo + hi) / 2.0 + half)))
    *states, xs = map(np.array, zip(*draws))
    if not np.all(chart.contains(xs)):
        raise ConfigError(
            f"--sample-scale {config.sample_scale} draws points outside chart '{chart.label}'"
        )
    pair = StatePair(*states) if fixed is None else fixed
    # only the cartan chart follows the pair (it is adapted to psi_i)
    follows_pair = fixed is None and config.chart == "cartan"

    step = chart.block_rows()
    bound = 2.0 * (n - 1) / n
    kept = []
    for start in range(0, config.points, step):
        rows = slice(start, start + step)
        block_pair, x = pair.rows(rows), xs[rows]
        block_chart = resolve_chart(config, block_pair.psi_i) if follows_pair else chart
        grad = phase_gradient(block_pair, block_chart, x)
        res = grad.residuals()
        rec_residual = abs(grad.reconstructed_modulus() - np.sqrt(grad.p)) / np.sqrt(grad.p)
        bound_deficit = np.maximum(0.0, bound - grad.phase_grad_sq)
        columns = [res.phase, res.modulus, res.cross, rec_residual, bound_deficit, grad.p, x]
        kept.append(np.column_stack(columns)[grad.p > P_SKIP])  # NaN rows have p < P_GRAD
    table = np.concatenate(kept)
    skipped = config.points - len(table)

    report = base_report("verify-group", config.echo(), config.seed)
    report["points_requested"] = config.points
    report["points_evaluated"] = len(table)
    report["points_skipped_low_amplitude"] = skipped

    if skipped > config.points / 2:
        print("error: more than half of the sweep points were skipped", file=sys.stderr)
        report["inconclusive"] = True
        return finish_report(report, [], out_path)

    worst = table[:, :5].max(axis=0)
    tols = config.tolerances
    checks = [
        make_check("phase-identity", worst[0], tols),
        make_check("modulus-identity", worst[1], tols),
        make_check("orthogonality", worst[2], tols),
        make_check("reconstruction", worst[3], tols),
        make_check("gradient-lower-bound", worst[4], tols),
    ]
    if config.per_point:
        report["per_point"] = [
            {"x": row[6:].tolist(), "p": float(row[5]), "residuals": row[:3].tolist()}
            for row in table
        ]
    return finish_report(report, checks, out_path)


# ---------------------------------------------------------------------------
# verify-ray


def run_ray_sweep(config: SweepConfig, bridge_points: int, out_path: str | None = None) -> int:
    """Sweep the ray-space identities, connection proportionality, and the
    group-to-ray bridge identities on the section."""
    if config.points < 1:
        raise ConfigError("--points must be >= 1")
    if bridge_points < 0:
        raise ConfigError("--bridge-points must be >= 0")
    rng = np.random.default_rng(config.seed)
    pair = resolve_pair(config, rng)
    frame = build_cartan_frame(pair.psi_i, build_gellmann_basis(config.n))
    chart = full_cartan_chart(frame)
    step = chart.block_rows()

    m = frame.dim_coset
    y_half = np.full(m, (np.pi / 2) * 0.62 / np.sqrt(m) * config.sample_scale)

    def draw(count, half):
        """`count` points of uniform draws in [-half, half]; y comes first."""
        rows = rng.uniform(-half, half, (count, len(half)))
        if (np.linalg.norm(rows[:, :m], axis=1) >= np.pi / 2).any():
            raise ConfigError(
                f"--sample-scale {config.sample_scale} draws points outside the |y| < pi/2 ball"
            )
        return rows

    def kept_section(y, p_skip):
        """The section at the rows of y with p > p_skip, and their mask."""
        point = section(frame, y)
        amp = point.overlap(pair.psi_f)
        kept = np.hypot(amp.real, amp.imag) ** 2 > p_skip
        return point.rows(kept), kept

    # per point: y, then xi_s, then xi0
    draws = draw(config.points, np.concatenate([y_half, np.full(frame.dim_iso, 0.5), [2.0]]))
    blocks = []
    for start in range(0, config.points, step):
        y, xi_s, xi0 = np.split(draws[start:start + step], [m, m + frame.dim_iso], axis=1)
        point, kept = kept_section(y, P_SKIP_RAY)
        rel = ray_relation_residuals(pair, point)
        res_minus, res_plus = u1_berry_residuals(point)
        fs_gap = np.abs(point.fs_metric - point.fs_metric_state).max(axis=(1, 2))
        fact = factorization_residual(pair, point, xi_s[kept], xi0[kept, 0])
        blocks.append(np.column_stack([*rel, res_plus, res_minus, fs_gap, fact]))
    table = np.concatenate(blocks)
    skipped = config.points - len(table)

    report = base_report("verify-ray", config.echo(), config.seed)
    report["points_requested"] = config.points
    report["points_evaluated"] = len(table)
    report["points_skipped_low_amplitude"] = skipped
    report["bridge_points"] = bridge_points

    if skipped > config.points / 2:
        print("error: more than half of the sweep points were skipped", file=sys.stderr)
        report["inconclusive"] = True
        return finish_report(report, [], out_path)

    worst = table.max(axis=0)
    # the sign report: which proportionality convention the numerics satisfy
    report["u1_berry_sign"] = {
        "residual_with_plus_coefficient": float(worst[4]),
        "residual_with_minus_coefficient": float(worst[3]),
        "resolved_coefficient": f"-sqrt({config.n}/(2*({config.n}-1)))",
    }

    tols = config.tolerances
    checks = [
        make_check("ray-phase-identity", worst[0], tols),
        make_check("ray-modulus-identity", worst[1], tols),
        make_check("ray-orthogonality", worst[2], tols),
        make_check("u1-berry-proportionality", worst[3], tols),
        make_check("fs-metric-agreement", worst[5], tols),
        make_check("factorization", worst[6], tols),
    ]

    if bridge_points:
        rounds = []
        done = attempts = 0
        while done < bridge_points and attempts < 4 * bridge_points:
            count = min(bridge_points - done, 4 * bridge_points - attempts, step)
            attempts += count
            point, _ = kept_section(draw(count, y_half), P_SKIP)
            result = bridge_residuals(pair, point)
            rounds.append(np.column_stack(list(vars(result).values())))  # fields, uncopied
            done += len(point.y)
        report["bridge_points_evaluated"] = done
        if done == 0:
            print("error: no usable bridge points found", file=sys.stderr)
            report["inconclusive"] = True
            return finish_report(report, checks, out_path)
        # residuals, then grad0_phase and u1_frame_component about their values
        bridge = np.abs(np.concatenate(rounds) - [0, 0, 0, u1_eigenvalue(config.n), 1, 0])
        bridge_worst = bridge.max(axis=0)
        report["bridge_gauge_sign"] = {
            "residual_with_minus_berry": float(bridge_worst[0]),
            "best_residual_with_plus_berry": float(bridge[:, 5].min()),
            "resolved_form": "d_eta - berry (= d_eta + sqrt(2(n-1)/n) u1)",
        }
        checks.extend(
            [
                make_check("bridge-phase", bridge_worst[0], tols),
                make_check("bridge-mixed", bridge_worst[1], tols),
                make_check("bridge-modulus", bridge_worst[2], tols),
                make_check("u1-phase-rate", bridge_worst[3], tols),
                make_check("u1-frame-component", bridge_worst[4], tols),
            ]
        )

    return finish_report(report, checks, out_path)


# ---------------------------------------------------------------------------
# su2-demo


def run_su2_demo(grid: int, out_path: str | None, csv_path: str | None) -> int:
    """Closed-form demo on the SU(2) polar chart with the spin-flip pair.

    The amplitude is i sin(chi) sin(theta) e^{i phi}: modulus squared
    sin^2(chi) sin^2(theta), phase phi + pi/2, and |grad eta|^2 = 1/p.
    """
    if grid < 2:
        raise ConfigError("--grid must be >= 2")
    chart = su2_polar_chart()
    pair = StatePair(
        np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)
    )
    chis = np.linspace(0.2, np.pi - 0.2, grid)
    thetas = np.linspace(0.2, np.pi - 0.2, grid)
    phis = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)

    table = np.empty((grid**3, 8))
    table[:, :3] = np.stack(np.meshgrid(chis, thetas, phis, indexing="ij"), axis=-1).reshape(-1, 3)
    step = chart.block_rows()
    for start in range(0, len(table), step):
        block = table[start:start + step]
        grad = phase_gradient(pair, chart, block[:, :3])
        block[:, 3:6] = np.column_stack([grad.p, grad.eta, grad.phase_grad_sq])
        block[:, 6] = 1.0 / grad.p
        block[:, 7] = np.abs(grad.phase_grad_sq - block[:, 6])

    if csv_path:
        write_csv(
            csv_path,
            ["chi", "theta", "phi", "p", "eta", "grad_eta_sq", "inv_p", "residual"],
            table.T,
        )

    chi, theta, phi, p, eta = table[:, :5].T
    report = base_report("su2-demo", {"grid": grid}, seed=0)
    report["rows"] = len(table)
    checks = [
        make_check("closed-form-modulus", np.max(np.abs(p - np.sin(chi)**2 * np.sin(theta)**2))),
        make_check("closed-form-phase", np.max(np.abs(principal_angle(eta - (phi + np.pi / 2))))),
        make_check("gradient-inverse-modulus", np.max(table[:, 7])),
    ]
    return finish_report(report, checks, out_path)


# ---------------------------------------------------------------------------
# superosc


def run_superosc(
    config: SweepConfig,
    samples: int,
    t_min: float,
    t_max: float,
    out_path: str | None,
    csv_path: str | None,
) -> int:
    """Aligned-generator superoscillation report for one state pair."""
    if samples < 2:
        raise ConfigError("--samples must be >= 2")
    if not (np.isfinite(t_min) and np.isfinite(t_max) and t_min < t_max):
        raise ConfigError("--t-min and --t-max must be finite with --t-min < --t-max")
    if not np.isfinite(t_max - t_min):
        raise ConfigError("the width --t-max - --t-min is not finite")
    rng = np.random.default_rng(config.seed)
    pair = resolve_pair(config, rng)
    basis = build_gellmann_basis(config.n)
    try:
        gen = aligned_generator(pair, basis)
    except SunPhaseError as exc:
        raise ConfigError(f"cannot align generator: {exc}") from exc
    if not np.isfinite(max(abs(t_min), abs(t_max)) * float(np.max(np.abs(gen.eigenvalues)))):
        raise ConfigError("--t-min/--t-max times the largest eigenvalue is not finite")
    result = superoscillation_report(pair, gen, t_range=(t_min, t_max), samples=samples)

    if csv_path:
        trace = result.trace
        write_csv(
            csv_path,
            ["t", "re_amplitude", "im_amplitude", "omega", "defined"],
            [trace.t, trace.amplitude.real, trace.amplitude.imag, trace.omega,
             trace.defined.astype(np.int64)],
        )

    report = base_report("superosc", config.echo(), config.seed)
    report["samples"] = samples
    report["t_range"] = [t_min, t_max]
    report["omega_zero"] = result.omega_zero
    report["max_abs_eigenvalue"] = result.max_abs_eigenvalue
    report["gradient_bound"] = result.gradient_bound
    report["boundary_case"] = result.boundary
    report["superoscillatory_intervals"] = [[a, b] for a, b in result.intervals]
    report["spectrum"] = [
        {"eigenvalue": float(l), "abs_coefficient": float(abs(c))}
        for l, c in zip(result.trace.eigenvalues, result.trace.fourier_c)
    ]
    flagged = int(np.sum(~result.trace.defined))
    report["flagged_samples"] = flagged

    checks = [
        make_check(
            "superoscillatory-at-zero", max(0.0, result.max_abs_eigenvalue - result.omega_zero)
        ),
        make_check(
            "eigenvalue-cap", max(0.0, result.max_abs_eigenvalue - result.gradient_bound)
        ),
        make_check("fourier-reconstruction", result.trace.fourier_residual),
    ]
    return finish_report(report, checks, out_path)


# ---------------------------------------------------------------------------
# vortex


def build_loop(kind: str, chi: float, theta: float, phi: float, samples: int, reverse: bool):
    # 64 samples guarantee unambiguous unwrapping for unit-winding loops;
    # anything coarser is refined adaptively anyway, but keep the floor
    if samples < 64:
        raise ConfigError("--samples must be >= 64")
    ts = np.linspace(0.0, 2 * np.pi, samples + 1)
    if kind == "phi-circle":
        loop = np.column_stack([np.full_like(ts, chi), np.full_like(ts, theta), ts])
    elif kind == "contractible":
        radius = 0.25
        loop = np.column_stack(
            [chi + radius * np.cos(ts), theta + radius * np.sin(ts), np.full_like(ts, phi)]
        )
    else:
        raise ConfigError(f"unknown loop kind '{kind}'")
    if reverse:
        loop = loop[::-1]
    return loop


def run_vortex(
    kind: str,
    chi: float,
    theta: float,
    phi: float,
    samples: int,
    reverse: bool,
    expect: int | None,
    out_path: str | None,
) -> int:
    """Winding of the spin-flip amplitude phase around a loop on SU(2)."""
    chart = su2_polar_chart()
    pair = StatePair(
        np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)
    )
    loop = build_loop(kind, chi, theta, phi, samples, reverse)
    if not np.all(chart.contains(loop)):
        raise ConfigError(f"the {kind} loop leaves the domain of chart '{chart.label}'")
    result = vortex_winding(pair, chart, loop)

    config_echo = {
        "loop": kind,
        "chi": chi,
        "theta": theta,
        "phi": phi,
        "samples": samples,
        "reverse": reverse,
    }
    report = base_report("vortex", config_echo, seed=0)
    report["winding"] = result.winding
    report["max_phase_step"] = result.max_phase_step
    report["loop_points"] = len(loop)

    checks = []
    if expect is not None:
        checks.append(make_check("winding", abs(result.winding - expect)))
    return finish_report(report, checks, out_path)


# ---------------------------------------------------------------------------
# argument parsing


_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)


def _add_sweep_args(sub, default_points: int):
    sub.add_argument("--n", type=int, required=True, help="group dimension (>= 2)")
    sub.add_argument("--points", type=int, default=default_points)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--pair",
        choices=["random", "spin-flip", "explicit"],
        default="random",
        help="state pair: fresh random states per point, the first two "
        "standard basis vectors, or explicit --psi-i/--psi-f",
    )
    sub.add_argument("--psi-i", help="comma-separated complex entries")
    sub.add_argument("--psi-f", help="comma-separated complex entries")
    sub.add_argument(
        "--sample-scale",
        type=float,
        default=1.0,
        help="shrink the sampling box about its center (diagnostics)",
    )
    sub.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a named check tolerance (repeatable)",
    )
    sub.add_argument("--out", help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sun-phase",
        description="Numerical verification of phase/modulus gradient "
        "identities for SU(n) transition amplitudes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    group = commands.add_parser(
        "verify-group", help="sweep the group-manifold gradient identities"
    )
    _add_sweep_args(group, default_points=200)
    group.add_argument("--chart", choices=["exp", "su2-polar", "cartan"], default="exp")
    group.add_argument("--per-point", action="store_true")

    ray = commands.add_parser(
        "verify-ray", help="sweep the ray-space identities and bridge checks"
    )
    _add_sweep_args(ray, default_points=100)
    ray.add_argument("--bridge-points", type=int, default=50)

    demo = commands.add_parser("su2-demo", help="closed-form SU(2) grid demo")
    demo.add_argument("--grid", type=int, default=20)
    demo.add_argument("--out")
    demo.add_argument("--csv")

    osc = commands.add_parser("superosc", help="aligned-generator phase trace")
    osc.add_argument("--n", type=int, required=True)
    osc.add_argument("--seed", type=int, default=0)
    osc.add_argument("--pair", choices=["random", "spin-flip", "explicit"], default="random")
    osc.add_argument("--psi-i")
    osc.add_argument("--psi-f")
    osc.add_argument("--samples", type=int, default=1024)
    osc.add_argument("--t-min", type=float, default=-np.pi)
    osc.add_argument("--t-max", type=float, default=np.pi)
    osc.add_argument("--out")
    osc.add_argument("--csv")

    vortex = commands.add_parser("vortex", help="phase winding around a loop")
    vortex.add_argument("--loop", choices=["phi-circle", "contractible"], default="phi-circle")
    vortex.add_argument("--chi", type=float, default=np.pi / 2)
    vortex.add_argument("--theta", type=float, default=0.1)
    vortex.add_argument("--phi", type=float, default=0.3)
    vortex.add_argument("--samples", type=int, default=64)
    vortex.add_argument("--reverse", action="store_true")
    vortex.add_argument("--expect", type=int)
    vortex.add_argument("--out")
    # argparse takes "-1e-3" for a flag: its own pattern of negative numbers has no exponent
    for sub in (parser, *commands.choices.values()):
        sub._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _parse_tolerances(entries: list[str]) -> dict:
    out = {}
    for entry in entries:
        if "=" not in entry:
            raise ConfigError(f"--tol expects NAME=VALUE, got '{entry}'")
        name, _, value = entry.partition("=")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in '{entry}'") from exc
        if not np.isfinite(out[name]):
            raise ConfigError(f"non-finite tolerance value in '{entry}'")
    return out


def _config_from_args(args) -> SweepConfig:
    """Sweep configuration of a verify-group, verify-ray or superosc command;
    options the command lacks keep their `SweepConfig` defaults."""
    if args.n < 2:
        raise ConfigError("--n must be >= 2")
    config = SweepConfig(n=args.n, seed=args.seed, pair_kind=args.pair)
    for name in ("chart", "points", "sample_scale", "per_point"):
        if hasattr(args, name):
            setattr(config, name, getattr(args, name))
    if not np.isfinite(config.sample_scale):
        raise ConfigError("--sample-scale is non-finite")
    if config.sample_scale <= 0.0:
        raise ConfigError("--sample-scale must be > 0")
    config.tolerances = _parse_tolerances(getattr(args, "tol", []))
    unknown = sorted(set(config.tolerances) - set(CHECK_GATES[args.command]))
    if unknown:
        raise ConfigError(f"{args.command} reports no check named {', '.join(unknown)}")
    if args.pair == "explicit":
        if not args.psi_i or not args.psi_f:
            raise ConfigError("--pair explicit requires --psi-i and --psi-f")
        config.psi_i = _parse_state(args.psi_i, args.n, "--psi-i")
        config.psi_f = _parse_state(args.psi_f, args.n, "--psi-f")
    return config


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "verify-group":
            return run_group_sweep(_config_from_args(args), out_path=args.out)
        if args.command == "verify-ray":
            return run_ray_sweep(
                _config_from_args(args), bridge_points=args.bridge_points, out_path=args.out
            )
        if args.command == "su2-demo":
            return run_su2_demo(args.grid, out_path=args.out, csv_path=args.csv)
        if args.command == "superosc":
            return run_superosc(
                _config_from_args(args), args.samples, args.t_min, args.t_max, args.out, args.csv
            )
        if args.command == "vortex":
            for flag in ("chi", "theta", "phi"):
                if not np.isfinite(getattr(args, flag)):
                    raise ConfigError(f"--{flag} is non-finite")
            return run_vortex(
                args.loop,
                args.chi,
                args.theta,
                args.phi,
                args.samples,
                args.reverse,
                args.expect,
                args.out,
            )
        raise ConfigError(f"unknown command '{args.command}'")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MemoryError as exc:  # a size whose arrays cannot be allocated
        print(f"error: out of memory: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except SunPhaseError as exc:  # raised inside the library: one line, no traceback
        print(f"error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_CHECK_FAILURE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

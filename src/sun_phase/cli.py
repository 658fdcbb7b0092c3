"""Command-line driver: verification sweeps, demos, and scans.

Emits machine-readable JSON reports (schema "sun-phase/1") and CSV
grids.  Reports are byte-identical for identical configuration and
seed: the RNG is seeded explicitly, floats are printed with 17
significant digits, and no timestamps are recorded.

`dump_report` writes a report in the layout of `json.dumps(indent=2)`,
each float as `%.17g` (equal to `format(x, ".17g")`) writes it, and
raises ValueError for a nan or infinity wherever it sits.  A list of
only Python and numpy float64 values is written by one `%` template
after one finiteness check, and the `--per-point` rows of
`verify-group`, held as one float64 array (`PerPointTable`), by one `%`
over the whole array.

Every command evaluates stacks of points: the sweeps draw every point
in the order of the per-point draws, then evaluate blocks of
`Chart.block_rows()` points.  `verify-group` makes two RNG calls per
point, one `standard_normal(4n)` for the normals of two `haar_state`
calls and then one `random(m)` for x (a fixed pair draws no normals),
scales the table of x in place to the sampling box, bit for bit
`uniform(low, high)`, and normalizes all random pairs as one stack.
`verify-group --chart cartan` evaluates every pair on the chart of e_0,
rotated once to (e_0, W^dag psi_f) by W = [psi_i | complement]
(`coset._reference_pair`).
`verify-ray` evaluates each block of section points, the slice
(y, 0, 0) of the full Cartan chart, once, and every ray and bridge check
reads that section point; it draws bridge candidates in rounds of at
most the points still missing, into columns allocated for every bridge
point.  `su2-demo` evaluates its grid in such blocks and `vortex` its
loop.  The low-amplitude skip reads p from the block's phase gradient
or section states, and `vortex` takes its largest phase step from the
phases the winding number was summed from.
A report lists the checks its command measured, by name, in the order
of `tolerances.CHECK_GATES[command]`, each gated by its `--tol` override
or the default gate there.

Each command is one runner, `run_*(args)`, that validates and reads the
parsed namespace itself; validated values (the `--tol` overrides, the
unit states of an explicit pair) are rebound there, and a report's
`config` echoes the namespace (`_echo`).  `main` only parses, dispatches
and maps errors to exit codes.  The parser is built on the first `main`
call and shared by later ones; it holds each runner by name, and every
call looks the name up in this module, so rebinding `cli.run_*` takes
effect on the next call.

Exit codes: 0 all checks pass, 1 check failure or a library error (a guard
such as unitarity failing at a kept point: one `error:` line for the first
such point in draw order), 2 configuration error (including arguments
outside the domain of a chart, a loop or a trace, where `superosc` reports
the trace's own `DomainError` after `cannot trace the phase:`, non-finite
numbers, a `--sample-scale` that is not positive or that widens the
sampling box of `verify-group` or `verify-ray` beyond the largest double,
a negative `--seed`, `--psi-i` or `--psi-f` without `--pair explicit`, a
negative `--tol` value, `--tol` names the command does not report or that
are given twice, sizes whose arrays cannot be allocated, and a `--out` or
`--csv` path that cannot be written), 3 inconclusive sweep (more than half
of the points skipped).
"""
from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from . import __version__
from ._csvformat import write_csv
from .algebra import StatePair, _unit_rows, build_gellmann_basis, haar_state
from .amplitude import (
    _modulus_sq,
    min_gradient_bound_sq,
    phase_gradient,
    principal_angle,
    vortex_winding,
)
from .charts import Chart, exp_chart, su2_polar_chart
from .coset import (
    _reference_pair,
    bridge_residuals,
    build_cartan_frame,
    factorization_residual,
    ray_relation_residuals,
    section,
    u1_berry_residuals,
    u1_eigenvalue,
)
from .errors import DomainError, SunPhaseError
from .superosc import aligned_generator, superoscillation_report
from .tolerances import CHECK_GATES, P_BRIDGE, P_SKIP, P_SKIP_RAY

SCHEMA = "sun-phase/1"

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_INCONCLUSIVE = 3


class ConfigError(SunPhaseError, ValueError):
    """Invalid command-line configuration."""


# ---------------------------------------------------------------------------
# deterministic serialization


_NON_FINITE = "non-finite value in report"

_FLOAT_TYPES = frozenset({float, np.float64})  # the list values one template writes


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(_NON_FINITE)
    return "%.17g" % x


class PerPointTable:
    """The `--per-point` list of `verify-group` as one float64 array: row
    k of `values` holds point k's `x`, then its `p`, then its three
    identity residuals, and is written as the object
    `{"x": [...], "p": ..., "residuals": [...]}`."""

    def __init__(self, values: np.ndarray):
        self.values = values


def _float_list(count: int, pad: str) -> str:
    """The `%` template of a list of `count` >= 1 floats closed at indent `pad`."""
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(["%.17g"] * count) + "\n" + pad + "]"


def _per_point_text(table: PerPointTable, pad: str) -> str:
    """The list of a PerPointTable's rows, every cell through one template."""
    values = table.values
    if not np.isfinite(values).all():
        raise ValueError(_NON_FINITE)
    if len(values) == 0:
        return "[]"
    inner = pad + "  "  # the indent of each point's object, then of its fields
    field = inner + "  "
    dim = values.shape[1] - 4  # x takes the cells before p and the residuals
    row = (
        f'{inner}{{\n{field}"x": {_float_list(dim, field)},\n{field}"p": %.17g,\n'
        f'{field}"residuals": {_float_list(3, field)}\n{inner}}}'
    )
    return ("[\n" + ",\n".join([row] * len(values)) + "\n" + pad + "]") % tuple(
        values.ravel().tolist()
    )


def _json(obj, pad: str = "") -> str:
    """`obj` as JSON text indented by two spaces a level, its lines after
    the first prefixed with `pad`."""
    if isinstance(obj, PerPointTable):
        return _per_point_text(obj, pad)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = ",\n".join(f'{inner}"{key}": {_json(value, inner)}' for key, value in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        if _FLOAT_TYPES.issuperset(map(type, obj)):  # every value through one template
            if not all(map(math.isfinite, obj)):
                raise ValueError(_NON_FINITE)
            return _float_list(len(obj), pad) % tuple(obj)
        inner = pad + "  "
        return "[\n" + ",\n".join(inner + _json(value, inner) for value in obj) + "\n" + pad + "]"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)}")


def dump_report(report: dict) -> str:
    return _json(report) + "\n"


# ---------------------------------------------------------------------------
# configuration


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
    largest = np.abs(v.view(float)).max()
    if largest == 0.0:
        raise ConfigError(f"{name} is the zero vector")
    # a largest part far from 1 divided out, the sum of squares stays in range
    scale = 1.0 if 1e-150 < largest < 1e150 else float(largest)
    v = (v.view(float) / scale).view(complex)
    norm = np.linalg.norm(v)
    size = float(norm) * scale  # a Python float: past the largest double, inf with no warning
    if abs(size - 1.0) > 1e-6:
        deviation = f"{abs(size - 1.0):.2e}" if size < np.inf else "more than 1.8e+308"
        print(f"warning: {name} norm deviates by {deviation}; normalizing", file=sys.stderr)
    return v / norm


def _check_addressable(option: str, value: int, nbytes: int) -> None:
    """ConfigError when `option` sizes arrays of `nbytes` bytes in all, more
    than numpy can address (numpy raises ValueError, not MemoryError, there)."""
    if nbytes > np.iinfo(np.intp).max:
        raise ConfigError(f"{option} {value} needs arrays larger than numpy can address")


def _spin_flip_pair(n: int) -> StatePair:
    """The first two standard basis vectors of C^n, |0> to |1>."""
    return StatePair(*np.eye(n, dtype=complex)[:2])


def resolve_pair(args, rng: np.random.Generator) -> StatePair:
    if args.pair == "random":
        return StatePair(haar_state(args.n, rng), haar_state(args.n, rng))
    if args.pair == "spin-flip":
        return _spin_flip_pair(args.n)
    return StatePair(args.psi_i, args.psi_f)


def resolve_chart(args) -> Chart:
    """The chart of the sweep; the cartan chart is that of the frame of e_0."""
    if args.chart == "exp":
        return exp_chart(build_gellmann_basis(args.n))
    if args.chart == "su2-polar":
        if args.n != 2:
            raise ConfigError("chart 'su2-polar' requires --n 2")
        return su2_polar_chart()
    e_0 = np.eye(args.n, dtype=complex)[0]
    return build_cartan_frame(e_0).chart


def _scaled_box(lo, hi, scale: float, of: str):
    """(low, high, width) of the box [lo, hi] scaled by `scale` about its centre."""
    with np.errstate(over="ignore"):  # an overflowing box is rejected below
        half = (hi - lo) / 2.0 * scale
        low, high = (lo + hi) / 2.0 - half, (lo + hi) / 2.0 + half
        width = high - low
    if not np.all(np.isfinite(width)):
        raise ConfigError(
            f"--sample-scale {scale} makes the sampling box of {of} wider than the largest double"
        )
    return low, high, width


# ---------------------------------------------------------------------------
# report assembly


def _checks(command: str, worst: dict, overrides: dict | None = None) -> list[dict]:
    """The check records of `command`: one for each name of
    `CHECK_GATES[command]` that `worst` holds, in that order, gating the
    worst residual by `overrides[name]`, else by the default gate."""
    records = []
    for name, gate in CHECK_GATES[command].items():
        if name in worst:
            tolerance = (overrides or {}).get(name, gate)
            records.append({
                "name": name,
                "max_residual": float(worst[name]),
                "tolerance": float(tolerance),
                "pass": bool(worst[name] <= tolerance),
            })
    return records


_SWEEP_ECHO = ("n", "chart", "points", "seed", "pair", "sample_scale")  # sweeps and superosc


def _echo(args, names) -> dict:
    """A report's `config`: the options of `names` the command has, in that
    order, then an explicit pair's states and the sorted `--tol` overrides."""
    out = {name: getattr(args, name) for name in names if hasattr(args, name)}
    if getattr(args, "psi_i", None) is not None:
        out["psi_i"] = [format_float(v) for v in np.ravel([args.psi_i.real, args.psi_i.imag])]
        out["psi_f"] = [format_float(v) for v in np.ravel([args.psi_f.real, args.psi_f.imag])]
    if getattr(args, "tol", None):
        out["tolerance_overrides"] = dict(sorted(args.tol.items()))
    return out


def base_report(command: str, config_echo: dict, seed: int) -> dict:
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "config": config_echo,
        "seed": seed,
    }


def _sweep_report(command: str, args, evaluated: int, **extra) -> dict:
    """Report of a sweep that kept `evaluated` of its points: the point
    counts, then `extra`.  More than half of the points skipped marks it
    inconclusive, with an `error:` line on stderr."""
    skipped = args.points - evaluated
    report = base_report(command, _echo(args, _SWEEP_ECHO), args.seed)
    report["points_requested"] = args.points
    report["points_evaluated"] = evaluated
    report["points_skipped_low_amplitude"] = skipped
    report.update(extra)
    if skipped > args.points / 2:
        print("error: more than half of the sweep points were skipped", file=sys.stderr)
        report["inconclusive"] = True
    return report


def _stacked(blocks: list[dict]) -> dict:
    """The named columns of a list of blocks, each concatenated over the blocks."""
    return {name: np.concatenate([block[name] for block in blocks]) for name in blocks[0]}


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


def run_group_sweep(args) -> int:
    """Sweep the group-manifold gradient identities over random points."""
    _check_sweep_args(args)
    rng = np.random.default_rng(args.seed)
    n = args.n
    fixed = None if args.pair == "random" else resolve_pair(args, rng)
    chart = resolve_chart(args)
    low, _, width = _scaled_box(*chart.sample_box.T, args.sample_scale, f"chart '{chart.label}'")

    # per point, the draws of two `haar_state` calls (psi_i re, im, psi_f re,
    # im) in one call, then x's unit draws: a normal takes a variable number
    # of stream words, so x is drawn in this loop.  Scaled in place
    # afterwards, each x is `uniform(low, high)` bit for bit: low + width * u
    gauss = np.empty((args.points, 2, 2, n)) if fixed is None else None
    xs = np.empty((args.points, chart.dim_m))
    for k in range(args.points):
        if fixed is None:
            rng.standard_normal(out=gauss[k].reshape(4 * n))
        rng.random(out=xs[k])
    np.multiply(xs, width, out=xs)
    np.add(xs, low, out=xs)
    with np.errstate(over="ignore"):  # a norm past the largest double is inf: outside
        inside = chart.contains(xs)
    if not np.all(inside):
        raise ConfigError(
            f"--sample-scale {args.sample_scale} draws points outside chart '{chart.label}'"
        )
    # psi_i and psi_f as contiguous stacks, each row normalized as haar_state does
    if fixed is None:
        pair = StatePair(*np.ascontiguousarray(_unit_rows(gauss).swapaxes(0, 1)))
    else:
        pair = fixed
    if args.chart == "cartan":  # the chart of psi_i is W U_e0 W^dag
        pair = _reference_pair(pair)

    step = chart.block_rows()
    bound = min_gradient_bound_sq(n)
    blocks = []
    for start in range(0, args.points, step):
        rows = slice(start, start + step)
        grad = phase_gradient(pair.rows(rows), chart, xs[rows])
        res = grad.residuals()
        columns = {
            "phase-identity": res.phase,
            "modulus-identity": res.modulus,
            "orthogonality": res.cross,
            "reconstruction": abs(grad.reconstructed_modulus() - np.sqrt(grad.p)) / np.sqrt(grad.p),
            "gradient-lower-bound": np.maximum(0.0, bound - grad.phase_grad_sq),
            "p": grad.p,
            "x": xs[rows],
        }
        kept = grad.p > P_SKIP  # NaN rows have p < P_GRAD
        blocks.append({name: column[kept] for name, column in columns.items()})
    table = _stacked(blocks)

    report = _sweep_report("verify-group", args, len(table["p"]))
    if report.get("inconclusive"):
        return finish_report(report, [], args.out)

    if args.per_point:  # one row per kept point: x, p and the three identity residuals
        names = ("x", "p", "phase-identity", "modulus-identity", "orthogonality")
        report["per_point"] = PerPointTable(np.column_stack([table[name] for name in names]))
    worst = {name: table[name].max() for name in CHECK_GATES["verify-group"]}
    return finish_report(report, _checks("verify-group", worst, args.tol), args.out)


# ---------------------------------------------------------------------------
# verify-ray


def run_ray_sweep(args) -> int:
    """Sweep the ray-space identities, connection proportionality, and the
    group-to-ray bridge identities on the section."""
    _check_sweep_args(args)
    bridge_points = args.bridge_points
    if bridge_points < 0:
        raise ConfigError("--bridge-points must be >= 0")
    _check_addressable("--bridge-points", bridge_points, 48 * bridge_points)  # six columns
    rng = np.random.default_rng(args.seed)
    pair = resolve_pair(args, rng)
    frame = build_cartan_frame(pair.psi_i)
    step = frame.chart.block_rows()  # the chart every section of the sweep reuses

    m = frame.dim_coset
    y_box = np.full(m, (np.pi / 2) * 0.62 / np.sqrt(m))
    _, y_half, _ = _scaled_box(-y_box, y_box, args.sample_scale, "the section")

    def draw(count, half):
        """`count` points of uniform draws in [-half, half]; y comes first."""
        rows = rng.uniform(-half, half, (count, len(half)))
        with np.errstate(over="ignore"):  # a norm past the largest double is inf: outside
            outside = np.linalg.norm(rows[:, :m], axis=1) >= np.pi / 2
        if outside.any():
            raise ConfigError(
                f"--sample-scale {args.sample_scale} draws points outside the |y| < pi/2 ball"
            )
        return rows

    def kept_section(y, p_skip):
        """The section at the rows of y with p > p_skip, and their mask."""
        point = section(frame, y)
        amp = point.overlap(pair.psi_f)
        kept = _modulus_sq(amp) > p_skip
        return (point if kept.all() else point.rows(kept)), kept

    # per point: y, then xi_s, then xi0
    draws = draw(args.points, np.concatenate([y_half, np.full(frame.dim_iso, 0.5), [2.0]]))
    blocks = []
    for start in range(0, args.points, step):
        y, xi_s, xi0 = np.split(draws[start:start + step], [m, m + frame.dim_iso], axis=1)
        point, kept = kept_section(y, P_SKIP_RAY)
        rel = ray_relation_residuals(pair, point)
        with_plus, with_minus = u1_berry_residuals(point)
        blocks.append({
            "ray-phase-identity": rel.phase,
            "ray-modulus-identity": rel.modulus,
            "ray-orthogonality": rel.cross,
            "u1-berry-proportionality": with_minus,
            "u1-berry-plus-coefficient": with_plus,  # the other sign, for the sign report
            "fs-metric-agreement": np.abs(point.fs_metric - point.fs_metric_state).max(axis=(1, 2)),
            "factorization": factorization_residual(pair, point, xi_s[kept], xi0[kept, 0]),
        })
    table = _stacked(blocks)

    report = _sweep_report(
        "verify-ray", args, len(table["factorization"]), bridge_points=bridge_points
    )
    if report.get("inconclusive"):
        return finish_report(report, [], args.out)

    worst = {name: column.max() for name, column in table.items()}
    # the sign report: which proportionality convention the numerics satisfy
    report["u1_berry_sign"] = {
        "residual_with_plus_coefficient": float(worst["u1-berry-plus-coefficient"]),
        "residual_with_minus_coefficient": float(worst["u1-berry-proportionality"]),
        "resolved_coefficient": f"-sqrt({args.n}/(2*({args.n}-1)))",
    }

    if bridge_points:
        # the last name is the other gauge sign, for the sign report
        names = ("bridge-phase", "bridge-mixed", "bridge-modulus", "u1-phase-rate",
                 "u1-frame-component", "bridge-phase-plus-berry")
        columns = np.empty((len(names), bridge_points))  # each round fills its rows
        done = attempts = 0
        while done < bridge_points and attempts < 4 * bridge_points:
            count = min(bridge_points - done, 4 * bridge_points - attempts, step)
            attempts += count
            point, _ = kept_section(draw(count, y_half), P_BRIDGE)  # the bridge's floor
            result = bridge_residuals(pair, point)
            columns[:, done:done + len(point.y)] = (
                result.residual_phase,
                result.residual_mixed,
                result.residual_modulus,
                np.abs(result.grad0_phase - u1_eigenvalue(args.n)),
                np.abs(result.u1_frame_component - 1.0),
                result.alt_residual_phase,
            )
            done += len(point.y)
        report["bridge_points_evaluated"] = done
        if done == 0:
            print("error: no usable bridge points found", file=sys.stderr)
            report["inconclusive"] = True
        else:
            bridge = dict(zip(names, columns[:, :done]))
            worst.update((name, column.max()) for name, column in bridge.items())
            report["bridge_gauge_sign"] = {
                "residual_with_minus_berry": float(worst["bridge-phase"]),
                "best_residual_with_plus_berry": float(bridge["bridge-phase-plus-berry"].min()),
                "resolved_form": "d_eta - berry (= d_eta + sqrt(2(n-1)/n) u1)",
            }

    return finish_report(report, _checks("verify-ray", worst, args.tol), args.out)


# ---------------------------------------------------------------------------
# su2-demo


def run_su2_demo(args) -> int:
    """Closed-form demo on the SU(2) polar chart with the spin-flip pair.

    The amplitude is i sin(chi) sin(theta) e^{i phi}: modulus squared
    sin^2(chi) sin^2(theta), phase phi + pi/2, and |grad eta|^2 = 1/p.
    """
    grid = args.grid
    if grid < 2:
        raise ConfigError("--grid must be >= 2")
    _check_addressable("--grid", grid, 64 * grid**3)  # the (grid^3, 8) table
    chart = su2_polar_chart()
    pair = _spin_flip_pair(2)
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

    if args.csv:
        write_csv(
            args.csv,
            ["chi", "theta", "phi", "p", "eta", "grad_eta_sq", "inv_p", "residual"],
            table.T,
        )

    chi, theta, phi, p, eta = table[:, :5].T
    report = base_report("su2-demo", _echo(args, ("grid",)), seed=0)
    report["rows"] = len(table)
    worst = {
        "closed-form-modulus": np.max(np.abs(p - np.sin(chi)**2 * np.sin(theta)**2)),
        "closed-form-phase": np.max(np.abs(principal_angle(eta - (phi + np.pi / 2)))),
        "gradient-inverse-modulus": np.max(table[:, 7]),
    }
    return finish_report(report, _checks("su2-demo", worst), args.out)


# ---------------------------------------------------------------------------
# superosc


def run_superosc(args) -> int:
    """Aligned-generator superoscillation report for one state pair."""
    _check_sweep_args(args)
    _check_addressable("--samples", args.samples, 32 * args.samples)  # t, amplitude, omega
    pair = resolve_pair(args, np.random.default_rng(args.seed))
    try:
        gen = aligned_generator(pair, build_gellmann_basis(args.n))
    except SunPhaseError as exc:
        raise ConfigError(f"cannot align generator: {exc}") from exc
    try:
        result = superoscillation_report(pair, gen, (args.t_min, args.t_max), args.samples)
    except DomainError as exc:  # --samples, --t-min or --t-max out of the trace's domain
        raise ConfigError(f"cannot trace the phase: {exc}") from exc

    if args.csv:
        trace = result.trace
        write_csv(
            args.csv,
            ["t", "re_amplitude", "im_amplitude", "omega"],
            [trace.t, trace.amplitude.real, trace.amplitude.imag, trace.omega],
        )

    report = base_report("superosc", _echo(args, _SWEEP_ECHO), args.seed)
    report["samples"] = args.samples
    report["t_range"] = [args.t_min, args.t_max]
    report["omega_zero"] = result.omega_zero
    report["max_abs_eigenvalue"] = result.max_abs_eigenvalue
    report["gradient_bound"] = result.gradient_bound
    report["boundary_case"] = result.boundary
    report["superoscillatory_intervals"] = [[a, b] for a, b in result.intervals]
    report["spectrum"] = [
        {"eigenvalue": float(l), "abs_coefficient": float(abs(c))}
        for l, c in zip(result.trace.eigenvalues, result.trace.fourier_c)
    ]
    report["flagged_samples"] = int(np.sum(np.isnan(result.trace.omega)))

    worst = {
        "superoscillatory-at-zero": max(0.0, result.max_abs_eigenvalue - result.omega_zero),
        "eigenvalue-cap": max(0.0, result.max_abs_eigenvalue - result.gradient_bound),
        "fourier-reconstruction": result.trace.fourier_residual,
    }
    return finish_report(report, _checks("superosc", worst), args.out)


# ---------------------------------------------------------------------------
# vortex


def build_loop(args):
    """The `--loop` of the vortex options as (samples + 1, 3) chart points."""
    # 64 samples guarantee unambiguous unwrapping for unit-winding loops;
    # anything coarser is refined adaptively anyway, but keep the floor
    if args.samples < 64:
        raise ConfigError("--samples must be >= 64")
    _check_addressable("--samples", args.samples, 24 * (args.samples + 1))
    ts = np.linspace(0.0, 2 * np.pi, args.samples + 1)
    loop = np.tile([args.chi, args.theta, args.phi], (len(ts), 1))
    if args.loop == "phi-circle":
        loop[:, 2] = ts
    else:  # contractible: a circle of radius 0.25 about (chi, theta)
        loop[:, 0] += 0.25 * np.cos(ts)
        loop[:, 1] += 0.25 * np.sin(ts)
    if args.reverse:
        loop = loop[::-1]
    return loop


def run_vortex(args) -> int:
    """Winding of the spin-flip amplitude phase around a loop on SU(2)."""
    for flag in ("chi", "theta", "phi"):
        if not np.isfinite(getattr(args, flag)):
            raise ConfigError(f"--{flag} is non-finite")
    chart = su2_polar_chart()
    pair = _spin_flip_pair(2)
    loop = build_loop(args)
    if not np.all(chart.contains(loop)):
        raise ConfigError(f"the {args.loop} loop leaves the domain of chart '{chart.label}'")
    result = vortex_winding(pair, chart, loop)

    echoed = _echo(args, ("loop", "chi", "theta", "phi", "samples", "reverse"))
    report = base_report("vortex", echoed, seed=0)
    report["winding"] = result.winding
    report["max_phase_step"] = result.max_phase_step
    report["loop_points"] = len(loop)

    worst = {} if args.expect is None else {"winding": abs(result.winding - args.expect)}
    return finish_report(report, _checks("vortex", worst), args.out)


# ---------------------------------------------------------------------------
# argument parsing


_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)


def _add_state_args(sub):
    sub.add_argument("--n", type=int, required=True, help="group dimension (>= 2)")
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


def _add_sweep_args(sub, default_points: int):
    _add_state_args(sub)
    sub.add_argument("--points", type=int, default=default_points)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command.  Built once, on the first call, and
    shared, so it is read-only.  Each subparser's `run` default is the
    name of its runner, which `main` looks up on every call."""
    parser = argparse.ArgumentParser(
        prog="sun-phase",
        description="Numerical verification of phase/modulus gradient "
        "identities for SU(n) transition amplitudes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    # each command names its runner; `main` looks the name up in this module on every call
    group = commands.add_parser(
        "verify-group", help="sweep the group-manifold gradient identities"
    )
    group.set_defaults(run="run_group_sweep")
    _add_sweep_args(group, default_points=200)
    group.add_argument("--chart", choices=["exp", "su2-polar", "cartan"], default="exp")
    group.add_argument("--per-point", action="store_true")

    ray = commands.add_parser(
        "verify-ray", help="sweep the ray-space identities and bridge checks"
    )
    ray.set_defaults(run="run_ray_sweep")
    _add_sweep_args(ray, default_points=100)
    ray.add_argument("--bridge-points", type=int, default=50)

    demo = commands.add_parser("su2-demo", help="closed-form SU(2) grid demo")
    demo.set_defaults(run="run_su2_demo")
    demo.add_argument("--grid", type=int, default=20)

    osc = commands.add_parser("superosc", help="aligned-generator phase trace")
    osc.set_defaults(run="run_superosc")
    _add_state_args(osc)
    osc.add_argument("--samples", type=int, default=1024)
    osc.add_argument("--t-min", type=float, default=-np.pi)
    osc.add_argument("--t-max", type=float, default=np.pi)

    vortex = commands.add_parser("vortex", help="phase winding around a loop")
    vortex.set_defaults(run="run_vortex")
    vortex.add_argument("--loop", choices=["phi-circle", "contractible"], default="phi-circle")
    vortex.add_argument("--chi", type=float, default=np.pi / 2)
    vortex.add_argument("--theta", type=float, default=0.1)
    vortex.add_argument("--phi", type=float, default=0.3)
    vortex.add_argument("--samples", type=int, default=64)
    vortex.add_argument("--reverse", action="store_true")
    vortex.add_argument("--expect", type=int)

    for sub in (demo, osc):
        sub.add_argument("--csv", help="write the CSV table here")
    for sub in commands.choices.values():
        sub.add_argument("--out", help="write the JSON report here instead of stdout")
    # argparse takes "-1e-3" for a flag: its own pattern of negative numbers has no exponent
    for sub in (parser, *commands.choices.values()):
        sub._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _parse_tolerances(entries: list[str]) -> dict:
    out = {}
    for entry in entries:
        name, equals, value = entry.partition("=")
        if not (name and equals):
            raise ConfigError(f"--tol expects NAME=VALUE, got '{entry}'")
        if name in out:  # the last entry would win, and a gate could loosen silently
            raise ConfigError(f"--tol names the check {name} twice")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in '{entry}'") from exc
        if not np.isfinite(out[name]):
            raise ConfigError(f"non-finite tolerance value in '{entry}'")
        if out[name] < 0.0:
            raise ConfigError(f"negative tolerance value in '{entry}'")
    return out


def _check_sweep_args(args) -> None:
    """Validate the options of a verify-group, verify-ray or superosc
    command.  Rebinds, never mutates, `args.tol` to the dict of overrides
    and, for an explicit pair, `args.psi_i` and `args.psi_f` to the unit
    states: the namespace holds the parser's own default objects."""
    n = args.n
    if n < 2:
        raise ConfigError("--n must be >= 2")
    _check_addressable("--n", n, 16 * n**4)  # the (n^2 - 1, n, n) generator basis
    scale = getattr(args, "sample_scale", 1.0)  # superosc has no sampling box
    if not np.isfinite(scale):
        raise ConfigError("--sample-scale is non-finite")
    if scale <= 0.0:
        raise ConfigError("--sample-scale must be > 0")
    args.tol = _parse_tolerances(getattr(args, "tol", []))
    unknown = sorted(set(args.tol) - set(CHECK_GATES[args.command]))
    if unknown:
        raise ConfigError(f"{args.command} reports no check named {', '.join(unknown)}")
    if args.pair == "explicit":
        if not args.psi_i or not args.psi_f:
            raise ConfigError("--pair explicit requires --psi-i and --psi-f")
        args.psi_i = _parse_state(args.psi_i, n, "--psi-i")
        args.psi_f = _parse_state(args.psi_f, n, "--psi-f")
    elif args.psi_i is not None or args.psi_f is not None:
        raise ConfigError("--psi-i and --psi-f need --pair explicit")
    if hasattr(args, "points"):
        if args.points < 1:
            raise ConfigError("--points must be >= 1")
        # the draws of every point: 4n normals and at most n^2 - 1 coordinates
        _check_addressable("--points", args.points, 8 * (4 * n + n * n) * args.points)
    if args.seed < 0:
        raise ConfigError("--seed must be >= 0")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return globals()[args.run](args)  # a rebound `run_*` is the one that runs
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:  # a report or CSV path that cannot be written
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
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

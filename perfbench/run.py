"""sun-phase benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload group-fd --seed 1 --seconds 30 --trace 0

Run from the repository root (or any checkout of it).  The workload runs
in a fresh single-threaded interpreter (worker.py) that calls
`sun_phase.cli.main(argv)` in-process from `src/`, as a closed loop with
one client.  Set-up is repeated in further fresh interpreters between
passes, one at a time, and reported as a median.

The host's speed drifts by tens of percent over minutes, so `points_per_s`
and `setup_s` are scaled, sample by sample, by the host speed that a fixed
reference kernel (calibrate.py) measures around each pass.

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` it carries the per-layer metrics of a traced run.  The
line before it is a detail record: every metric with quartiles and
sample counts, `failed_ratio`, and the environment stamp.  Spans of the
traced run are written to `.perfbench/spans-<workload>.csv`.

Exit codes: 0 measured and every output correct; 1 some output wrong
(the result line says `"correct": false`); 2 cannot run (no sources,
`SUN_PHASE_THREADS` set, or the worker crashed), with no result line.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_SECONDS = 120
RUN_BUDGET_S = 170  # every run ends within 180 s

# one BLAS thread: the work is small-matrix numpy, which is bound by the
# interpreter, so extra BLAS threads only compete for the cores
BLAS_PINS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# checks whose residual is clipped at zero (max(0, ...)) have no finite
# headroom and are left out of the per-layer check metrics
HEADROOM_CHECKS = (
    "phase-identity",
    "modulus-identity",
    "orthogonality",
    "reconstruction",
    "ray-phase-identity",
    "ray-modulus-identity",
    "ray-orthogonality",
    "u1-berry-proportionality",
    "fs-metric-agreement",
    "factorization",
    "bridge-phase",
    "bridge-mixed",
    "bridge-modulus",
    "u1-phase-rate",
    "u1-frame-component",
    "closed-form-modulus",
    "closed-form-phase",
    "gradient-inverse-modulus",
    "fourier-reconstruction",
)


class CannotRun(Exception):
    pass


def spawn_worker(args) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(time.time()),
    ]
    # own process group, so a timeout also stops the set-up probe it may be running
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise CannotRun(f"run exceeded {RUN_BUDGET_S} s") from exc
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise CannotRun(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def environment(seed: int, libraries: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        **libraries,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def headroom_by_check(reports: list[dict]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for report in reports:
        for name, decades in report.items():
            out.setdefault(name, []).append(decades)
    return out


def host_speed(kernels: list[float]) -> list[float]:
    """Per pass: nominal ÷ measured reference-kernel time around the pass.

    Kernel i runs right before pass i, and the last one after the last
    pass, so pass i sits between kernels i and i + 1.  Below 1 the host
    ran slower than the reference host does at its usual speed.
    """
    return [2 * calibrate.NOMINAL_S / (a + b) for a, b in zip(kernels, kernels[1:])]


def end_to_end(run: dict) -> tuple[dict, dict]:
    speed = host_speed(run["kernels"])
    raw_rates = [run["points_per_pass"] / wall for wall in run["plain_walls"]]
    # scaled to the reference host's usual speed, pass by pass
    rates = [rate / s for rate, s in zip(raw_rates, speed)]
    # set-up sample 0 precedes kernel 0; sample i + 1 follows pass i
    setups = [t * s for t, s in zip(run["setups"], speed[:1] + speed)]
    # the median over reports, not the strict minimum: a check's worst
    # residual scales like 1/p at the smallest amplitude drawn, so the
    # strict minimum follows one random point and spreads widely by seed
    checks = headroom_by_check(run["headroom"])
    headroom = min((statistics.median(v) for v in checks.values()), default=0.0)
    metrics = {
        "points_per_s": {"value": statistics.median(rates), "unit": "points/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MiB"},
        "min_headroom_decades": {"value": headroom, "unit": "decades"},
    }
    spread = {
        "points_per_s": quartiles(rates),
        "setup_s": quartiles(setups),
        "raw_points_per_s": quartiles(raw_rates),
        "raw_setup_s": quartiles(run["setups"]),
        "host_speed": quartiles(speed),
    }
    return metrics, spread


def per_layer(run: dict) -> dict:
    """Per-layer metrics: medians over the traced passes, per pass."""
    passes = run["layers"]
    points = run["points_per_pass"]
    metrics = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": float(value), "unit": unit}

    def stat(span: str, key: str) -> float:
        return statistics.median(p.get(span, {}).get(key, 0) for p in passes)

    units = {"calls": "count", "calls_per_point": "calls/point", "self_s": "s"}
    for span, stats in tracing.TRACED.items():
        for key in stats:
            value = stat(span, "calls") / points if key == "calls_per_point" else stat(span, key)
            put(f"{span}.{key}", value, units[key])
    evaluations = stat("charts.Chart.evaluate", "calls")
    fd = stat("charts.Chart.evaluate", "calls_under")
    put("charts.Chart.evaluate.fd_share", fd / evaluations if evaluations else 0.0, "fraction")

    sizes, counts = run["sizes"], run["counts"]
    put("cli.report_bytes", sizes["report_bytes"], "bytes")
    put("cli.csv_bytes", sizes["csv_bytes"], "bytes")
    kept = counts["points_evaluated"] / counts["points_requested"] if counts["points_requested"] else 0.0
    bridged = (counts["bridge_points_evaluated"] / counts["bridge_points"]
               if counts["bridge_points"] else 0.0)
    put("cli.points_kept_ratio", kept, "fraction")
    put("cli.bridge_yield", bridged, "fraction")
    checks = headroom_by_check(run["headroom"])
    for check in HEADROOM_CHECKS:
        put(f"check.{check}.headroom_decades", min(checks.get(check, [0.0])), "decades")
    overhead = statistics.median(run["traced_walls"]) / statistics.median(run["plain_walls"]) - 1.0
    put("trace.overhead", overhead, "fraction")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]")

    if "SUN_PHASE_THREADS" in os.environ:
        print("perfbench: refusing to run with SUN_PHASE_THREADS set; the benchmark "
              "measures the single-threaded path", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "sun_phase" / "cli.py").is_file():
        print(f"perfbench: no sun_phase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    os.environ.update({name: "1" for name in BLAS_PINS})
    try:
        run = spawn_worker(args)
    except CannotRun as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed, run["libraries"]),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failed_ratio": run["failed"] / run["attempted"],
        "passes": {"plain": len(run["plain_walls"]), "traced": len(run["traced_walls"])},
        "points_per_pass": run["points_per_pass"],
    }
    if args.trace:
        metrics = per_layer(run)
        detail["trace_overhead"] = quartiles(
            [t / p - 1.0 for t, p in zip(run["traced_walls"], run["plain_walls"])])
    else:
        metrics, spread = end_to_end(run)
        detail.update(spread)
    for name, metric in metrics.items():
        line = f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}"
        if name in detail:
            q = detail[name]
            line += f" (q1 {q['q1']:.6g}, q3 {q['q3']:.6g}, {q['samples']} samples)"
        print(line)
    print(f"{args.workload} failed_ratio = {detail['failed_ratio']:.6g} fraction "
          f"({run['failed']} of {run['attempted']} invocations)")
    for error in run["errors"]:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    correct = run["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one fresh interpreter: set up, run the closed loop, check.

Started by run.py, never by hand.  Prints one JSON object on stdout.

Set-up (timed from the moment this interpreter was spawned) is: import
`sun_phase.cli`, build its parser, generate the argv lists and parse each
of them.  `--setup-only` stops there.  Between untraced passes the worker
repeats the set-up in a further fresh interpreter, while no pass runs, so
the set-up samples are spread over the same stretch of time as the passes.

Each pass runs the whole invocation list once, calling
`sun_phase.cli.main(argv)` in-process; only those calls are timed.  The
first pass is the reference: every later pass must write byte-identical
reports and CSV files for the same argv.  With `--trace 1`, untraced
and traced passes alternate, so the tracing overhead is measured on the
same stretch of time.  Untraced runs also time the reference kernel of
calibrate.py before every pass and after the last one.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibrate
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"


def setup(workload: str, seed: int):
    sys.path.insert(0, str(ROOT / "src"))
    from sun_phase import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"sun_phase imported from {cli.__file__}, not from {ROOT / 'src'}")
    WORK_DIR.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    invocations = workloads.build(workload, seed, out_dir)
    parser = cli.build_parser()
    for inv in invocations:
        parser.parse_args(list(inv.argv))
    return cli, invocations, out_dir


def libraries() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        pass
    return {"numpy": np.__version__, "blas": blas}


def _read(path: str | None) -> bytes:
    if path is None:
        return b""
    with open(path, "rb") as handle:
        return handle.read()


class Checker:
    """Verdicts, determinism and check headroom over all passes."""

    def __init__(self):
        self.reference: dict[int, tuple[str, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # per report of the first pass: check name -> log10(tolerance / residual)
        self.headroom: dict[int, dict[str, float]] = {}
        self.counts = {"points_requested": 0, "points_evaluated": 0,
                       "bridge_points": 0, "bridge_points_evaluated": 0}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, idx: int, inv, rc, report_bytes: bytes, csv_bytes: bytes) -> None:
        label = " ".join(inv.argv[:3])
        if rc != 0:
            self.fail(f"{label}: exit code {rc}")
            return
        try:
            report = json.loads(report_bytes)
        except ValueError as exc:
            self.fail(f"{label}: unreadable report ({exc})")
            return
        if report.get("pass") is not True:
            self.fail(f"{label}: report does not pass")
            return
        digests = (hashlib.sha256(report_bytes).hexdigest(), hashlib.sha256(csv_bytes).hexdigest())
        if idx in self.reference:
            if digests != self.reference[idx]:
                self.fail(f"{label}: output differs from the first pass")
            return
        self.reference[idx] = digests
        # a zero tolerance (winding) or a zero residual has no finite headroom
        self.headroom[idx] = {
            check["name"]: math.log10(check["tolerance"] / check["max_residual"])
            for check in report["checks"]
            if check["tolerance"] > 0 and check["max_residual"] > 0
        }
        for key in self.counts:
            self.counts[key] += int(report.get(key, 0))


def run_pass(cli, invocations, checker: Checker) -> tuple[float, dict]:
    """Run the invocation list once; return timed seconds and output sizes."""
    wall = 0.0
    sizes = {"report_bytes": 0, "csv_bytes": 0}
    for idx, inv in enumerate(invocations):
        for path in (inv.out, inv.csv):
            if path is not None and os.path.exists(path):
                os.remove(path)
        checker.attempted += 1
        start = time.perf_counter()
        try:
            rc = cli.main(list(inv.argv))
        except Exception:
            wall += time.perf_counter() - start
            checker.fail(f"{' '.join(inv.argv[:3])}: raised\n{traceback.format_exc()}")
            continue
        wall += time.perf_counter() - start
        try:
            report_bytes, csv_bytes = _read(inv.out), _read(inv.csv)
        except OSError as exc:
            checker.fail(f"{' '.join(inv.argv[:3])}: missing output ({exc})")
            continue
        sizes["report_bytes"] += len(report_bytes)
        sizes["csv_bytes"] += len(csv_bytes)
        checker.check(idx, inv, rc, report_bytes, csv_bytes)
    return wall, sizes


def probe_setup(args) -> float:
    """Set-up time of one more fresh interpreter."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only", "--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, timeout=60)
    return json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"]


def write_spans(path: Path, traced_passes: list[list]) -> None:
    with open(path, "w") as handle:
        handle.write("pass,id,parent,name,start_s,end_s\n")
        for number, spans in enumerate(traced_passes):
            origin = min((s[3] for s in spans), default=0.0)
            for sid, parent, name, start, end in spans:
                handle.write(f"{number},{sid},{parent},{name},{start - origin:.9f},{end - origin:.9f}\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli, invocations, out_dir = setup(args.workload, args.seed)
    setup_s = time.time() - args.spawned_at
    try:
        if args.setup_only:
            json.dump({"setup_s": setup_s}, sys.stdout)
            return 0
        result = measure(cli, invocations, args, setup_s)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result["libraries"] = libraries()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump(result, sys.stdout)
    return 0


def measure(cli, invocations, args, setup_s: float) -> dict:
    checker = Checker()
    points = sum(inv.points for inv in invocations)
    tracer = tracing.Tracer() if args.trace else None
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    traced_spans: list[list] = []
    setups = [setup_s]
    kernels: list[float] = []
    sizes = None
    deadline = time.perf_counter() + args.seconds
    # plain and traced passes alternate when tracing, starting with a plain
    # one; a run makes at least one pass of each kind it reports on
    while (time.perf_counter() < deadline or not plain_walls
           or (tracer is not None and not traced_walls)):
        if tracer is not None and len(plain_walls) > len(traced_walls):
            tracer.install()
            try:
                wall, _ = run_pass(cli, invocations, checker)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            traced_spans.append(tracer.take())
        else:
            if tracer is None:
                kernels.append(calibrate.kernel())
            wall, sizes = run_pass(cli, invocations, checker)
            plain_walls.append(wall)
            if tracer is None:
                setups.append(probe_setup(args))
    if tracer is None:
        kernels.append(calibrate.kernel())

    result = {
        "points_per_pass": points,
        "plain_walls": plain_walls,
        "setups": setups,
        "kernels": kernels,
        "traced_walls": traced_walls,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
        "headroom": [checker.headroom[idx] for idx in sorted(checker.headroom)],
        "counts": checker.counts,
        "sizes": sizes,
    }
    if tracer is not None:
        result["layers"] = [tracing.summarize(spans) for spans in traced_spans]
        write_spans(WORK_DIR / f"spans-{args.workload}.csv", traced_spans)
    return result


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark harness itself: python3 -m pytest perfbench/tests"""
import json
import sys
from pathlib import Path

import pytest

import calibrate
import run
import tracing
import workloads
import worker

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.mark.parametrize("name", workloads.NAMES)
def test_argv_deterministic_for_a_seed_and_distinct_across_seeds(name, tmp_path):
    first = workloads.build(name, 7, str(tmp_path))
    assert first == workloads.build(name, 7, str(tmp_path))
    assert [i.argv for i in first] != [i.argv for i in workloads.build(name, 8, str(tmp_path))]
    assert all(inv.points > 0 for inv in first)
    assert len({inv.out for inv in first}) == len(first)


def _bindings():
    from sun_phase.charts import Chart

    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "sun_phase"]
    snapshot = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    snapshot[("Chart", "evaluate")] = Chart.__dict__["evaluate"]
    return snapshot


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    from sun_phase import amplitude, cli
    from sun_phase.charts import Chart

    before = _bindings()
    original = amplitude.phase_gradient
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # bound at import time in cli and re-exported by the package
        assert cli.phase_gradient is amplitude.phase_gradient is not original
        assert sys.modules["sun_phase"].phase_gradient is not original
        assert Chart.__dict__["evaluate"] is not before[("Chart", "evaluate")]
        out = tmp_path / "r.json"
        assert cli.main(["su2-demo", "--grid", "2", "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    names = {s[2] for s in tracer.take()}
    assert {"cli.run_su2_demo", "charts.Chart.evaluate", "amplitude.phase_gradient",
            "charts.partials", "cli.dump_report"} <= names

    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        (0, -1, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 1, "leaf", 2.0, 3.0),
        (3, 0, "b", 3.0, 6.0),   # overlaps a: covered once
        (4, 0, "c", 8.0, 12.0),  # runs past its parent: clipped
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 4.0})

    summary = tracing.summarize(spans, inside="a")
    assert summary["leaf"] == {"calls": 1, "self_s": pytest.approx(1.0), "calls_under": 1}
    assert summary["b"]["calls_under"] == 0


def test_changed_output_counts_as_a_failure():
    inv = workloads.Invocation(argv=("verify-group",), points=1, out="unused")
    report = json.dumps({"pass": True, "checks": [
        {"name": "phase-identity", "max_residual": 1e-12, "tolerance": 1e-8}]}).encode()
    checker = worker.Checker()
    checker.check(0, inv, 0, report, b"")
    checker.check(0, inv, 0, report, b"")
    assert checker.failed == 0
    assert checker.headroom == {0: {"phase-identity": pytest.approx(4.0)}}
    checker.check(0, inv, 0, report.replace(b"1e-12", b"2e-12"), b"")
    checker.check(0, inv, 1, report, b"")
    checker.check(0, inv, 0, report.replace(b"true", b"false"), b"")
    assert checker.failed == 3


def test_metric_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    fake = {
        "layers": [{}], "points_per_pass": 1, "sizes": {"report_bytes": 0, "csv_bytes": 0},
        "counts": {"points_requested": 0, "points_evaluated": 0,
                   "bridge_points": 0, "bridge_points_evaluated": 0},
        "headroom": [], "traced_walls": [1.0], "plain_walls": [1.0], "setups": [1.0],
        "kernels": [calibrate.NOMINAL_S] * 2,
        "peak_rss_mb": 1.0,
        "failed": 0, "attempted": 1,
    }
    layer = run.per_layer(fake)
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert [m["unit"] for m in layer.values()] == [m["unit"] for m in spec["per_layer"]]
    e2e, _ = run.end_to_end(fake)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_time_metrics_are_scaled_by_the_kernels_around_each_pass():
    nominal = calibrate.NOMINAL_S
    base = {
        "points_per_pass": 100, "plain_walls": [1.0, 1.0, 1.0], "setups": [0.2] * 4,
        "kernels": [nominal] * 4, "headroom": [], "peak_rss_mb": 1.0,
    }
    # pass i sits between kernels i and i + 1
    assert run.host_speed([nominal, 2 * nominal, 2 * nominal]) == pytest.approx([2 / 3, 0.5])
    # the same program on a host running at half speed
    slow = dict(base, plain_walls=[2.0] * 3, setups=[0.4] * 4, kernels=[2 * nominal] * 4)
    fast_metrics, _ = run.end_to_end(base)
    slow_metrics, spread = run.end_to_end(slow)
    assert fast_metrics["points_per_s"]["value"] == pytest.approx(100.0)
    assert fast_metrics["setup_s"]["value"] == pytest.approx(0.2)
    assert slow_metrics["points_per_s"]["value"] == pytest.approx(100.0)
    assert slow_metrics["setup_s"]["value"] == pytest.approx(0.2)
    assert spread["raw_points_per_s"]["median"] == pytest.approx(50.0)


def test_reference_kernel_runs():
    assert 0 < calibrate.kernel() < 10

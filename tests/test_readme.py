"""The README's library example runs against the package as it is, and
its "Report fields" section names every report key and check."""
import contextlib
import io
import json
import re
from pathlib import Path

from sun_phase.cli import main
from sun_phase.tolerances import CHECK_GATES

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The `python` block under the README's "## Library example" heading."""
    section = README.read_text().split("\n## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    assert out.getvalue()


def report_fields() -> set:
    """The backticked names that open a bullet of "## Report fields"."""
    section = README.read_text().split("\n## Report fields\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- `([^`]+)`:", section, re.MULTILINE))


# each command once with small arguments, every optional report part included
RUNS = [
    ["verify-group", "--n", "3", "--points", "10", "--per-point",
     "--tol", "phase-identity=1e-7"],
    ["verify-group", "--n", "2", "--pair", "explicit", "--psi-i", "1,0",
     "--psi-f", "0,1", "--sample-scale", "1e-4", "--points", "10"],  # inconclusive
    ["verify-ray", "--n", "3", "--points", "10", "--bridge-points", "3"],
    ["su2-demo", "--grid", "2"],
    ["superosc", "--n", "3", "--samples", "16"],
    ["vortex", "--loop", "phi-circle", "--theta", "0.1", "--expect", "1"],
]


def keys(value) -> set:
    """Every dict key in a parsed report, at any depth."""
    if isinstance(value, dict):
        return set(value).union(*(keys(v) for v in value.values()))
    if isinstance(value, list):
        return set().union(*(keys(v) for v in value))
    return set()


def test_report_fields_name_every_key_and_check(tmp_path):
    seen = set()
    for argv in RUNS:
        out = tmp_path / "report.json"
        main(argv + ["--out", str(out)])
        seen |= keys(json.loads(out.read_text()))
    assert "inconclusive" in seen and "per_point" in seen and "bridge_gauge_sign" in seen
    checks = {name for gates in CHECK_GATES.values() for name in gates}
    assert sorted((seen | checks) - report_fields()) == []

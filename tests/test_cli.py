import contextlib
import io
import json
import string
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sun_phase import amplitude, coset, superosc
from sun_phase.algebra import StatePair, build_gellmann_basis, haar_state
from sun_phase.amplitude import phase_gradient
from sun_phase.charts import exp_chart, su2_polar_chart
from sun_phase.errors import InternalConsistencyError
from sun_phase.tolerances import CHECK_GATES, P_GRAD

from sun_phase._csvformat import CSV_BLOCK_ROWS
from sun_phase.cli import (
    build_parser,
    EXIT_CHECK_FAILURE,
    EXIT_CONFIG_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    PerPointTable,
    dump_report,
    format_float,
    main,
    write_csv,
)


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


def load(path):
    return json.loads(path.read_text())


# dict keys as the reports name them; string values hold every printable
# ASCII character, `"` and `\` among them
KEYS = st.text(string.ascii_letters + string.digits + "-_", max_size=8)


def report_values(floats: bool):
    """(value, plain) pairs: a report value of dicts, lists and tuples of
    Python and numpy scalars, and the same value as `json.dumps` takes it."""
    integers = st.integers(-(2**63), 2**63 - 1)
    same = [
        st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=8),
        st.booleans(),
        st.none(),
        integers,
    ]
    leaves = [strategy.map(lambda v: (v, v)) for strategy in same] + [
        st.booleans().map(lambda b: (np.bool_(b), b)),
        integers.map(lambda i: (np.int64(i), i)),
        st.integers(0, 255).map(lambda i: (np.uint8(i), i)),
    ]
    if floats:
        finite = st.floats(allow_nan=False, allow_infinity=False)
        leaves += [finite.map(lambda x: (x, x)), finite.map(lambda x: (np.float64(x), x))]
    return st.recursive(
        st.one_of(leaves),
        lambda children: st.one_of(
            st.lists(children, max_size=4).map(split_pairs),
            st.lists(children, max_size=4).map(split_pairs).map(lambda p: (tuple(p[0]), p[1])),
            st.dictionaries(KEYS, children, max_size=4).map(split_pairs),
        ),
        max_leaves=24,
    )


def split_pairs(items):
    """A list or dict of (value, plain) pairs as one (value, plain) pair."""
    if isinstance(items, dict):
        return ({k: v for k, (v, _) in items.items()}, {k: p for k, (_, p) in items.items()})
    return [v for v, _ in items], [p for _, p in items]


def number_texts(plain):
    """`plain` with each float replaced by format(x, ".17g") and each int by str(i)."""
    if isinstance(plain, dict):
        return {key: number_texts(value) for key, value in plain.items()}
    if isinstance(plain, list):
        return [number_texts(value) for value in plain]
    if isinstance(plain, float):
        return format(plain, ".17g")
    if isinstance(plain, int) and not isinstance(plain, bool):
        return str(plain)
    return plain


class TestSerialization:
    def test_float_formatting(self):
        assert format_float(1.0) == "1"
        assert format_float(0.375) == "0.375"
        assert len(format_float(np.pi)) >= 17

    def test_report_roundtrip(self):
        report = {
            "schema": "sun-phase/1",
            "values": [1.5, 2, True, None, "text"],
            "nested": {"a": 0.1},
            "empty": [],
        }
        parsed = json.loads(dump_report(report))
        assert parsed["values"] == [1.5, 2, True, None, "text"]
        assert parsed["nested"]["a"] == 0.1
        assert parsed["empty"] == []

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dump_report({"x": float("nan")})

    @settings(max_examples=200, deadline=None)
    @given(pair=st.dictionaries(KEYS, report_values(floats=False), max_size=5).map(split_pairs))
    def test_layout_matches_json_dumps(self, pair):
        report, plain = pair
        assert dump_report(report) == json.dumps(plain, indent=2) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(pair=st.dictionaries(KEYS, report_values(floats=True), max_size=5).map(split_pairs))
    def test_floats_round_trip_as_17_digits(self, pair):
        report, plain = pair
        text = dump_report(report)
        assert json.loads(text) == plain  # every value exactly
        # each number's text: a float's is format(x, ".17g"), an int's is str(i)
        assert json.loads(text, parse_float=str, parse_int=str) == number_texts(plain)

    @pytest.mark.parametrize("nan", [float("nan"), np.float64("nan")], ids=["nan0", "nan1"])
    def test_nan_nested_in_list_rejected(self, nan):
        with pytest.raises(ValueError):
            dump_report({"a": [1.0, {"b": [2, nan]}]})

    def test_set_rejected(self):
        with pytest.raises(TypeError):
            dump_report({"a": [{1, 2}]})


def reference_format_float(x) -> str:
    if not np.isfinite(x):
        raise ValueError("non-finite value in report")
    return format(float(x), ".17g")


def reference_json(obj, pad: str = "") -> str:
    """Oracle: the recursive, value-by-value report serializer."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = ",\n".join(
            f'{inner}"{key}": {reference_json(value, inner)}' for key, value in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        inner = pad + "  "
        return "[\n" + ",\n".join(inner + reference_json(v, inner) for v in obj) + "\n" + pad + "]"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return reference_format_float(float(obj))
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)}")


def as_records(obj):
    """`obj` with every PerPointTable replaced by its list of per-point dicts."""
    if isinstance(obj, PerPointTable):
        return [{"x": row[:-4], "p": row[-4], "residuals": row[-3:]} for row in obj.values.tolist()]
    if isinstance(obj, dict):
        return {key: as_records(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [as_records(value) for value in obj]
    if isinstance(obj, tuple):
        return tuple(as_records(value) for value in obj)
    return obj


# floats whose `%.17g` text differs from `repr`, or that sit at a notation edge
FLOAT_EDGES = [-0.0, 5e-324, 1e-5, 1e16, 1e17, 0.1, 1e-4, 123456789012345680.0]
FINITE = st.floats(allow_nan=False, allow_infinity=False)
REPORT_FLOATS = st.one_of(FINITE, st.sampled_from(FLOAT_EDGES))
# one value of every scalar type a report may hold, numpy scalars among them
ORACLE_SCALARS = st.one_of(
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=8),
    st.booleans(),
    st.none(),
    st.integers(-(2**63), 2**63 - 1),
    REPORT_FLOATS,
    REPORT_FLOATS.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
# lists of only Python and numpy float64 values, each edge value among them
FLOAT_LISTS = st.lists(st.one_of(REPORT_FLOATS, REPORT_FLOATS.map(np.float64)), max_size=10)


@st.composite
def per_point_tables(draw, rows=st.one_of(st.sampled_from([0, 1]), st.integers(2, 40))):
    """A PerPointTable whose `x` has width 1-63 and whose cells mix
    magnitudes from 1e-300 to 1e300 with the edge floats."""
    cells = draw(st.integers(1, 63)) + 4  # x, p and three residuals
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(rows)
    values = rng.standard_normal((count, cells)) * 10.0 ** rng.integers(-300, 300, (count, cells))
    edges = rng.random((count, cells)) < 0.2
    values[edges] = rng.choice(FLOAT_EDGES, edges.sum())
    return PerPointTable(values)


ORACLE_VALUES = st.recursive(
    st.one_of(ORACLE_SCALARS, FLOAT_LISTS, per_point_tables()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=16,
)


class TestSerializationOracle:
    """`dump_report` writes the text of the recursive reference serializer."""

    @settings(max_examples=300, deadline=None)
    @given(report=st.dictionaries(KEYS, ORACLE_VALUES, max_size=5))
    @example(report={"a": FLOAT_EDGES, "b": [np.float64(x) for x in FLOAT_EDGES]})
    @example(report={"per_point": PerPointTable(np.zeros((0, 67)))})
    def test_matches_reference(self, report):
        assert dump_report(report) == reference_json(as_records(report)) + "\n"

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -np.inf, np.float64("nan")], ids=["nan0", "inf", "-inf", "nan1"]
    )
    @pytest.mark.parametrize(
        "place",
        [
            lambda bad: {"a": bad},
            lambda bad: {"a": [1.0, {"b": np.float32(bad)}]},
            lambda bad: {"a": [1.0, np.float64(2.0), bad]},
            lambda bad: {"a": (bad,)},
            lambda bad: {"a": PerPointTable(np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, bad]]))},
        ],
        ids=["scalar", "float32-scalar", "float-list", "float-tuple", "table-cell"],
    )
    def test_non_finite_rejected(self, place, bad):
        with pytest.raises(ValueError):
            dump_report(place(bad))

    @settings(max_examples=50, deadline=None)
    @given(
        table=per_point_tables(rows=st.integers(1, 40)),
        where=st.floats(0.0, 1.0, exclude_max=True),
        bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    )
    def test_non_finite_table_cell_rejected(self, table, where, bad):
        values = table.values.copy()
        values.flat[int(where * values.size)] = bad
        with pytest.raises(ValueError):
            dump_report({"per_point": PerPointTable(values)})


def rowwise_csv(header, rows):
    """Oracle: the row-by-row, cell-by-cell CSV formatter."""
    return ",".join(header) + "\n" + "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n" for row in rows)


class TestWriteCsv:
    def test_matches_rowwise_formatter(self, tmp_path):
        special = [1.0, float("nan"), -0.0, 1e-300, 5e-324, float("inf"), -np.pi, 1 / 3, 1e22]
        rows = 4 * CSV_BLOCK_ROWS + 3
        rng = np.random.default_rng(5)
        floats = np.resize(np.array(special), rows) * np.where(rng.random(rows) < 0.5, 1.0, -1e-7)
        # every block holds nan floats, whose cells take the text of `%`,
        # between cells of the fast path
        columns = [floats, rng.standard_normal(rows)]
        header = ["f", "g"]
        path = tmp_path / "c.csv"
        write_csv(str(path), header, columns)
        assert path.read_text() == rowwise_csv(header, zip(*columns))

    def test_header_only(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(str(path), ["a", "b"], [np.empty(0), np.empty(0)])
        assert path.read_text() == "a,b\n"

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            write_csv(str(tmp_path / "c.csv"), ["a"], [np.zeros(3, dtype=np.int64)])

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "c.csv"), ["a", "b"], [np.zeros(3), np.zeros(2)])

    def test_peak_memory_bounded(self, tmp_path):
        # a 15,000-sample superosc trace: blocks of CSV_BLOCK_ROWS rows keep
        # the formatted text and cells far below the size of the whole file
        rng = np.random.default_rng(6)
        columns = [rng.standard_normal(15000) for _ in range(4)]
        tracemalloc.start()
        try:
            write_csv(str(tmp_path / "c.csv"), ["a", "b", "c", "d"], columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestVerifyGroup:
    def test_su2_polar_spin_flip(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "r.json",
            ["verify-group", "--n", "2", "--chart", "su2-polar", "--pair",
             "spin-flip", "--points", "50", "--seed", "7"],
        )
        assert code == EXIT_PASS
        report = load(out)
        assert report["schema"] == "sun-phase/1"
        assert report["pass"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"phase-identity", "modulus-identity", "orthogonality",
                "reconstruction", "gradient-lower-bound"} <= names
        for check in report["checks"]:
            if check["name"] in ("phase-identity", "modulus-identity", "orthogonality"):
                assert check["max_residual"] < 1e-8

    @pytest.mark.parametrize("chart", ["exp", "cartan"])
    def test_random_pairs_n3(self, tmp_path, chart):
        code, out = run_to_file(
            tmp_path,
            "r.json",
            ["verify-group", "--n", "3", "--chart", chart, "--pair", "random",
             "--points", "40", "--seed", "11"],
        )
        assert code == EXIT_PASS
        assert load(out)["pass"] is True

    def test_zero_points_is_config_error(self):
        assert main(["verify-group", "--n", "2", "--points", "0"]) == EXIT_CONFIG_ERROR

    def test_su2_polar_requires_n2(self):
        code = main(["verify-group", "--n", "3", "--chart", "su2-polar", "--points", "5"])
        assert code == EXIT_CONFIG_ERROR

    def test_bad_dimension(self):
        assert main(["verify-group", "--n", "1", "--points", "5"]) == EXIT_CONFIG_ERROR

    def test_forced_tolerance_failure(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "r.json",
            ["verify-group", "--n", "2", "--points", "10", "--seed", "1",
             "--tol", "phase-identity=1e-20"],
        )
        assert code == EXIT_CHECK_FAILURE
        report = load(out)
        assert report["pass"] is False

    def test_inconclusive_sweep(self, tmp_path):
        # an orthogonal fixed pair sampled in a shrunken box keeps the
        # amplitude below threshold everywhere: all points skipped
        code, out = run_to_file(
            tmp_path,
            "r.json",
            ["verify-group", "--n", "2", "--pair", "explicit", "--psi-i", "1,0",
             "--psi-f", "0,1", "--sample-scale", "1e-4", "--points", "20"],
        )
        assert code == EXIT_INCONCLUSIVE
        report = load(out)
        assert report["inconclusive"] is True
        assert report["points_skipped_low_amplitude"] == 20

    def test_every_point_below_p_grad(self, tmp_path):
        # one stack whose rows all have p < P_GRAD, so no gradient is formed
        code, out = run_to_file(
            tmp_path,
            "r.json",
            ["verify-group", "--n", "2", "--pair", "explicit", "--psi-i", "1,0",
             "--psi-f", "0,1", "--sample-scale", "1e-6", "--points", "20"],
        )
        assert code == EXIT_INCONCLUSIVE
        assert load(out)["points_skipped_low_amplitude"] == 20

    def test_explicit_pair_normalized_with_warning(self, tmp_path, capsys):
        code, _ = run_to_file(
            tmp_path,
            "r.json",
            ["verify-group", "--n", "2", "--pair", "explicit", "--psi-i", "2,0",
             "--psi-f", "0,1", "--points", "5", "--seed", "2"],
        )
        assert code == EXIT_PASS
        assert "normalizing" in capsys.readouterr().err

    def test_per_point_detail(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "r.json",
            ["verify-group", "--n", "2", "--points", "5", "--seed", "3", "--per-point"],
        )
        assert code == EXIT_PASS
        report = load(out)
        assert len(report["per_point"]) == 5
        assert set(report["per_point"][0]) == {"x", "p", "residuals"}


class TestPerPointBytes:
    """A `--per-point` report is the reference serializer's text of its own
    parsed content."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "2", "--chart", "su2-polar", "--pair", "spin-flip", "--points", "50",
             "--seed", "7"],
            ["--n", "3", "--points", "200", "--seed", "11"],
            ["--n", "8", "--points", "40", "--seed", "13"],  # three blocks of 16, 16 and 8
            ["--n", "3", "--chart", "cartan", "--points", "60", "--seed", "15"],
            # one point of this seed has p < P_GRAD (TestLibraryErrors)
            ["--n", "2", "--pair", "explicit", "--psi-i", "1,0", "--psi-f", "0,1",
             "--sample-scale", "2e-3", "--points", "40", "--seed", "1"],
        ],
        ids=["su2-polar-spin-flip", "exp-n3", "exp-n8-three-blocks", "cartan-n3", "p-grad-skip"],
    )
    def test_report_is_reference_text(self, tmp_path, argv):
        code, out = run_to_file(tmp_path, "r.json", ["verify-group", *argv, "--per-point"])
        assert code == EXIT_PASS
        text = out.read_text()
        report = json.loads(text)
        assert reference_json(report) + "\n" == text
        assert len(report["per_point"]) == report["points_evaluated"]
        dim = int(argv[1]) ** 2 - 1
        assert all(len(row["x"]) == dim and len(row["residuals"]) == 3
                   for row in report["per_point"])
        if "2e-3" in argv:
            assert report["points_skipped_low_amplitude"] > 0


class TestVerifyRay:
    @pytest.mark.parametrize("n", [2, 3])
    def test_sweep_passes(self, tmp_path, n):
        code, out = run_to_file(
            tmp_path,
            "r.json",
            ["verify-ray", "--n", str(n), "--points", "25", "--bridge-points",
             "10", "--seed", "5"],
        )
        assert code == EXIT_PASS
        report = load(out)
        assert report["pass"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"ray-phase-identity", "u1-berry-proportionality",
                "fs-metric-agreement", "factorization", "bridge-phase",
                "u1-phase-rate"} <= names

    def test_sign_resolution_reported(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "r.json",
            ["verify-ray", "--n", "2", "--points", "10", "--bridge-points", "5",
             "--seed", "6"],
        )
        assert code == EXIT_PASS
        report = load(out)
        sign = report["u1_berry_sign"]
        assert sign["residual_with_minus_coefficient"] < 1e-8
        assert sign["residual_with_plus_coefficient"] > 1e-3
        bridge = report["bridge_gauge_sign"]
        assert bridge["residual_with_minus_berry"] < 1e-4
        assert bridge["best_residual_with_plus_berry"] > 1e-3
        # the resolved conventions are the checks' own residuals
        worst = {c["name"]: c["max_residual"] for c in report["checks"]}
        assert sign["residual_with_minus_coefficient"] == worst["u1-berry-proportionality"]
        assert bridge["residual_with_minus_berry"] == worst["bridge-phase"]

    def test_inconclusive_orthogonal_pair(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "r.json",
            ["verify-ray", "--n", "2", "--pair", "explicit", "--psi-i", "1,0",
             "--psi-f", "0,1", "--sample-scale", "1e-4", "--points", "10"],
        )
        assert code == EXIT_INCONCLUSIVE

    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_bridge_rounds_draw_the_one_at_a_time_candidates(self, tmp_path, monkeypatch, seed):
        # a high bridge floor makes rounds skip candidates and reach the
        # 4x attempt cap (seed 1: 4 bridge points, seed 5: none); the oracle
        # draws and checks one candidate at a time
        from sun_phase import cli
        from sun_phase.algebra import StatePair, haar_state
        from sun_phase.coset import bridge_residuals, build_cartan_frame, coset_element, section

        monkeypatch.setattr(cli, "P_BRIDGE", 0.5)
        argv = ["verify-ray", "--n", "3", "--points", "20", "--bridge-points", "6"]
        code, out = run_to_file(tmp_path, "r.json", argv + ["--seed", str(seed)])
        report = load(out)

        rng = np.random.default_rng(seed)
        pair = StatePair(haar_state(3, rng), haar_state(3, rng))
        frame = build_cartan_frame(pair.psi_i)
        rng.uniform(size=20 * (frame.dim_coset + frame.dim_iso + 1))  # the ray points
        half = (np.pi / 2) * 0.62 / np.sqrt(frame.dim_coset)
        alt = []
        attempts = 0
        while len(alt) < 6 and attempts < 24:
            attempts += 1
            y = rng.uniform(-half, half, frame.dim_coset)
            if abs(pair.psi_f.conj() @ coset_element(frame, y) @ pair.psi_i) ** 2 > 0.5:
                alt.append(bridge_residuals(pair, section(frame, y)).alt_residual_phase)
        assert report["bridge_points_evaluated"] == len(alt)
        assert code == (EXIT_PASS if alt else EXIT_INCONCLUSIVE)
        if alt:
            best = report["bridge_gauge_sign"]["best_residual_with_plus_berry"]
            assert best == pytest.approx(min(alt), rel=1e-9)


class TestCheckRegistry:
    """A report lists the checks of its command by name, in the order of
    `CHECK_GATES`, leaving out only those the run did not measure."""

    RUNS = [
        (["verify-group", "--n", "3", "--points", "10", "--seed", "1"], None),
        (["verify-group", "--n", "3", "--chart", "cartan", "--points", "6", "--seed", "2"], None),
        (["verify-ray", "--n", "3", "--points", "10", "--bridge-points", "4", "--seed", "1"], None),
        # no bridge points: the bridge checks are not measured
        (["verify-ray", "--n", "2", "--points", "10", "--bridge-points", "0", "--seed", "1"], 6),
        (["su2-demo", "--grid", "4"], None),
        (["superosc", "--n", "3", "--samples", "64", "--seed", "1"], None),
        (["vortex", "--expect", "1"], None),
        # nothing to compare the winding with
        (["vortex"], 0),
    ]

    @pytest.mark.parametrize("argv, count", RUNS)
    def test_names_follow_registry(self, tmp_path, argv, count):
        code, out = run_to_file(tmp_path, "r.json", argv)
        assert code == EXIT_PASS
        names = [c["name"] for c in load(out)["checks"]]
        assert names == list(CHECK_GATES[argv[0]])[:count]

    def test_every_command_covered(self):
        assert {argv[0] for argv, _ in self.RUNS} == set(CHECK_GATES)


class TestGatesAreLibraryConstants:
    """The five gates that repeat a library check's threshold are that
    check's constant: the registry holds the object the library module
    compares against, and each check reads it from its module, so a gate
    and its guard cannot drift apart."""

    @staticmethod
    def aligned(seed):
        """A Haar pair at n = 3 and its aligned generator."""
        rng = np.random.default_rng(seed)
        pair = StatePair(haar_state(3, rng), haar_state(3, rng))
        return pair, superosc.aligned_generator(pair, build_gellmann_basis(3))

    def test_registry_holds_the_library_constants(self):
        gates = CHECK_GATES["superosc"]
        assert CHECK_GATES["verify-group"]["gradient-lower-bound"] is (
            amplitude.GATE_GRADIENT_LOWER_BOUND
        )
        assert CHECK_GATES["verify-ray"]["fs-metric-agreement"] is coset.ATOL_FD_MATCH
        assert gates["eigenvalue-cap"] is superosc.GATE_EIGENVALUE_CAP
        assert gates["fourier-reconstruction"] is superosc.GATE_FOURIER_RECONSTRUCTION
        assert gates["superoscillatory-at-zero"] is superosc.GATE_SUPEROSCILLATORY_AT_ZERO

    def test_gradient_lower_bound(self, monkeypatch):
        # |grad eta|^2 at n = 2 is 5e-10 below its bound 1
        def gradient():
            zeros = np.zeros(3)
            return amplitude.PhaseGradient(2, 1.0, 0.0, zeros, zeros, 1.0 - 5e-10, 0.0, 0.0)

        gradient()
        monkeypatch.setattr(amplitude, "GATE_GRADIENT_LOWER_BOUND", 1e-10)
        with pytest.raises(InternalConsistencyError, match="below the bound"):
            gradient()

    def test_eigenvalue_cap(self, monkeypatch):
        # sigma_z scaled so that its eigenvalues exceed the cap 1 by 4e-11,
        # inside the normalization check
        matrix = build_gellmann_basis(2)[2] * (1.0 + 4e-11)
        superosc.normalized_generator(matrix)
        monkeypatch.setattr(superosc, "GATE_EIGENVALUE_CAP", 1e-11)
        with pytest.raises(InternalConsistencyError, match="spectral cap"):
            superosc.normalized_generator(matrix)

    def test_fourier_reconstruction(self, monkeypatch):
        pair, gen = self.aligned(5)
        residual = superosc.phase_trace(pair, gen, samples=64).fourier_residual
        assert residual > 0.0
        monkeypatch.setattr(superosc, "GATE_FOURIER_RECONSTRUCTION", residual)
        with pytest.raises(InternalConsistencyError, match="Fourier sum"):
            superosc.phase_trace(pair, gen, samples=64)

    def test_superoscillatory_at_zero(self, monkeypatch):
        pair, gen = self.aligned(6)
        report = superosc.superoscillation_report(pair, gen, samples=64)
        assert report.superoscillatory_at_zero and not report.boundary
        # omega(0) counts as the cap within the gate; a negative gate asks
        # for more than omega(0) gives
        gap = report.omega_zero - report.max_abs_eigenvalue
        monkeypatch.setattr(superosc, "GATE_SUPEROSCILLATORY_AT_ZERO", 2.0 * gap)
        assert superosc.superoscillation_report(pair, gen, samples=64).boundary
        monkeypatch.setattr(superosc, "GATE_SUPEROSCILLATORY_AT_ZERO", -2.0 * gap)
        report = superosc.superoscillation_report(pair, gen, samples=64)
        assert not report.superoscillatory_at_zero

    def test_fs_metric_agreement(self, monkeypatch):
        frame = coset.build_cartan_frame(np.eye(3, dtype=complex)[0])
        y = np.full(frame.dim_coset, 0.2)
        coset.section(frame, y)
        monkeypatch.setattr(coset, "ATOL_FD_MATCH", 0.0)
        with pytest.raises(InternalConsistencyError, match="Fubini-Study"):
            coset.section(frame, y)


class TestSu2Demo:
    def test_grid_and_csv(self, tmp_path):
        csv_path = tmp_path / "grid.csv"
        out = tmp_path / "r.json"
        code = main(["su2-demo", "--grid", "21", "--out", str(out), "--csv", str(csv_path)])
        assert code == EXIT_PASS
        report = load(out)
        assert report["pass"] is True
        assert report["rows"] == 21 ** 3

        lines = csv_path.read_text().splitlines()
        assert lines[0] == "chi,theta,phi,p,eta,grad_eta_sq,inv_p,residual"
        assert len(lines) == 21 ** 3 + 1
        # the 21-point grid contains chi = theta = pi/2 and phi = 0:
        # there p = 1 and eta = pi/2
        target = None
        for line in lines[1:]:
            cells = line.split(",")
            chi, theta, phi = (float(cells[i]) for i in range(3))
            if abs(chi - np.pi / 2) < 1e-12 and abs(theta - np.pi / 2) < 1e-12 and phi == 0.0:
                target = cells
        assert target is not None
        assert float(target[3]) == pytest.approx(1.0, abs=1e-12)
        assert float(target[4]) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_closed_form_point_row(self, tmp_path):
        # chi = pi/3, theta = pi/4 is not on the grid; check the closed form
        # through the library instead of the CSV: p = 3/8
        from sun_phase.algebra import StatePair
        from sun_phase.amplitude import polar_amplitude
        from sun_phase.charts import su2_polar_chart

        chart = su2_polar_chart()
        pair = StatePair(
            np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)
        )
        amp = polar_amplitude(pair, chart.evaluate(np.array([np.pi / 3, np.pi / 4, 1.0])))
        assert amp.p == pytest.approx(3.0 / 8.0, abs=1e-14)

    def test_bad_grid(self):
        assert main(["su2-demo", "--grid", "1"]) == EXIT_CONFIG_ERROR


class TestSuperoscCommand:
    def test_random_pair_passes(self, tmp_path):
        csv_path = tmp_path / "trace.csv"
        out = tmp_path / "r.json"
        code = main(
            ["superosc", "--n", "3", "--seed", "5", "--out", str(out), "--csv", str(csv_path)]
        )
        assert code == EXIT_PASS
        report = load(out)
        assert report["pass"] is True
        assert report["omega_zero"] >= report["max_abs_eigenvalue"] - 1e-9
        assert len(report["spectrum"]) == 3
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,re_amplitude,im_amplitude,omega"
        assert len(lines) == 1024 + 1

    def test_diagonal_pair_boundary(self, tmp_path):
        code, out = run_to_file(
            tmp_path,
            "r.json",
            ["superosc", "--n", "2", "--pair", "explicit", "--psi-i", "1,0",
             "--psi-f", "1,0", "--samples", "128"],
        )
        assert code == EXIT_PASS
        assert load(out)["boundary_case"] is True

    def test_orthogonal_pair_is_config_error(self):
        assert main(["superosc", "--n", "2", "--pair", "spin-flip"]) == EXIT_CONFIG_ERROR

    def test_config_echo_holds_only_its_options(self, tmp_path):
        # superosc has no --chart, --points or --sample-scale to echo
        code, out = run_to_file(tmp_path, "r.json", ["superosc", "--n", "2", "--samples", "64"])
        assert code == EXIT_PASS
        assert load(out)["config"] == {"n": 2, "seed": 0, "pair": "random"}


class TestVortexCommand:
    def test_phi_circle(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "r.json",
            ["vortex", "--loop", "phi-circle", "--theta", "0.1", "--expect", "1"],
        )
        assert code == EXIT_PASS
        assert load(out)["winding"] == 1

    def test_reversed(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "r.json",
            ["vortex", "--loop", "phi-circle", "--theta", "0.1", "--reverse",
             "--expect", "-1"],
        )
        assert code == EXIT_PASS
        assert load(out)["winding"] == -1

    def test_contractible(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "r.json",
            ["vortex", "--loop", "contractible", "--chi", "1.2", "--theta", "1.0",
             "--expect", "0"],
        )
        assert code == EXIT_PASS
        assert load(out)["winding"] == 0

    def test_wrong_expectation_fails(self, tmp_path):
        code, _ = run_to_file(
            tmp_path, "r.json",
            ["vortex", "--loop", "phi-circle", "--theta", "0.1", "--expect", "2"],
        )
        assert code == EXIT_CHECK_FAILURE


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-group", "--n", "3", "--chart", "exp", "--points", "30", "--seed", "9"],
            ["verify-ray", "--n", "2", "--points", "15", "--bridge-points", "5", "--seed", "4"],
            ["superosc", "--n", "3", "--seed", "12"],
            ["verify-group", "--n", "3", "--points", "20", "--seed", "13"],
            ["verify-ray", "--n", "3", "--points", "10", "--bridge-points", "4", "--seed", "13"],
        ],
    )
    def test_byte_identical_reports(self, tmp_path, argv):
        _, first = run_to_file(tmp_path, "a.json", list(argv))
        _, second = run_to_file(tmp_path, "b.json", list(argv))
        assert first.read_bytes() == second.read_bytes()

    def test_csv_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["su2-demo", "--grid", "6", "--csv", str(a), "--out", str(tmp_path / "ra.json")])
        main(["su2-demo", "--grid", "6", "--csv", str(b), "--out", str(tmp_path / "rb.json")])
        assert a.read_bytes() == b.read_bytes()

    def test_superosc_csv_across_blocks(self, tmp_path):
        samples = CSV_BLOCK_ROWS + 5
        csvs = []
        for name in ("a", "b"):
            csv_path = tmp_path / f"{name}.csv"
            argv = ["superosc", "--n", "4", "--seed", "3", "--samples", str(samples),
                    "--csv", str(csv_path)]
            assert run_to_file(tmp_path, f"{name}.json", argv)[0] == EXIT_PASS
            csvs.append(csv_path.read_bytes())
        assert csvs[0] == csvs[1]
        assert len(csvs[0].splitlines()) == samples + 1

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["block-1", "block", "block+1"])
    def test_superosc_bytes_independent_of_trace_block(self, tmp_path, monkeypatch, n, offset):
        # a trace about one shipped block long, against the same trace in
        # blocks of one sample
        samples = superosc._trace_block_samples(n) + offset
        outputs = []
        for name, entries in (("shipped", superosc.TRACE_ENTRIES), ("one", 1)):
            monkeypatch.setattr(superosc, "TRACE_ENTRIES", entries)
            csv_path = tmp_path / f"{name}.csv"
            argv = ["superosc", "--n", str(n), "--seed", "3", "--samples", str(samples),
                    "--csv", str(csv_path)]
            code, out = run_to_file(tmp_path, f"{name}.json", argv)
            assert code == EXIT_PASS
            outputs.append((out.read_bytes(), csv_path.read_bytes()))
        assert superosc._trace_block_samples(n) == 1
        assert outputs[0] == outputs[1]


class TestEvaluatedOnce:
    """Each sweep point is evaluated once; the CLI reuses what the library
    computed at a point instead of evaluating it again."""

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        """Wrap `owner.name` and every binding of it in the loaded sun_phase
        modules; returns the list that collects one entry per call."""
        import sys

        original = getattr(owner, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        for key, module in list(sys.modules.items()):
            if key.split(".")[0] == "sun_phase" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
        return calls

    @staticmethod
    def count_rows(monkeypatch):
        """Wrap `Chart.evaluate`, the one chart call for U alone and for U with
        its partials; returns the list of row counts, one per call."""
        from sun_phase.charts import Chart

        original = Chart.evaluate
        rows = []

        def counted(self, x, *args, **kwargs):
            rows.append(len(np.atleast_2d(x)))
            return original(self, x, *args, **kwargs)

        monkeypatch.setattr(Chart, "evaluate", counted)
        return rows

    def test_verify_group_evaluates_each_point_once(self, tmp_path, monkeypatch):
        rows = self.count_rows(monkeypatch)
        code, out = run_to_file(
            tmp_path, "r.json", ["verify-group", "--n", "3", "--points", "12", "--seed", "1"]
        )
        assert code == EXIT_PASS
        # one stack holds all 12 points
        assert rows == [load(out)["points_requested"]] == [12]

    def test_verify_group_cartan_random_evaluates_blocks(self, tmp_path, monkeypatch):
        # one chart, that of e_0, evaluates all 12 rotated pairs in one stack
        rows = self.count_rows(monkeypatch)
        code, out = run_to_file(
            tmp_path,
            "r.json",
            ["verify-group", "--n", "3", "--chart", "cartan", "--points", "12", "--seed", "1"],
        )
        assert code == EXIT_PASS
        assert rows == [load(out)["points_requested"]] == [12]

    def test_vortex_evaluates_the_loop_once(self, tmp_path, monkeypatch):
        rows = self.count_rows(monkeypatch)
        code, out = run_to_file(
            tmp_path, "r.json", ["vortex", "--samples", "64", "--expect", "1"]
        )
        assert code == EXIT_PASS
        loop_points = load(out)["loop_points"]
        # the two ends of the closure check, then the loop points, no refinement
        assert rows == [2, loop_points]

    @pytest.mark.parametrize(
        "argv",
        [
            ["su2-demo", "--grid", "10"],
            ["vortex", "--samples", "1024", "--expect", "1"],
            ["vortex", "--loop", "contractible", "--chi", "1.2", "--theta", "1.0",
             "--samples", "1024", "--expect", "0"],
        ],
    )
    def test_su2_commands_evaluate_stacks(self, tmp_path, monkeypatch, argv):
        # 1,000 grid points or 1,025 loop points: a few stacked calls, not one per point
        rows = self.count_rows(monkeypatch)
        code, _ = run_to_file(tmp_path, "r.json", argv)
        assert code == EXIT_PASS
        assert len(rows) <= 2
        assert sum(rows) >= 1000

    def test_su2_demo_peak_memory_bounded(self, tmp_path):
        # 64,000 points: the (64000, 8) table is 4 MiB; the points are
        # evaluated in blocks of Chart.block_rows(), so the temporaries of a
        # block stay far below those of one stack of all points (~80 MiB)
        tracemalloc.start()
        try:
            code, _ = run_to_file(tmp_path, "r.json", ["su2-demo", "--grid", "40"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_PASS
        assert peak < 24 * 2**20

    @pytest.mark.parametrize("points", ["10", "200"])
    def test_verify_ray_evaluates_stacks(self, tmp_path, monkeypatch, points):
        # one block of section points, one of factorizations and one round of
        # bridge candidates, each a few eigh calls for the whole stack
        eighs = self.count_calls(monkeypatch, np.linalg, "eigh")
        code, _ = run_to_file(
            tmp_path,
            "r.json",
            ["verify-ray", "--n", "3", "--points", points, "--bridge-points", "4", "--seed", "1"],
        )
        assert code == EXIT_PASS
        assert len(eighs) <= 16

    @pytest.mark.parametrize(
        "argv,count",
        [
            # one block of 200 points, one exponential factor
            (["verify-group", "--n", "3"], 1),
            # one block on the per-row chart: the coset, isotropy and U(1) factors
            (["verify-group", "--n", "3", "--chart", "cartan"], 3),
            # the section block (its coset factor), the factorization's
            # isotropy and U(1) factors (2; its coset factor is the
            # section's K(y)) and the section of one bridge round, whose
            # full frame is built from that section's K and dK/dy
            (["verify-ray", "--n", "4"], 4),
        ],
    )
    def test_one_eigendecomposition_per_factor_and_block(
        self, tmp_path, monkeypatch, argv, count
    ):
        # U and its partials come from one chart call, so the value and the
        # Daleckii-Krein partials share each factor's eigendecomposition
        eighs = self.count_calls(monkeypatch, np.linalg, "eigh")
        code, _ = run_to_file(tmp_path, "r.json", argv)
        assert code == EXIT_PASS
        assert len(eighs) == count

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-group", "--n", "3"],
            ["verify-ray", "--n", "4", "--points", "60", "--bridge-points", "30", "--seed", "1"],
        ],
    )
    def test_one_inversion_per_frame(self, tmp_path, monkeypatch, argv):
        # the metric inverses are products of the frame's inverse: no
        # eigvalsh, one inv per frame, that of its (n^2 - 1)-square omega,
        # and one per section, that of its 2(n - 1)-square coset block tau
        import traceback

        from sun_phase import charts, coset

        frames = self.count_calls(monkeypatch, charts, "left_invariant_frame")
        sections = self.count_calls(monkeypatch, coset, "section")
        eigvalshs = self.count_calls(monkeypatch, np.linalg, "eigvalsh")
        linalg_inv = np.linalg.inv
        invs = []

        def recorded(a):
            callers = {f.name for f in traceback.extract_stack()}
            invs.append((np.shape(a)[-2:], callers & {"section", "left_invariant_frame"}))
            return linalg_inv(a)

        monkeypatch.setattr(np.linalg, "inv", recorded)
        code, _ = run_to_file(tmp_path, "r.json", argv)
        assert code == EXIT_PASS
        assert len(eigvalshs) == 0
        n = int(argv[argv.index("--n") + 1])
        m, dim = 2 * (n - 1), n * n - 1
        assert invs.count(((dim, dim), {"left_invariant_frame"})) == len(frames)
        assert invs.count(((m, m), {"section"})) == len(sections)
        assert len(invs) == len(frames) + len(sections) > 0

    def test_verify_ray_bridge_reuses_the_section_frame(self, tmp_path, monkeypatch):
        # a section evaluates its coset factor only, so the ray block builds
        # no full frame; the bridge round builds one, for its kept rows, from
        # the K and dK/dy of its section, and no chart call makes partials
        from sun_phase import charts, coset

        frames = self.count_calls(monkeypatch, charts, "left_invariant_frame")
        partials = self.count_calls(monkeypatch, charts, "partials")
        sections = self.count_calls(monkeypatch, coset, "section")
        code, out = run_to_file(
            tmp_path,
            "r.json",
            ["verify-ray", "--n", "3", "--points", "10", "--bridge-points", "4", "--seed", "1"],
        )
        assert code == EXIT_PASS
        assert load(out)["bridge_points_evaluated"] == 4
        assert len(sections) == 2
        assert len(frames) == 1
        assert len(partials) == 0

    def test_verify_ray_builds_one_full_chart(self, tmp_path, monkeypatch):
        # the block size, the ray blocks and the bridge rounds share the
        # frame's chart instead of building it once each
        from sun_phase import coset

        charts_built = self.count_calls(monkeypatch, coset, "full_cartan_chart")
        code, out = run_to_file(
            tmp_path,
            "r.json",
            ["verify-ray", "--n", "4", "--points", "60", "--bridge-points", "30", "--seed", "1"],
        )
        assert code == EXIT_PASS
        assert load(out)["bridge_points_evaluated"] == 30
        assert len(charts_built) == 1


class TestSmallMatricesSkipLapackDet:
    """The SU(2) commands guard their 2 x 2 values with the closed-form
    determinant of `algebra.det`, never with `np.linalg.det`."""

    def test_su2_commands(self, tmp_path, monkeypatch):
        linalg_det = np.linalg.det
        shapes = []

        def spy(a):
            shapes.append(np.shape(a))
            return linalg_det(a)

        monkeypatch.setattr(np.linalg, "det", spy)
        code = main(["su2-demo", "--grid", "4", "--csv", str(tmp_path / "g.csv"),
                     "--out", str(tmp_path / "g.json")])
        assert code == EXIT_PASS
        code, _ = run_to_file(
            tmp_path, "v.json",
            ["vortex", "--loop", "phi-circle", "--theta", "0.1", "--expect", "1"],
        )
        assert code == EXIT_PASS
        # the spy is in place: the 3 x 3 frames still reach it
        assert shapes and all(shape[-2:] == (3, 3) for shape in shapes)


class TestConsoleScript:
    def test_installed_entrypoint(self, tmp_path):
        import shutil
        import subprocess

        exe = shutil.which("sun-phase")
        if exe is None:
            pytest.skip("console script not installed")
        out = tmp_path / "r.json"
        proc = subprocess.run(
            [exe, "vortex", "--loop", "phi-circle", "--theta", "0.1",
             "--expect", "1", "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert load(out)["winding"] == 1

    def test_python_m_sun_phase(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import sun_phase

        src = str(Path(sun_phase.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "sun_phase", "su2-demo", "--grid", "2"],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert (report["command"], report["pass"]) == ("su2-demo", True)


class TestParser:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_per_point_is_a_verify_group_option(self, tmp_path):
        argv = ["--n", "2", "--points", "5", "--seed", "3", "--per-point"]
        assert run_to_file(tmp_path, "g.json", ["verify-group"] + argv)[0] == EXIT_PASS
        assert run_to_file(tmp_path, "r.json", ["verify-ray"] + argv)[0] == EXIT_CONFIG_ERROR

    def test_every_float_option_takes_negative_exponent_notation(self):
        # argparse alone reads "-1e-3" as a flag; found by introspection, so
        # a float option added later is covered too
        import argparse

        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        checked = 0
        for name, sub in commands.choices.items():
            required = [
                token
                for action in sub._actions
                if action.required
                for token in (action.option_strings[0], "3")
            ]
            for action in sub._actions:
                if action.type is float:
                    args = sub.parse_args(required + [action.option_strings[0], "-1e-3"])
                    assert getattr(args, action.dest) == -1e-3, (name, action.dest)
                    checked += 1
        assert checked >= 6  # --sample-scale twice, --t-min/--t-max, --chi/--theta/--phi

    @pytest.mark.parametrize(
        "argv",
        [
            ["superosc", "--n", "3", "--samples", "64", "--t-min", "-1e-3"],
            ["vortex", "--phi", "-1e-1", "--expect", "1"],
        ],
    )
    def test_negative_exponent_values_run(self, tmp_path, argv):
        code, out = run_to_file(tmp_path, "r.json", argv)
        assert code == EXIT_PASS
        assert load(out)["pass"] is True

    # every option of every command: (default, type, choices, required)
    PAIRS = ["random", "spin-flip", "explicit"]
    STATE_OPTIONS = {
        ("--n",): (None, int, None, True),
        ("--seed",): (0, int, None, False),
        ("--pair",): ("random", None, PAIRS, False),
        ("--psi-i",): (None, None, None, False),
        ("--psi-f",): (None, None, None, False),
    }
    SWEEP_OPTIONS = {
        **STATE_OPTIONS,
        ("--sample-scale",): (1.0, float, None, False),
        ("--tol",): ([], None, None, False),
        ("--out",): (None, None, None, False),
    }
    OPTIONS = {
        "verify-group": {
            **SWEEP_OPTIONS,
            ("--points",): (200, int, None, False),
            ("--chart",): ("exp", None, ["exp", "su2-polar", "cartan"], False),
            ("--per-point",): (False, None, None, False),
        },
        "verify-ray": {
            **SWEEP_OPTIONS,
            ("--points",): (100, int, None, False),
            ("--bridge-points",): (50, int, None, False),
        },
        "su2-demo": {
            ("--grid",): (20, int, None, False),
            ("--out",): (None, None, None, False),
            ("--csv",): (None, None, None, False),
        },
        "superosc": {
            **STATE_OPTIONS,
            ("--samples",): (1024, int, None, False),
            ("--t-min",): (-np.pi, float, None, False),
            ("--t-max",): (np.pi, float, None, False),
            ("--out",): (None, None, None, False),
            ("--csv",): (None, None, None, False),
        },
        "vortex": {
            ("--loop",): ("phi-circle", None, ["phi-circle", "contractible"], False),
            ("--chi",): (np.pi / 2, float, None, False),
            ("--theta",): (0.1, float, None, False),
            ("--phi",): (0.3, float, None, False),
            ("--samples",): (64, int, None, False),
            ("--reverse",): (False, None, None, False),
            ("--expect",): (None, int, None, False),
            ("--out",): (None, None, None, False),
        },
    }

    def test_options_table(self):
        import argparse

        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(commands.choices) == set(self.OPTIONS)
        for name, sub in commands.choices.items():
            options = {
                tuple(action.option_strings): (
                    action.default, action.type, action.choices, action.required
                )
                for action in sub._actions
                if action.dest != "help"
            }
            assert options == self.OPTIONS[name], name

    def test_unknown_command_exits_two(self):
        assert main(["no-such-command"]) == 2

    def test_bad_tol_spec(self):
        code = main(["verify-group", "--n", "2", "--points", "5", "--tol", "oops"])
        assert code == EXIT_CONFIG_ERROR


class TestInputErrors:
    """Bad user input exits with code 2 and one `error:` line, never a traceback."""

    @staticmethod
    def assert_one_error_line(tmp_path, capsys, argv) -> str:
        code, out = run_to_file(tmp_path, "r.json", argv)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert not out.exists()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize(
        "argv",
        [
            # the scaled sampling box leaves the exp chart's domain
            ["verify-group", "--n", "3", "--points", "5", "--sample-scale", "3"],
            # the scaled sampling box leaves the |y| < pi/2 ball of the section
            ["verify-ray", "--n", "3", "--points", "5", "--sample-scale", "3"],
            # the scaled sampling box is wider than the largest double: rejected
            # before any draw, with no numpy overflow warning
            pytest.param(["verify-group", "--n", "2", "--chart", "su2-polar", "--points", "5",
                          "--sample-scale", "1e308"],
                         marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
            pytest.param(["verify-group", "--n", "3", "--chart", "cartan", "--points", "5",
                          "--sample-scale", "1e308"],
                         marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
            # the phi-circle loop at theta = 5e-4 runs inside the chart margin
            ["vortex", "--theta", "0.0005"],
            ["vortex", "--loop", "contractible", "--chi", "0.1", "--theta", "0.1"],
            ["superosc", "--n", "3", "--samples", "1"],
            ["superosc", "--n", "3", "--t-min", "1", "--t-max", "1"],
            # t_max - t_min overflows to inf
            ["superosc", "--n", "3", "--t-min=-1e308", "--t-max=1e308"],
            # the width is finite, but t times the largest eigenvalue overflows
            ["superosc", "--n", "3", "--t-min", "0", "--t-max", "1.79e308"],
            # the sampling box must have a positive size
            ["verify-group", "--n", "3", "--sample-scale", "-1"],
            ["verify-ray", "--n", "3", "--sample-scale", "-1"],
            # sizes whose arrays exceed any address space: the allocation fails at once
            ["su2-demo", "--grid", "100000"],
            ["superosc", "--n", "3", "--samples", "1000000000000000"],
            ["vortex", "--samples", "1000000000000000"],
            ["verify-ray", "--n", "3", "--points", "1000000000000000", "--bridge-points", "0"],
            ["verify-group", "--n", "3", "--points", "1000000000000000"],
            ["verify-ray", "--n", "2", "--points", "5", "--bridge-points", "1000000000000000"],
            # sizes beyond what numpy can address, where numpy raises ValueError
            ["verify-group", "--n", "3", "--points", "10000000000000000000"],
            ["verify-ray", "--n", "3", "--points", "2", "--bridge-points", "10000000000000000000"],
            ["vortex", "--samples", "10000000000000000000"],
            ["superosc", "--n", "3", "--samples", "10000000000000000000"],
            ["verify-group", "--n", "3000000000", "--points", "1"],
            ["su2-demo", "--grid", "1000000"],
            # sizes below their floor
            ["verify-ray", "--n", "3", "--points", "0"],
            ["verify-ray", "--n", "3", "--points", "5", "--bridge-points", "-1"],
            ["verify-ray", "--n", "1"],
            ["superosc", "--n", "1"],
            ["vortex", "--samples", "63"],
            # the box is finite, but the norms of its points overflow to inf,
            # which the domain test rejects with no numpy overflow warning
            pytest.param(["verify-group", "--n", "3", "--chart", "exp", "--points", "5",
                          "--sample-scale", "1e308"],
                         marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
            pytest.param(["verify-group", "--n", "3", "--chart", "exp", "--points", "5",
                          "--sample-scale", "1e307"],
                         marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
            pytest.param(["verify-ray", "--n", "3", "--points", "5", "--sample-scale", "1e308"],
                         marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
            # the ray half-width is finite but the box width is not: rejected
            # before any draw, not by numpy's OverflowError in `uniform`
            pytest.param(["verify-ray", "--n", "2", "--points", "5", "--sample-scale", "1.79e308"],
                         marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
            # a finite box whose points leave the |y| < pi/2 ball, or the chart
            pytest.param(["verify-ray", "--n", "3", "--points", "5", "--sample-scale", "1.79e308"],
                         marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
            pytest.param(["verify-group", "--n", "3", "--points", "5", "--sample-scale", "1.79e308"],
                         marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
        ],
    )
    def test_domain_error_is_config_error(self, tmp_path, capsys, argv):
        self.assert_one_error_line(tmp_path, capsys, argv)

    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from([("verify-group", "--chart", "exp"),
                                 ("verify-group", "--chart", "cartan"), ("verify-ray",)]),
        n=st.sampled_from([2, 3, 4]),
        # log-uniform in [1e-3, 1.78e308], and the largest double
        scale=st.one_of(st.floats(-3.0, 308.25).map(lambda e: 10.0**e),
                        st.just(sys.float_info.max)),
    )
    @example(command=("verify-ray",), n=2, scale=1.79e308)
    def test_any_sample_scale_ends_in_an_exit_code(self, command, n, scale):
        argv = [*command, "--n", str(n), "--points", "3", "--sample-scale", repr(scale)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # raises nothing
        assert code in (EXIT_PASS, EXIT_CHECK_FAILURE, EXIT_CONFIG_ERROR, EXIT_INCONCLUSIVE)
        if code != EXIT_PASS:
            assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) <= 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-group", "--n", "2", "--pair", "explicit", "--psi-i", "nan,1", "--psi-f", "0,1"],
            ["verify-group", "--n", "2", "--pair", "explicit", "--psi-i", "1,0", "--psi-f", "0,inf"],
            ["verify-group", "--n", "2", "--tol", "phase-identity=nan"],
            ["verify-group", "--n", "2", "--tol", "phase-identity=inf"],
            ["verify-group", "--n", "2", "--tol", "phase-identity=-inf"],
            ["superosc", "--n", "2", "--pair", "explicit", "--psi-i", "1,nan", "--psi-f", "1,0"],
            ["verify-group", "--n", "3", "--sample-scale", "nan"],
            ["verify-group", "--n", "3", "--sample-scale", "inf"],
            ["verify-ray", "--n", "3", "--sample-scale", "nan"],
            ["verify-ray", "--n", "3", "--sample-scale", "inf"],
            ["vortex", "--phi", "inf"],
            ["vortex", "--phi", "nan", "--loop", "contractible", "--chi", "1", "--theta", "1"],
        ],
    )
    def test_non_finite_input_rejected(self, tmp_path, capsys, argv):
        code, out = run_to_file(tmp_path, "r.json", argv)
        assert code == EXIT_CONFIG_ERROR
        assert not out.exists()
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            # a typo
            ["verify-group", "--n", "2", "--tol", "phse-identity=1e-30"],
            # a check that only verify-group reports
            ["verify-ray", "--n", "2", "--tol", "phase-identity=1e-3"],
        ],
    )
    def test_unknown_tol_name_rejected(self, tmp_path, capsys, argv):
        code, out = run_to_file(tmp_path, "r.json", argv)
        assert code == EXIT_CONFIG_ERROR
        assert not out.exists()
        assert argv[-1].partition("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["phase-identity", "=1"])
    def test_malformed_tol_rejected(self, tmp_path, capsys, entry):
        # an entry with no `=`, or with an empty name before it
        argv = ["verify-group", "--n", "3", "--tol", entry]
        err = self.assert_one_error_line(tmp_path, capsys, argv)
        assert err == f"error: --tol expects NAME=VALUE, got '{entry}'\n"

    @pytest.mark.parametrize("values", [("1e-30", "1"), ("1", "1e-30")])
    def test_repeated_tol_name_rejected(self, tmp_path, capsys, values):
        # the last entry would win, so a strict gate given first would loosen
        argv = ["verify-group", "--n", "3", "--points", "5"]
        for value in values:
            argv += ["--tol", f"phase-identity={value}"]
        assert "phase-identity" in self.assert_one_error_line(tmp_path, capsys, argv)

    @pytest.mark.parametrize("value", ["-1", "-1e-30"])
    def test_negative_tol_rejected(self, tmp_path, capsys, value):
        argv = ["verify-group", "--n", "2", "--points", "5", "--tol", f"phase-identity={value}"]
        code, out = run_to_file(tmp_path, "r.json", argv)
        assert code == EXIT_CONFIG_ERROR
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "phase-identity=" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify-group", "--n", "3", "--points", "5"], "--out"),
            (["su2-demo", "--grid", "3"], "--csv"),
        ],
    )
    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_unwritable_output_path(self, tmp_path, capsys, argv, flag, target):
        path = tmp_path / "absent" / "x" if target == "missing directory" else tmp_path
        assert main(argv + [flag, str(path)]) == EXIT_CONFIG_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-group", "--n", "3", "--points", "5", "--seed", "-1"],
            ["verify-ray", "--n", "3", "--points", "5", "--seed", "-1"],
            ["superosc", "--n", "3", "--samples", "64", "--seed", "-1"],
        ],
    )
    def test_negative_seed_rejected(self, tmp_path, capsys, argv):
        # numpy's generator takes only non-negative seeds
        assert "--seed" in self.assert_one_error_line(tmp_path, capsys, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-group", "--n", "3", "--points", "5", "--psi-i", "1,0,0"],
            ["superosc", "--n", "3", "--samples", "64", "--psi-f", "0,1,0"],
        ],
    )
    def test_state_without_explicit_pair_rejected(self, tmp_path, capsys, argv):
        # a state another pair kind would ignore
        assert "--pair explicit" in self.assert_one_error_line(tmp_path, capsys, argv)

    @pytest.mark.parametrize(
        "bounds, cause",
        [
            (["--t-min", "nan"], "start is not finite: nan"),
            (["--t-max", "nan"], "end is not finite: nan"),
            (["--t-min", "-inf"], "start is not finite: -inf"),
            (["--t-max", "inf"], "end is not finite: inf"),
            # finite bounds whose difference overflows
            (["--t-min=-1e308", "--t-max=1e308"], "width is not finite"),
        ],
    )
    def test_time_range_error_names_its_cause(self, tmp_path, capsys, bounds, cause):
        # a NaN bound is not an empty range, nor an infinite one an infinite width
        err = self.assert_one_error_line(tmp_path, capsys, ["superosc", "--n", "3"] + bounds)
        assert err == f"error: cannot trace the phase: time range {cause}\n"

    @pytest.mark.parametrize(
        "entries, ordinary",
        [
            # the norm overflows, or underflows to 0, though the state is neither
            ("1e308,1e308", "1,1"),
            ("1e-320,0", "1,0"),
        ],
    )
    def test_state_of_extreme_norm_normalized(self, tmp_path, capsys, entries, ordinary):
        argv = ["verify-group", "--n", "2", "--points", "3", "--pair", "explicit", "--psi-f", "1,0"]
        code, out = run_to_file(tmp_path, "scaled.json", argv + ["--psi-i", entries])
        err = capsys.readouterr().err
        assert code == EXIT_PASS
        assert err.startswith("warning: --psi-i norm deviates by ") and err.count("\n") == 1
        assert "inf" not in err and "nan" not in err
        # the same unit state, bit for bit, as the ordinary entries give
        code, plain = run_to_file(tmp_path, "plain.json", argv + ["--psi-i", ordinary])
        assert code == EXIT_PASS
        assert out.read_bytes() == plain.read_bytes()

    def test_zero_tol_accepted(self, tmp_path):
        argv = ["verify-group", "--n", "2", "--points", "5", "--seed", "1",
                "--tol", "gradient-lower-bound=0"]
        code, out = run_to_file(tmp_path, "r.json", argv)
        assert code == EXIT_PASS
        check = load(out)["checks"][-1]
        assert (check["name"], check["tolerance"]) == ("gradient-lower-bound", 0)

    def test_bridge_tol_accepted_without_bridge_points(self, tmp_path):
        argv = ["verify-ray", "--n", "2", "--points", "5", "--bridge-points", "0",
                "--seed", "1", "--tol", "bridge-phase=1e-3"]
        code, out = run_to_file(tmp_path, "r.json", argv)
        assert code == EXIT_PASS
        assert load(out)["config"]["tolerance_overrides"] == {"bridge-phase": 1e-3}


class TestConfigEcho:
    """A report's `config` holds only options of its command."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-group", "--n", "2", "--points", "3", "--tol", "phase-identity=1e-7"],
            ["verify-ray", "--n", "2", "--points", "3", "--bridge-points", "0"],
            ["superosc", "--n", "2", "--samples", "64", "--pair", "explicit",
             "--psi-i", "1,0", "--psi-f", "0.6,0.8"],
            ["su2-demo", "--grid", "3"],
            ["vortex", "--expect", "1"],
        ],
    )
    def test_config_keys_are_options(self, tmp_path, argv):
        code, out = run_to_file(tmp_path, "r.json", argv)
        assert code == EXIT_PASS
        options = set(vars(build_parser().parse_args(argv)))  # the command's option names
        # `tolerance_overrides` echoes the --tol entries
        keys = {"tol" if key == "tolerance_overrides" else key for key in load(out)["config"]}
        assert keys and keys <= options

    EXPLICIT = ["--pair", "explicit", "--psi-i", "1,0", "--psi-f", "0.6,0.8j"]
    TOL = ["--tol", "phase-identity=1", "--tol", "modulus-identity=1"]
    SWEEP = ["n", "chart", "points", "seed", "pair", "sample_scale"]

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["verify-group", "--n", "2", "--points", "3"], SWEEP),
            (["verify-group", "--n", "2", "--points", "3", *EXPLICIT, *TOL],
             SWEEP + ["psi_i", "psi_f", "tolerance_overrides"]),
            (["verify-ray", "--n", "2", "--points", "3", "--bridge-points", "0"],
             ["n", "points", "seed", "pair", "sample_scale"]),
            (["verify-ray", "--n", "2", "--points", "3", "--bridge-points", "0", *EXPLICIT,
              "--tol", "ray-phase-identity=1", "--tol", "factorization=1"],
             ["n", "points", "seed", "pair", "sample_scale", "psi_i", "psi_f",
              "tolerance_overrides"]),
            (["superosc", "--n", "2", "--samples", "64"], ["n", "seed", "pair"]),
            (["superosc", "--n", "2", "--samples", "64", *EXPLICIT],
             ["n", "seed", "pair", "psi_i", "psi_f"]),
            (["su2-demo", "--grid", "3"], ["grid"]),
            (["vortex", "--expect", "1"], ["loop", "chi", "theta", "phi", "samples", "reverse"]),
        ],
    )
    def test_config_key_order(self, tmp_path, argv, keys):
        code, out = run_to_file(tmp_path, "r.json", argv)
        assert code == EXIT_PASS
        config = load(out)["config"]
        assert list(config) == keys
        if "psi_i" in config:  # real parts, then imaginary parts, as 17-digit strings
            assert config["psi_i"] == ["1", "0", "0", "0"]
            assert config["psi_f"] == [format_float(v) for v in (0.6, 0, 0, 0.8)]
        if "tolerance_overrides" in config:  # sorted by name; the argv gives the other order
            overrides = config["tolerance_overrides"]
            assert list(overrides) == sorted(overrides) and len(overrides) == 2


class TestSweepDraws:
    """verify-group draws its points as a loop of per-point draws would:
    two `haar_state` calls for a random pair, then x from one `uniform` over
    the sampling box.  A cartan sweep evaluates each pair rotated onto e_0
    (`coset._reference_pair`)."""

    @staticmethod
    def evaluated(tmp_path, monkeypatch, argv):
        """The pair rows and points that `phase_gradient` receives, over all blocks."""
        from sun_phase import cli

        psi_i, psi_f, xs = [], [], []

        def recorded(pair, chart, x):
            psi_i.append(pair.psi_i)
            psi_f.append(pair.psi_f)
            xs.append(x)
            return phase_gradient(pair, chart, x)

        monkeypatch.setattr(cli, "phase_gradient", recorded)
        assert run_to_file(tmp_path, "r.json", argv)[0] == EXIT_PASS
        return psi_i, psi_f, np.concatenate(xs)

    @staticmethod
    def sample_box(n, chart):
        from sun_phase.algebra import build_gellmann_basis
        from sun_phase.coset import build_cartan_frame, full_cartan_chart

        if chart == "su2-polar":
            return su2_polar_chart().sample_box
        if chart == "exp":
            return exp_chart(build_gellmann_basis(n)).sample_box
        return full_cartan_chart(build_cartan_frame(np.eye(n)[0])).sample_box

    @classmethod
    def reference(cls, n, chart, points, seed, random_pair, scale=1.0):
        """The per-point loop: psi_i, psi_f, x per point, in that order, with
        the pair of a cartan sweep rotated point by point."""
        from sun_phase.algebra import StatePair, haar_state
        from sun_phase.coset import _reference_pair

        lo, hi = cls.sample_box(n, chart).T
        half = (hi - lo) / 2.0 * scale
        rng = np.random.default_rng(seed)
        psi_i, psi_f, xs = [], [], []
        for _ in range(points):
            if random_pair:
                pair = StatePair(haar_state(n, rng), haar_state(n, rng))
                if chart == "cartan":
                    pair = _reference_pair(pair)
                psi_i.append(pair.psi_i)
                psi_f.append(pair.psi_f)
            xs.append(rng.uniform((lo + hi) / 2.0 - half, (lo + hi) / 2.0 + half))
        return np.array(psi_i), np.array(psi_f), np.array(xs)

    @pytest.mark.parametrize(
        "chart, n, scale",
        [pytest.param(chart, n, 1.0, id=f"{chart}-{n}")
         for chart in ("exp", "cartan") for n in (2, 3, 4, 8)]
        # the su2-polar box [margin, pi - margin] has low != -high; a scale
        # below 1 shrinks the box about its centre
        + [pytest.param("su2-polar", 2, 1.0, id="su2-polar-2"),
           pytest.param("cartan", 3, 0.5, id="cartan-3-scale0.5")],
    )
    def test_random_pairs_equal_per_point_draws(self, tmp_path, monkeypatch, chart, n, scale):
        points = 9 if n == 8 else 13
        for seed in range(20):
            argv = ["verify-group", "--n", str(n), "--chart", chart, "--points", str(points),
                    "--seed", str(seed), "--sample-scale", str(scale)]
            psi_i, psi_f, xs = self.evaluated(tmp_path, monkeypatch, argv)
            ref_i, ref_f, ref_x = self.reference(n, chart, points, seed, True, scale)
            for got, want in ((np.concatenate(psi_i), ref_i), (np.concatenate(psi_f), ref_f),
                              (xs, ref_x)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "pair, n, chart, scale",
        [pytest.param(pair, n, "exp", 1.0, id=f"{pair}-{n}")
         for pair in ("explicit", "spin-flip") for n in (2, 3, 4, 8)]
        + [pytest.param(pair, n, chart, scale, id=f"{pair}-{n}-{chart}-scale{scale}")
           for pair in ("explicit", "spin-flip")
           for chart, n, scale in (("su2-polar", 2, 1.0), ("exp", 3, 0.5))],
    )
    def test_fixed_pair_draws_only_x(self, tmp_path, monkeypatch, pair, n, chart, scale):
        states = ["--psi-i", ",".join(["1"] + ["0"] * (n - 1)),
                  "--psi-f", ",".join(["0.6", "0.8j"] + ["0"] * (n - 2))]
        for seed in range(20):
            argv = ["verify-group", "--n", str(n), "--chart", chart, "--pair", pair,
                    "--points", "11", "--seed", str(seed), "--sample-scale", str(scale)]
            argv += states if pair == "explicit" else []
            psi_i, _, xs = self.evaluated(tmp_path, monkeypatch, argv)
            assert all(psi.shape == (n,) for psi in psi_i)  # one pair serves every row
            _, _, ref_x = self.reference(n, chart, 11, seed, False, scale)
            assert xs.tobytes() == ref_x.tobytes()


class TestDispatch:
    """`main` calls the runner of each command through its `cli` module
    binding, the binding a tracer replaces, with the parsed arguments alone."""

    @pytest.mark.parametrize(
        "argv, runner",
        [
            (["verify-group", "--n", "2"], "run_group_sweep"),
            (["verify-ray", "--n", "2"], "run_ray_sweep"),
            (["su2-demo"], "run_su2_demo"),
            (["superosc", "--n", "2"], "run_superosc"),
            (["vortex"], "run_vortex"),
        ],
    )
    def test_main_calls_the_module_binding(self, monkeypatch, argv, runner):
        from sun_phase import cli

        calls = []

        def recorder(args):
            calls.append(args)
            return 7

        monkeypatch.setattr(cli, runner, recorder)
        assert main(argv) == 7
        assert [args.command for args in calls] == [argv[0]]


class TestSharedParser:
    """The parser is built once per process; no call leaves state in it
    that changes what a later call does."""

    ARGV = ["verify-group", "--n", "2", "--points", "5", "--seed", "4"]

    @staticmethod
    def report_bytes(tmp_path, name, argv):
        code, out = run_to_file(tmp_path, name, argv)
        assert code == EXIT_PASS
        return out.read_bytes()

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_later_call_constructs_no_parser(self, tmp_path, monkeypatch):
        import argparse

        assert main(self.ARGV + ["--out", str(tmp_path / "warm.json")]) == EXIT_PASS
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(self.ARGV + ["--out", str(tmp_path / "r.json")]) == EXIT_PASS
        assert built == []

    def test_rebound_runner_runs_after_warm_up(self, tmp_path, monkeypatch):
        from sun_phase import cli

        argv = ["superosc", "--n", "2", "--samples", "64"]
        assert main(argv + ["--out", str(tmp_path / "warm.json")]) == EXIT_PASS
        calls = []
        monkeypatch.setattr(cli, "run_superosc", lambda args: calls.append(args.samples) or 7)
        assert main(argv) == 7
        assert calls == [64]

    def test_tol_override_does_not_carry_over(self, tmp_path):
        import argparse

        from sun_phase import cli

        cli.build_parser.cache_clear()  # the argv runs first, on a new parser
        first = self.report_bytes(tmp_path, "first.json", self.ARGV)
        overridden = self.report_bytes(
            tmp_path, "tol.json", self.ARGV + ["--tol", "phase-identity=1"]
        )
        assert b"tolerance_overrides" in overridden
        assert self.report_bytes(tmp_path, "again.json", self.ARGV) == first

        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        (tol,) = [a for a in commands.choices["verify-group"]._actions if a.dest == "tol"]
        assert tol.default == []

    def test_rejected_argv_leaves_no_state(self, tmp_path, capsys):
        expected = self.report_bytes(tmp_path, "first.json", self.ARGV)
        assert main(["verify-group", "--points", "5"]) == EXIT_CONFIG_ERROR  # --n missing
        assert "--n" in capsys.readouterr().err
        assert self.report_bytes(tmp_path, "again.json", self.ARGV) == expected

    def test_validation_leaves_the_parser_defaults(self, tmp_path):
        # the runners rebind `args.tol`, `args.psi_i` and `args.psi_f`; a
        # namespace starts from the parser's own default objects
        explicit = ["superosc", "--n", "2", "--samples", "64", "--pair", "explicit",
                    "--psi-i", "1,0", "--psi-f", "0.6,0.8j"]
        assert main(explicit + ["--out", str(tmp_path / "osc.json")]) == EXIT_PASS
        tol = self.ARGV + ["--tol", "phase-identity=1", "--out", str(tmp_path / "tol.json")]
        assert main(tol) == EXIT_PASS
        for argv in (["verify-group", "--n", "2"], ["verify-ray", "--n", "2"],
                     ["superosc", "--n", "2"]):
            fresh = build_parser().parse_args(argv)
            assert fresh.psi_i is None and fresh.psi_f is None
            assert getattr(fresh, "tol", []) == []

    def test_help_twice(self, capsys):
        assert main(["--help"]) == 0
        first = capsys.readouterr().out
        assert main(["--help"]) == 0
        assert capsys.readouterr().out == first


class TestLibraryErrors:
    """An error raised inside the library ends the command with exit code 1
    and one `error:` line, not a traceback."""

    def test_non_unitary_chart(self, tmp_path, capsys, monkeypatch):
        import dataclasses

        from sun_phase import cli

        def broken_exp_chart(basis):
            chart = exp_chart(basis)

            def doubled(x):  # U and its partials from the one chart call
                u, du = chart.map_partials_fn(x)
                return 2.0 * u, 2.0 * du

            return dataclasses.replace(
                chart, map_fn=lambda x: 2.0 * chart.map_fn(x), map_partials_fn=doubled
            )

        monkeypatch.setattr(cli, "exp_chart", broken_exp_chart)
        code, out = run_to_file(
            tmp_path, "r.json", ["verify-group", "--n", "3", "--points", "5", "--seed", "1"]
        )
        err = capsys.readouterr().err
        assert code == EXIT_CHECK_FAILURE
        assert not out.exists()
        assert err.count("\n") == 1
        assert err.startswith("error: InternalConsistencyError: chart produced a non-unitary")
        assert "Traceback" not in err

    def test_nan_partial(self, tmp_path, capsys, monkeypatch):
        # one NaN entry of dU trips the frame's guards before det(omega) sees
        # it (no RuntimeWarning) and ends the command with one error line
        import dataclasses

        from sun_phase import cli

        def nan_exp_chart(basis):
            chart = exp_chart(basis)

            def one_nan(x):
                u, du = chart.map_partials_fn(x)
                du = du.copy()
                du.reshape(-1)[0] = np.nan
                return u, du

            return dataclasses.replace(chart, map_partials_fn=one_nan)

        monkeypatch.setattr(cli, "exp_chart", nan_exp_chart)
        code, out = run_to_file(
            tmp_path, "r.json", ["verify-group", "--n", "3", "--points", "5", "--seed", "1"]
        )
        err = capsys.readouterr().err
        assert code == EXIT_CHECK_FAILURE
        assert not out.exists()
        assert err.count("\n") == 1
        assert err.startswith("error: InternalConsistencyError: U^dag dU not in the algebra")
        assert "Traceback" not in err

    def test_points_below_p_grad_are_skipped(self, tmp_path, monkeypatch):
        # an orthogonal pair near the origin: one point of this seed has
        # p < P_GRAD, where the gradient formulas divide by ~0
        from sun_phase import cli

        grads = []

        def recorded(*args):
            grads.append(phase_gradient(*args))
            return grads[-1]

        monkeypatch.setattr(cli, "phase_gradient", recorded)
        code, out = run_to_file(
            tmp_path,
            "r.json",
            ["verify-group", "--n", "2", "--pair", "explicit", "--psi-i", "1,0", "--psi-f",
             "0,1", "--sample-scale", "2e-3", "--points", "40", "--seed", "1"],
        )
        assert code == EXIT_PASS
        p = np.concatenate([grad.p for grad in grads])
        assert np.sum(p < P_GRAD) == 1
        assert load(out)["points_skipped_low_amplitude"] == np.sum(p <= 1e-6) > 1

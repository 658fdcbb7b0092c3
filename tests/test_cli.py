import json
import tracemalloc

import numpy as np
import pytest

from sun_phase.amplitude import phase_gradient
from sun_phase.charts import exp_chart
from sun_phase.tolerances import P_GRAD

from sun_phase.cli import (
    CSV_BLOCK_ROWS,
    build_parser,
    EXIT_CHECK_FAILURE,
    EXIT_CONFIG_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
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


def rowwise_csv(header, rows):
    """Oracle: the row-by-row, cell-by-cell CSV formatter."""

    def cell(v):
        if isinstance(v, (float, np.floating)):
            return format(float(v), ".17g")
        return str(v)

    return ",".join(header) + "\n" + "".join(",".join(cell(v) for v in row) + "\n" for row in rows)


class TestWriteCsv:
    def test_matches_rowwise_formatter(self, tmp_path):
        special = [1.0, float("nan"), -0.0, 1e-300, 5e-324, float("inf"), -np.pi, 1 / 3, 1e22]
        rows = 2 * CSV_BLOCK_ROWS + 3
        rng = np.random.default_rng(5)
        floats = np.resize(np.array(special), rows) * np.where(rng.random(rows) < 0.5, 1.0, -1e-7)
        columns = [
            floats,
            rng.integers(-10**12, 10**12, rows),
            np.float32(rng.standard_normal(rows)),
        ]
        header = ["f", "i", "f32"]
        path = tmp_path / "c.csv"
        write_csv(str(path), header, columns)
        assert path.read_text() == rowwise_csv(header, zip(*columns))

    def test_header_only(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(str(path), ["a", "b"], [np.empty(0), np.empty(0)])
        assert path.read_text() == "a,b\n"

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            write_csv(str(tmp_path / "c.csv"), ["a"], [np.zeros(3, dtype=bool)])

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "c.csv"), ["a", "b"], [np.zeros(3), np.zeros(2)])

    def test_peak_memory_bounded(self, tmp_path):
        # a 15,000-sample superosc trace: blocks of CSV_BLOCK_ROWS rows keep
        # the formatted text and cells far below the size of the whole file
        rng = np.random.default_rng(6)
        columns = [rng.standard_normal(15000) for _ in range(4)]
        columns.append(rng.integers(0, 2, 15000))
        tracemalloc.start()
        try:
            write_csv(str(tmp_path / "c.csv"), ["a", "b", "c", "d", "e"], columns)
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
        # a high skip threshold makes rounds skip candidates and reach the
        # 4x attempt cap (seed 1: 4 bridge points, seed 5: none); the oracle
        # draws and checks one candidate at a time
        from sun_phase import cli
        from sun_phase.algebra import StatePair, build_gellmann_basis, haar_state
        from sun_phase.coset import bridge_residuals, build_cartan_frame, coset_element, section

        monkeypatch.setattr(cli, "P_SKIP", 0.5)
        argv = ["verify-ray", "--n", "3", "--points", "20", "--bridge-points", "6"]
        code, out = run_to_file(tmp_path, "r.json", argv + ["--seed", str(seed)])
        report = load(out)

        rng = np.random.default_rng(seed)
        pair = StatePair(haar_state(3, rng), haar_state(3, rng))
        frame = build_cartan_frame(pair.psi_i, build_gellmann_basis(3))
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
        assert lines[0] == "t,re_amplitude,im_amplitude,omega,defined"
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

    def test_config_echo_keeps_sweep_defaults(self, tmp_path):
        code, out = run_to_file(tmp_path, "r.json", ["superosc", "--n", "2", "--samples", "64"])
        assert code == EXIT_PASS
        config = load(out)["config"]
        assert config["points"] == 200
        assert config["chart"] == "exp"
        assert "tolerance_overrides" not in config


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
        # the chart follows each random pair; one per-row chart holds all 12
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
            # the section block (its slice has the coset factor only), the
            # factorization's full map (3; its right side is the section's
            # K(y)) and one bridge round
            (["verify-ray", "--n", "4"], 5),
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

    def test_verify_ray_bridge_reuses_the_section_frame(self, tmp_path, monkeypatch):
        # one frame for the section block and one for the bridge round: the
        # bridge's group side takes the partials and frame of its section
        from sun_phase import charts

        frames = self.count_calls(monkeypatch, charts, "left_invariant_frame")
        partials = self.count_calls(monkeypatch, charts, "partials")
        code, out = run_to_file(
            tmp_path,
            "r.json",
            ["verify-ray", "--n", "3", "--points", "10", "--bridge-points", "4", "--seed", "1"],
        )
        assert code == EXIT_PASS
        assert load(out)["bridge_points_evaluated"] == 4
        assert len(frames) == len(partials) == 2


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

    def test_unknown_command_exits_two(self):
        assert main(["no-such-command"]) == 2

    def test_bad_tol_spec(self):
        code = main(["verify-group", "--n", "2", "--points", "5", "--tol", "oops"])
        assert code == EXIT_CONFIG_ERROR


class TestInputErrors:
    """Bad user input exits with code 2 and one `error:` line, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            # the scaled sampling box leaves the exp chart's domain
            ["verify-group", "--n", "3", "--points", "5", "--sample-scale", "3"],
            # the scaled sampling box leaves the |y| < pi/2 ball of the section
            ["verify-ray", "--n", "3", "--points", "5", "--sample-scale", "3"],
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
        ],
    )
    def test_domain_error_is_config_error(self, tmp_path, capsys, argv):
        code, out = run_to_file(tmp_path, "r.json", argv)
        assert code == EXIT_CONFIG_ERROR
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-group", "--n", "2", "--pair", "explicit", "--psi-i", "nan,1", "--psi-f", "0,1"],
            ["verify-group", "--n", "2", "--pair", "explicit", "--psi-i", "1,0", "--psi-f", "0,inf"],
            ["verify-group", "--n", "2", "--tol", "phase-identity=nan"],
            ["verify-group", "--n", "2", "--tol", "phase-identity=inf"],
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

    def test_bridge_tol_accepted_without_bridge_points(self, tmp_path):
        argv = ["verify-ray", "--n", "2", "--points", "5", "--bridge-points", "0",
                "--seed", "1", "--tol", "bridge-phase=1e-3"]
        code, out = run_to_file(tmp_path, "r.json", argv)
        assert code == EXIT_PASS
        assert load(out)["config"]["tolerance_overrides"] == {"bridge-phase": 1e-3}


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

"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a PASS/FAIL line (visible with pytest -s or -rA).  Two
sub-criteria assert a sign convention that is arithmetically
incompatible with the rest of this contract (the U(1) generator is
normalized with a negative eigenvalue on the reference state, which
fixes the opposite sign); they are kept as strict expected failures,
each paired with a passing test of the numerically resolved relation at
the same tolerance.
"""
import json

import numpy as np
import pytest

from helpers import random_hermitian
from sun_phase.algebra import (
    StatePair,
    build_gellmann_basis,
    haar_state,
)
from sun_phase.amplitude import (
    group_relation_residuals,
    min_gradient_bound,
    phase_gradient,
    polar_amplitude,
    principal_angle,
    reconstruct_modulus,
    vortex_winding,
)
from sun_phase.charts import exp_chart, su2_polar_chart
from sun_phase.cli import main
from sun_phase.coset import (
    bridge_residuals,
    build_cartan_frame,
    coset_element,
    factorization_residual,
    ray_relation_residuals,
    section,
    u1_berry_residuals,
    u1_eigenvalue,
)
from sun_phase.superosc import aligned_generator, local_frequency, phase_trace

PLUS = np.array([1.0, 0.0], dtype=complex)
MINUS = np.array([0.0, 1.0], dtype=complex)
SPIN_FLIP = StatePair(PLUS, MINUS)

SWEEP_POINTS = 200


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def group_sweeps():
    """Shared seeded sweeps over (n, chart) with random state pairs.

    Returns {(n, label): list of (p, residual_triple, rec_rel_error,
    phase_grad_sq)} over points with p > 1e-6.
    """
    combos = [
        (2, "exp"),
        (3, "exp"),
        (4, "exp"),
        (2, "su2-polar"),
    ]
    out = {}
    for n, label in combos:
        chart = su2_polar_chart() if label == "su2-polar" else exp_chart(
            build_gellmann_basis(n)
        )
        rng = np.random.default_rng(31337 + 10 * n + (1 if label == "su2-polar" else 0))
        rows = []
        attempts = 0
        while len(rows) < SWEEP_POINTS and attempts < 4 * SWEEP_POINTS:
            attempts += 1
            pair = StatePair(haar_state(n, rng), haar_state(n, rng))
            x = rng.uniform(chart.sample_box[:, 0], chart.sample_box[:, 1])
            amp = polar_amplitude(pair, chart.evaluate(x))
            if amp.p <= 1e-6:
                continue
            res = group_relation_residuals(pair, chart, x)
            grad = phase_gradient(pair, chart, x)
            rec = reconstruct_modulus(pair, chart, x)
            rel = abs(rec - np.sqrt(amp.p)) / np.sqrt(amp.p)
            rows.append((amp.p, res, rel, grad.phase_grad_sq))
        assert len(rows) == SWEEP_POINTS
        out[(n, label)] = rows
    return out


class TestCriterion1GradientIdentities:
    def test_residuals_across_charts(self, group_sweeps):
        worst = 0.0
        for (n, label), rows in group_sweeps.items():
            for _, res, _, _ in rows:
                worst = max(worst, max(res))
        assert _report(
            "1 gradient-identities",
            worst < 1e-8,
            f"max residual {worst:.3e} over {len(group_sweeps)} sweeps x "
            f"{SWEEP_POINTS} points, tolerance 1e-8",
        )


class TestCriterion2Su2ClosedForm:
    def test_grid(self):
        chart = su2_polar_chart()
        grid = np.linspace(0.2, np.pi - 0.2, 20)
        phis = np.linspace(0.0, 2 * np.pi, 20, endpoint=False)
        worst_p = worst_eta = worst_grad = 0.0
        for chi in grid:
            for theta in grid:
                for phi in phis:
                    x = np.array([chi, theta, phi])
                    amp = polar_amplitude(SPIN_FLIP, chart.evaluate(x))
                    grad = phase_gradient(SPIN_FLIP, chart, x)
                    worst_p = max(
                        worst_p, abs(amp.p - np.sin(chi) ** 2 * np.sin(theta) ** 2)
                    )
                    worst_eta = max(
                        worst_eta, abs(principal_angle(amp.eta - (phi + np.pi / 2)))
                    )
                    worst_grad = max(
                        worst_grad, abs(grad.phase_grad_sq - 1.0 / amp.p)
                    )
        ok = worst_p < 1e-10 and worst_eta < 1e-10 and worst_grad < 1e-10
        assert _report(
            "2 su2-closed-form",
            ok,
            f"20^3 grid, |dp| {worst_p:.2e}, |deta| {worst_eta:.2e}, "
            f"|d grad| {worst_grad:.2e}, tolerance 1e-10",
        )


class TestCriterion3Reconstruction:
    def test_relative_error(self, group_sweeps):
        worst = 0.0
        for rows in group_sweeps.values():
            for _, _, rel, _ in rows:
                worst = max(worst, rel)
        assert _report(
            "3 modulus-reconstruction",
            worst < 1e-8,
            f"max relative error {worst:.3e}, tolerance 1e-8",
        )


class TestCriterion4Completeness:
    def test_seeded_pairs(self):
        from sun_phase.algebra import completeness_residual

        worst = 0.0
        for n in (2, 3, 4, 5):
            basis = build_gellmann_basis(n)
            rng = np.random.default_rng(4000 + n)
            for _ in range(50):
                x = random_hermitian(n, rng)
                y = random_hermitian(n, rng)
                worst = max(worst, completeness_residual(x, y, basis))
        assert _report(
            "4 completeness-identity",
            worst < 1e-10,
            f"max residual {worst:.3e} over 50 pairs x n in 2..5, tolerance 1e-10",
        )


class TestCriterion5LowerBound:
    def test_sweep_minimum(self, group_sweeps):
        worst_deficit = 0.0
        for (n, _), rows in group_sweeps.items():
            bound = 2.0 * (n - 1) / n
            for _, _, _, grad_sq in rows:
                worst_deficit = max(worst_deficit, bound - grad_sq)
        assert _report(
            "5a gradient-lower-bound",
            worst_deficit < 1e-9,
            f"max deficit {worst_deficit:.3e}, tolerance 1e-9",
        )

    def test_equality_at_identity(self):
        worst = 0.0
        for n in (2, 3, 4):
            rng = np.random.default_rng(5000 + n)
            psi = haar_state(n, rng)
            chart = exp_chart(build_gellmann_basis(n))
            grad = phase_gradient(StatePair(psi, psi), chart, np.zeros(n * n - 1))
            worst = max(worst, abs(grad.phase_grad_sq - 2.0 * (n - 1) / n))
        assert _report(
            "5b bound-saturation-at-identity",
            worst < 1e-8,
            f"max |grad^2 - 2(n-1)/n| {worst:.3e} at p = 1, tolerance 1e-8",
        )


class TestCriterion6Vortex:
    def test_windings(self):
        chart = su2_polar_chart()
        phis = np.linspace(0.0, 2 * np.pi, 65)
        forward = [np.array([np.pi / 2, 0.1, p]) for p in phis]
        backward = forward[::-1]
        ts = np.linspace(0.0, 2 * np.pi, 65)
        contractible = [
            np.array([1.2 + 0.25 * np.cos(t), 1.0 + 0.25 * np.sin(t), 0.3]) for t in ts
        ]
        w_fwd = vortex_winding(SPIN_FLIP, chart, forward).winding
        w_bwd = vortex_winding(SPIN_FLIP, chart, backward).winding
        w_c = vortex_winding(SPIN_FLIP, chart, contractible).winding
        ok = (w_fwd, w_bwd, w_c) == (1, -1, 0)
        assert _report(
            "6 vortex-winding",
            ok,
            f"phi-circle {w_fwd:+d}, reversed {w_bwd:+d}, contractible {w_c:d}",
        )


class TestCriterion7CartanFrame:
    def test_eigenvalue_and_orthogonality(self):
        worst_eig = 0.0
        worst_gram = 0.0
        for n in (2, 3, 4):
            rng = np.random.default_rng(7000 + n)
            frame = build_cartan_frame(haar_state(n, rng))
            target = u1_eigenvalue(n)
            worst_eig = max(
                worst_eig,
                float(np.max(np.abs(frame.lambda0 @ frame.psi_i - target * frame.psi_i))),
            )
            stack = frame.stacked()
            gram = np.einsum("aij,bji->ab", stack, stack).real / 2.0
            worst_gram = max(
                worst_gram, float(np.max(np.abs(gram - np.eye(len(stack)))))
            )
        ok = worst_eig < 1e-10 and worst_gram < 1e-12
        assert _report(
            "7a cartan-frame-structure",
            ok,
            f"eigenvalue residual {worst_eig:.3e} (tol 1e-10), "
            f"orthonormality residual {worst_gram:.3e} (tol 1e-12)",
        )

    def test_factorization(self):
        worst = 0.0
        for n in (2, 3):
            rng = np.random.default_rng(7100 + n)
            frame = build_cartan_frame(haar_state(n, rng))
            pair = StatePair(frame.psi_i, haar_state(n, rng))
            for _ in range(100):
                y = rng.uniform(-0.6, 0.6, frame.dim_coset)
                if np.linalg.norm(y) >= np.pi / 2:
                    continue
                xi_s = rng.uniform(-0.7, 0.7, frame.dim_iso)
                xi0 = rng.uniform(-3.0, 3.0)
                worst = max(worst, factorization_residual(pair, section(frame, y), xi_s, xi0))
        assert _report(
            "7b amplitude-factorization",
            worst < 1e-9,
            f"max residual {worst:.3e} over 100 points x n in (2, 3), tolerance 1e-9",
        )


def _section_sweep(n, points=100):
    # usable section points follow the ray-sweep driver rule (p > 1e-4:
    # the residuals' rounding error scales as 1/p)
    rng = np.random.default_rng(8000 + n)
    frame = build_cartan_frame(haar_state(n, rng))
    pair = StatePair(frame.psi_i, haar_state(n, rng))
    half = 0.62 * (np.pi / 2) / np.sqrt(frame.dim_coset)
    ys = []
    attempts = 0
    while len(ys) < points and attempts < 4 * points:
        attempts += 1
        y = rng.uniform(-half, half, frame.dim_coset)
        amp = complex(pair.psi_f.conj() @ (coset_element(frame, y) @ frame.psi_i))
        if abs(amp) ** 2 > 1e-4:
            ys.append(y)
    assert len(ys) == points
    return frame, pair, ys


class TestCriterion8RayRelations:
    def test_relation_residuals(self):
        worst = 0.0
        for n in (2, 3):
            frame, pair, ys = _section_sweep(n)
            for y in ys:
                worst = max(worst, max(ray_relation_residuals(pair, section(frame, y))))
        assert _report(
            "8a ray-relations",
            worst < 1e-5,
            f"max residual {worst:.3e} over 100 points x n in (2, 3), tolerance 1e-5",
        )

    def test_fs_metric_agreement(self):
        worst = 0.0
        for n in (2, 3):
            frame, _, ys = _section_sweep(n)
            for y in ys:
                point = section(frame, y)
                worst = max(
                    worst,
                    float(np.max(np.abs(point.fs_metric - point.fs_metric_state))),
                )
        assert _report(
            "8b fs-metric-agreement",
            worst < 1e-6,
            f"max disagreement {worst:.3e}, tolerance 1e-6",
        )

    def test_u1_berry_proportionality_resolved_sign(self):
        # u1 = -sqrt(n/(2(n-1))) A: forced by the negative eigenvalue of
        # the U(1) generator on psi_i (criterion 7a)
        worst = 0.0
        for n in (2, 3):
            frame, _, ys = _section_sweep(n, points=50)
            for y in ys:
                _, res_minus_convention = u1_berry_residuals(section(frame, y))
                worst = max(worst, res_minus_convention)
        assert _report(
            "8c u1-berry-proportionality (coefficient -sqrt(n/(2(n-1))))",
            worst < 1e-8,
            f"max residual {worst:.3e}, tolerance 1e-8",
        )

    @pytest.mark.xfail(
        strict=True,
        reason="the positive-coefficient convention contradicts the "
        "negative U(1) eigenvalue fixed by criterion 7a; the relation "
        "holds with the opposite sign (see test above and notes)",
    )
    def test_u1_berry_proportionality_as_stated(self):
        worst = 0.0
        for n in (2, 3):
            frame, _, ys = _section_sweep(n, points=50)
            for y in ys:
                res_plus_convention, _ = u1_berry_residuals(section(frame, y))
                worst = max(worst, res_plus_convention)
        _report(
            "8d u1-berry-proportionality (coefficient +sqrt(n/(2(n-1))), as stated)",
            worst < 1e-8,
            f"max residual {worst:.3e}: fails by construction, sign resolved in 8c",
        )
        assert worst < 1e-8


class TestCriterion9Bridge:
    def test_bridge_residuals(self):
        worst = 0.0
        for n in (2, 3):
            frame, pair, ys = _section_sweep(n, points=50)
            for y in ys:
                result = bridge_residuals(pair, section(frame, y))
                worst = max(
                    worst,
                    result.residual_phase,
                    result.residual_mixed,
                    result.residual_modulus,
                )
        assert _report(
            "9a bridge-identities",
            worst < 1e-4,
            f"max residual {worst:.3e} over 50 points x n in (2, 3), tolerance 1e-4",
        )

    def test_u1_phase_rate_resolved_sign(self):
        # d eta / d xi0 equals the (negative) U(1) eigenvalue; the frame
        # dual along the U(1) direction is exactly d/d xi0 at xi = 0
        worst_rate = 0.0
        worst_mag = 0.0
        for n in (2, 3):
            frame, pair, ys = _section_sweep(n, points=10)
            for y in ys:
                result = bridge_residuals(pair, section(frame, y))
                worst_rate = max(
                    worst_rate, abs(result.grad0_phase - u1_eigenvalue(n))
                )
                worst_mag = max(
                    worst_mag,
                    abs(abs(result.grad0_phase) - np.sqrt(2.0 * (n - 1) / n)),
                )
        ok = worst_rate < 1e-6 and worst_mag < 1e-6
        assert _report(
            "9b u1-phase-rate (value -sqrt(2(n-1)/n), magnitude sqrt(2(n-1)/n))",
            ok,
            f"signed residual {worst_rate:.3e}, magnitude residual "
            f"{worst_mag:.3e}, tolerance 1e-6",
        )

    @pytest.mark.xfail(
        strict=True,
        reason="the positive phase-rate contradicts the amplitude "
        "factorization phase exp(-i sqrt(2(n-1)/n) xi0) verified in 7b; "
        "the component is negative (see test above and notes)",
    )
    def test_u1_phase_rate_as_stated(self):
        worst = 0.0
        for n in (2, 3):
            frame, pair, ys = _section_sweep(n, points=10)
            for y in ys:
                result = bridge_residuals(pair, section(frame, y))
                worst = max(
                    worst, abs(result.grad0_phase - np.sqrt(2.0 * (n - 1) / n))
                )
        _report(
            "9c u1-phase-rate (+sqrt(2(n-1)/n), as stated)",
            worst < 1e-6,
            f"residual {worst:.3e}: fails by construction, sign resolved in 9b",
        )
        assert worst < 1e-6


class TestCriterion10Superoscillation:
    def test_aligned_generator_sweep(self):
        worst_gap = 0.0
        worst_cap = 0.0
        worst_fourier = 0.0
        for n in (2, 3, 4):
            rng = np.random.default_rng(10_000 + n)
            basis = build_gellmann_basis(n)
            bound = min_gradient_bound(n)
            done = 0
            while done < 200:
                pair = StatePair(haar_state(n, rng), haar_state(n, rng))
                if abs(pair.psi_f.conj() @ pair.psi_i) ** 2 < 1e-8:
                    continue
                gen = aligned_generator(pair, basis)
                omega0 = local_frequency(pair, gen, 0.0)
                worst_gap = max(worst_gap, gen.max_abs_eigenvalue - omega0)
                worst_cap = max(worst_cap, gen.max_abs_eigenvalue - bound)
                trace = phase_trace(pair, gen, samples=128)
                rebuilt = np.einsum(
                    "k,sk->s",
                    trace.fourier_c,
                    np.exp(1j * np.outer(trace.t, trace.eigenvalues)),
                )
                worst_fourier = max(
                    worst_fourier, float(np.max(np.abs(rebuilt - trace.amplitude)))
                )
                done += 1
        ok = worst_gap < 1e-9 and worst_cap < 1e-9 and worst_fourier < 1e-9
        assert _report(
            "10 superoscillation",
            ok,
            f"max cap-omega0 gap {worst_gap:.3e}, cap-bound excess "
            f"{worst_cap:.3e}, fourier residual {worst_fourier:.3e}, "
            "tolerance 1e-9 each, 200 pairs x n in (2, 3, 4)",
        )


class TestCriterion11Determinism:
    def test_byte_identical_cli_reports(self, tmp_path):
        argv = [
            "verify-group", "--n", "3", "--chart", "exp", "--points", "40",
            "--seed", "123",
        ]
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        identical = first.read_bytes() == second.read_bytes()
        parsed = json.loads(first.read_text())
        assert _report(
            "11 determinism",
            identical and parsed["pass"],
            f"two seeded runs byte-identical: {identical}",
        )

"""Every report check shows its power: a table of named defects.

Each row monkeypatches one function with a defective version and names
the command whose report must then fail with exit 1, and the checks that
fail.  A row whose report still passes names a defect that no report can
see, with the symmetry that hides it.  Every row's command passes on the
real build.
"""
import json

import numpy as np
import pytest

from sun_phase import amplitude, charts, cli, superosc
from sun_phase.cli import EXIT_CHECK_FAILURE, EXIT_PASS, main
from sun_phase.superosc import normalized_generator


def fierz_one_over_n(residuals):
    """The Fierz term 2/n of the phase identity taken as 1/n."""
    def defective(grad):
        real = residuals(grad)
        return real._replace(phase=abs(grad.phase_grad_sq - 1.0 / grad.p - (1.0 - 1.0 / grad.n)))
    return defective


def swapped_u1_conventions(u1_berry_residuals):
    """The residuals of the two sign conventions returned in swapped order."""
    def defective(point):
        minus, plus = u1_berry_residuals(point)
        return plus, minus
    return defective


def aligned_from_imaginary_part(aligned_generator):
    """The aligned generator built from Im instead of Re of the ratios
    <psi_f|g_a|psi_i> / <psi_f|psi_i>: the modulus direction, along which
    the phase does not move at t = 0."""
    def defective(pair, basis):
        overlap = complex(pair.psi_f.conj() @ pair.psi_i)
        ratios = np.einsum("i,aij,j->a", pair.psi_f.conj(), basis, pair.psi_i) / overlap
        direction = ratios.imag / np.linalg.norm(ratios.imag)
        return normalized_generator(np.einsum("a,aij->ij", direction, basis))
    return defective


def time_scaled_phases(factor):
    """The phases e^{iwt} of superosc taken at factor t."""
    def defect(phases):
        def defective(gen, t):
            return phases(gen, factor * t)
        return defective
    return defect


def scaled_partials(expm_partials):
    """dU returned as 1.3 dU."""
    def defective(coeffs, gens):
        u, du = expm_partials(coeffs, gens)
        return u, 1.3 * du
    return defective


DEFECTS = [
    pytest.param(
        amplitude.PhaseGradient, "residuals", fierz_one_over_n,
        ["verify-group", "--n", "3", "--points", "20"], {"phase-identity"},
        id="fierz-term-1-over-n",
    ),
    pytest.param(
        cli, "u1_berry_residuals", swapped_u1_conventions,
        ["verify-ray", "--n", "3", "--points", "20", "--bridge-points", "0"],
        {"u1-berry-proportionality"},
        id="u1-berry-conventions-swapped",
    ),
    pytest.param(
        cli, "aligned_generator", aligned_from_imaginary_part,
        ["superosc", "--n", "3", "--samples", "64"], {"superoscillatory-at-zero"},
        id="aligned-generator-from-imaginary-part",
    ),
    # blind spot: the identities are invariant under dU -> dU A for any
    # invertible A (a GL(m) reparametrization), so every check still passes
    # until a report checks dU against U itself (ROADMAP item 12)
    pytest.param(
        charts, "expm_partials", scaled_partials,
        ["verify-group", "--n", "3", "--chart", "exp", "--points", "20"], set(),
        id="du-scaled-gl-blind-spot",
    ),
    # blind spot: fourier-reconstruction rebuilds the amplitude from the
    # same phases as the row route, superoscillatory-at-zero reads t = 0
    # alone, and the aligned beat's omega is even in t, so a trace of
    # e^{-iwt} or e^{2iwt} passes every check until one compares the trace
    # with its closed form (ROADMAP item 15)
    pytest.param(
        superosc, "_phases", time_scaled_phases(-1.0),
        ["superosc", "--n", "3", "--samples", "64"], set(),
        id="phases-time-reversed-blind-spot",
    ),
    pytest.param(
        superosc, "_phases", time_scaled_phases(2.0),
        ["superosc", "--n", "3", "--samples", "64"], set(),
        id="phases-time-doubled-blind-spot",
    ),
]


def failing_checks(argv, tmp_path):
    """The exit code and the names of the failing checks of one run."""
    out = tmp_path / "report.json"
    code = main(argv + ["--seed", "1", "--out", str(out)])
    report = json.loads(out.read_text())
    return code, {check["name"] for check in report["checks"] if not check["pass"]}


@pytest.mark.parametrize("owner, name, defect, argv, failing", DEFECTS)
def test_defect_is_seen_by_its_check(owner, name, defect, argv, failing, tmp_path, monkeypatch):
    assert failing_checks(argv, tmp_path) == (EXIT_PASS, set())
    defective, calls = defect(getattr(owner, name)), []

    def counted(*args):
        calls.append(args)
        return defective(*args)

    monkeypatch.setattr(owner, name, counted)
    expected_code = EXIT_CHECK_FAILURE if failing else EXIT_PASS
    assert failing_checks(argv, tmp_path) == (expected_code, failing)
    assert calls  # the run went through the defect

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_hermitian
from sun_phase import amplitude
from sun_phase.algebra import (
    StatePair,
    build_gellmann_basis,
    expm_generator,
    haar_state,
)
from sun_phase.amplitude import (
    group_relation_residuals,
    min_gradient_bound,
    phase_gradient,
    phase_gradient_fd,
    polar_amplitude,
    principal_angle,
    reconstruct_modulus,
    vortex_winding,
)
from sun_phase.charts import exp_chart, left_translate, su2_polar_chart
from sun_phase.coset import _reference_pair, build_cartan_frame, full_cartan_chart
from sun_phase.errors import (
    ChartDegenerateError,
    DimensionError,
    DomainError,
    InternalConsistencyError,
    NearZeroAmplitudeError,
    ResolutionError,
    ShapeError,
    SingularLoopError,
)
from sun_phase.tolerances import P_GRAD

PLUS = np.array([1.0, 0.0], dtype=complex)
MINUS = np.array([0.0, 1.0], dtype=complex)
SPIN_FLIP = StatePair(PLUS, MINUS)


def random_pair(n, rng):
    return StatePair(haar_state(n, rng), haar_state(n, rng))


def sample_in_box(chart, rng, count):
    lo, hi = chart.sample_box[:, 0], chart.sample_box[:, 1]
    return [rng.uniform(lo, hi) for _ in range(count)]


class TestPrincipalAngle:
    def test_branch(self):
        assert principal_angle(np.pi) == pytest.approx(np.pi)
        assert principal_angle(-np.pi) == pytest.approx(np.pi)
        assert principal_angle(np.pi + 0.1) == pytest.approx(-np.pi + 0.1)
        assert principal_angle(4 * np.pi + 0.2) == pytest.approx(0.2)


class TestPolarAmplitude:
    def test_spin_flip_quarter_turn(self):
        # <-|U|+> = i sin(chi) sin(theta) e^{i phi} = i at (pi/2, pi/2, 0)
        chart = su2_polar_chart()
        u = chart.evaluate(np.array([np.pi / 2, np.pi / 2, 0.0]))
        amp = polar_amplitude(SPIN_FLIP, u)
        assert amp.value == pytest.approx(1j, abs=1e-14)
        assert amp.p == pytest.approx(1.0, abs=1e-14)
        assert amp.eta == pytest.approx(np.pi / 2, abs=1e-14)
        assert amp.phase_defined

    def test_diagonal_pair_identity(self):
        rng = np.random.default_rng(0)
        psi = haar_state(3, rng)
        amp = polar_amplitude(StatePair(psi, psi), np.eye(3, dtype=complex))
        assert amp.value == pytest.approx(1.0, abs=1e-14)
        assert amp.p == pytest.approx(1.0, abs=1e-14)
        assert amp.eta == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_pair_identity(self):
        amp = polar_amplitude(SPIN_FLIP, np.eye(2, dtype=complex))
        assert amp.p == pytest.approx(0.0, abs=1e-14)
        assert not amp.phase_defined

    def test_closed_form_on_grid(self):
        chart = su2_polar_chart()
        for chi in (0.4, 1.1, 2.2):
            for theta in (0.5, 1.4):
                for phi in (0.0, 2.5, 5.1):
                    amp = polar_amplitude(
                        SPIN_FLIP, chart.evaluate(np.array([chi, theta, phi]))
                    )
                    expected_p = np.sin(chi) ** 2 * np.sin(theta) ** 2
                    assert amp.p == pytest.approx(expected_p, abs=1e-12)
                    assert abs(principal_angle(amp.eta - (phi + np.pi / 2))) < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(DomainError):
            polar_amplitude(SPIN_FLIP, 2.0 * np.eye(2, dtype=complex))

    @pytest.mark.parametrize("case", ["one matrix", "one point", "two matrices"])
    def test_stacked_pair_needs_one_row_per_matrix(self, case):
        # a stacked pair is never broadcast against fewer or more matrices
        rng = np.random.default_rng(8)
        pair = StatePair(*(np.array([haar_state(3, rng) for _ in range(4)]) for _ in range(2)))
        chart = exp_chart(build_gellmann_basis(3))
        x = sample_in_box(chart, rng, 2)
        with pytest.raises(ShapeError, match="4 state pairs for"):
            if case == "one point":
                phase_gradient(pair, chart, x[0])
            else:
                polar_amplitude(pair, chart.evaluate(x[0] if case == "one matrix" else x))
        assert polar_amplitude(pair, chart.evaluate(sample_in_box(chart, rng, 4))).p.shape == (4,)


class TestPhaseGradient:
    def test_su2_closed_form_gradient(self):
        chart = su2_polar_chart()
        rng = np.random.default_rng(12)
        for x in sample_in_box(chart, rng, 20):
            chi, theta, _ = x
            grad = phase_gradient(SPIN_FLIP, chart, x)
            expected = 1.0 / (np.sin(chi) ** 2 * np.sin(theta) ** 2)
            assert grad.phase_grad_sq == pytest.approx(expected, rel=1e-9)

    def test_diagonal_pair_at_origin(self):
        # d eta_a = <psi|g_a|psi> real; log-modulus gradient vanishes at p = 1
        basis = build_gellmann_basis(3)
        chart = exp_chart(basis)
        rng = np.random.default_rng(13)
        psi = haar_state(3, rng)
        grad = phase_gradient(StatePair(psi, psi), chart, np.zeros(8))
        expect = np.array([(psi.conj() @ g @ psi).real for g in basis])
        np.testing.assert_allclose(grad.d_phase, expect, atol=1e-9)
        assert grad.log_modulus_grad_sq == pytest.approx(0.0, abs=1e-9)
        assert grad.phase_grad_sq == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_near_zero_amplitude_raises(self):
        chart = su2_polar_chart()
        # p = sin^2(chi) sin^2(theta) ~ 1.5e-12 just inside the domain corner
        with pytest.raises(NearZeroAmplitudeError):
            phase_gradient(SPIN_FLIP, chart, np.array([0.0011, 0.0011, 0.3]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_frame_vs_fd_componentwise(self, n):
        chart = exp_chart(build_gellmann_basis(n))
        rng = np.random.default_rng(50 + n)
        checked = 0
        while checked < 10:
            pair = random_pair(n, rng)
            x = rng.uniform(chart.sample_box[:, 0], chart.sample_box[:, 1])
            u = chart.evaluate(x)
            if polar_amplitude(pair, u).p < 1e-3:
                continue
            a = phase_gradient(pair, chart, x)
            b = phase_gradient_fd(pair, chart, x)
            np.testing.assert_allclose(a.d_phase, b.d_phase, atol=1e-6)
            np.testing.assert_allclose(a.d_log_modulus, b.d_log_modulus, atol=1e-6)
            checked += 1

    def test_fd_matches_frame_tightly_at_benign_point(self):
        chart = su2_polar_chart()
        x = np.array([1.2, 1.3, 0.7])
        a = phase_gradient(SPIN_FLIP, chart, x)
        b = phase_gradient_fd(SPIN_FLIP, chart, x)
        np.testing.assert_allclose(a.d_phase, b.d_phase, atol=1e-8)
        np.testing.assert_allclose(a.d_log_modulus, b.d_log_modulus, atol=1e-8)


class TestGroupRelations:
    def test_su2_closed_form_point(self):
        # p = sin^2(pi/3) sin^2(pi/4) = 3/8 and |grad eta|^2 = 8/3
        chart = su2_polar_chart()
        x = np.array([np.pi / 3, np.pi / 4, 1.0])
        grad = phase_gradient(SPIN_FLIP, chart, x)
        assert grad.p == pytest.approx(3.0 / 8.0, abs=1e-14)
        assert grad.phase_grad_sq == pytest.approx(8.0 / 3.0, abs=1e-10)
        res = group_relation_residuals(SPIN_FLIP, chart, x)
        assert max(res) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_sweep_frame_backend(self, n):
        chart = exp_chart(build_gellmann_basis(n))
        rng = np.random.default_rng(100 + n)
        tested = 0
        for _ in range(80):
            pair = random_pair(n, rng)
            x = rng.uniform(chart.sample_box[:, 0], chart.sample_box[:, 1])
            if polar_amplitude(pair, chart.evaluate(x)).p <= 1e-6:
                continue
            res = group_relation_residuals(pair, chart, x)
            assert max(res) < 1e-8
            tested += 1
        assert tested >= 50

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_sweep_fd_backend(self, n):
        chart = exp_chart(build_gellmann_basis(n))
        rng = np.random.default_rng(200 + n)
        tested = 0
        for _ in range(40):
            pair = random_pair(n, rng)
            x = rng.uniform(chart.sample_box[:, 0], chart.sample_box[:, 1])
            if polar_amplitude(pair, chart.evaluate(x)).p <= 1e-4:
                continue
            res = phase_gradient_fd(pair, chart, x).residuals()
            assert max(res) < 1e-5
            tested += 1
        assert tested >= 30

    def test_minimum_at_unit_probability(self):
        # p = 1 forces |grad eta|^2 to its floor 2(n-1)/n
        for n in (2, 3, 4):
            chart = exp_chart(build_gellmann_basis(n))
            rng = np.random.default_rng(300 + n)
            psi = haar_state(n, rng)
            grad = phase_gradient(StatePair(psi, psi), chart, np.zeros(n * n - 1))
            assert grad.phase_grad_sq == pytest.approx(
                2.0 * (n - 1) / n, abs=1e-8
            )

    def test_chart_independence(self):
        # same group element through the polar and exponential charts
        polar = su2_polar_chart()
        expo = exp_chart(build_gellmann_basis(2))
        rng = np.random.default_rng(9)
        for _ in range(10):
            chi = rng.uniform(0.3, 1.4)
            theta = rng.uniform(0.3, np.pi - 0.3)
            phi = rng.uniform(0.0, 2 * np.pi)
            nhat = np.array(
                [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
            )
            pair = random_pair(2, rng)
            x_polar = np.array([chi, theta, phi])
            if polar_amplitude(pair, polar.evaluate(x_polar)).p < 1e-3:
                continue
            a = phase_gradient(pair, polar, x_polar).phase_grad_sq
            b = phase_gradient(pair, expo, chi * nhat).phase_grad_sq
            assert a == pytest.approx(b, abs=1e-6)


class TestReconstruction:
    def test_su2_unit_modulus_point(self):
        chart = su2_polar_chart()
        x = np.array([np.pi / 2, np.pi / 2, 1.3])
        assert reconstruct_modulus(SPIN_FLIP, chart, x) == pytest.approx(1.0, abs=1e-10)

    def test_n2_is_inverse_gradient(self):
        chart = su2_polar_chart()
        x = np.array([0.8, 1.9, 4.0])
        grad = phase_gradient(SPIN_FLIP, chart, x)
        rec = reconstruct_modulus(SPIN_FLIP, chart, x)
        assert rec == pytest.approx(1.0 / np.sqrt(grad.phase_grad_sq), rel=1e-12)

    def test_one_gradient_gives_residuals_and_modulus(self):
        # the residuals and the reconstruction need no second gradient
        chart = exp_chart(build_gellmann_basis(3))
        rng = np.random.default_rng(401)
        pair = random_pair(3, rng)
        x = rng.uniform(-0.4, 0.4, 8)
        grad = phase_gradient(pair, chart, x)
        assert grad.residuals() == group_relation_residuals(pair, chart, x)
        assert grad.reconstructed_modulus() == reconstruct_modulus(pair, chart, x)
        assert grad.reconstructed_modulus() == pytest.approx(np.sqrt(grad.p), rel=1e-8)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_modulus_relative(self, n):
        chart = exp_chart(build_gellmann_basis(n))
        rng = np.random.default_rng(400 + n)
        tested = 0
        for _ in range(40):
            pair = random_pair(n, rng)
            x = rng.uniform(chart.sample_box[:, 0], chart.sample_box[:, 1])
            amp = polar_amplitude(pair, chart.evaluate(x))
            if amp.p <= 1e-6:
                continue
            rec = reconstruct_modulus(pair, chart, x)
            assert abs(rec - np.sqrt(amp.p)) / np.sqrt(amp.p) < 1e-8
            tested += 1
        assert tested >= 30


def phi_loop(chi, theta, samples=64, reverse=False):
    phis = np.linspace(0.0, 2 * np.pi, samples + 1)
    if reverse:
        phis = phis[::-1]
    return [np.array([chi, theta, p]) for p in phis]


class TestVortexWinding:
    def test_unit_winding_around_polar_string(self):
        # the amplitude vanishes on theta = 0; a phi circuit around it
        # advances the phase by one turn
        chart = su2_polar_chart()
        loop = phi_loop(np.pi / 2, 0.1)
        assert vortex_winding(SPIN_FLIP, chart, loop).winding == 1

    def test_reverse_orientation(self):
        chart = su2_polar_chart()
        loop = phi_loop(np.pi / 2, 0.1, reverse=True)
        assert vortex_winding(SPIN_FLIP, chart, loop).winding == -1

    def test_contractible_loop(self):
        chart = su2_polar_chart()
        s = np.linspace(0.0, 2 * np.pi, 65)
        loop = [
            np.array([1.2 + 0.3 * np.cos(t), 1.0 + 0.3 * np.sin(t), 0.7]) for t in s
        ]
        assert vortex_winding(SPIN_FLIP, chart, loop).winding == 0

    def test_coarse_loop_requires_refinement(self, monkeypatch):
        chart = su2_polar_chart()
        coarse = phi_loop(np.pi / 2, 0.1, samples=4)
        with monkeypatch.context() as patch:
            patch.setattr(amplitude, "WINDING_DEPTH", 0)
            with pytest.raises(ResolutionError):
                vortex_winding(SPIN_FLIP, chart, coarse)
        assert vortex_winding(SPIN_FLIP, chart, coarse).winding == 1

    def test_loop_through_near_zero(self):
        chart = su2_polar_chart()
        loop = phi_loop(0.0011, 0.0011, samples=8)
        with pytest.raises(SingularLoopError):
            vortex_winding(SPIN_FLIP, chart, loop)

    def test_open_loop_rejected(self):
        chart = su2_polar_chart()
        loop = phi_loop(np.pi / 2, 0.1)[:-1]
        with pytest.raises(DomainError):
            vortex_winding(SPIN_FLIP, chart, loop)

    def test_nearly_closed_loop_rejected(self):
        # first and last coordinates 3e-6 apart are not the same point, nor
        # the same group element: a relative tolerance must not close them
        chart = su2_polar_chart()
        s = np.linspace(0.0, 2 * np.pi, 65)
        loop = np.array([[1.2 + 0.3 * np.cos(t), 1.0 + 0.3 * np.sin(t), 0.7] for t in s])
        loop[-1, 0] += 3e-6
        with pytest.raises(DomainError, match="not closed"):
            vortex_winding(SPIN_FLIP, chart, loop)


class TestMinGradientBound:
    def test_values(self):
        assert min_gradient_bound(2) == pytest.approx(1.0)
        assert min_gradient_bound(3) == pytest.approx(np.sqrt(4.0 / 3.0))

    def test_monotone_toward_sqrt2(self):
        values = [min_gradient_bound(n) for n in range(2, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < np.sqrt(2.0)

    def test_invalid_dimension(self):
        with pytest.raises(DimensionError):
            min_gradient_bound(1)


def stacked_chart(kind, n, rng, rows):
    if kind == "su2-polar":
        return su2_polar_chart()
    chart = exp_chart(build_gellmann_basis(n))
    if kind == "left":
        return left_translate(chart, expm_generator(random_hermitian(n, rng, traceless=True)))
    if kind == "cartan":
        return full_cartan_chart(build_cartan_frame(haar_state(n, rng)))
    if kind == "cartan-e0":  # the chart that serves the rotated pairs of a cartan sweep
        e_0 = np.eye(n, dtype=complex)[0]
        return full_cartan_chart(build_cartan_frame(e_0))
    return chart


GRADIENT_FIELDS = (
    "p", "eta", "d_phase", "d_log_modulus", "phase_grad_sq", "log_modulus_grad_sq", "cross"
)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["exp", "su2-polar", "left", "cartan", "cartan-e0"]),
    n=st.integers(2, 5),
    rows=st.integers(1, 9),
    stacked_pairs=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_stack_matches_one_call_per_row(kind, n, rows, stacked_pairs, seed):
    rng = np.random.default_rng(seed)
    chart = stacked_chart(kind, n, rng, rows)
    lo, hi = chart.sample_box.T
    xs = rng.uniform(lo, hi, size=(rows, chart.dim_m))
    shape = (rows, chart.n) if stacked_pairs else (chart.n,)
    states = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2)]
    pair = StatePair(*(v / np.linalg.norm(v, axis=-1, keepdims=True) for v in states))
    if kind == "cartan-e0":
        pair = _reference_pair(pair)
    grad = phase_gradient(pair, chart, xs)
    for k in range(rows):
        # bit for bit what one point gives, on the pair of row k alone
        try:
            one = phase_gradient(pair.rows(k), chart, xs[k])
        except NearZeroAmplitudeError:
            assert grad.p[k] < P_GRAD and np.isnan(grad.phase_grad_sq[k])
            continue
        for name in GRADIENT_FIELDS:
            np.testing.assert_array_equal(getattr(grad, name)[k], getattr(one, name))


class TestStackedGuards:
    """A stack skips the rows below P_GRAD and raises what the per-point
    loop raised: the error of its first failing row."""

    LOW = np.array([1e-5, 1e-5, 0.0])  # p ~ 2e-10 for the orthogonal pair
    KEPT = np.array([0.3, 0.2, 0.1])
    OTHER = np.array([-0.2, 0.3, 0.2])

    @staticmethod
    def corrupted(broken_rows, factor):
        """The n = 2 exp chart with dU multiplied by `factor` at the rows that
        `broken_rows(x)` selects: 0 makes the frame singular, 1j takes
        U^dag dU out of the algebra."""
        chart = exp_chart(build_gellmann_basis(2))

        def map_partials_fn(x):
            u, du = chart.map_partials_fn(x)
            du = du.copy()
            du[broken_rows(x)] *= factor
            return u, du

        return dataclasses.replace(chart, map_partials_fn=map_partials_fn)

    def test_guard_on_skipped_row_does_not_raise(self):
        chart = self.corrupted(lambda x: np.linalg.norm(x, axis=-1) < 1e-3, 0.0)
        grad = phase_gradient(SPIN_FLIP, chart, np.array([self.LOW, self.KEPT]))
        assert grad.p[0] < P_GRAD and np.isnan(grad.phase_grad_sq[0])
        assert np.isfinite(grad.phase_grad_sq[1])
        with pytest.raises(NearZeroAmplitudeError):  # the per-point loop skips it
            phase_gradient(SPIN_FLIP, chart, self.LOW)

    def test_stack_entirely_below_p_grad(self):
        chart = exp_chart(build_gellmann_basis(2))
        grad = phase_gradient(SPIN_FLIP, chart, np.array([self.LOW, 0.5 * self.LOW]))
        assert np.all(grad.p < P_GRAD)
        assert np.isnan(grad.d_phase).all() and np.isnan(grad.cross).all()

    @pytest.mark.parametrize(
        "factor,error", [(0.0, ChartDegenerateError), (1j, InternalConsistencyError)]
    )
    def test_guard_on_kept_row_raises_like_one_point(self, factor, error):
        chart = self.corrupted(lambda x: x[..., 0] > 0.25, factor)
        with pytest.raises(error):
            phase_gradient(SPIN_FLIP, chart, self.KEPT)
        with pytest.raises(error):
            phase_gradient(SPIN_FLIP, chart, np.array([self.LOW, self.OTHER, self.KEPT]))

    def test_first_failing_row_decides(self):
        # KEPT has a singular frame, OTHER leaves the algebra; the stack checks
        # the algebra of every row before any frame's determinant
        singular = self.corrupted(lambda x: x[..., 0] > 0.25, 0.0)

        def both(x):
            u, du = singular.map_partials_fn(x)
            du[x[..., 0] < 0.0] *= 1j
            return u, du

        chart = dataclasses.replace(singular, map_partials_fn=both)
        with pytest.raises(ChartDegenerateError):
            phase_gradient(SPIN_FLIP, chart, np.array([self.KEPT, self.OTHER]))
        with pytest.raises(InternalConsistencyError):
            phase_gradient(SPIN_FLIP, chart, np.array([self.OTHER, self.KEPT]))

    def test_per_row_chart_row_below_p_grad(self):
        # the chart of each row's own state is evaluated as the chart of e_0
        # on the row's rotated pair (`coset._reference_pair`)
        rng = np.random.default_rng(7)
        states = np.array([PLUS, haar_state(2, rng), haar_state(2, rng)])
        finals = np.array([MINUS, haar_state(2, rng), haar_state(2, rng)])
        pair = _reference_pair(StatePair(states, finals))
        chart = full_cartan_chart(build_cartan_frame(PLUS))
        xs = np.array([self.LOW, self.KEPT, self.OTHER])
        grad = phase_gradient(pair, chart, xs)
        assert grad.p[0] < P_GRAD and np.isnan(grad.phase_grad_sq[0])
        for k in (1, 2):
            # the other rows keep what one point gives, bit for bit, and what
            # the chart of their own state gives, to rounding
            alone = phase_gradient(pair.rows([k]), chart, xs[[k]])
            own = full_cartan_chart(build_cartan_frame(states[k]))
            direct = phase_gradient(StatePair(states[k], finals[k]), own, xs[k])
            for name in GRADIENT_FIELDS:
                np.testing.assert_array_equal(getattr(grad, name)[k], getattr(alone, name)[0])
                if name != "eta":
                    np.testing.assert_allclose(
                        getattr(grad, name)[k], getattr(direct, name), rtol=1e-10, atol=1e-12
                    )

    @pytest.mark.parametrize("kind, n", [("exp", 3), ("su2-polar", 2), ("cartan-e0", 3)])
    @pytest.mark.parametrize("stacked_pairs", [False, True])
    def test_skipped_row_keeps_rows_of_fully_kept_stack(self, monkeypatch, kind, n, stacked_pairs):
        # a stack with every row kept takes the frame route whole; one with a
        # skipped row evaluates its kept rows apart, and both give the same bits
        from sun_phase import amplitude

        rng = np.random.default_rng(11)
        chart = stacked_chart(kind, n, rng, 6)
        lo, hi = chart.sample_box.T
        xs = rng.uniform(lo, hi, size=(6, chart.dim_m))
        shape = (6, n) if stacked_pairs else (n,)
        states = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2)]
        pair = StatePair(*(v / np.linalg.norm(v, axis=-1, keepdims=True) for v in states))
        if kind == "cartan-e0":
            pair = _reference_pair(pair)
        whole = phase_gradient(pair, chart, xs)
        assert np.all(whole.p >= P_GRAD)
        low, next_low = np.sort(whole.p)[:2]
        skipped = int(np.argmin(whole.p))
        monkeypatch.setattr(amplitude, "P_GRAD", (low + next_low) / 2.0)
        grad = phase_gradient(pair, chart, xs)
        kept = np.arange(6) != skipped
        for name in GRADIENT_FIELDS:
            np.testing.assert_array_equal(getattr(grad, name)[kept], getattr(whole, name)[kept])
        assert grad.p[skipped] == whole.p[skipped] and np.isnan(grad.d_phase[skipped]).all()
        assert np.isnan(grad.cross[skipped])
        with pytest.raises(NearZeroAmplitudeError):  # one point below keeps raising
            phase_gradient(pair.rows(skipped) if stacked_pairs else pair, chart, xs[skipped])

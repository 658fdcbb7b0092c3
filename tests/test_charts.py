import dataclasses

import numpy as np
import pytest

from sun_phase.algebra import (
    StatePair,
    build_gellmann_basis,
    dagger,
    expm_generator,
    expm_partials,
    generator_sum,
    haar_state,
    random_hermitian,
)
from sun_phase.amplitude import phase_gradient, polar_amplitude
from sun_phase.charts import (
    ck_metric,
    exp_chart,
    left_invariant_frame,
    fd_partials,
    left_translate,
    partials,
    su2_polar_chart,
)
from sun_phase.coset import build_cartan_frame, full_cartan_chart, section
from sun_phase.errors import (
    ChartDegenerateError,
    DegenerateMetricError,
    DomainError,
    InternalConsistencyError,
    ShapeError,
)
from sun_phase.tolerances import ATOL_FD_MATCH

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def sample_in_box(chart, rng, count):
    lo, hi = chart.sample_box[:, 0], chart.sample_box[:, 1]
    return [rng.uniform(lo, hi) for _ in range(count)]


def metric_at(chart, x):
    """The metric at x through the chain partials -> frame -> metric."""
    u, du = partials(chart, x)
    return ck_metric(left_invariant_frame(chart, x, u, du), du)


class TestExpChart:
    def test_origin_is_identity(self):
        chart = exp_chart(build_gellmann_basis(3))
        np.testing.assert_allclose(chart.evaluate(np.zeros(8)), np.eye(3), atol=1e-14)

    def test_single_generator_direction(self):
        chart = exp_chart(build_gellmann_basis(2))
        x = np.array([np.pi / 4, 0.0, 0.0])
        expected = np.cos(np.pi / 4) * np.eye(2) + 1j * np.sin(np.pi / 4) * PAULI_X
        np.testing.assert_allclose(chart.evaluate(x), expected, atol=1e-14)

    def test_random_points_special_unitary(self):
        chart = exp_chart(build_gellmann_basis(3))
        rng = np.random.default_rng(21)
        for x in sample_in_box(chart, rng, 20):
            u = chart.evaluate(x)
            assert np.max(np.abs(dagger(u) @ u - np.eye(3))) < 1e-10
            assert abs(np.linalg.det(u) - 1.0) < 1e-10

    def test_outside_ball_rejected(self):
        chart = exp_chart(build_gellmann_basis(2))
        with pytest.raises(DomainError):
            chart.evaluate(np.array([np.pi / 2, np.pi / 2, 0.0]))

    def test_wrong_coordinate_count(self):
        chart = exp_chart(build_gellmann_basis(2))
        with pytest.raises(ShapeError):
            chart.evaluate(np.zeros(4))

    def test_partials_at_origin_are_generators(self):
        basis = build_gellmann_basis(3)
        chart = exp_chart(basis)
        du = partials(chart, np.zeros(8))[1]
        for a in range(8):
            np.testing.assert_allclose(du[a], 1j * basis[a], atol=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_analytic_vs_central_difference(self, n):
        chart = exp_chart(build_gellmann_basis(n))
        rng = np.random.default_rng(50 + n)
        for x in sample_in_box(chart, rng, 10):
            exact = partials(chart, x)[1]
            approx = fd_partials(chart, x)[1]
            assert np.max(np.abs(exact - approx)) < ATOL_FD_MATCH


class TestSu2PolarChart:
    def test_quarter_turn_x(self):
        chart = su2_polar_chart()
        u = chart.evaluate(np.array([np.pi / 2, np.pi / 2, 0.0]))
        np.testing.assert_allclose(u, 1j * PAULI_X, atol=1e-14)

    def test_small_chi_near_identity(self):
        chart = su2_polar_chart()
        chi = 2e-3
        u = chart.evaluate(np.array([chi, 1.0, 1.0]))
        assert np.max(np.abs(u - np.eye(2))) < 2 * chi

    def test_polar_axis_rejected(self):
        chart = su2_polar_chart()
        with pytest.raises(DomainError):
            chart.evaluate(np.array([1.0, 1e-4, 0.0]))
        with pytest.raises(DomainError):
            chart.evaluate(np.array([np.pi, 1.0, 0.0]))

    def test_phi_periodic(self):
        chart = su2_polar_chart()
        a = chart.evaluate(np.array([1.0, 1.0, 0.3]))
        b = chart.evaluate(np.array([1.0, 1.0, 0.3 + 2 * np.pi]))
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_chi_partial_at_quarter_turn(self):
        # d_chi U = -sin(chi) 1 + i cos(chi) sigma_x at theta=pi/2, phi=0
        chart = su2_polar_chart()
        du = partials(chart, np.array([np.pi / 2, np.pi / 2, 0.0]))[1]
        np.testing.assert_allclose(du[0], -np.eye(2), atol=1e-14)

    def test_analytic_vs_central_difference(self):
        chart = su2_polar_chart()
        rng = np.random.default_rng(8)
        for x in sample_in_box(chart, rng, 25):
            exact = partials(chart, x)[1]
            approx = fd_partials(chart, x)[1]
            assert np.max(np.abs(exact - approx)) < 1e-6

    def test_metric_closed_form(self):
        chart = su2_polar_chart()
        rng = np.random.default_rng(4)
        for x in sample_in_box(chart, rng, 30):
            chi, theta, _ = x
            metric = metric_at(chart, x)
            expected = np.diag(
                [1.0, np.sin(chi) ** 2, np.sin(chi) ** 2 * np.sin(theta) ** 2]
            )
            np.testing.assert_allclose(metric.g, expected, atol=1e-10)
            assert metric.g_inv[2, 2] == pytest.approx(
                1.0 / (np.sin(chi) ** 2 * np.sin(theta) ** 2), rel=1e-9
            )


class TestFrames:
    def test_identity_frame_at_origin(self):
        chart = exp_chart(build_gellmann_basis(3))
        x = np.zeros(8)
        frame = left_invariant_frame(chart, x, *partials(chart, x))
        np.testing.assert_allclose(frame.omega, np.eye(8), atol=1e-8)

    @pytest.mark.parametrize("make_chart", [su2_polar_chart, lambda: exp_chart(build_gellmann_basis(3))])
    def test_frame_inverse(self, make_chart):
        chart = make_chart()
        rng = np.random.default_rng(17)
        for x in sample_in_box(chart, rng, 10):
            frame = left_invariant_frame(chart, x, *partials(chart, x))
            np.testing.assert_allclose(
                frame.omega @ frame.dual, np.eye(chart.dim_m), atol=1e-8
            )

    def test_frame_reconstructs_pullback(self):
        # U^dag dU = i omega^a g_a entrywise
        chart = su2_polar_chart()
        rng = np.random.default_rng(29)
        for x in sample_in_box(chart, rng, 10):
            u, du = partials(chart, x)
            frame = left_invariant_frame(chart, x, u, du)
            rebuilt = 1j * np.einsum("am,aij->mij", frame.omega, chart.algebra)
            pulled = np.einsum("ij,mjk->mik", dagger(u), du)
            assert np.max(np.abs(pulled - rebuilt)) < 1e-8


class TestMetric:
    def test_metric_at_origin_is_identity(self):
        chart = exp_chart(build_gellmann_basis(4))
        metric = metric_at(chart, np.zeros(15))
        np.testing.assert_allclose(metric.g, np.eye(15), atol=1e-8)

    @pytest.mark.parametrize(
        "make_chart", [su2_polar_chart, lambda: exp_chart(build_gellmann_basis(2)), lambda: exp_chart(build_gellmann_basis(3))]
    )
    def test_trace_form_matches_vielbein_contraction(self, make_chart):
        # ck_metric raises if the two constructions disagree beyond 1e-8;
        # assert the agreement explicitly at seeded points.
        chart = make_chart()
        rng = np.random.default_rng(99)
        for x in sample_in_box(chart, rng, 100):
            u, du = partials(chart, x)
            frame = left_invariant_frame(chart, x, u, du)
            g_vielbein = frame.omega.T @ frame.omega
            g_trace = 0.5 * np.einsum("mij,kij->mk", du, du.conj()).real
            assert np.max(np.abs(g_vielbein - g_trace)) < 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_left_invariance(self, n):
        basis = build_gellmann_basis(n)
        chart = exp_chart(basis)
        rng = np.random.default_rng(31)
        from sun_phase.algebra import expm_generator

        v = expm_generator(random_hermitian(n, rng, traceless=True))
        translated = left_translate(chart, v)
        for x in sample_in_box(chart, rng, 10):
            g0 = metric_at(chart, x).g
            g1 = metric_at(translated, x).g
            assert np.max(np.abs(g0 - g1)) < 1e-8

    def test_left_invariance_su2_polar_analytic(self):
        chart = su2_polar_chart()
        rng = np.random.default_rng(32)
        from sun_phase.algebra import expm_generator

        v = expm_generator(random_hermitian(2, rng, traceless=True))
        translated = left_translate(chart, v)
        for x in sample_in_box(chart, rng, 10):
            g0 = metric_at(chart, x).g
            g1 = metric_at(translated, x).g
            assert np.max(np.abs(g0 - g1)) < 1e-8


class TestChartSizes:
    """`Chart.n` and `Chart.dim_m` are read off the generator stack, so they
    cannot fall out of step with it."""

    def test_sizes_follow_algebra(self):
        chart = exp_chart(build_gellmann_basis(3))
        assert (chart.n, chart.dim_m) == (3, 8)
        wider = dataclasses.replace(chart, algebra=build_gellmann_basis(4))
        assert (wider.n, wider.dim_m) == (4, 15)
        assert (su2_polar_chart().n, su2_polar_chart().dim_m) == (2, 3)
        cartan = full_cartan_chart(build_cartan_frame(np.eye(4, dtype=complex)[0]))
        assert (cartan.n, cartan.dim_m) == (4, 15)

    @pytest.mark.parametrize("make_chart", [su2_polar_chart, lambda: exp_chart(build_gellmann_basis(3))])
    def test_left_translate_keeps_parent_fields(self, make_chart):
        chart = make_chart()
        v = expm_generator(random_hermitian(chart.n, np.random.default_rng(33), traceless=True))
        translated = left_translate(chart, v)
        assert translated.label == chart.label + "+left"
        assert translated.algebra is chart.algebra
        assert translated.sample_box is chart.sample_box
        assert translated.contains_fn is chart.contains_fn
        assert (translated.n, translated.dim_m) == (chart.n, chart.dim_m)


def chart_with_frame(chart, omega):
    """`chart` with its partials replaced by U(x) i omega^a g_a, so that its
    frame at every point is the given omega (m, m)."""
    pulled = 1j * np.einsum("am,aij->mij", omega, chart.algebra)

    def map_partials_fn(x):
        u = chart.map_fn(x)
        return u, u[..., None, :, :] @ pulled

    return dataclasses.replace(chart, map_partials_fn=map_partials_fn)


def coset_factor_with_columns(frame, columns):
    """An `expm_partials` for the coset factor of `frame` whose partials are
    K(y) i omega^a g_a over all generators, so that the section's coset
    columns at every point are the given omega (n^2 - 1, 2(n - 1))."""
    pulled = 1j * np.einsum("am,aij->mij", columns, frame.stacked())

    def coset_partials(y, gens):
        k = expm_generator(generator_sum(y, gens))
        return k, k[..., None, :, :] @ pulled

    return coset_partials


def nearly_singular(m, s_min, rng):
    """A random real (m, m) matrix with singular values 1 and one s_min, so
    that |det| = s_min."""
    a, _ = np.linalg.qr(rng.standard_normal((m, m)))
    b, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (a * np.append(np.ones(m - 1), s_min)) @ b


def assert_inverse_close(g_inv, reference):
    """Per point, max|g_inv - reference| <= 1e-12 max|reference|."""
    scale = np.abs(reference).max(axis=(-2, -1))
    assert (np.abs(g_inv - reference).max(axis=(-2, -1)) <= 1e-12 * scale).all()


# smallest singular values of the test frames: below the det(omega) guard's
# 1e-10, and above it where g = omega^T omega still rounds to indefinite
S_BELOW_DET_GUARD = (0.0, 1e-30, 1e-16, 1e-12)
S_ABOVE_DET_GUARD = (1e-9, 3e-9, 1e-8)


class TestVielbeinInverse:
    """g^-1 = dual dual^T from the frame's inverse, and the guards that stand
    behind the positive definiteness of g, for which no eigenvalue test runs."""

    def assert_indefinite_rejected(self, s_min, indefinite, evaluate):
        """Every frame on which the eigenvalue test eigvalsh(g) <= 0 would
        fire is rejected: by the det(omega) guard below its 1e-10, and above
        it by the frame inversion or the metric conditioning guard."""
        if s_min < 1e-10:
            with pytest.raises(ChartDegenerateError, match="frame singular"):
                evaluate()
        elif indefinite:
            with pytest.raises(
                (DegenerateMetricError, InternalConsistencyError),
                match="ill-conditioned|frame inversion failed",
            ):
                evaluate()

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_indefinite_metric_rejected(self, n):
        rng = np.random.default_rng(1200 + n)
        chart = exp_chart(build_gellmann_basis(n))
        x = sample_in_box(chart, rng, 1)[0]
        fired = {True: 0, False: 0}
        for s_min in S_BELOW_DET_GUARD + S_ABOVE_DET_GUARD:
            for _ in range(8):
                omega = nearly_singular(chart.dim_m, s_min, rng)
                indefinite = np.linalg.eigvalsh(omega.T @ omega)[0] <= 0.0
                broken = chart_with_frame(chart, omega)
                self.assert_indefinite_rejected(s_min, indefinite, lambda: metric_at(broken, x))
                fired[s_min < 1e-10] += indefinite
        assert fired[True] and fired[False]  # the test fires on both sides of 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_indefinite_fs_metric_rejected(self, n, monkeypatch):
        # the broken tau enters through the coset factor, the one factor a
        # section evaluates; at the slice omega is block lower-triangular
        # with an identity isotropy/U(1) block, so det(omega) = det(tau) and
        # the det guard stands behind the Fubini-Study block as well
        import sun_phase.coset as coset

        rng = np.random.default_rng(1300 + n)
        frame = build_cartan_frame(haar_state(n, rng))
        m, dim = frame.dim_coset, n * n - 1
        y = rng.uniform(-0.3, 0.3, m)
        fired = {True: 0, False: 0}
        for s_min in S_BELOW_DET_GUARD + S_ABOVE_DET_GUARD:
            for _ in range(8):
                tau = nearly_singular(m, s_min, rng)
                columns = np.vstack([tau, rng.uniform(-0.5, 0.5, (dim - m, m))])
                indefinite = np.linalg.eigvalsh(tau.T @ tau)[0] <= 0.0
                injected = coset_factor_with_columns(frame, columns)
                monkeypatch.setattr(coset, "expm_partials", injected)
                self.assert_indefinite_rejected(s_min, indefinite, lambda: section(frame, y))
                fired[s_min < 1e-10] += indefinite
        assert fired[True] and fired[False]

    @pytest.mark.parametrize(
        "kind,n", [("su2-polar", 2)] + [(k, n) for k in ("exp", "left", "cartan") for n in range(2, 9)]
    )
    def test_metric_inverse_matches_linalg_inv(self, kind, n):
        rng = np.random.default_rng(1400 + n)
        chart = chart_of_kind(kind, n, rng)
        lo, hi = chart.sample_box.T
        metric = metric_at(chart, rng.uniform(lo, hi, (8, chart.dim_m)))
        assert_inverse_close(metric.g_inv, np.linalg.inv(metric.g))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_fs_metric_inverse_matches_linalg_inv(self, n):
        rng = np.random.default_rng(1500 + n)
        frame = build_cartan_frame(haar_state(n, rng))
        lo, hi = frame.chart.sample_box[: frame.dim_coset].T
        point = section(frame, rng.uniform(lo, hi, (8, frame.dim_coset)))
        assert_inverse_close(point.fs_metric_inv, np.linalg.inv(point.fs_metric))


class TestEmptyStacks:
    """A stack of 0 points gives stacks of 0 results, as the rows of an
    all-skipped block need."""

    @pytest.mark.parametrize(
        "make_chart",
        [
            su2_polar_chart,
            lambda: exp_chart(build_gellmann_basis(3)),
            lambda: full_cartan_chart(
                build_cartan_frame(haar_state(3, np.random.default_rng(5)))
            ),
        ],
    )
    def test_chart_route(self, make_chart):
        chart = make_chart()
        n, m = chart.n, chart.dim_m
        x = np.empty((0, m))
        u = chart.evaluate(x)
        du = partials(chart, x)[1]
        frame = left_invariant_frame(chart, x, u, du)
        metric = ck_metric(frame, du)
        assert u.shape == (0, n, n) and du.shape == (0, m, n, n)
        assert frame.omega.shape == frame.dual.shape == (0, m, m)
        assert metric.g.shape == metric.g_inv.shape == (0, m, m)

        rng = np.random.default_rng(6)
        pair = StatePair(haar_state(n, rng), haar_state(n, rng))
        assert polar_amplitude(pair, u).p.shape == (0,)
        grad = phase_gradient(pair, chart, x)
        assert grad.d_phase.shape == (0, m) and grad.cross.shape == (0,)

    def test_expm_partials(self):
        gens = build_gellmann_basis(3)
        u, du = expm_partials(np.empty((0, len(gens))), gens)
        assert u.shape == (0, 3, 3) and du.shape == (0, len(gens), 3, 3)


def chart_of_kind(kind, n, rng):
    """A chart of each kind; "cartan-rows" is the chart of e_0, which serves
    every row of a cartan sweep (each row's pair rotated onto e_0)."""
    basis = build_gellmann_basis(n)
    if kind == "su2-polar":
        return su2_polar_chart()
    if kind == "left":
        return left_translate(exp_chart(basis), expm_generator(random_hermitian(n, rng, True)))
    if kind == "cartan":
        return full_cartan_chart(build_cartan_frame(haar_state(n, rng)))
    if kind == "cartan-rows":
        return full_cartan_chart(build_cartan_frame(np.eye(n, dtype=complex)[0]))
    return exp_chart(basis)


CHART_KINDS = [("su2-polar", 2)] + [
    (kind, n) for kind in ("exp", "left", "cartan", "cartan-rows") for n in (2, 3, 5)
]


class TestOneChartCall:
    """`Chart.evaluate(x, with_partials=True)` is the one chart call for U
    and its partials: its U is `Chart.evaluate`'s bit for bit."""

    @pytest.mark.parametrize("kind,n", CHART_KINDS)
    def test_value_matches_evaluate(self, kind, n):
        rng = np.random.default_rng(31 * n + len(kind))
        rows = 6
        chart = chart_of_kind(kind, n, rng)
        lo, hi = chart.sample_box.T
        x = rng.uniform(lo, hi, (rows, chart.dim_m))
        if kind.startswith("cartan"):
            m_coset = 2 * (n - 1)
            x[0, m_coset:] = 0.0  # the section slice
            x[1, -1] = 0.0  # no U(1) factor
            x[2, m_coset:-1] = 0.0  # no isotropy factor
        stacks = [x]
        if kind.startswith("cartan"):  # a stack on the slice only: S = E = 1 throughout
            stacks.append(np.where(np.arange(chart.dim_m) < 2 * (n - 1), x, 0.0))
        for xs in stacks:
            u, du = chart.evaluate(xs, with_partials=True)
            np.testing.assert_array_equal(u, chart.evaluate(xs))
            np.testing.assert_array_equal(du, partials(chart, xs)[1])
            assert np.max(np.abs(du - fd_partials(chart, xs)[1])) < ATOL_FD_MATCH
            for k in range(rows):
                u_k, du_k = chart.evaluate(xs[k], with_partials=True)
                np.testing.assert_array_equal(u_k, chart.evaluate(xs[k]))
                assert u_k.shape == (n, n) and du_k.shape == (chart.dim_m, n, n)

    def test_partials_gives_the_value(self):
        chart = exp_chart(build_gellmann_basis(3))
        x = sample_in_box(chart, np.random.default_rng(2), 3)
        for route in (partials, fd_partials):
            u, du = route(chart, x)
            np.testing.assert_array_equal(u, chart.evaluate(x))
            assert du.shape == (3, chart.dim_m, 3, 3)

    def test_guards_of_evaluate(self):
        import dataclasses

        from sun_phase.errors import InternalConsistencyError

        chart = exp_chart(build_gellmann_basis(2))
        with pytest.raises(ShapeError):
            chart.evaluate(np.zeros(4), with_partials=True)
        with pytest.raises(DomainError):
            chart.evaluate(np.array([np.pi, 0.0, 0.0]), with_partials=True)

        def scaled(factor):
            def map_partials_fn(x):
                u, du = chart.map_partials_fn(x)
                return factor * u, du

            return dataclasses.replace(chart, map_partials_fn=map_partials_fn)

        with pytest.raises(InternalConsistencyError, match="non-unitary"):
            scaled(2.0).evaluate(np.zeros(3), with_partials=True)
        with pytest.raises(InternalConsistencyError, match="det != 1"):
            scaled(1j).evaluate(np.zeros(3), with_partials=True)

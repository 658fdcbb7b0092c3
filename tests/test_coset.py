import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sun_phase.algebra import (
    StatePair,
    build_gellmann_basis,
    haar_state,
    killing_inner,
)
from sun_phase.amplitude import polar_amplitude
from sun_phase.coset import (
    bridge_residuals,
    build_cartan_frame,
    ck_block_decomposition_residual,
    coset_element,
    factorization_residual,
    full_cartan_chart,
    ray_relation_residuals,
    section,
    u1_berry_residuals,
    u1_eigenvalue,
)
from sun_phase.charts import fd_partials, partials
from sun_phase.errors import (
    ChartDegenerateError,
    DegenerateMetricError,
    DomainError,
    InternalConsistencyError,
    NearZeroAmplitudeError,
    ShapeError,
)
from sun_phase.tolerances import ATOL_FD_MATCH, FD_STEP

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PLUS = np.array([1.0, 0.0], dtype=complex)


def frame_for(n, rng=None, psi=None):
    basis = build_gellmann_basis(n)
    if psi is None:
        psi = haar_state(n, rng)
    return build_cartan_frame(psi, basis)


class TestCartanFrame:
    def test_n2_closed_forms(self):
        frame = frame_for(2, psi=PLUS)
        np.testing.assert_allclose(frame.lambda0, -PAULI_Z, atol=1e-14)
        np.testing.assert_allclose(frame.coset[0], PAULI_X, atol=1e-14)
        np.testing.assert_allclose(frame.coset[1], PAULI_Y, atol=1e-14)
        assert frame.iso.shape == (0, 2, 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_u1_eigenvalue_on_reference(self, n):
        rng = np.random.default_rng(600 + n)
        frame = frame_for(n, rng)
        expected = -np.sqrt(2.0 * (n - 1) / n)
        assert u1_eigenvalue(n) == pytest.approx(expected, abs=1e-15)
        residual = frame.lambda0 @ frame.psi_i - expected * frame.psi_i
        assert np.max(np.abs(residual)) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_trace_orthonormality(self, n):
        rng = np.random.default_rng(700 + n)
        frame = frame_for(n, rng)
        stack = frame.stacked()
        assert len(stack) == n * n - 1
        for a, ga in enumerate(stack):
            for b, gb in enumerate(stack):
                expected = 1.0 if a == b else 0.0
                assert abs(killing_inner(ga, gb) - expected) < 1e-12

    def test_counts(self):
        rng = np.random.default_rng(5)
        frame = frame_for(4, rng)
        assert frame.dim_coset == 6
        assert frame.dim_iso == 8
        assert 1 + frame.dim_iso + frame.dim_coset == 15

    def test_rejects_unnormalized_state(self):
        basis = build_gellmann_basis(3)
        with pytest.raises(DomainError):
            build_cartan_frame(np.array([1.0, 1.0, 0.0], dtype=complex), basis)


class TestPerRowFrames:
    """A stack of reference states gives one frame per row, and the full
    chart of those frames one chart per row."""

    @staticmethod
    def states(n, rng, rows=5):
        states = np.array([haar_state(n, rng) for _ in range(rows)])
        states[0] = np.eye(n)[0]  # basis states drop a different Gram-Schmidt vector
        states[1] = np.eye(n)[n - 1]
        return states

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rows_equal_one_state_frames(self, n):
        states = self.states(n, np.random.default_rng(40 + n))
        frame = frame_for(n, psi=states)
        assert frame.stacked().shape == (len(states), n * n - 1, n, n)
        for k, psi in enumerate(states):
            one = frame_for(n, psi=psi)
            for name in ("psi_i", "lambda0", "coset", "iso", "complement"):
                np.testing.assert_array_equal(getattr(frame, name)[k], getattr(one, name))
                np.testing.assert_array_equal(getattr(frame.rows(k), name), getattr(one, name))
            np.testing.assert_array_equal(frame.stacked()[k], one.stacked())
        assert frame_for(n, psi=states[0]).rows([0, 3]).psi_i.shape == (n,)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_per_row_chart_rows(self, n):
        rng = np.random.default_rng(50 + n)
        states = self.states(n, rng)
        chart = full_cartan_chart(frame_for(n, psi=states))
        lo, hi = chart.sample_box.T
        x = rng.uniform(lo, hi, (len(states), chart.dim_m))
        u, du = chart.evaluate(x), partials(chart, x)[1]
        for k, psi in enumerate(states):
            one = full_cartan_chart(frame_for(n, psi=psi))
            np.testing.assert_array_equal(chart.sample_box, one.sample_box)
            np.testing.assert_array_equal(u[k], one.evaluate(x[[k]])[0])
            np.testing.assert_array_equal(du[k], partials(one, x[[k]])[1][0])
            np.testing.assert_array_equal(chart.rows(k).algebra, one.algebra)
        assert chart.rows([1, 2]).evaluate(x[1:3]).shape == (2, n, n)
        with pytest.raises(ShapeError):  # one point per row
            chart.evaluate(x[:2])
        with pytest.raises(ShapeError):
            chart.evaluate(x[0])

    def test_bad_stacks_rejected(self):
        basis = build_gellmann_basis(3)
        rng = np.random.default_rng(60)
        for bad in (np.zeros((0, 3)), self.states(4, rng), self.states(3, rng)[None]):
            with pytest.raises(ShapeError):
                build_cartan_frame(bad, basis)
        states = self.states(3, rng)
        states[2] *= 1.1
        with pytest.raises(DomainError):
            build_cartan_frame(states, basis)

    def test_every_row_verified(self):
        from sun_phase.coset import _validate_frame

        frame = frame_for(3, psi=self.states(3, np.random.default_rng(61)))
        iso = frame.iso.copy()
        iso[3, 0] *= 1.5  # one generator of one row no longer unit norm
        with pytest.raises(InternalConsistencyError):
            _validate_frame(dataclasses.replace(frame, iso=iso))


class TestSection:
    def test_origin_returns_reference(self):
        rng = np.random.default_rng(31)
        frame = frame_for(3, rng)
        point = section(frame, np.zeros(4))
        np.testing.assert_allclose(point.psi, frame.psi_i, atol=1e-14)
        np.testing.assert_allclose(point.berry, np.zeros(4), atol=1e-10)

    def test_n2_metric_is_identity_at_origin(self):
        frame = frame_for(2, psi=PLUS)
        point = section(frame, np.zeros(2))
        np.testing.assert_allclose(point.fs_metric, np.eye(2), atol=1e-9)

    def test_n2_round_sphere_closed_form(self):
        # along y = (r, 0) the section metric is diag(1, sin^2(2r)/(4 r^2)):
        # the ray-space image is a round sphere swept at angle 2r
        frame = frame_for(2, psi=PLUS)
        for r in (0.3, 0.7, 1.2):
            point = section(frame, np.array([r, 0.0]))
            predicted = np.diag([1.0, np.sin(2 * r) ** 2 / (4 * r * r)])
            np.testing.assert_allclose(point.fs_metric, predicted, atol=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_metric_constructions_agree(self, n):
        rng = np.random.default_rng(800 + n)
        frame = frame_for(n, rng)
        for _ in range(100):
            y = rng.uniform(-0.5, 0.5, frame.dim_coset)
            point = section(frame, y)
            assert np.max(np.abs(point.fs_metric - point.fs_metric_state)) < 1e-6

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_u1_component_proportional_to_berry(self, n):
        # the sign is fixed by the negative lambda0 eigenvalue: u1 = -c A
        rng = np.random.default_rng(900 + n)
        frame = frame_for(n, rng)
        for _ in range(10):
            y = rng.uniform(-0.5, 0.5, frame.dim_coset)
            minus, plus = u1_berry_residuals(section(frame, y))
            assert plus < 1e-8
            assert minus > 1e-3 or np.max(np.abs(section(frame, y).berry)) < 1e-9

    def test_unit_norm_along_section(self):
        rng = np.random.default_rng(40)
        frame = frame_for(3, rng)
        for _ in range(10):
            y = rng.uniform(-0.6, 0.6, 4)
            point = section(frame, y)
            assert abs(np.linalg.norm(point.psi) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exact_geometry_vs_central_difference(self, n):
        # finite differences of coset_element stay an independent check of
        # the exact section derivatives
        rng = np.random.default_rng(950 + n)
        frame = frame_for(n, rng)
        h = FD_STEP
        for _ in range(10):
            y = rng.uniform(-0.5, 0.5, frame.dim_coset)
            point = section(frame, y)
            dpsi = np.empty_like(point.dpsi)
            for mu in range(frame.dim_coset):
                step = np.zeros(frame.dim_coset)
                step[mu] = h
                kp = coset_element(frame, y + step)
                km = coset_element(frame, y - step)
                dpsi[mu] = (kp - km) @ frame.psi_i / (2 * h)
            berry = (dpsi @ point.psi.conj()).imag
            fs_state = (dpsi.conj() @ dpsi.T).real - np.outer(berry, berry)
            assert np.max(np.abs(point.dpsi - dpsi)) < ATOL_FD_MATCH
            assert np.max(np.abs(point.berry - berry)) < ATOL_FD_MATCH
            assert np.max(np.abs(point.fs_metric - fs_state)) < ATOL_FD_MATCH

    def test_domain_limit(self):
        frame = frame_for(2, psi=PLUS)
        with pytest.raises(DomainError):
            coset_element(frame, np.array([np.pi / 2, np.pi / 2]))


class TestRayRelations:
    def test_diagonal_pair_at_origin(self):
        # p = 1 there, so both squared-gradient identities read 0 = 0
        rng = np.random.default_rng(50)
        psi = haar_state(2, rng)
        frame = build_cartan_frame(psi, build_gellmann_basis(2))
        res = ray_relation_residuals(StatePair(psi, psi), section(frame, np.zeros(2)))
        assert max(res) < 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_seeded_sweep(self, n):
        rng = np.random.default_rng(1000 + n)
        frame = frame_for(n, rng)
        pair = StatePair(frame.psi_i, haar_state(n, rng))
        tested = 0
        for _ in range(40):
            y = rng.uniform(-0.6, 0.6, frame.dim_coset)
            amp = complex(pair.psi_f.conj() @ (coset_element(frame, y) @ frame.psi_i))
            if abs(amp) ** 2 < 1e-6:
                continue
            res = ray_relation_residuals(pair, section(frame, y))
            assert max(res) < 1e-5
            tested += 1
        assert tested >= 30

    def test_built_section_point_reused(self, monkeypatch):
        # every ray-space check reads the chart the section point was
        # evaluated on; none builds the full chart again
        import sun_phase.coset as coset

        rng = np.random.default_rng(1010)
        frame = frame_for(3, rng)
        pair = StatePair(frame.psi_i, haar_state(3, rng))
        y = rng.uniform(-0.4, 0.4, (2, frame.dim_coset))
        point = section(frame, y)
        assert point.rows(1).chart is point.chart

        def rebuilt(frame):
            raise AssertionError("full chart built again")

        monkeypatch.setattr(coset, "full_cartan_chart", rebuilt)
        assert max(np.max(r) for r in ray_relation_residuals(pair, point)) < 1e-5
        assert np.max(u1_berry_residuals(point)[1]) < 1e-8
        assert np.max(factorization_residual(pair, point, np.zeros((2, 3)), np.ones(2))) < 1e-9
        assert np.max(bridge_residuals(pair, point).residual_phase) < 1e-4
        assert ck_block_decomposition_residual(point.rows(0)) < 1e-6

    def test_near_zero_amplitude_raises(self):
        frame = frame_for(2, psi=PLUS)
        pair = StatePair(PLUS, np.array([0.0, 1.0], dtype=complex))
        with pytest.raises(NearZeroAmplitudeError):
            ray_relation_residuals(pair, section(frame, np.zeros(2)))


class TestFactorization:
    def test_zero_isotropy_coordinates_exact(self):
        rng = np.random.default_rng(61)
        frame = frame_for(3, rng)
        pair = StatePair(frame.psi_i, haar_state(3, rng))
        y = rng.uniform(-0.5, 0.5, 4)
        assert factorization_residual(pair, section(frame, y), np.zeros(3), 0.0) == 0.0

    def test_pure_u1_rotation_n2(self):
        # at n = 2 the U(1) eigenvalue is -1, so xi0 only shifts the phase
        frame = frame_for(2, psi=PLUS)
        pair = StatePair(PLUS, PLUS)
        res = factorization_residual(pair, section(frame, np.zeros(2)), np.zeros(0), 1.0)
        assert res < 1e-12
        u = coset_element(frame, np.zeros(2))
        amp = complex(pair.psi_f.conj() @ u @ pair.psi_i)
        assert amp == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_coordinates(self, n):
        rng = np.random.default_rng(1100 + n)
        frame = frame_for(n, rng)
        pair = StatePair(frame.psi_i, haar_state(n, rng))
        for _ in range(50):
            y = rng.uniform(-0.5, 0.5, frame.dim_coset)
            xi_s = rng.uniform(-0.5, 0.5, frame.dim_iso)
            xi0 = rng.uniform(-3.0, 3.0)
            assert factorization_residual(pair, section(frame, y), xi_s, xi0) < 1e-9

    def test_shape_check(self):
        frame = frame_for(3, np.random.default_rng(2))
        pair = StatePair(frame.psi_i, frame.psi_i)
        with pytest.raises(ShapeError):
            factorization_residual(pair, section(frame, np.zeros(4)), np.zeros(5), 0.1)


class TestFullChart:
    def test_identity_at_origin(self):
        rng = np.random.default_rng(71)
        frame = frame_for(3, rng)
        chart = full_cartan_chart(frame)
        assert chart.dim_m == 8
        np.testing.assert_allclose(chart.evaluate(np.zeros(8)), np.eye(3), atol=1e-14)

    def test_special_unitary_at_random_points(self):
        rng = np.random.default_rng(72)
        frame = frame_for(3, rng)
        chart = full_cartan_chart(frame)
        from sun_phase.algebra import dagger

        for _ in range(10):
            x = rng.uniform(chart.sample_box[:, 0], chart.sample_box[:, 1])
            u = chart.evaluate(x)
            assert np.max(np.abs(dagger(u) @ u - np.eye(3))) < 1e-10
            assert abs(np.linalg.det(u) - 1.0) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_analytic_vs_central_difference(self, n):
        rng = np.random.default_rng(74 + n)
        frame = frame_for(n, rng)
        chart = full_cartan_chart(frame)
        points = [rng.uniform(chart.sample_box[:, 0], chart.sample_box[:, 1]) for _ in range(5)]
        # the section slice xi_s = 0, xi0 = 0 that the bridge checks use
        for _ in range(5):
            x = np.zeros(chart.dim_m)
            x[: frame.dim_coset] = rng.uniform(-0.5, 0.5, frame.dim_coset)
            points.append(x)
        for x in points:
            exact = partials(chart, x)[1]
            approx = fd_partials(chart, x)[1]
            assert np.max(np.abs(exact - approx)) < ATOL_FD_MATCH

    def test_group_relations_hold_on_cartan_chart(self):
        # the chart is as good as any other for the group-manifold identities
        rng = np.random.default_rng(73)
        frame = frame_for(2, rng)
        chart = full_cartan_chart(frame)
        from sun_phase.amplitude import group_relation_residuals

        pair = StatePair(frame.psi_i, haar_state(2, rng))
        tested = 0
        for _ in range(20):
            x = rng.uniform(chart.sample_box[:, 0], chart.sample_box[:, 1])
            if polar_amplitude(pair, chart.evaluate(x)).p < 1e-6:
                continue
            assert max(group_relation_residuals(pair, chart, x)) < 1e-8
            tested += 1
        assert tested >= 15


class TestBridge:
    def test_diagonal_pair_at_origin(self):
        rng = np.random.default_rng(81)
        psi = haar_state(3, rng)
        frame = build_cartan_frame(psi, build_gellmann_basis(3))
        result = bridge_residuals(StatePair(psi, psi), section(frame, np.zeros(4)))
        assert result.residual_phase < 1e-6
        assert result.residual_mixed < 1e-6
        assert result.residual_modulus < 1e-6

    @pytest.mark.parametrize("n", [2, 3])
    def test_seeded_sweep(self, n):
        rng = np.random.default_rng(1200 + n)
        frame = frame_for(n, rng)
        pair = StatePair(frame.psi_i, haar_state(n, rng))
        tested = 0
        for _ in range(15):
            y = rng.uniform(-0.5, 0.5, frame.dim_coset)
            amp = complex(pair.psi_f.conj() @ (coset_element(frame, y) @ frame.psi_i))
            if abs(amp) ** 2 < 1e-6:
                continue
            result = bridge_residuals(pair, section(frame, y))
            assert result.residual_phase < 1e-4
            assert result.residual_mixed < 1e-4
            assert result.residual_modulus < 1e-4
            tested += 1
        assert tested >= 10

    @pytest.mark.parametrize("n", [2, 3])
    def test_u1_phase_rate_and_frame_component(self, n):
        # moving along the U(1) coordinate scales the phase at the rate of
        # the lambda0 eigenvalue on psi_i (negative); the extracted frame
        # coefficient along that coordinate is 1
        rng = np.random.default_rng(1300 + n)
        frame = frame_for(n, rng)
        pair = StatePair(frame.psi_i, haar_state(n, rng))
        y = rng.uniform(-0.4, 0.4, frame.dim_coset)
        result = bridge_residuals(pair, section(frame, y))
        assert result.grad0_phase == pytest.approx(u1_eigenvalue(n), abs=1e-6)
        assert result.u1_frame_component == pytest.approx(1.0, abs=1e-8)

    def test_opposite_gauge_sign_fails(self):
        # replacing d eta - A by d eta + A breaks the first identity, which
        # is how the correct sign convention is identified numerically
        rng = np.random.default_rng(85)
        frame = frame_for(2, rng)
        pair = StatePair(frame.psi_i, haar_state(2, rng))
        y = np.array([0.4, -0.3])
        result = bridge_residuals(pair, section(frame, y))
        assert result.residual_phase < 1e-4
        assert result.alt_residual_phase > 1e-2


class TestBlockDecomposition:
    @pytest.mark.parametrize("n", [2, 3])
    def test_coset_block_identity(self, n):
        rng = np.random.default_rng(1400 + n)
        frame = frame_for(n, rng)
        for _ in range(5):
            y = rng.uniform(-0.5, 0.5, frame.dim_coset)
            assert ck_block_decomposition_residual(section(frame, y)) < 1e-6


class TestStackedSlice:
    def test_mixed_zero_rows_match_one_point(self):
        # a factor whose coordinates are zero in one row of a stack is
        # exactly the identity there, as it is at one point
        rng = np.random.default_rng(1500)
        frame = frame_for(3, rng)
        chart = full_cartan_chart(frame)
        x = rng.uniform(chart.sample_box[:, 0], chart.sample_box[:, 1], (2, chart.dim_m))
        x[0, -1] = 0.0
        u, du = chart.evaluate(x), partials(chart, x)[1]
        for k in range(2):
            assert np.array_equal(u[k], chart.evaluate(x[k]))
            assert np.array_equal(du[k], partials(chart, x[k])[1])
        x[1, frame.dim_coset:-1] = 0.0
        assert np.array_equal(chart.evaluate(x)[1], chart.evaluate(x[1]))

    def test_section_is_the_chart_slice(self):
        rng = np.random.default_rng(1501)
        frame = frame_for(4, rng)
        y = rng.uniform(-0.5, 0.5, (3, frame.dim_coset))
        point = section(frame, y)
        x = np.zeros((3, full_cartan_chart(frame).dim_m))
        x[:, : frame.dim_coset] = y
        assert np.array_equal(point.frame.x, x)
        assert np.array_equal(point.kmat, coset_element(frame, y))
        # the U(1) and isotropy coordinates enter with the identity frame
        m = frame.dim_coset
        identity = np.broadcast_to(np.eye(frame.dim_iso + 1), (3, frame.dim_iso + 1, frame.dim_iso + 1))
        np.testing.assert_allclose(point.frame.omega[:, m:, m:], identity, atol=1e-12)

    def test_empty_stack(self):
        frame = frame_for(3, np.random.default_rng(1502))
        pair = StatePair(frame.psi_i, haar_state(3, np.random.default_rng(1503)))
        point = section(frame, np.empty((0, 4)))
        assert point.psi.shape == (0, 3) and point.fs_metric_inv.shape == (0, 4, 4)
        assert ray_relation_residuals(pair, point).phase.shape == (0,)
        assert factorization_residual(pair, point, np.empty((0, 3)), np.empty(0)).shape == (0,)

    def test_bad_stacks_rejected(self):
        frame = frame_for(3, np.random.default_rng(1504))
        pair = StatePair(frame.psi_i, frame.psi_i)
        with pytest.raises(ShapeError):
            section(frame, np.zeros((2, 5)))
        with pytest.raises(DomainError):
            section(frame, np.array([np.zeros(4), np.full(4, 1.0)]))
        with pytest.raises(ShapeError):  # one U(1) coordinate per row
            factorization_residual(pair, section(frame, np.zeros((2, 4))), np.zeros((2, 3)), 0.1)
        # a section belongs to one reference state, not to per-row frames
        rng = np.random.default_rng(1506)
        per_row = frame_for(3, psi=np.array([haar_state(3, rng) for _ in range(3)]))
        with pytest.raises(ShapeError, match="one reference state"):
            section(per_row, np.zeros((3, 4)))

    def test_stack_raises_error_of_first_failing_row(self):
        # near the |y| = pi/2 rim the frame first fails its inversion check,
        # then becomes singular; a stack raises what its first bad row raises
        frame = frame_for(2, psi=PLUS)
        good = np.array([0.1, 0.2])
        uninvertible = np.array([np.pi / 2 - 1e-9, 0.0])
        singular = np.array([np.pi / 2 - 1e-12, 0.0])
        with pytest.raises(InternalConsistencyError, match="frame inversion failed"):
            section(frame, np.array([good, uninvertible, singular]))
        with pytest.raises(ChartDegenerateError, match=r"singular at x = \[[^\[]*\]$"):
            section(frame, np.array([good, singular, uninvertible]))

    def test_bridge_raises_error_of_first_failing_row(self, monkeypatch):
        # the bridge's group side contracts with the metric of the section's
        # frame; a stack raises what its first row with a bad metric raises
        import sun_phase.amplitude as amplitude

        original = amplitude.ck_metric

        def rejecting(chart, x, frame=None, du=None):
            if (x[..., 0] > 0.0).any():
                raise DegenerateMetricError(f"metric rejected at x = {x}")
            return original(chart, x, frame=frame, du=du)

        monkeypatch.setattr(amplitude, "ck_metric", rejecting)
        rng = np.random.default_rng(1505)
        frame = frame_for(3, rng)
        pair = StatePair(frame.psi_i, haar_state(3, rng))
        y = np.array([[-0.1, 0.2, 0.1, 0.0], [0.2, 0.1, 0.0, 0.1], [0.3, 0.0, 0.2, 0.1]])
        with pytest.raises(DegenerateMetricError, match=r"x = \[0\.2 [^\[]*\]$"):
            bridge_residuals(pair, section(frame, y))

    def test_stack_names_its_lowest_amplitude_row(self):
        frame = frame_for(2, psi=PLUS)
        pair = StatePair(PLUS, np.array([0.0, 1.0], dtype=complex))
        with pytest.raises(NearZeroAmplitudeError, match=r"y = \[0\. 0\.\]"):
            ray_relation_residuals(pair, section(frame, np.array([[0.3, 0.2], [0.0, 0.0]])))


def _within_ulps(stacked, one, scale):
    """Entrywise |stacked - one| within 4 ulps of `scale`."""
    np.testing.assert_allclose(
        stacked, one, rtol=0, atol=4 * np.finfo(float).eps * scale
    )


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 5), rows=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_stacked_ray_path_matches_one_call_per_row(n, rows, seed):
    # the identities' terms are of size 1/p, so their residuals are
    # compared in ulps of 1/p; amplitudes are at most 1
    rng = np.random.default_rng(seed)
    frame = frame_for(n, rng)
    pair = StatePair(frame.psi_i, haar_state(n, rng))
    y = rng.uniform(-0.5, 0.5, (rows, frame.dim_coset))
    xi_s = rng.uniform(-0.5, 0.5, (rows, frame.dim_iso))
    xi0 = rng.uniform(-2.0, 2.0, rows)

    stacked = section(frame, y)
    facts = factorization_residual(pair, stacked, xi_s, xi0)
    for k in range(rows):
        one = section(frame, y[k])
        for name in (
            "kmat", "psi", "dpsi", "berry", "fs_metric", "fs_metric_inv",
            "fs_metric_state", "tau", "iso_components", "u1_component",
        ):
            value = getattr(one, name)
            _within_ulps(getattr(stacked, name)[k], value, max(1.0, np.max(np.abs(value), initial=0)))
        for name in ("omega", "dual"):
            value = getattr(one.frame, name)
            _within_ulps(getattr(stacked.frame, name)[k], value, max(1.0, np.max(np.abs(value))))
        _within_ulps(facts[k], factorization_residual(pair, one, xi_s[k], xi0[k]), 1.0)

    p = np.abs(stacked.overlap(pair.psi_f)) ** 2
    kept = np.flatnonzero(p > 1e-4)
    kept_point = section(frame, y[kept])
    rays = ray_relation_residuals(pair, kept_point)
    bridges = bridge_residuals(pair, kept_point)
    for j, k in enumerate(kept):
        one_point = section(frame, y[k])
        for stacked_value, value in zip(rays, ray_relation_residuals(pair, one_point)):
            _within_ulps(stacked_value[j], value, 1.0 / p[k])
        one = bridge_residuals(pair, one_point)
        for name in ("residual_phase", "residual_mixed", "residual_modulus", "alt_residual_phase"):
            _within_ulps(getattr(bridges, name)[j], getattr(one, name), 1.0 / p[k] + 1.0)
        for name in ("grad0_phase", "u1_frame_component"):
            _within_ulps(getattr(bridges, name)[j], getattr(one, name), 1.0)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_hermitian
from sun_phase.algebra import (
    StatePair,
    dagger,
    expm_partials,
    haar_state,
)
from sun_phase.amplitude import phase_gradient, polar_amplitude
from sun_phase.coset import (
    _adapted_basis,
    _complement_basis,
    _reference_pair,
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
from sun_phase.charts import fd_partials, frame_coefficients, left_invariant_frame, partials
from sun_phase.errors import (
    ChartDegenerateError,
    DegenerateMetricError,
    DimensionError,
    DomainError,
    InternalConsistencyError,
    NearZeroAmplitudeError,
    ShapeError,
)
from sun_phase.tolerances import (
    ATOL_FD_MATCH,
    ATOL_FRAME,
    CHECK_GATES,
    FD_STEP,
    P_BRIDGE,
    P_GRAD,
    P_SKIP_RAY,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PLUS = np.array([1.0, 0.0], dtype=complex)


def frame_for(n, rng=None, psi=None):
    if psi is None:
        psi = haar_state(n, rng)
    return build_cartan_frame(psi)


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
        gram = 0.5 * np.einsum("aij,bji->ab", stack, stack)  # (1/2) Tr(g_a g_b), real
        assert np.max(np.abs(gram - np.eye(n * n - 1))) < 1e-12

    def test_counts(self):
        rng = np.random.default_rng(5)
        frame = frame_for(4, rng)
        assert frame.dim_coset == 6
        assert frame.dim_iso == 8
        assert 1 + frame.dim_iso + frame.dim_coset == 15

    def test_rejects_unnormalized_state(self):
        with pytest.raises(DomainError):
            build_cartan_frame(np.array([1.0, 1.0, 0.0], dtype=complex))

    def test_rejects_short_state(self):
        # n is read off the state, and checked before its norm
        for short in (np.array([1.0 + 0j]), np.zeros(1), np.zeros(0)):
            with pytest.raises(DimensionError):
                build_cartan_frame(short)
        assert build_cartan_frame(np.array([0.0, 1.0])).n == 2


class TestStackedComplement:
    """A stack of several states builds its complement bases in one
    Gram-Schmidt over all rows, bit for bit the single-state loop per row."""

    @staticmethod
    def stack(n, rng, rows):
        """Haar rows with e_0, e_{n-1} and rows 1e-8 off a basis vector mixed
        in: each drops another standard basis vector in the Gram-Schmidt."""
        states = np.array([haar_state(n, rng) for _ in range(rows)])
        eye = np.eye(n, dtype=complex)
        special = [eye[0], eye[n - 1]]
        for k in rng.integers(0, n, 2):
            near = eye[k] + 1e-8 * haar_state(n, rng)
            special.append(near / np.linalg.norm(near))
        for slot, state in zip(rng.permutation(rows), special):
            states[slot] = state
        return states

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_rows_equal_single_state_loop(self, n):
        rng = np.random.default_rng(900 + n)
        for rows in [2, 3, 4, 7, 15, 40] + list(rng.integers(2, 41, 6)):
            states = self.stack(n, rng, rows)
            stacked = _complement_basis(states)
            single = np.array([_complement_basis(psi) for psi in states])
            assert stacked.shape == (rows, n - 1, n)
            assert stacked.tobytes() == single.tobytes()

    def test_single_state_shapes(self):
        psi = haar_state(3, np.random.default_rng(3))
        one = _complement_basis(psi)
        assert one.shape == (2, 3)
        assert _complement_basis(psi[None]).tobytes() == one[None].tobytes()

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_zero_row_raises(self, n):
        states = np.array([haar_state(n, np.random.default_rng(n)) for _ in range(4)])
        states[2] = 0.0  # keeps all n standard basis vectors
        with pytest.raises(InternalConsistencyError, match="complement basis"):
            _complement_basis(states)
        with pytest.raises(InternalConsistencyError, match="complement basis"):
            _complement_basis(states[2])


class TestPerRowFrames:
    """Per-row frames are gone: `build_cartan_frame` takes one state, and the
    chart adapted to psi_i is W U_e0(x) W^dag for the chart U_e0 of e_0 and
    W = [psi_i | complement], so a stack of pairs is evaluated on the chart
    of e_0, each row's pair rotated to (e_0, W^dag psi_f)."""

    @staticmethod
    def states(n, rng, rows=5):
        states = np.array([haar_state(n, rng) for _ in range(rows)])
        states[0] = np.eye(n)[0]  # basis states drop a different Gram-Schmidt vector
        states[1] = np.eye(n)[n - 1]
        return states

    @staticmethod
    def reference_chart(n):
        return frame_for(n, psi=np.eye(n, dtype=complex)[0]).chart

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_rows_equal_one_state_frames(self, n):
        # the rotated pairs on the chart of e_0 give, row by row, what the
        # chart of each row's own psi_i gives, to rounding
        rng = np.random.default_rng(40 + n)
        states = self.states(n, rng)
        finals = np.array([haar_state(n, rng) for _ in states])
        chart = self.reference_chart(n)
        lo, hi = chart.sample_box.T
        x = rng.uniform(lo, hi, (len(states), chart.dim_m))
        grad = phase_gradient(_reference_pair(StatePair(states, finals)), chart, x)
        residuals = grad.residuals()
        for k, psi in enumerate(states):
            one = phase_gradient(StatePair(psi, finals[k]), frame_for(n, psi=psi).chart, x[k])
            assert grad.p[k] == pytest.approx(one.p, rel=1e-12, abs=1e-15)
            assert grad.phase_grad_sq[k] == pytest.approx(one.phase_grad_sq, rel=1e-10)
            assert grad.log_modulus_grad_sq[k] == pytest.approx(one.log_modulus_grad_sq, rel=1e-10)
            for name, value in one.residuals()._asdict().items():
                assert value < 1e-9 and getattr(residuals, name)[k] < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_per_row_chart_rows(self, n):
        # the chart of each row's psi_i is W U_e0(x) W^dag, with its
        # generators W g_a W^dag and the frame of U_e0 at x
        rng = np.random.default_rng(50 + n)
        states = self.states(n, rng)
        chart = self.reference_chart(n)
        lo, hi = chart.sample_box.T
        x = rng.uniform(lo, hi, (len(states), chart.dim_m))
        w = _adapted_basis(states)
        u, du = partials(chart, x)
        omega = left_invariant_frame(chart, x, u, du).omega
        for k, psi in enumerate(states):
            one = frame_for(n, psi=psi).chart
            np.testing.assert_array_equal(one.sample_box, chart.sample_box)
            np.testing.assert_allclose(one.algebra, w[k] @ chart.algebra @ dagger(w[k]), atol=1e-14)
            u_k, du_k = partials(one, x[k])
            np.testing.assert_allclose(u_k, w[k] @ u[k] @ dagger(w[k]), atol=1e-13)
            np.testing.assert_allclose(du_k, w[k] @ du[k] @ dagger(w[k]), atol=1e-13)
            omega_k = left_invariant_frame(one, x[k], u_k, du_k).omega
            np.testing.assert_allclose(omega_k, omega[k], atol=1e-12)

    def test_bad_stacks_rejected(self):
        rng = np.random.default_rng(60)
        for bad in (np.zeros((0, 3)), self.states(3, rng), self.states(4, rng),
                    self.states(3, rng)[:1], np.array(1.0 + 0j)):
            with pytest.raises(ShapeError):  # one reference state, a vector
                build_cartan_frame(bad)
        for bad in (np.zeros(4), 1.1 * haar_state(3, rng)):
            with pytest.raises(DomainError):  # not unit norm
                build_cartan_frame(bad)

    def test_every_row_verified(self, monkeypatch):
        # the check on W, in place of the per-row frame validation: one
        # complement vector of one row of a stack off by 1e-9 fails
        from sun_phase import coset

        states = self.states(3, np.random.default_rng(61))
        original = coset._complement_basis

        def skewed(psi_i):
            basis = original(psi_i).copy()
            basis[3, 0] *= 1.0 + 1e-9
            return basis

        _adapted_basis(states)
        monkeypatch.setattr(coset, "_complement_basis", skewed)
        with pytest.raises(InternalConsistencyError, match="not unitary"):
            _adapted_basis(states)
        with pytest.raises(InternalConsistencyError, match="not unitary"):
            _reference_pair(StatePair(states, states))


class TestReferencePair:
    """W = [psi_i | complement] and the pair (e_0, W^dag psi_f) that the chart
    of e_0 evaluates as the chart of psi_i evaluates (psi_i, psi_f)."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_w_unitary_and_maps_psi_i_to_e0(self, n):
        rng = np.random.default_rng(70 + n)
        states = TestStackedComplement.stack(n, rng, 9)
        e_0 = np.eye(n)[0]
        for psi, w in zip(states, _adapted_basis(states)):
            np.testing.assert_allclose(dagger(w) @ w, np.eye(n), atol=1e-14)
            np.testing.assert_allclose(dagger(w) @ psi, e_0, atol=1e-14)
            np.testing.assert_array_equal(w[:, 0], psi)  # psi_i is the first column
        pair = _reference_pair(StatePair(states, states[::-1]))
        np.testing.assert_array_equal(pair.psi_i, np.broadcast_to(e_0, states.shape))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_stacked_rotation_equals_per_row(self, n):
        rng = np.random.default_rng(80 + n)
        for rows in (2, 7, 40):
            states = TestStackedComplement.stack(n, rng, rows)
            finals = np.array([haar_state(n, rng) for _ in range(rows)])
            w = _adapted_basis(states)
            pair = _reference_pair(StatePair(states, finals))
            for k in range(rows):
                assert _adapted_basis(states[k]).tobytes() == w[k].tobytes()
                one = _reference_pair(StatePair(states[k], finals[k]))
                assert one.psi_i.tobytes() == pair.psi_i[k].tobytes()
                assert one.psi_f.tobytes() == pair.psi_f[k].tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_spin_flip_gives_identity(self, n):
        # the complement of e_0 is e_1 .. e_{n-1} bit for bit, so W = 1 and
        # the spin-flip pair is left as it is
        e_0, e_1 = np.eye(n, dtype=complex)[:2]
        assert _adapted_basis(e_0).tobytes() == np.eye(n, dtype=complex).tobytes()
        pair = _reference_pair(StatePair(e_0, e_1))
        assert pair.psi_i.tobytes() == e_0.tobytes() and pair.psi_f.tobytes() == e_1.tobytes()


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
        frame = build_cartan_frame(psi)
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
        assert point.rows(1).chart is point.chart is section(frame, y[0]).chart is frame.chart

        def rebuilt(frame):
            raise AssertionError("full chart built again")

        monkeypatch.setattr(coset, "full_cartan_chart", rebuilt)
        assert max(np.max(r) for r in ray_relation_residuals(pair, point)) < 1e-5
        assert np.max(u1_berry_residuals(point)[1]) < 1e-8
        assert np.max(factorization_residual(pair, point, np.zeros((2, 3)), np.ones(2))) < 1e-9
        assert np.max(bridge_residuals(pair, point).residual_phase) < 1e-4
        assert np.max(ck_block_decomposition_residual(point)) < 1e-6

    def test_near_zero_amplitude_raises(self):
        frame = frame_for(2, psi=PLUS)
        pair = StatePair(PLUS, np.array([0.0, 1.0], dtype=complex))
        with pytest.raises(NearZeroAmplitudeError):
            ray_relation_residuals(pair, section(frame, np.zeros(2)))


class TestFactorization:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_left_side_is_the_chart_map(self, n, monkeypatch):
        # K(y) from the section times the isotropy and U(1) factors, formed
        # as the chart's map forms them: bit for bit its value
        import sun_phase.coset as coset

        rng = np.random.default_rng(1700 + n)
        frame = frame_for(n, rng)
        pair = StatePair(frame.psi_i, haar_state(n, rng))
        y = rng.uniform(-0.5, 0.5, (4, frame.dim_coset))
        xi_s = rng.uniform(-0.5, 0.5, (4, frame.dim_iso))
        xi0 = rng.uniform(-2.0, 2.0, 4)
        xi_s[1], xi0[2] = 0.0, 0.0  # rows where a factor is left out
        lefts = []
        original = coset._times_fiber
        monkeypatch.setattr(
            coset, "_times_fiber", lambda *args: lefts.append(original(*args)) or lefts[-1]
        )
        for rows in (slice(None), 0):
            factorization_residual(pair, section(frame, y[rows]), xi_s[rows], xi0[rows])
            left = lefts[-1]
            x = np.concatenate([y[rows], xi_s[rows], xi0[rows, None]], axis=-1)
            assert np.array_equal(left, frame.chart.map_fn(x))

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
        frame = build_cartan_frame(psi)
        result = bridge_residuals(StatePair(psi, psi), section(frame, np.zeros(4)))
        assert result.residual_phase < 1e-6
        assert result.residual_mixed < 1e-6
        assert result.residual_modulus < 1e-6

    def test_refuses_points_below_its_floor(self):
        # psi(0) = PLUS, so <psi_f|psi(0)> = sqrt(p); half the floor passes the
        # section's own P_GRAD guard and is refused by the bridge alone
        frame = frame_for(2, psi=PLUS)
        point = section(frame, np.zeros(2))
        for p in (0.5 * P_BRIDGE, 2.0 * P_BRIDGE):
            pair = StatePair(PLUS, np.array([np.sqrt(p), np.sqrt(1.0 - p)], dtype=complex))
            assert p > P_GRAD
            ray_relation_residuals(pair, point)
            if p < P_BRIDGE:
                with pytest.raises(NearZeroAmplitudeError, match="too small"):
                    bridge_residuals(pair, point)
            else:
                assert bridge_residuals(pair, point).residual_phase < 1e-4

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

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stack_gives_per_row_values(self, n):
        rng = np.random.default_rng(1410 + n)
        frame = frame_for(n, rng)
        y = rng.uniform(-0.5, 0.5, (2, frame.dim_coset))
        stacked = ck_block_decomposition_residual(section(frame, y))
        assert stacked.shape == (2,)
        for k in range(2):
            assert stacked[k] == ck_block_decomposition_residual(section(frame, y[k]))


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
        # the full frame is built on first read, not by the section
        assert "frame" not in vars(point) and "du" not in vars(point)
        assert np.array_equal(point.frame.x, x)
        assert np.array_equal(point.kmat, coset_element(frame, y))
        u, du = partials(frame.chart, x)
        assert np.array_equal(point.kmat, u) and np.array_equal(point.du, du)
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

    def test_stack_raises_error_of_first_failing_row(self):
        # near the |y| = pi/2 rim, tau first gives an ill-conditioned metric,
        # then becomes singular; a stack raises what its first bad row raises.
        # On an axis tau inverts to rounding even at |det(tau)| ~ 6e-10, so
        # that row passes; off the axis g g^-1 misses 1 by ~1e-4 at |det(tau)|
        # ~ 6e-7, where tau tau^-1 still meets 1 to ~1e-10
        frame = frame_for(2, psi=PLUS)
        good = np.array([0.1, 0.2])
        on_axis = np.array([np.pi / 2 - 1e-9, 0.0])
        ill_conditioned = (np.pi / 2 - 1e-6) * np.array([0.6, 0.8])
        singular = np.array([np.pi / 2 - 1e-12, 0.0])
        section(frame, np.array([good, on_axis]))
        with pytest.raises(ChartDegenerateError, match=r"singular at x = \[[^\[]*\]$"):
            section(frame, np.array([good, on_axis, singular]))
        with pytest.raises(DegenerateMetricError, match="ill-conditioned"):
            section(frame, np.array([good, ill_conditioned, singular]))
        with pytest.raises(ChartDegenerateError, match=r"singular at x = \[[^\[]*\]$"):
            section(frame, np.array([good, singular, ill_conditioned]))

    def test_bridge_raises_error_of_first_failing_row(self, monkeypatch):
        # the bridge's group side contracts with the metric of the section's
        # frame; a stack raises what its first row with a bad metric raises
        import sun_phase.amplitude as amplitude

        original = amplitude.ck_metric

        def rejecting(frame, du):
            if (frame.x[..., 0] > 0.0).any():
                raise DegenerateMetricError(f"metric rejected at x = {frame.x}")
            return original(frame, du)

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


class TestCosetFactor:
    """A section evaluates the coset factor K(y) of the full chart only."""

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("rows", [None, 1, 5])
    def test_coset_columns_match_full_frame(self, n, rows):
        rng = np.random.default_rng(1600 + 10 * n + (rows or 0))
        frame = frame_for(n, rng)
        m = frame.dim_coset
        lo, hi = frame.chart.sample_box[:m].T
        y = rng.uniform(lo, hi, (rows, m) if rows else m)
        point = section(frame, y)
        x = np.concatenate([y, np.zeros(y.shape[:-1] + (frame.dim_iso + 1,))], axis=-1)
        full = left_invariant_frame(frame.chart, x, *partials(frame.chart, x)).omega[..., :m]
        columns = np.concatenate(
            [point.tau, point.iso_components, point.u1_component[..., None, :]], axis=-2
        )
        assert columns.shape == full.shape
        _within_ulps(columns, full, max(1.0, np.max(np.abs(full))))

    def test_frame_built_once_for_the_kept_rows(self, monkeypatch):
        import sun_phase.coset as coset

        rng = np.random.default_rng(1610)
        frame = frame_for(3, rng)
        y = rng.uniform(-0.4, 0.4, (4, frame.dim_coset))
        point = section(frame, y).rows(np.array([True, False, True, True]))
        frames = []
        original = coset.left_invariant_frame
        monkeypatch.setattr(
            coset, "left_invariant_frame", lambda *a, **k: frames.append(1) or original(*a, **k)
        )
        assert point.frame is point.frame and len(frames) == 1
        assert point.frame.omega.shape == (3, 8, 8)
        x = point.frame.x
        rebuilt = original(frame.chart, x, *partials(frame.chart, x))
        assert np.array_equal(point.frame.omega, rebuilt.omega)

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_fiber_guards_implied_by_unitarity(self, n, monkeypatch):
        # The full frame's isotropy and U(1) columns are the coefficients of
        # K^dag K i g_s; only the lazily built frame runs their guards (to
        # ATOL_FRAME = 1e-8).  Their residues are of the size of
        # |K^dag K - 1| (at most 1.7 times it for K(1 + s h) here), which
        # the section's unitarity guard on K holds below ATOL_IDENTITY =
        # 1e-10: a K on which a fiber guard trips fails the kept guard first.
        import sun_phase.coset as coset

        rng = np.random.default_rng(1620 + n)
        frame = frame_for(n, rng)
        y = rng.uniform(-0.4, 0.4, (3, frame.dim_coset))
        k, dk = expm_partials(y, frame.coset)
        h = random_hermitian(n, rng)
        h /= np.abs(h).max()
        fiber = 1j * frame.stacked()[frame.dim_coset:]
        tripped = {"fiber": 0, "unitarity": 0}
        for s in np.logspace(-12, -6, 25):
            bent = k @ (np.eye(n) + s * h)
            try:
                frame_coefficients(bent, bent[..., None, :, :] @ fiber, frame.chart.algebra)
            except InternalConsistencyError:
                fiber_trips = True
            else:
                fiber_trips = False
            monkeypatch.setattr(coset, "expm_partials", lambda coeffs, gens: (bent, dk))
            try:
                section(frame, y)
            except InternalConsistencyError as exc:
                assert "non-unitary" in str(exc)  # the kept guard, first
                unitarity_trips = True
            else:
                unitarity_trips = False
            assert unitarity_trips or not fiber_trips
            tripped["fiber"] += fiber_trips
            tripped["unitarity"] += unitarity_trips
        # the sweep crosses both thresholds, the unitarity one first
        assert 0 < tripped["fiber"] < tripped["unitarity"] < 25

    def test_nan_coordinates_rejected(self):
        frame = frame_for(3, np.random.default_rng(1630))
        y = np.array([[0.1, 0.2, 0.0, 0.1], [np.nan, 0.0, 0.0, 0.0]])
        with pytest.raises(DomainError):
            section(frame, y)
        with pytest.raises(DomainError):
            coset_element(frame, y[1])


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


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 3, 4]), log_delta=st.floats(-9.0, -3.0), seed=st.integers(0, 2**16))
def test_section_at_the_chart_margin(n, log_delta, seed):
    # at |y| = pi/2 - delta in a random direction tau degenerates: a
    # section either rejects the point through one of its guards, or
    # inverts its metric to ATOL_FRAME and, where p > P_SKIP_RAY, meets the
    # ray identities' gates.  On a coordinate axis tau inverts to rounding,
    # so no guard trips, and at delta <= 1e-8 the gates can fail there
    # (ROADMAP item 7)
    rng = np.random.default_rng(seed)
    frame = frame_for(n, rng)
    pair = StatePair(frame.psi_i, haar_state(n, rng))
    direction = rng.standard_normal(frame.dim_coset)
    y = (np.pi / 2 - 10.0**log_delta) * direction / np.linalg.norm(direction)
    try:
        point = section(frame, y)
    except (ChartDegenerateError, DegenerateMetricError):
        return
    except InternalConsistencyError as error:
        assert str(error) == "frame inversion failed"
        return
    identity = point.fs_metric @ point.fs_metric_inv
    assert np.abs(identity - np.eye(frame.dim_coset)).max() < ATOL_FRAME
    if np.abs(point.overlap(pair.psi_f)) ** 2 > P_SKIP_RAY:
        gates = CHECK_GATES["verify-ray"]
        rel = ray_relation_residuals(pair, point)
        assert rel.phase < gates["ray-phase-identity"]
        assert rel.modulus < gates["ray-modulus-identity"]
        assert rel.cross < gates["ray-orthogonality"]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="open rim gap (ROADMAP item 7): on a coordinate axis tau inverts "
    "to rounding, so no section guard trips, yet the ray identities miss "
    "their gates",
)
def test_rim_on_a_coordinate_axis_meets_the_ray_gates():
    # seed 4907 gives the widest margin of seeds 0-4999 on either axis:
    # ray-phase-identity 3.3e-2 against its 1e-5 gate, at p = 1.19e-4
    rng = np.random.default_rng(4907)
    frame = frame_for(2, rng)
    pair = StatePair(frame.psi_i, haar_state(2, rng))
    point = section(frame, np.array([0.0, np.pi / 2 - 3e-10]))  # no guard trips
    if not np.abs(point.overlap(pair.psi_f)) ** 2 > P_SKIP_RAY:
        pytest.fail("the pinned target no longer has p > P_SKIP_RAY")
    rel = ray_relation_residuals(pair, point)
    assert rel.phase < CHECK_GATES["verify-ray"]["ray-phase-identity"]

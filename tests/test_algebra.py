import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import random_hermitian
from sun_phase.algebra import (
    StatePair,
    build_gellmann_basis,
    completeness_residual,
    dagger,
    det,
    expm_generator,
    expm_partials,
    generator_sum,
    haar_state,
    unitarity_residual,
)
from sun_phase.amplitude import polar_amplitude
from sun_phase.charts import Chart, exp_chart, fd_partials, left_translate
from sun_phase.coset import build_cartan_frame, factorization_residual, section
from sun_phase.errors import (
    DimensionError,
    DomainError,
    ShapeError,
)
from sun_phase.superosc import local_frequency, normalized_generator
from sun_phase.tolerances import ATOL_FD_MATCH

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def taylor_expm(m, terms=30):
    """Independent oracle: truncated Taylor series of exp(m)."""
    n = m.shape[0]
    acc = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        acc = acc + term
    return acc


class TestGellmannBasis:
    def test_n2_is_pauli(self):
        basis = build_gellmann_basis(2)
        np.testing.assert_allclose(basis[0], PAULI_X, atol=0)
        np.testing.assert_allclose(basis[1], PAULI_Y, atol=0)
        np.testing.assert_allclose(basis[2], PAULI_Z, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_count_and_structure(self, n):
        basis = build_gellmann_basis(n)
        assert len(basis) == n * n - 1
        for g in basis:
            assert np.max(np.abs(g - dagger(g))) < 1e-12
            assert abs(np.trace(g)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_orthonormal_trace_pairing(self, n):
        basis = build_gellmann_basis(n)
        gram = 0.5 * np.einsum("aij,bji->ab", basis, basis)  # (1/2) Tr(g_a g_b), real
        assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-12

    def test_invalid_dimension(self):
        with pytest.raises(DimensionError):
            build_gellmann_basis(1)

    def test_shared_per_n_and_read_only(self):
        basis = build_gellmann_basis(3)
        assert isinstance(basis, np.ndarray) and basis.shape == (8, 3, 3)
        assert not basis.flags.writeable
        assert build_gellmann_basis(3) is basis
        with pytest.raises(ValueError):
            basis[0, 0, 1] = 2.0
        with pytest.raises(ValueError):
            basis[0][0, 1] = 2.0
        assert basis[0][0, 1] == 1.0


class TestCompleteness:
    @pytest.mark.parametrize("n,expected", [(2, 3.0), (4, 15.0)])
    def test_identity_inputs(self, n, expected):
        # both sides equal n^2 - 1 when x = y = identity
        basis = build_gellmann_basis(n)
        eye = np.eye(n, dtype=complex)
        lhs = 0.5 * sum(np.trace(eye @ g @ eye @ g) for g in basis)
        assert lhs.real == pytest.approx(expected, abs=1e-12)
        assert completeness_residual(eye, eye, basis) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_seeded_hermitian_pairs(self, n):
        basis = build_gellmann_basis(n)
        rng = np.random.default_rng(1000 + n)
        for _ in range(50):
            x = random_hermitian(n, rng)
            y = random_hermitian(n, rng)
            assert completeness_residual(x, y, basis) < 1e-10

    def test_non_hermitian_inputs(self):
        # the identity holds for arbitrary complex matrices
        basis = build_gellmann_basis(3)
        rng = np.random.default_rng(77)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert completeness_residual(x, y, basis) < 1e-10

    def test_shape_error(self):
        basis = build_gellmann_basis(3)
        with pytest.raises(ShapeError):
            completeness_residual(np.eye(2, dtype=complex), np.eye(2, dtype=complex), basis)


class TestExpmGenerator:
    def test_sigma_z_quarter_turn(self):
        u = expm_generator(PAULI_Z, np.pi / 2)
        np.testing.assert_allclose(u, np.diag([1j, -1j]), atol=1e-14)

    def test_zero_time(self):
        rng = np.random.default_rng(5)
        l = random_hermitian(4, rng)
        np.testing.assert_allclose(expm_generator(l, 0.0), np.eye(4), atol=1e-14)

    def test_against_taylor_oracle(self):
        rng = np.random.default_rng(42)
        l = random_hermitian(3, rng, traceless=True)
        t = 0.7
        expected = taylor_expm(1j * l * t)
        np.testing.assert_allclose(expm_generator(l, t), expected, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_unitarity_and_det(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            l = random_hermitian(n, rng, traceless=True)
            u = expm_generator(l, rng.uniform(-2, 2))
            assert np.max(np.abs(dagger(u) @ u - np.eye(n))) < 1e-10
            assert abs(np.linalg.det(u) - 1.0) < 1e-10

    def test_group_property(self):
        rng = np.random.default_rng(11)
        l = random_hermitian(3, rng, traceless=True)
        t1, t2 = 0.3, 1.1
        left = expm_generator(l, t1) @ expm_generator(l, t2)
        np.testing.assert_allclose(left, expm_generator(l, t1 + t2), atol=1e-9)

    def test_non_hermitian_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(DomainError):
            expm_generator(m, 1.0)


@settings(max_examples=25, deadline=None)
@given(
    entries=arrays(
        np.float64,
        (2, 3, 3),
        elements=st.floats(min_value=-2.0, max_value=2.0),
    )
)
def test_completeness_property(entries):
    basis = build_gellmann_basis(3)
    x = entries[0] + 1j * entries[1]
    x = (x + dagger(x)) / 2
    assert completeness_residual(x, x, basis) < 1e-10


@settings(max_examples=25, deadline=None)
@given(t1=st.floats(-3.0, 3.0), t2=st.floats(-3.0, 3.0), seed=st.integers(0, 2**16))
def test_expm_group_property(t1, t2, seed):
    rng = np.random.default_rng(seed)
    l = random_hermitian(3, rng, traceless=True)
    left = expm_generator(l, t1) @ expm_generator(l, t2)
    np.testing.assert_allclose(left, expm_generator(l, t1 + t2), atol=1e-9)


def frechet_oracle(h, g):
    """Van Loan: exp([[A, E], [0, A]]) has the Frechet derivative L(A, E)
    of exp at A in its upper-right block; here A = i h, E = i g."""
    n = h.shape[0]
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = block[n:, n:] = 1j * h
    block[:n, n:] = 1j * g
    return taylor_expm(block, terms=60)[:n, n:]


def hermitian_with_gap(n, gap, rng):
    """Random Hermitian matrix whose two lowest eigenvalues differ by `gap`."""
    w = np.sort(rng.uniform(-1.5, 1.5, n))
    w[1] = w[0] + gap
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    h = (q * w) @ dagger(q)
    return (h + dagger(h)) / 2


class TestExpmPartials:
    def test_origin_gives_generators(self):
        basis = build_gellmann_basis(3)
        u, du = expm_partials(np.zeros(8), basis)
        np.testing.assert_allclose(u, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(du, 1j * basis, atol=1e-15)

    def test_value_matches_expm_generator(self):
        basis = build_gellmann_basis(4)
        x = np.random.default_rng(9).uniform(-0.3, 0.3, 15)
        u, _ = expm_partials(x, basis)
        h = np.einsum("a,aij->ij", x, basis)
        np.testing.assert_array_equal(u, expm_generator(h))

    def test_coefficient_count_checked(self):
        with pytest.raises(ShapeError):
            expm_partials(np.zeros(2), build_gellmann_basis(2))
        gens = build_gellmann_basis(3)
        with pytest.raises(ShapeError):  # one generator stack serves every row
            expm_partials(np.zeros((2, 8)), np.array([gens, gens]))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 5),
    gap=st.sampled_from([0.0, 1e-12, 1e-8, 1e-6]),
    seed=st.integers(0, 2**16),
)
def test_expm_partials_match_frechet_oracle(n, gap, seed):
    # the spectrum of x^a g_a is fixed by putting h itself first in the
    # generator stack with coefficient 1; the other generators are the
    # differentiation directions
    rng = np.random.default_rng(seed)
    h = hermitian_with_gap(n, gap, rng)
    gens = np.concatenate([h[np.newaxis], build_gellmann_basis(n)])
    coeffs = np.zeros(len(gens))
    coeffs[0] = 1.0
    u, du = expm_partials(coeffs, gens)
    np.testing.assert_allclose(u, taylor_expm(1j * h, terms=60), rtol=0, atol=1e-13)
    for g, d in zip(gens, du):
        np.testing.assert_allclose(d, frechet_oracle(h, g), rtol=0, atol=1e-13)


def broadcast_partials(coeffs, gens):
    """Oracle: the Daleckii-Krein partials as one broadcast product chain
    per (point, generator), V (Phi o V^dag g_a V) V^dag."""
    w, v = np.linalg.eigh(generator_sum(coeffs, gens))
    phi = 1j * np.exp(0.5j * (w[..., :, None] + w[..., None, :])) * np.sinc(
        (w[..., :, None] - w[..., None, :]) / (2 * np.pi)
    )
    v, vh = v[..., None, :, :], dagger(v)[..., None, :, :]  # broadcast over gens
    return v @ (phi[..., None, :, :] * (vh @ gens @ v)) @ vh


def generator_chart(gens):
    """The chart x -> exp(i x^a g_a) on all of R^m over generators (m, n, n)."""
    m = len(gens)
    return Chart(
        label="generators",
        algebra=gens,
        sample_box=np.array([[-1.0, 1.0]] * m),
        map_fn=lambda x: expm_generator(generator_sum(x, gens)),
        contains_fn=lambda x: np.ones(x.shape[:-1], dtype=bool),
        map_partials_fn=lambda x: expm_partials(x, gens),
    )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    kind=st.sampled_from(["point", "stack", "near-degenerate"]),
    rows=st.integers(1, 4),
    eps=st.sampled_from([0.0, 1e-14, 1e-10, 1e-7]),
    seed=st.integers(0, 2**16),
)
def test_expm_partials_match_broadcast_oracle(n, kind, rows, eps, seed):
    # the generators side by side and stacked round as the per-generator
    # products do, up to the order of BLAS sums
    rng = np.random.default_rng(seed)
    gens = build_gellmann_basis(n)
    m = len(gens)
    coeffs = rng.uniform(-1.0, 1.0, (rows, m)) / np.sqrt(m)
    if kind == "point":
        coeffs = coeffs[0]
    elif kind == "near-degenerate":
        # a multiple of the last diagonal generator, whose eigenvalue
        # 1 / sqrt(n(n-1)/2) has multiplicity n - 1, perturbed by eps
        coeffs = eps * rng.standard_normal((rows, m))
        coeffs[:, -1] += rng.uniform(-1.5, 1.5, rows)
    u, du = expm_partials(coeffs, gens)
    ulp = np.finfo(float).eps * np.abs(du).max()
    np.testing.assert_allclose(du, broadcast_partials(coeffs, gens), rtol=0, atol=4 * ulp)
    u_fd, du_fd = fd_partials(generator_chart(gens), coeffs)
    np.testing.assert_array_equal(u, u_fd)
    assert np.abs(du - du_fd).max() < ATOL_FD_MATCH


class TestStatePair:
    def test_accepts_unit_vectors(self):
        pair = StatePair(np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))
        assert pair.n == 2

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            StatePair(np.array([1.0, 1.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))

    def test_from_vectors_normalizes(self):
        pair = StatePair.from_vectors([3.0, 0.0], [0.0, 2.0])
        assert abs(np.linalg.norm(pair.psi_i) - 1.0) < 1e-15
        assert abs(np.linalg.norm(pair.psi_f) - 1.0) < 1e-15

    def test_haar_state_normalized(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            assert abs(np.linalg.norm(haar_state(n, rng)) - 1.0) < 1e-12

    def test_rows_covering_a_stack_return_the_pair(self):
        # a slice over every row, also one that reaches past the end, is
        # the pair itself, not a copy validated again
        rng = np.random.default_rng(4)
        stack = np.array([haar_state(3, rng) for _ in range(10)])
        pair = StatePair(stack, stack[::-1].copy())
        for k in (0, 1, 5):
            assert pair.rows(slice(0, 10 + k)) is pair
        assert pair.rows(slice(None)) is pair

    def test_rows_of_part_of_a_stack_are_a_new_pair(self):
        rng = np.random.default_rng(5)
        stack = np.array([haar_state(3, rng) for _ in range(10)])
        pair = StatePair(stack, stack[::-1].copy())
        for index in (slice(2, 7), slice(0, 9), slice(None, None, -1), np.arange(10), 3):
            part = pair.rows(index)
            assert part is not pair
            assert np.array_equal(part.psi_i, pair.psi_i[index])
            assert np.array_equal(part.psi_f, pair.psi_f[index])


NAN = float("nan")
NAN_MATRIX = np.full((2, 2), NAN, dtype=complex)
PLUS = np.array([1.0, 0.0], dtype=complex)


class TestNanInputsRejected:
    """Each input guard is written `not residual < tol`, so a NaN trips it
    instead of passing it on to LAPACK or into a result."""

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(
                lambda: expm_partials([NAN, 0.0, 0.0], build_gellmann_basis(2)),
                id="hermitian-eigh-coefficient",
            ),
            pytest.param(lambda: expm_generator(NAN_MATRIX), id="hermitian-eigh-generator"),
            pytest.param(
                lambda: StatePair(np.array([NAN, 0.0], dtype=complex), PLUS),
                id="state-pair-unit-norm",
            ),
            pytest.param(
                lambda: polar_amplitude(StatePair(PLUS, PLUS), NAN_MATRIX),
                id="polar-amplitude-unitarity",
            ),
            pytest.param(
                lambda: build_cartan_frame(np.array([NAN, 1.0, 0.0])),
                id="cartan-frame-unit-norm",
            ),
            pytest.param(
                lambda: left_translate(exp_chart(build_gellmann_basis(2)), NAN_MATRIX),
                id="left-translate-unitarity",
            ),
            pytest.param(
                lambda: normalized_generator(np.full((3, 3), NAN, dtype=complex)),
                id="superosc-generator",
            ),
        ],
    )
    def test_nan_input_raises_domain_error(self, call):
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: expm_generator(PAULI_X, np.inf), id="expm-time-inf"),
            pytest.param(lambda: expm_generator(PAULI_X, NAN), id="expm-time-nan"),
            pytest.param(lambda: expm_generator(np.diag([np.inf, -np.inf]).astype(complex)), id="expm-generator-inf"),
            pytest.param(
                lambda: expm_partials([np.inf, 0.0, 0.0], build_gellmann_basis(2)),
                id="expm-partials-inf",
            ),
            pytest.param(lambda: local_frequency(*spin_flip_trace(), np.inf), id="frequency-inf"),
            pytest.param(lambda: local_frequency(*spin_flip_trace(), NAN), id="frequency-nan"),
            pytest.param(lambda: factorization(xi_s=[np.inf, 0.0, 0.0]), id="factorization-xi-s-inf"),
            pytest.param(lambda: factorization(xi0=np.inf), id="factorization-xi0-inf"),
            pytest.param(lambda: factorization(xi0=NAN), id="factorization-xi0-nan"),
        ],
    )
    def test_non_finite_input_raises_domain_error(self, call):
        # an infinite or NaN entry or time is rejected before numpy sees it:
        # nothing warns, and no internal check takes the blame
        with pytest.raises(DomainError):
            call()


def spin_flip_trace():
    """The pair and normalized generator of a spin-flip trace at n = 2."""
    return StatePair(PLUS, np.array([0.0, 1.0], dtype=complex)), normalized_generator(PAULI_X)


def factorization(xi_s=(0.0, 0.0, 0.0), xi0=0.0):
    """factorization_residual at one n = 3 section point."""
    pair = StatePair.from_vectors([1.0, 0.0, 0.0], [0.6, 0.8, 0.0])
    frame = build_cartan_frame(pair.psi_i)
    point = section(frame, np.full(frame.dim_coset, 0.1))
    return factorization_residual(pair, point, np.array(xi_s), xi0)


# leading shapes of the kernel tests: one matrix, empty, one-row and longer stacks
LEADS = [(), (0,), (1,), (4,), (2, 3)]


# below 1e-100 in magnitude an entry is taken as 0: the reference's LU
# breaks down on pivots near underflow (it warns on a subnormal pivot)
ENTRIES = st.floats(-2.0, 2.0).map(lambda v: v if abs(v) >= 1e-100 else 0.0)


def matrices(lead, n, complex_entries):
    """Stacks (*lead, n, n) of real or complex entries in [-2, 2]."""
    parts = 2 if complex_entries else 1
    stack = arrays(np.float64, (parts,) + lead + (n, n), elements=ENTRIES)
    return stack.map(lambda e: e[0] + 1j * e[1] if complex_entries else e[0])


@st.composite
def any_matrices(draw):
    return draw(
        matrices(draw(st.sampled_from(LEADS)), draw(st.sampled_from([2, 3, 4])), draw(st.booleans()))
    )


class TestStackKernels:
    """`det` and `unitarity_residual` against the numpy formulas they
    replace, on 2 x 2 stacks and the larger ones they hand on."""

    @settings(max_examples=300, deadline=None)
    @given(a=any_matrices())
    def test_det_matches_linalg(self, a):
        got, expected = det(a), np.linalg.det(a)
        assert np.shape(got) == np.shape(expected) == a.shape[:-2]
        assert np.asarray(got).dtype == expected.dtype
        # both round relative to the Hadamard bound prod_i |row_i|, up to
        # 4 * 2^1.5 for entries in [-2, 2]
        scale = np.prod(np.linalg.norm(a, axis=-1), axis=-1).clip(1.0)
        assert (np.abs(got - expected) <= 1e-14 * scale).all()

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 5),
        lead=st.sampled_from(LEADS),
        size=st.sampled_from([0.0, 1e-14, 1e-11, 1e-9, 1e-6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_unitarity_residual_matches_product(self, n, lead, size, seed):
        rng = np.random.default_rng(seed)
        shape = lead + (n, n)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u = expm_generator((h + dagger(h)) / 2) + size * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
        expected = np.abs(dagger(u) @ u - np.eye(n)).max(initial=0.0)
        assert abs(unitarity_residual(u) - expected) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unitarity_residual_propagates_nan(self, n):
        # a NaN in any one entry of one row of a stack, wherever the
        # reduction meets it
        for i in range(n):
            for j in range(n):
                u = np.stack([np.eye(n, dtype=complex)] * 3)
                u[1, i, j] = NAN
                assert np.isnan(unitarity_residual(u))
                assert np.isnan(unitarity_residual(u[1]))

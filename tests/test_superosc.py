import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_hermitian
from sun_phase.algebra import (
    StatePair,
    build_gellmann_basis,
    dagger,
    haar_state,
)
from sun_phase.amplitude import min_gradient_bound, phase_gradient
from sun_phase.charts import exp_chart
from sun_phase import superosc
from sun_phase.errors import (
    DomainError,
    InternalConsistencyError,
    ShapeError,
    UndefinedDirectionError,
)
from sun_phase.superosc import (
    P_TRACE,
    TRACE_BLOCK,
    _hot_intervals,
    _quotient_real,
    aligned_generator,
    fourier_coefficients,
    local_frequency,
    normalized_generator,
    phase_trace,
    superoscillation_report,
)

PLUS = np.array([1.0, 0.0], dtype=complex)
MINUS = np.array([0.0, 1.0], dtype=complex)


def random_pair(n, rng):
    return StatePair(haar_state(n, rng), haar_state(n, rng))


def random_unit_generator(n, rng):
    h = random_hermitian(n, rng, traceless=True)
    h = h / np.sqrt(0.5 * np.trace(h @ h).real)
    return normalized_generator(h)


def per_sample_trace(pair, gen, t):
    """Oracle: the row <f|U(t) of one sample at a time, contracted with |i>
    and l|i>, with Python complex division."""
    bra_v = pair.psi_f.conj() @ gen.eigenvectors
    vh = dagger(gen.eigenvectors)
    l_ket = gen.matrix @ pair.psi_i
    amplitude = np.empty(len(t), dtype=complex)
    omega = np.full(len(t), np.nan)
    defined = np.zeros(len(t), dtype=bool)
    for idx, tk in enumerate(t):
        row = np.einsum("k,kj->j", bra_v * np.exp(1j * gen.eigenvalues * tk), vh)
        amp = complex(np.einsum("j,j->", row, pair.psi_i))
        amplitude[idx] = amp
        if abs(amp) ** 2 >= P_TRACE:
            defined[idx] = True
            omega[idx] = (complex(np.einsum("j,j->", row, l_ket)) / amp).real
    return amplitude, omega, defined


def scaled_taylor_expm(m, squarings=6, terms=20):
    """Oracle without eigh: Taylor series of exp(m / 2^s), squared s times."""
    term = acc = np.eye(m.shape[0], dtype=complex)
    scaled = m / 2.0**squarings
    for k in range(1, terms):
        term = term @ scaled / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def loop_intervals(t, hot, half):
    """Oracle: the run-by-run interval assembly of hot samples."""
    intervals = []
    start = None
    for idx, flag in enumerate(hot):
        if flag and start is None:
            start = t[idx] - half
        elif not flag and start is not None:
            intervals.append((start, t[idx - 1] + half))
            start = None
    if start is not None:
        intervals.append((start, t[-1] + half))
    return tuple(intervals)


class TestNormalizedGenerator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            normalized_generator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_rejects_traced(self):
        with pytest.raises(DomainError):
            normalized_generator(np.eye(2, dtype=complex))

    def test_rejects_unnormalized(self):
        sigma_z = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(DomainError):
            normalized_generator(2.0 * sigma_z)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_eigenvalue_cap(self, n):
        rng = np.random.default_rng(2000 + n)
        cap = min_gradient_bound(n)
        for _ in range(500):
            gen = random_unit_generator(n, rng)
            assert gen.max_abs_eigenvalue <= cap + 1e-9


class TestAlignedGenerator:
    def test_two_level_example(self):
        # pair (|0>, (|0>+|1>)/sqrt(2)) picks the (sigma_x + sigma_z)
        # direction; the trace normalization lands on (1/2) Tr l^2 = 1
        basis = build_gellmann_basis(2)
        pair = StatePair(PLUS, (PLUS + MINUS) / np.sqrt(2.0))
        gen = aligned_generator(pair, basis)
        expected = (basis[0] + basis[2]) / np.sqrt(2.0)
        np.testing.assert_allclose(gen.matrix, expected, atol=1e-12)
        assert 0.5 * np.trace(gen.matrix @ gen.matrix).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_diagonal_pair_saturates_bound(self, n):
        rng = np.random.default_rng(2100 + n)
        psi = haar_state(n, rng)
        pair = StatePair(psi, psi)
        gen = aligned_generator(pair, build_gellmann_basis(n))
        omega0 = local_frequency(pair, gen, 0.0)
        assert omega0 == pytest.approx(min_gradient_bound(n), abs=1e-10)

    def test_orthogonal_pair_rejected(self):
        with pytest.raises(UndefinedDirectionError):
            aligned_generator(StatePair(PLUS, MINUS), build_gellmann_basis(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            aligned_generator(StatePair(PLUS, PLUS), build_gellmann_basis(3))

    def test_omega0_equals_identity_phase_gradient(self):
        # cross-module: the frame backend at the chart origin must agree
        # with the analytic t = 0 frequency of the aligned subgroup
        for n in (2, 3, 4):
            rng = np.random.default_rng(2200 + n)
            basis = build_gellmann_basis(n)
            chart = exp_chart(basis)
            pair = random_pair(n, rng)
            gen = aligned_generator(pair, basis)
            omega0 = local_frequency(pair, gen, 0.0)
            grad = phase_gradient(pair, chart, np.zeros(n * n - 1))
            assert omega0 == pytest.approx(np.sqrt(grad.phase_grad_sq), abs=1e-8)


class TestPhaseTrace:
    def test_fourier_sum_and_t0_value(self):
        rng = np.random.default_rng(77)
        pair = random_pair(3, rng)
        gen = aligned_generator(pair, build_gellmann_basis(3))
        trace = phase_trace(pair, gen, samples=512)
        rebuilt = np.einsum(
            "k,sk->s", trace.fourier_c, np.exp(1j * np.outer(trace.t, trace.eigenvalues))
        )
        assert np.max(np.abs(rebuilt - trace.amplitude)) < 1e-9
        # the blocked residual is the maximum over all samples, not one block
        assert trace.fourier_residual == np.max(np.abs(rebuilt - trace.amplitude)) > 0.0
        overlap = complex(pair.psi_f.conj() @ pair.psi_i)
        assert abs(np.sum(trace.fourier_c) - overlap) < 1e-12

    def test_diagonal_pair_spectral_form(self):
        rng = np.random.default_rng(78)
        psi = haar_state(3, rng)
        pair = StatePair(psi, psi)
        gen = random_unit_generator(3, rng)
        trace = phase_trace(pair, gen, samples=64)
        weights = np.abs(fourier_coefficients(pair, gen))
        expected0 = float(weights @ gen.eigenvalues)
        assert local_frequency(pair, gen, 0.0) == pytest.approx(expected0, abs=1e-12)
        # C_k = |<k|psi>|^2 are real non-negative for a diagonal pair
        assert np.max(np.abs(fourier_coefficients(pair, gen).imag)) < 1e-15

    def test_sample_count_validation(self):
        rng = np.random.default_rng(79)
        pair = random_pair(2, rng)
        gen = random_unit_generator(2, rng)
        with pytest.raises(DomainError):
            phase_trace(pair, gen, samples=1)

    def test_flagged_zero_crossing(self):
        # <1|exp(i sigma_x t)|0> = i sin(t): zero at t = 0
        basis = build_gellmann_basis(2)
        gen = normalized_generator(basis[0])
        pair = StatePair(PLUS, MINUS)
        trace = phase_trace(pair, gen, t_range=(-1.0, 1.0), samples=129)
        mid = 64  # t = 0 on this grid
        assert np.flatnonzero(np.isnan(trace.omega)).tolist() == [mid]


# the oracle cases patch in a small block, so that short traces cross
# block boundaries; the shipped TRACE_BLOCK has its own cases
ORACLE_BLOCK = 128


class TestBlockedTrace:
    """The blocked row-route trace reproduces the per-sample evaluation
    bit for bit, at every block size and across block boundaries."""

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize(
        "samples",
        [2, ORACLE_BLOCK - 1, ORACLE_BLOCK, ORACLE_BLOCK + 1, 3 * ORACLE_BLOCK + 5],
    )
    def test_matches_per_sample_loop(self, n, samples, monkeypatch):
        monkeypatch.setattr(superosc, "TRACE_BLOCK", ORACLE_BLOCK)
        rng = np.random.default_rng(2400 + 10 * n + samples)
        pair = random_pair(n, rng)
        gen = aligned_generator(pair, build_gellmann_basis(n))
        trace = phase_trace(pair, gen, samples=samples)
        amplitude, omega, defined = per_sample_trace(pair, gen, trace.t)
        assert np.array_equal(trace.amplitude, amplitude)
        assert np.array_equal(trace.omega, omega, equal_nan=True)
        assert np.array_equal(np.isnan(trace.omega), ~defined)
        for k in {0, samples // 2, min(ORACLE_BLOCK, samples - 1), samples - 1}:
            assert local_frequency(pair, gen, trace.t[k]) == trace.omega[k]

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize(
        "samples", [TRACE_BLOCK - 1, TRACE_BLOCK + 1], ids=["block-1", "block+1"]
    )
    def test_shipped_block_matches_per_sample_loop(self, n, samples):
        rng = np.random.default_rng(2450 + 10 * n + samples)
        pair = random_pair(n, rng)
        gen = aligned_generator(pair, build_gellmann_basis(n))
        trace = phase_trace(pair, gen, samples=samples)
        amplitude, omega, defined = per_sample_trace(pair, gen, trace.t)
        assert np.array_equal(trace.amplitude, amplitude)
        assert np.array_equal(trace.omega, omega, equal_nan=True)
        assert np.array_equal(np.isnan(trace.omega), ~defined)

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_trace_independent_of_block_size(self, n, monkeypatch):
        # a one-row block is where matmul would switch from gemm to gemv
        rng = np.random.default_rng(2470 + n)
        pair = random_pair(n, rng)
        gen = random_unit_generator(n, rng)
        reference = phase_trace(pair, gen, samples=50)
        for block in (1, 2, 7):
            monkeypatch.setattr(superosc, "TRACE_BLOCK", block)
            trace = phase_trace(pair, gen, samples=50)
            assert np.array_equal(trace.amplitude, reference.amplitude)
            assert np.array_equal(trace.omega, reference.omega, equal_nan=True)
            assert trace.fourier_residual == reference.fourier_residual

    def test_flagged_zero_crossing_matches_per_sample_loop(self):
        gen = normalized_generator(build_gellmann_basis(2)[0])
        pair = StatePair(PLUS, MINUS)
        trace = phase_trace(pair, gen, t_range=(-1.0, 1.0), samples=2 * TRACE_BLOCK + 1)
        amplitude, omega, defined = per_sample_trace(pair, gen, trace.t)
        # t = 0, the first sample of a block, is the one flagged sample
        assert np.flatnonzero(np.isnan(trace.omega)).tolist() == [TRACE_BLOCK]
        assert np.array_equal(trace.amplitude, amplitude)
        assert np.array_equal(trace.omega, omega, equal_nan=True)
        assert np.array_equal(np.isnan(trace.omega), ~defined)
        with pytest.raises(UndefinedDirectionError):
            local_frequency(pair, gen, 0.0)

    @pytest.mark.parametrize(
        "re, im",
        [
            # np.abs(amp)**2 < P_TRACE <= hypot(re, im)**2
            (-6.520162635843662e-06, -7.582049802141123e-06),
            # hypot(re, im)**2 < P_TRACE <= np.abs(amp)**2
            (-9.626681429324231e-06, -2.706844040262379e-06),
        ],
    )
    def test_threshold_reads_the_modulus_of_python_abs(self, re, im):
        # the kernel decides definedness by the |amp|^2 of the oracle and of
        # every other p, hypot(re, im)**2.  np.abs can round differently in
        # the last bit (it does for both cases with numpy 2.4 on x86-64), so
        # a kernel reading np.abs fails both.  n = 1 constants make the
        # kernel's amplitude exactly amp, and <f|U l|i> exactly 1
        amp = complex(re, im)
        one = np.ones((1, 1), dtype=complex)
        constants = (one[0], one, np.array([[amp, 1.0]]))
        out, omega = superosc._trace_block(constants, one)
        assert out[0] == amp
        if abs(amp) ** 2 >= P_TRACE:
            assert omega[0] == (1.0 / amp).real
        else:
            assert np.isnan(omega[0])

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32])
    def test_amplitude_against_taylor_oracle(self, n):
        rng = np.random.default_rng(2500 + n)
        pair = random_pair(n, rng)
        gen = aligned_generator(pair, build_gellmann_basis(n))
        trace = phase_trace(pair, gen, samples=1000)
        for k in rng.choice(1000, size=64, replace=False):
            u = scaled_taylor_expm(1j * gen.matrix * trace.t[k])
            expected = complex(pair.psi_f.conj() @ u @ pair.psi_i)
            assert abs(trace.amplitude[k] - expected) < 1e-12

    def test_quotient_in_python_order(self):
        rng = np.random.default_rng(2600)
        scale = 10.0 ** rng.uniform(-8, 8, (4, 20000))
        a = rng.standard_normal(20000) * scale[0] + 1j * rng.standard_normal(20000) * scale[1]
        b = rng.standard_normal(20000) * scale[2] + 1j * rng.standard_normal(20000) * scale[3]
        expected = np.array([(complex(x) / complex(y)).real for x, y in zip(a, b)])
        assert np.array_equal(_quotient_real(a, b), expected)

    def test_width_overflow_rejected(self):
        rng = np.random.default_rng(80)
        pair = random_pair(2, rng)
        gen = random_unit_generator(2, rng)
        with pytest.raises(DomainError):
            phase_trace(pair, gen, t_range=(-1e308, 1e308))

    @pytest.mark.parametrize(
        "t_range, bound",
        [
            ((np.nan, 1.0), "start is not finite: nan"),
            ((-1.0, np.nan), "end is not finite: nan"),
            ((-np.inf, 1.0), "start is not finite: -inf"),
            ((-1.0, np.inf), "end is not finite: inf"),
            ((np.nan, np.nan), "start is not finite: nan"),
        ],
    )
    def test_non_finite_bound_named(self, t_range, bound):
        # checked before the range: NaN fails `t1 > t0` as an empty range would
        rng = np.random.default_rng(81)
        pair = random_pair(2, rng)
        gen = random_unit_generator(2, rng)
        with pytest.raises(DomainError, match=f"^time range {bound}$"):
            phase_trace(pair, gen, t_range=t_range)

    def test_phase_overflow_rejected(self):
        # the width is finite, but w t overflows for |w| > 1 and exp(1j inf) is NaN
        rng = np.random.default_rng(82)
        pair = random_pair(3, rng)
        gen = random_unit_generator(3, rng)
        with pytest.raises(DomainError):
            phase_trace(pair, gen, t_range=(0.0, 1.79e308))

    def test_nan_block_reaches_fourier_gate(self, monkeypatch):
        rng = np.random.default_rng(83)
        pair = random_pair(3, rng)
        gen = random_unit_generator(3, rng)
        kernel = superosc._trace_block

        def nan_in_last_block(constants, phases):
            amp, omega = kernel(constants, phases)
            if len(phases) == 1:  # the last block of 2 TRACE_BLOCK + 1 samples: t = 1
                amp[-1] = np.nan
            return amp, omega

        monkeypatch.setattr(superosc, "_trace_block", nan_in_last_block)
        with pytest.raises(InternalConsistencyError):
            phase_trace(pair, gen, t_range=(0.0, 1.0), samples=2 * TRACE_BLOCK + 1)

    def test_peak_memory_bounded(self):
        # the largest benchmark trace: blocks keep the working set to a few
        # (TRACE_BLOCK, n) arrays next to the ~0.5 MiB of returned arrays
        rng = np.random.default_rng(81)
        pair = random_pair(8, rng)
        gen = aligned_generator(pair, build_gellmann_basis(8))
        tracemalloc.start()
        try:
            phase_trace(pair, gen, samples=15000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_peak_memory_bounded_at_large_n(self):
        # no (TRACE_BLOCK, n, n) stack: at n = 64 one would take 64 MiB
        rng = np.random.default_rng(84)
        pair = random_pair(64, rng)
        gen = random_unit_generator(64, rng)
        tracemalloc.start()
        try:
            phase_trace(pair, gen, samples=15000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


@st.composite
def spin_flip_crossings(draw):
    """<1|exp(i sigma_x t)|0> = i sin t on a grid with one sample drawn
    within 3e-5 of a zero k pi, where |amplitude|^2 straddles P_TRACE."""
    samples = draw(st.integers(2, 40))
    near = draw(st.integers(0, samples - 1))
    step = draw(st.floats(1e-7, 1e-2))
    zero = draw(st.integers(-3, 3)) * np.pi + draw(st.floats(-3e-5, 3e-5))
    t_range = (zero - near * step, zero + (samples - 1 - near) * step)
    gen = normalized_generator(build_gellmann_basis(2)[0])
    return StatePair(PLUS, MINUS), gen, t_range, samples


@st.composite
def near_orthogonal_traces(draw):
    """A random unit generator on a pair with |<f|i>| = eps, traced over a
    range about t = 0, where |amplitude| starts near eps."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi_i, w = haar_state(n, rng), haar_state(n, rng)
    w = w - (psi_i.conj() @ w) * psi_i
    eps = 10.0 ** draw(st.floats(-7.0, -3.0))
    psi_f = eps * np.exp(1j * rng.uniform(0, 2 * np.pi)) * psi_i
    psi_f = psi_f + np.sqrt(1.0 - eps**2) * w / np.linalg.norm(w)
    half = 10.0 ** draw(st.floats(-7.0, 0.0))
    samples = draw(st.integers(2, 64))
    return StatePair(psi_i, psi_f), random_unit_generator(n, rng), (-half, half), samples


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(spin_flip_crossings(), near_orthogonal_traces()))
def test_undefined_samples_near_zero_amplitudes(case):
    # near the amplitude's zeros: the trace's NaN omegas are the oracle's
    # undefined samples, and local_frequency raises at exactly those
    pair, gen, t_range, samples = case
    trace = phase_trace(pair, gen, t_range, samples)
    amplitude, omega, defined = per_sample_trace(pair, gen, trace.t)
    assert np.array_equal(trace.amplitude, amplitude)
    assert np.array_equal(trace.omega, omega, equal_nan=True)
    assert np.array_equal(np.isnan(trace.omega), ~defined)
    for k, t in enumerate(trace.t):
        if defined[k]:
            assert local_frequency(pair, gen, t) == trace.omega[k]
        else:
            with pytest.raises(UndefinedDirectionError):
                local_frequency(pair, gen, t)


class TestHotIntervals:
    @pytest.mark.parametrize(
        "hot",
        [
            [True, True, False, False, True, False],
            [False, True, False, True, True],
            [True] * 7,
            [False] * 7,
            [False, True],
            [True, False],
        ],
    )
    def test_matches_loop(self, hot):
        t = np.linspace(-1.0, 1.0, len(hot))
        half = (t[1] - t[0]) / 2.0
        hot = np.array(hot)
        assert _hot_intervals(t, hot, half) == loop_intervals(t, hot, half)

    def test_random_masks_match_loop(self):
        rng = np.random.default_rng(2700)
        for size in (2, 3, 17, 300):
            t = np.linspace(-np.pi, np.pi, size)
            half = (t[1] - t[0]) / 2.0
            for _ in range(20):
                hot = rng.random(size) < rng.random()
                assert _hot_intervals(t, hot, half) == loop_intervals(t, hot, half)


class TestSuperoscillationReport:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_aligned_pairs_superoscillate_at_zero(self, n):
        rng = np.random.default_rng(2300 + n)
        basis = build_gellmann_basis(n)
        for _ in range(50):
            pair = random_pair(n, rng)
            if abs(pair.psi_f.conj() @ pair.psi_i) ** 2 < 1e-8:
                continue
            gen = aligned_generator(pair, basis)
            report = superoscillation_report(pair, gen, samples=256)
            assert report.omega_zero >= gen.max_abs_eigenvalue - 1e-9
            assert report.superoscillatory_at_zero

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_aligned_trace_never_flags_a_sample(self, n):
        # the aligned trace is a two-level beat, P(t) = p cos^2 s + sin^2 s
        # >= p >= P_OVERLAP > P_TRACE, so no sample of it is flagged
        rng = np.random.default_rng(3100 + n)
        basis = build_gellmann_basis(n)
        for _ in range(25):
            pair = random_pair(n, rng)
            p = abs(pair.psi_f.conj() @ pair.psi_i) ** 2
            report = superoscillation_report(pair, aligned_generator(pair, basis), (-20, 20), 4001)
            assert np.isfinite(report.trace.omega).all()
            assert (np.abs(report.trace.amplitude) ** 2).min() >= p * (1 - 1e-12)

    def test_diagonal_pair_boundary_flag(self):
        rng = np.random.default_rng(31)
        psi = haar_state(2, rng)
        pair = StatePair(psi, psi)
        gen = aligned_generator(pair, build_gellmann_basis(2))
        report = superoscillation_report(pair, gen, samples=256)
        assert report.boundary
        assert report.superoscillatory_at_zero
        assert report.omega_zero == pytest.approx(report.max_abs_eigenvalue, abs=1e-9)

    def test_interval_containing_zero(self):
        rng = np.random.default_rng(32)
        basis = build_gellmann_basis(3)
        pair = random_pair(3, rng)
        gen = aligned_generator(pair, basis)
        report = superoscillation_report(pair, gen, samples=1024)
        assert not report.boundary
        assert any(a <= 0.0 <= b for a, b in report.intervals)
        for a, b in report.intervals:
            assert a < b

    def test_unaligned_generator_reports_without_assertion(self):
        rng = np.random.default_rng(33)
        pair = random_pair(3, rng)
        gen = random_unit_generator(3, rng)
        report = superoscillation_report(pair, gen, samples=128)
        assert isinstance(report.superoscillatory_at_zero, bool)

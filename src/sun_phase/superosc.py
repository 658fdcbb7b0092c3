"""One-parameter subgroups and superoscillatory phase behavior.

The amplitude <psi_f|exp(i l t)|psi_i> of a normalized traceless
generator l is a finite Fourier sum over the eigenvalues of l, none of
which can exceed sqrt(2(n-1)/n) in magnitude.  Choosing l along the
phase gradient at the identity makes the local phase frequency at t = 0
equal the full gradient magnitude, which is bounded below by the same
constant: the phase locally oscillates at least as fast as the fastest
Fourier component present in the signal.

`phase_trace` samples the amplitude by evolving the bra: the row
<psi_f|exp(i l t) is one O(n^2) contraction per sample, read against
psi_i and l psi_i, and the Fourier sum over the spectrum reproduces it
at every sample as a cross-check.  The local frequency exists only away
from the amplitude's zeros: a sample with |amplitude|^2 below P_TRACE
carries omega = NaN, which is the trace's one record of an undefined
phase.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import StatePair, _hermitian_eigh, dagger
from .amplitude import _modulus_sq, min_gradient_bound
from .errors import (
    DomainError,
    InternalConsistencyError,
    ShapeError,
    UndefinedDirectionError,
)
from .tolerances import (
    ATOL_IDENTITY,
    GATE_EIGENVALUE_CAP,
    GATE_FOURIER_RECONSTRUCTION,
    GATE_SUPEROSCILLATORY_AT_ZERO,
    P_OVERLAP,
    P_TRACE,
)

TRACE_BLOCK = 1024  # samples per (block, n) row evaluation in phase_trace


@dataclass(frozen=True)
class NormalizedGenerator:
    """Traceless Hermitian generator with (1/2) Tr l^2 = 1, eigendecomposed.

    The eigenvalue magnitudes never exceed sqrt(2(n-1)/n): subtracting
    the trace and fixing the norm caps how much spectral weight a single
    eigenvalue can carry.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def max_abs_eigenvalue(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))


def normalized_generator(matrix: np.ndarray) -> NormalizedGenerator:
    """Validate and eigendecompose a normalized traceless Hermitian matrix;
    the Hermitian check and the eigendecomposition are `expm_generator`'s."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ShapeError(f"generator must be square, got {matrix.shape}")
    w, v = _hermitian_eigh(matrix)
    if not abs(np.trace(matrix)) < ATOL_IDENTITY:
        raise DomainError("generator is not traceless")
    norm_sq = 0.5 * np.trace(matrix @ matrix).real
    if not abs(norm_sq - 1.0) < ATOL_IDENTITY:
        raise DomainError("generator is not normalized to (1/2) Tr l^2 = 1")
    if np.max(np.abs(w)) > min_gradient_bound(len(matrix)) + GATE_EIGENVALUE_CAP:
        raise InternalConsistencyError("eigenvalue exceeds the spectral cap")
    return NormalizedGenerator(matrix=matrix, eigenvalues=w, eigenvectors=v)


def aligned_generator(pair: StatePair, basis: np.ndarray) -> NormalizedGenerator:
    """Unit generator along the phase gradient at the identity.

    Components Re[<psi_f|g_a|psi_i> / <psi_f|psi_i>] over the generators
    basis (n^2 - 1, n, n), normalized so that (1/2) Tr l^2 = 1.  Undefined
    for (near-)orthogonal pairs; for non-orthogonal pairs the direction
    can never vanish, since its squared length is the squared phase
    gradient at the identity, which is bounded below.
    """
    if pair.n != basis.shape[-1]:
        raise ShapeError("state pair and basis dimensions differ")
    overlap = complex(pair.psi_f.conj() @ pair.psi_i)
    if abs(overlap) ** 2 < P_OVERLAP:
        raise UndefinedDirectionError(
            "states are orthogonal; the gradient direction at the identity "
            "is undefined"
        )
    components = np.einsum("i,aij,j->a", pair.psi_f.conj(), basis, pair.psi_i)
    direction = (components / overlap).real
    norm = np.linalg.norm(direction)
    if norm < 1e-10:
        raise InternalConsistencyError(
            "gradient direction vanished for a non-orthogonal pair"
        )
    matrix = np.einsum("a,aij->ij", direction / norm, basis)
    return normalized_generator(matrix)


@dataclass(frozen=True)
class PhaseTrace:
    """Sampled amplitude, local phase frequency, and Fourier data.

    omega[k] is NaN exactly where |amplitude[k]|^2 < P_TRACE, the samples
    whose phase is undefined; fourier_c are the coefficients over the
    generator's eigenvalues, summing to the t = 0 amplitude.
    `fourier_residual` is the largest deviation of the Fourier sum from
    the sampled amplitude.
    """

    t: np.ndarray
    amplitude: np.ndarray
    omega: np.ndarray
    eigenvalues: np.ndarray
    fourier_c: np.ndarray
    fourier_residual: float


def fourier_coefficients(pair: StatePair, gen: NormalizedGenerator) -> np.ndarray:
    """C_k = <psi_f|k><k|psi_i> over the eigenvectors of the generator."""
    f_k = dagger(gen.eigenvectors) @ pair.psi_f
    i_k = dagger(gen.eigenvectors) @ pair.psi_i
    return f_k.conj() * i_k


def _quotient_real(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(a / b) elementwise, in the operation order of CPython's complex
    division: Smith's algorithm, scaled by the larger of |Re b| and |Im b|.

    numpy's complex `/` rounds differently in the last bit, so this keeps a
    batch bit-for-bit equal to `(complex(a) / complex(b)).real`.  Where
    |Im b| is the larger, swapping real and imaginary parts of a and b
    turns CPython's second branch into its first, term for term.
    """
    swap = np.abs(b.real) < np.abs(b.imag)
    ar, ai = np.where(swap, a.imag, a.real), np.where(swap, a.real, a.imag)
    br, bi = np.where(swap, b.imag, b.real), np.where(swap, b.real, b.imag)
    ratio = bi / br
    return (ar + ai * ratio) / (br + bi * ratio)


def _trace_constants(pair: StatePair, gen: NormalizedGenerator):
    """The per-pair constants of the row route: the bra <f|V, V^dag, and
    the kets |i> and l|i> side by side as the columns of an (n, 2) array."""
    v = gen.eigenvectors
    kets = np.stack([pair.psi_i, gen.matrix @ pair.psi_i], axis=1)
    return pair.psi_f.conj() @ v, dagger(v), kets


def _phases(gen: NormalizedGenerator, t: np.ndarray) -> np.ndarray:
    """e^{i w_k t} for every time (rows) and eigenvalue w_k (columns)."""
    return np.exp(1j * np.outer(t, gen.eigenvalues))


def _trace_block(constants, phases: np.ndarray):
    """Amplitude and local frequency at the times of `phases`.

    The bra is evolved instead of the matrix: the row <f|U(t) =
    ((<f|V) * e^{iwt}) V^dag is one (len(t), n) x (n, n) contraction, and
    <f|U|i> and <f|U l|i> are that row against |i> and l|i>, which are
    formed in the original basis, independent of the Fourier sum over the
    spectrum.  omega = Re[<f|U l|i> / <f|U|i>] where |<f|U|i>|^2 >= P_TRACE,
    with |.|^2 the `_modulus_sq` of every other p, and NaN elsewhere: the
    quotient is taken over the whole block with those denominators set to
    1, then NaN is written at their samples.

    Each sample's value does not depend on the other times in the block:
    einsum sums every row in the same order for any row count, whereas
    matmul sends a one-row product to gemv, which rounds differently from
    the gemm of two or more rows.
    """
    bra_v, vh, kets = constants
    rows = np.einsum("sk,kj->sj", bra_v * phases, vh)
    amp, num = np.einsum("sj,jc->cs", rows, kets)
    undefined = _modulus_sq(amp) < P_TRACE
    omega = _quotient_real(num, np.where(undefined, 1.0, amp))
    omega[undefined] = np.nan
    return amp, omega


def local_frequency(pair: StatePair, gen: NormalizedGenerator, t: float) -> float:
    """d/dt arg <psi_f|exp(i l t)|psi_i> = Re[<f|U l|i> / <f|U|i>].

    Analytic, so it isolates the genuine poles at amplitude zeros
    instead of smearing them the way a differenced phase would.  A block
    of one sample of the `phase_trace` kernel, so it equals the trace's
    omega at the same t exactly.  A non-finite t raises DomainError.
    """
    if not np.isfinite(t):
        raise DomainError(f"time is not finite: {t}")
    phases = _phases(gen, np.array([t], dtype=float))
    _, omega = _trace_block(_trace_constants(pair, gen), phases)
    if np.isnan(omega[0]):
        raise UndefinedDirectionError(f"amplitude vanishes at t = {t}")
    return float(omega[0])


def phase_trace(
    pair: StatePair,
    gen: NormalizedGenerator,
    t_range: tuple[float, float] = (-np.pi, np.pi),
    samples: int = 1024,
) -> PhaseTrace:
    """Amplitude and local phase frequency along exp(i l t).

    The amplitude is evaluated on the row route of `_trace_block`, in
    blocks of TRACE_BLOCK samples with an O(TRACE_BLOCK n) working set, so
    memory stays bounded for any sample count; the phases e^{iwt} of a
    block serve both that route and the Fourier sum over the spectrum,
    which reproduces the amplitude to rounding error at every sample.
    Samples with squared amplitude below P_TRACE carry omega = NaN.
    """
    if pair.n != gen.n:
        raise ShapeError("state pair and generator dimensions differ")
    if samples < 2:
        raise DomainError("need at least 2 samples")
    t0, t1 = t_range
    for name, bound in (("start", t0), ("end", t1)):
        if not np.isfinite(bound):
            raise DomainError(f"time range {name} is not finite: {bound}")
    if not t1 > t0:
        raise DomainError("empty time range")
    if not np.isfinite(t1 - t0):
        raise DomainError("time range width is not finite")
    if not np.isfinite(max(abs(t0), abs(t1)) * float(np.max(np.abs(gen.eigenvalues)))):
        raise DomainError("eigenvalue times t overflows on the time range")

    t = np.linspace(t0, t1, samples)
    c = fourier_coefficients(pair, gen)
    constants = _trace_constants(pair, gen)
    amplitude = np.empty(samples, dtype=complex)
    omega = np.empty(samples)
    # np.maximum, not max: a NaN block residual must reach the gate below
    fourier_residual = 0.0
    for start in range(0, samples, TRACE_BLOCK):
        block = slice(start, start + TRACE_BLOCK)
        phases = _phases(gen, t[block])
        amplitude[block], omega[block] = _trace_block(constants, phases)
        rebuilt = np.einsum("k,sk->s", c, phases)
        fourier_residual = np.maximum(
            fourier_residual, np.max(np.abs(rebuilt - amplitude[block]))
        )
    if not fourier_residual < GATE_FOURIER_RECONSTRUCTION:
        raise InternalConsistencyError("Fourier sum does not reproduce the amplitude")
    if abs(np.sum(c) - complex(pair.psi_f.conj() @ pair.psi_i)) >= 1e-12:
        raise InternalConsistencyError("Fourier coefficients do not sum to the overlap")

    return PhaseTrace(
        t=t,
        amplitude=amplitude,
        omega=omega,
        eigenvalues=gen.eigenvalues.copy(),
        fourier_c=c,
        fourier_residual=float(fourier_residual),
    )


@dataclass(frozen=True)
class SuperoscillationReport:
    """Comparison of the local phase frequency against the spectral cap.

    `intervals` lists (t_start, t_end) ranges where |omega| exceeds the
    largest eigenvalue magnitude, assembled from sample-centered cells
    with flagged cells dropped (a half-sample guard band around
    amplitude zeros).  `boundary` marks omega(0) equal to the cap within
    tolerance, as happens for a diagonal pair.
    """

    max_abs_eigenvalue: float
    omega_zero: float
    gradient_bound: float
    superoscillatory_at_zero: bool
    boundary: bool
    intervals: tuple[tuple[float, float], ...]
    trace: PhaseTrace


def _hot_intervals(
    t: np.ndarray, hot: np.ndarray, half: float
) -> tuple[tuple[float, float], ...]:
    """(t[first] - half, t[last] + half) for each run of consecutive hot samples."""
    edges = np.diff(hot.astype(np.int8), prepend=0, append=0)
    first = np.flatnonzero(edges == 1)
    last = np.flatnonzero(edges == -1) - 1
    return tuple(zip((t[first] - half).tolist(), (t[last] + half).tolist()))


def superoscillation_report(
    pair: StatePair,
    gen: NormalizedGenerator,
    t_range: tuple[float, float] = (-np.pi, np.pi),
    samples: int = 1024,
) -> SuperoscillationReport:
    """Detect phase oscillation faster than the fastest Fourier component.

    omega(0) is evaluated analytically at t = 0 (not read off the grid);
    "at least as fast" is tested with the one-sided tolerance
    GATE_SUPEROSCILLATORY_AT_ZERO, so exact boundary cases, within that
    tolerance of the cap, count as superoscillatory and are flagged.
    """
    trace = phase_trace(pair, gen, t_range=t_range, samples=samples)
    cap = gen.max_abs_eigenvalue
    omega0 = local_frequency(pair, gen, 0.0)

    half = (trace.t[1] - trace.t[0]) / 2.0
    hot = np.abs(trace.omega) > cap  # a flagged sample's NaN omega is never hot

    return SuperoscillationReport(
        max_abs_eigenvalue=cap,
        omega_zero=omega0,
        gradient_bound=min_gradient_bound(gen.n),
        superoscillatory_at_zero=bool(omega0 >= cap - GATE_SUPEROSCILLATORY_AT_ZERO),
        boundary=bool(abs(omega0 - cap) <= GATE_SUPEROSCILLATORY_AT_ZERO),
        intervals=_hot_intervals(trace.t, hot, half),
        trace=trace,
    )

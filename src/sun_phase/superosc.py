"""One-parameter subgroups and superoscillatory phase behavior.

The amplitude <psi_f|exp(i l t)|psi_i> of a normalized traceless
generator l is a finite Fourier sum over the eigenvalues of l, none of
which can exceed sqrt(2(n-1)/n) in magnitude.  Choosing l along the
phase gradient at the identity makes the local phase frequency at t = 0
equal the full gradient magnitude, which is bounded below by the same
constant: the phase locally oscillates at least as fast as the fastest
Fourier component present in the signal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import GeneratorBasis, StatePair, dagger
from .amplitude import min_gradient_bound
from .errors import (
    DomainError,
    InternalConsistencyError,
    ShapeError,
    UndefinedDirectionError,
)
from .tolerances import ATOL_IDENTITY

P_OVERLAP = 1e-8   # overlap threshold for a usable gradient direction
P_TRACE = 1e-10    # amplitude threshold for local-frequency evaluation


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
    """Validate and eigendecompose a normalized traceless Hermitian matrix."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ShapeError(f"generator must be square, got {matrix.shape}")
    n = matrix.shape[0]
    if np.max(np.abs(matrix - dagger(matrix))) >= ATOL_IDENTITY:
        raise DomainError("generator is not Hermitian")
    if abs(np.trace(matrix)) >= ATOL_IDENTITY:
        raise DomainError("generator is not traceless")
    norm_sq = 0.5 * np.trace(matrix @ matrix).real
    if abs(norm_sq - 1.0) >= ATOL_IDENTITY:
        raise DomainError("generator is not normalized to (1/2) Tr l^2 = 1")
    w, v = np.linalg.eigh(matrix)
    if np.max(np.abs(w)) > min_gradient_bound(n) + 1e-9:
        raise InternalConsistencyError("eigenvalue exceeds the spectral cap")
    return NormalizedGenerator(matrix=matrix, eigenvalues=w, eigenvectors=v)


def aligned_generator(pair: StatePair, basis: GeneratorBasis) -> NormalizedGenerator:
    """Unit generator along the phase gradient at the identity.

    Components Re[<psi_f|g_a|psi_i> / <psi_f|psi_i>], normalized in the
    trace inner product.  Undefined for (near-)orthogonal pairs; for
    non-orthogonal pairs the direction can never vanish, since its
    squared length is the squared phase gradient at the identity, which
    is bounded below.
    """
    if pair.n != basis.n:
        raise ShapeError("state pair and basis dimensions differ")
    overlap = complex(pair.psi_f.conj() @ pair.psi_i)
    if abs(overlap) ** 2 < P_OVERLAP:
        raise UndefinedDirectionError(
            "states are orthogonal; the gradient direction at the identity "
            "is undefined"
        )
    components = np.einsum(
        "i,aij,j->a", pair.psi_f.conj(), basis.matrices, pair.psi_i
    )
    direction = (components / overlap).real
    norm = np.linalg.norm(direction)
    if norm < 1e-10:
        raise InternalConsistencyError(
            "gradient direction vanished for a non-orthogonal pair"
        )
    matrix = np.einsum("a,aij->ij", direction / norm, basis.matrices)
    return normalized_generator(matrix)


@dataclass(frozen=True)
class PhaseTrace:
    """Sampled amplitude, local phase frequency, and Fourier data.

    omega[k] is NaN where the amplitude is below threshold (`defined`
    False there); fourier_c are the coefficients over the generator's
    eigenvalues, summing to the t = 0 amplitude.  `fourier_residual` is
    the largest deviation of the Fourier sum from the sampled amplitude.
    """

    t: np.ndarray
    amplitude: np.ndarray
    omega: np.ndarray
    defined: np.ndarray
    eigenvalues: np.ndarray
    fourier_c: np.ndarray
    fourier_residual: float


def fourier_coefficients(pair: StatePair, gen: NormalizedGenerator) -> np.ndarray:
    """C_k = <psi_f|k><k|psi_i> over the eigenvectors of the generator."""
    f_k = dagger(gen.eigenvectors) @ pair.psi_f
    i_k = dagger(gen.eigenvectors) @ pair.psi_i
    return f_k.conj() * i_k


def local_frequency(pair: StatePair, gen: NormalizedGenerator, t: float) -> float:
    """d/dt arg <psi_f|exp(i l t)|psi_i> = Re[<f|U l|i> / <f|U|i>].

    Analytic, so it isolates the genuine poles at amplitude zeros
    instead of smearing them the way a differenced phase would.
    """
    phases = np.exp(1j * gen.eigenvalues * t)
    v = gen.eigenvectors
    u = (v * phases) @ dagger(v)
    amp = complex(pair.psi_f.conj() @ u @ pair.psi_i)
    if abs(amp) ** 2 < P_TRACE:
        raise UndefinedDirectionError(f"amplitude vanishes at t = {t}")
    ul = (v * (phases * gen.eigenvalues)) @ dagger(v)
    return float((complex(pair.psi_f.conj() @ ul @ pair.psi_i) / amp).real)


def phase_trace(
    pair: StatePair,
    gen: NormalizedGenerator,
    t_range: tuple[float, float] = (-np.pi, np.pi),
    samples: int = 1024,
) -> PhaseTrace:
    """Amplitude and local phase frequency along exp(i l t).

    The amplitude is evaluated through the matrix exponential; the
    Fourier sum over the spectrum reproduces it to rounding error.
    Samples with squared amplitude below 1e-10 are flagged and carry
    omega = NaN.
    """
    if pair.n != gen.n:
        raise ShapeError("state pair and generator dimensions differ")
    if samples < 2:
        raise DomainError("need at least 2 samples")
    t0, t1 = t_range
    if not t1 > t0:
        raise DomainError("empty time range")

    t = np.linspace(t0, t1, samples)
    v = gen.eigenvectors
    f_k = dagger(v) @ pair.psi_f
    i_k = dagger(v) @ pair.psi_i

    amplitude = np.empty(samples, dtype=complex)
    omega = np.full(samples, np.nan)
    defined = np.zeros(samples, dtype=bool)
    for idx, tk in enumerate(t):
        phases = np.exp(1j * gen.eigenvalues * tk)
        u = (v * phases) @ dagger(v)
        amp = complex(pair.psi_f.conj() @ u @ pair.psi_i)
        amplitude[idx] = amp
        if abs(amp) ** 2 >= P_TRACE:
            defined[idx] = True
            ul = (v * (phases * gen.eigenvalues)) @ dagger(v)
            omega[idx] = (complex(pair.psi_f.conj() @ ul @ pair.psi_i) / amp).real

    c = f_k.conj() * i_k
    rebuilt = np.einsum("k,sk->s", c, np.exp(1j * np.outer(t, gen.eigenvalues)))
    fourier_residual = float(np.max(np.abs(rebuilt - amplitude)))
    if fourier_residual >= 1e-9:
        raise InternalConsistencyError("Fourier sum does not reproduce the amplitude")
    if abs(np.sum(c) - complex(pair.psi_f.conj() @ pair.psi_i)) >= 1e-12:
        raise InternalConsistencyError("Fourier coefficients do not sum to the overlap")

    return PhaseTrace(
        t=t,
        amplitude=amplitude,
        omega=omega,
        defined=defined,
        eigenvalues=gen.eigenvalues.copy(),
        fourier_c=c,
        fourier_residual=fourier_residual,
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


def superoscillation_report(
    pair: StatePair,
    gen: NormalizedGenerator,
    t_range: tuple[float, float] = (-np.pi, np.pi),
    samples: int = 1024,
) -> SuperoscillationReport:
    """Detect phase oscillation faster than the fastest Fourier component.

    omega(0) is evaluated analytically at t = 0 (not read off the grid);
    "at least as fast" is tested with a one-sided 1e-9 tolerance, so
    exact boundary cases count as superoscillatory and are flagged.
    """
    trace = phase_trace(pair, gen, t_range=t_range, samples=samples)
    cap = gen.max_abs_eigenvalue
    omega0 = local_frequency(pair, gen, 0.0)

    half = (trace.t[1] - trace.t[0]) / 2.0
    hot = trace.defined & (np.abs(np.where(trace.defined, trace.omega, 0.0)) > cap)
    intervals = []
    start = None
    for idx, flag in enumerate(hot):
        if flag and start is None:
            start = trace.t[idx] - half
        elif not flag and start is not None:
            intervals.append((start, trace.t[idx - 1] + half))
            start = None
    if start is not None:
        intervals.append((start, trace.t[-1] + half))

    return SuperoscillationReport(
        max_abs_eigenvalue=cap,
        omega_zero=omega0,
        gradient_bound=min_gradient_bound(gen.n),
        superoscillatory_at_zero=bool(omega0 >= cap - 1e-9),
        boundary=bool(abs(omega0 - cap) <= 1e-9),
        intervals=tuple(intervals),
        trace=trace,
    )

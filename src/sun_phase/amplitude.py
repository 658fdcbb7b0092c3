"""Polar decomposition and gradient identities for SU(n) matrix elements.

For a transition amplitude <psi_f|U(x)|psi_i> = sqrt(p) exp(i eta) on a
group chart, the squared gradients of phase and log-modulus taken with
the bi-invariant metric satisfy exact pointwise identities:

    |grad eta|^2       = 1/p + 1 - 2/n
    |grad log sqrt p|^2 = 1/p - 1
    grad p . grad eta  = 0

so the modulus is recoverable from the phase gradient alone, the phase
gradient never drops below sqrt(2(n-1)/n), and the phase winds like a
vortex around zeros of the amplitude.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import StatePair, dagger
from .charts import Chart, FrameAtPoint, MetricAtPoint, ck_metric, left_invariant_frame, partials
from .errors import (
    DimensionError,
    DomainError,
    InternalConsistencyError,
    NearZeroAmplitudeError,
    ResolutionError,
    ShapeError,
    SingularLoopError,
)
from .tolerances import ATOL_IDENTITY, FD_STEP, P_GRAD, P_MIN


def principal_angle(delta) -> float | np.ndarray:
    """Wrap an angle difference to the principal branch (-pi, pi]."""
    return delta - 2 * np.pi * np.ceil((delta - np.pi) / (2 * np.pi))


def min_gradient_bound(n: int) -> float:
    """Lower bound sqrt(2(n-1)/n) on the phase gradient magnitude.

    Monotonically increasing in n, from 1 at n = 2 toward sqrt(2); it is
    simultaneously the largest possible eigenvalue magnitude of a
    normalized traceless Hermitian generator.
    """
    if n < 2:
        raise DimensionError(f"group dimension must be >= 2, got {n}")
    return float(np.sqrt(2.0 * (n - 1) / n))


@dataclass(frozen=True)
class PolarAmplitude:
    """Amplitude value with modulus-squared p and principal phase eta.

    `phase_defined` is False when p is too small for the phase to carry
    meaning; eta is then reported as 0.
    """

    value: complex
    p: float
    eta: float
    phase_defined: bool


def polar_amplitude(pair: StatePair, u: np.ndarray) -> PolarAmplitude:
    """Polar components of <psi_f|u|psi_i> for unitary u."""
    n = pair.n
    if u.shape != (n, n):
        raise ShapeError(f"expected a {n}x{n} matrix, got {u.shape}")
    if np.max(np.abs(dagger(u) @ u - np.eye(n))) >= ATOL_IDENTITY:
        raise DomainError("matrix is not unitary")
    value = complex(pair.psi_f.conj() @ u @ pair.psi_i)
    p = abs(value) ** 2
    if p > 1.0 + P_MIN:
        raise InternalConsistencyError(f"modulus squared {p} exceeds 1")
    defined = p >= P_MIN
    eta = float(np.angle(value)) if defined else 0.0
    return PolarAmplitude(value=value, p=p, eta=eta, phase_defined=defined)


@dataclass(frozen=True)
class PhaseGradient:
    """Gradient data of one amplitude at one chart point.

    `d_phase` and `d_log_modulus` are the coordinate components of
    d(eta) and d(log sqrt p); the squared norms and the cross term
    grad p . grad eta are contracted with the inverse metric.
    """

    n: int
    p: float
    eta: float
    d_phase: np.ndarray
    d_log_modulus: np.ndarray
    phase_grad_sq: float
    log_modulus_grad_sq: float
    cross: float

    @property
    def d_complex_phase(self) -> np.ndarray:
        """Components of the complex phase differential d(eta) - i d(log sqrt p)."""
        return self.d_phase - 1j * self.d_log_modulus

    def __post_init__(self):
        bound = 2.0 * (self.n - 1) / self.n
        if self.phase_grad_sq < bound - 1e-9:
            raise InternalConsistencyError(
                f"phase gradient {self.phase_grad_sq} below the bound {bound}"
            )

    def residuals(self) -> RelationResiduals:
        """Residuals of the three gradient identities at this point (see
        `group_relation_residuals`)."""
        return RelationResiduals(
            phase=abs(self.phase_grad_sq - 1.0 / self.p - (1.0 - 2.0 / self.n)),
            modulus=abs(self.log_modulus_grad_sq - (1.0 / self.p - 1.0)),
            cross=abs(self.cross),
        )

    def reconstructed_modulus(self) -> float:
        """Modulus recovered from the phase gradient alone.

        1 / sqrt(|grad eta|^2 - (n - 2)/n); equals sqrt(p) identically.  For
        n = 2 this is simply 1/|grad eta|.
        """
        shifted = self.phase_grad_sq - (self.n - 2.0) / self.n
        if shifted <= P_MIN:
            raise InternalConsistencyError(
                "phase gradient below the reconstruction threshold"
            )
        return float(1.0 / np.sqrt(shifted))


class _Point(NamedTuple):
    u: np.ndarray
    amp: PolarAmplitude
    frame: FrameAtPoint
    metric: MetricAtPoint


def _prepare(pair: StatePair, chart: Chart, x) -> _Point:
    if pair.n != chart.n:
        raise ShapeError("state pair and chart dimensions differ")
    x = np.asarray(x, dtype=float)
    u = chart.evaluate(x)
    amp = polar_amplitude(pair, u)
    if amp.p < P_GRAD:
        raise NearZeroAmplitudeError(
            f"p = {amp.p:.3e} below {P_GRAD:.0e}; gradient formulas unusable here"
        )
    du = partials(chart, x)
    frame = left_invariant_frame(chart, x, du=du, u=u)
    metric = ck_metric(chart, x, frame=frame, du=du)
    return _Point(u=u, amp=amp, frame=frame, metric=metric)


def _assemble(pair, chart, amp, metric, d_phase, d_log_modulus) -> PhaseGradient:
    g_inv = metric.g_inv
    phase_sq = float(d_phase @ g_inv @ d_phase)
    log_sq = float(d_log_modulus @ g_inv @ d_log_modulus)
    # grad p . grad eta, with dp = 2 p dlog(sqrt p)
    cross = float((2.0 * amp.p * d_log_modulus) @ g_inv @ d_phase)
    return PhaseGradient(
        n=chart.n,
        p=amp.p,
        eta=amp.eta,
        d_phase=d_phase,
        d_log_modulus=d_log_modulus,
        phase_grad_sq=phase_sq,
        log_modulus_grad_sq=log_sq,
        cross=cross,
    )


def phase_gradient(pair: StatePair, chart: Chart, x) -> PhaseGradient:
    """Gradient of phase and log-modulus from the left-invariant frame.

    The complex phase differential has exact frame components
    <psi_f|U g_a|psi_i> / <psi_f|U|psi_i>, pulled back through the frame;
    its real part is d(eta) and minus its imaginary part d(log sqrt p).
    Requires p >= 1e-8 (the formula divides by the amplitude).
    """
    pt = _prepare(pair, chart, x)
    numerators = np.einsum(
        "i,aij,j->a", pair.psi_f.conj() @ pt.u, chart.algebra, pair.psi_i
    )
    ratios = numerators / pt.amp.value
    d_complex = pt.frame.omega.T @ ratios
    return _assemble(pair, chart, pt.amp, pt.metric, d_complex.real, -d_complex.imag)


def phase_gradient_fd(pair: StatePair, chart: Chart, x, h: float = FD_STEP) -> PhaseGradient:
    """Gradient of phase and log-modulus by central differences.

    Phase increments are compared modulo 2 pi, choosing the
    representative within pi of zero, which is unambiguous at distance
    >> h from amplitude zeros (enforced through the p threshold).
    Independent of the frame route; used to cross-check it.
    """
    pt = _prepare(pair, chart, x)
    x = np.asarray(x, dtype=float)
    m = chart.dim_m
    d_phase = np.empty(m)
    d_log = np.empty(m)
    for mu in range(m):
        xp = x.copy()
        xm = x.copy()
        xp[mu] += h
        xm[mu] -= h
        ap = polar_amplitude(pair, chart.evaluate(xp))
        am = polar_amplitude(pair, chart.evaluate(xm))
        if not (ap.phase_defined and am.phase_defined):
            raise NearZeroAmplitudeError("amplitude vanished inside the stencil")
        step_p = principal_angle(ap.eta - pt.amp.eta)
        step_m = principal_angle(pt.amp.eta - am.eta)
        d_phase[mu] = (step_p + step_m) / (2 * h)
        d_log[mu] = (np.log(np.sqrt(ap.p)) - np.log(np.sqrt(am.p))) / (2 * h)
    return _assemble(pair, chart, pt.amp, pt.metric, d_phase, d_log)


class RelationResiduals(NamedTuple):
    """Absolute residuals of the three gradient identities."""

    phase: float
    modulus: float
    cross: float


def group_relation_residuals(
    pair: StatePair, chart: Chart, x, backend: str = "frame"
) -> RelationResiduals:
    """Residuals of the phase/modulus identities at one chart point.

    Returns (| |grad eta|^2 - 1/p - (1 - 2/n) |,
             | |grad log sqrt p|^2 - 1/p + 1 |,
             | grad p . grad eta |).
    backend "frame" uses the exact frame formula, "fd" the
    central-difference route.
    """
    if backend == "frame":
        return phase_gradient(pair, chart, x).residuals()
    if backend == "fd":
        return phase_gradient_fd(pair, chart, x).residuals()
    raise ValueError(f"unknown backend '{backend}'")


def reconstruct_modulus(pair: StatePair, chart: Chart, x) -> float:
    """Modulus |<psi_f|U|psi_i>| recovered from the phase gradient alone
    (see `PhaseGradient.reconstructed_modulus`)."""
    return phase_gradient(pair, chart, x).reconstructed_modulus()


class VortexWinding(NamedTuple):
    """Winding number of a loop and the largest unrefined phase step
    |principal_angle(eta_{k+1} - eta_k)| between consecutive loop points."""

    winding: int
    max_phase_step: float


def vortex_winding(
    pair: StatePair,
    chart: Chart,
    loop,
    refine: bool = True,
    max_depth: int = 14,
) -> VortexWinding:
    """Winding number (1/2 pi) sum of unwrapped phase steps around a loop.

    The loop is an ordered list of coordinate tuples interpreted as a
    polyline; it must be closed, either with identical first and last
    coordinates or (for periodic coordinates) with first and last
    mapping to the same group element.  Steps larger than pi/2 are
    bisected (up to `max_depth` rounds) when `refine` is set, and raise
    ResolutionError otherwise; points with p < 1e-8 raise
    SingularLoopError.  The summed phase must land within 0.01 turns of
    an integer.
    """
    loop = [np.asarray(p, dtype=float) for p in loop]
    if len(loop) < 3:
        raise DomainError("loop needs at least 3 points")
    if not np.allclose(loop[0], loop[-1], atol=1e-12):
        u_first = chart.evaluate(loop[0])
        u_last = chart.evaluate(loop[-1])
        if np.max(np.abs(u_first - u_last)) >= 1e-10:
            raise DomainError("loop is not closed (first point != last point)")

    def eta_at(x):
        amp = polar_amplitude(pair, chart.evaluate(x))
        if amp.p < P_GRAD:
            raise SingularLoopError(
                f"loop passes within p = {amp.p:.3e} of an amplitude zero"
            )
        return amp.eta

    etas = [eta_at(x) for x in loop]
    total = 0.0
    for k in range(len(loop) - 1):
        total += _unwrapped_step(
            pair, chart, loop[k], loop[k + 1], etas[k], etas[k + 1],
            eta_at, refine, max_depth,
        )
    turns = total / (2 * np.pi)
    winding = round(turns)
    if abs(turns - winding) >= 0.01:
        raise ResolutionError(
            f"phase sum {turns:.4f} turns is not close to an integer"
        )
    max_step = max(abs(principal_angle(b - a)) for a, b in zip(etas, etas[1:]))
    return VortexWinding(winding=int(winding), max_phase_step=float(max_step))


def _unwrapped_step(pair, chart, x0, x1, eta0, eta1, eta_at, refine, depth):
    step = principal_angle(eta1 - eta0)
    if abs(step) < np.pi / 2:
        return step
    if not refine or depth <= 0:
        raise ResolutionError(
            f"phase step {step:.3f} rad exceeds pi/2; refine the loop sampling"
        )
    xm = (x0 + x1) / 2.0
    em = eta_at(xm)
    return _unwrapped_step(
        pair, chart, x0, xm, eta0, em, eta_at, refine, depth - 1
    ) + _unwrapped_step(pair, chart, xm, x1, em, eta1, eta_at, refine, depth - 1)

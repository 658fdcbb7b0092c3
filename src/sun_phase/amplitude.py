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

from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

from .algebra import StatePair, dagger
from .charts import Chart, ck_metric, left_invariant_frame, partials
from .errors import (
    DimensionError,
    DomainError,
    InternalConsistencyError,
    NearZeroAmplitudeError,
    ResolutionError,
    ShapeError,
    SingularLoopError,
    SunPhaseError,
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
    meaning; eta is then reported as 0.  Stacked matrices give arrays.
    """

    value: complex
    p: float
    eta: float
    phase_defined: bool


def polar_amplitude(pair: StatePair, u: np.ndarray) -> PolarAmplitude:
    """Polar components of <psi_f|u|psi_i> for unitary u, or for each matrix
    of a stack u (N, n, n), with one pair per matrix from a stacked pair."""
    n = pair.n
    if u.ndim not in (2, 3) or u.shape[-2:] != (n, n):
        raise ShapeError(f"expected {n}x{n} matrices, got {u.shape}")
    if np.abs(dagger(u) @ u - np.eye(n)).max() >= ATOL_IDENTITY:
        raise DomainError("matrix is not unitary")
    # [()]: a scalar for one matrix; hypot as in Python's complex abs (np.abs differs)
    value = (pair.psi_f.conj()[..., None, :] @ u @ pair.psi_i[..., :, None])[..., 0, 0][()]
    p = np.hypot(value.real, value.imag) ** 2
    if (p > 1.0 + P_MIN).any():
        raise InternalConsistencyError(f"modulus squared {np.max(p)} exceeds 1")
    defined = p >= P_MIN
    eta = np.where(defined, np.angle(value), 0.0)[()]
    return PolarAmplitude(value=value, p=p, eta=eta, phase_defined=defined)


@dataclass(frozen=True)
class PhaseGradient:
    """Gradient data of one amplitude at one chart point, or stacked rows.

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

    def __post_init__(self):
        bound = 2.0 * (self.n - 1) / self.n
        if np.any(self.phase_grad_sq < bound - 1e-9):  # False on NaN rows
            raise InternalConsistencyError(
                f"phase gradient {np.nanmin(self.phase_grad_sq)} below the bound {bound}"
            )

    @classmethod
    def contract(cls, n, p, eta, d_phase, d_log_modulus, g_inv) -> "PhaseGradient":
        """Contract the coordinate differentials with the inverse metric; the
        cross term grad p . grad eta uses dp = 2 p dlog(sqrt p)."""
        def quadratic(a, b):
            return (a[..., None, :] @ g_inv @ b[..., :, None])[..., 0, 0][()]

        return cls(
            n, p, eta, d_phase, d_log_modulus,
            quadratic(d_phase, d_phase),
            quadratic(d_log_modulus, d_log_modulus),
            quadratic(2.0 * p[..., None] * d_log_modulus, d_phase),
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
        if np.any(shifted <= P_MIN):
            raise InternalConsistencyError(
                "phase gradient below the reconstruction threshold"
            )
        return 1.0 / np.sqrt(shifted)


def phase_gradient(pair: StatePair, chart: Chart, x) -> PhaseGradient:
    """Gradient of phase and log-modulus from the left-invariant frame.

    The complex phase differential has exact frame components
    <psi_f|U g_a|psi_i> / <psi_f|U|psi_i>, pulled back through the frame;
    its real part is d(eta) and minus its imaginary part d(log sqrt p).
    Requires p >= 1e-8 (the formula divides by the amplitude): one point
    below raises NearZeroAmplitudeError, rows of a stack x (N, m) below get
    NaN gradients.  A stack raises the error of its first failing row.
    """
    if pair.n != chart.n:
        raise ShapeError("state pair and chart dimensions differ")
    x = np.asarray(x, dtype=float)
    try:
        u = chart.evaluate(x)
        amp = polar_amplitude(pair, u)
        if x.ndim == 1:
            if amp.p < P_GRAD:
                raise NearZeroAmplitudeError(
                    f"p = {amp.p:.3e} below {P_GRAD:.0e}; gradient formulas unusable here"
                )
            return _frame_gradient(pair, chart, x, u, amp)
        rows = np.flatnonzero(amp.p >= P_GRAD)
        kept = ()  # d_phase, d_log_modulus, phase_grad_sq, ... of the rows above P_GRAD
        if len(rows):
            usable = PolarAmplitude(*(field[rows] for field in astuple(amp)))
            kept = astuple(_frame_gradient(pair.rows(rows), chart, x[rows], u[rows], usable))[3:]
    except SunPhaseError:
        # a stack raises what the per-point loop raised: the first failing row's error
        for k in range(len(x) if x.ndim == 2 else 0):
            try:
                phase_gradient(pair.rows(k), chart, x[k])
            except NearZeroAmplitudeError:
                continue
        raise

    full = [np.full(shape, np.nan) for shape in (x.shape, x.shape, len(x), len(x), len(x))]
    for a, b in zip(full, kept):  # rows below P_GRAD stay NaN
        a[rows] = b
    return PhaseGradient(chart.n, amp.p, amp.eta, *full)


def _frame_gradient(pair, chart, x, u, amp) -> PhaseGradient:
    """`phase_gradient` at points x where p >= P_GRAD, given U(x) and the
    polar amplitude there."""
    du = partials(chart, x)
    frame = left_invariant_frame(chart, x, du=du, u=u)
    metric = ck_metric(chart, x, frame=frame, du=du)
    f_u = (pair.psi_f.conj()[..., None, :] @ u)[..., 0, :]
    numerators = np.einsum("...j,ajk,...k->...a", f_u, chart.algebra, pair.psi_i)
    ratios = numerators / amp.value[..., None]
    d_complex = (np.swapaxes(frame.omega, -1, -2) @ ratios[..., :, None])[..., 0]
    return PhaseGradient.contract(
        chart.n, amp.p, amp.eta, d_complex.real, -d_complex.imag, metric.g_inv
    )


def phase_gradient_fd(pair: StatePair, chart: Chart, x, h: float = FD_STEP) -> PhaseGradient:
    """Gradient of phase and log-modulus by central differences.

    Phase increments are compared modulo 2 pi, choosing the
    representative within pi of zero, which is unambiguous at distance
    >> h from amplitude zeros (enforced through the p threshold).
    Independent of the frame route; used to cross-check it, at one point.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeError("phase_gradient_fd takes one point")
    grad = phase_gradient(pair, chart, x)  # p, eta and every guard of the point
    steps = h * np.eye(chart.dim_m)
    ap = polar_amplitude(pair, chart.evaluate(x + steps))
    am = polar_amplitude(pair, chart.evaluate(x - steps))
    if not (ap.phase_defined.all() and am.phase_defined.all()):
        raise NearZeroAmplitudeError("amplitude vanished inside the stencil")
    d_phase = (principal_angle(ap.eta - grad.eta) + principal_angle(grad.eta - am.eta)) / (2 * h)
    d_log = (np.log(np.sqrt(ap.p)) - np.log(np.sqrt(am.p))) / (2 * h)
    g_inv = ck_metric(chart, x).g_inv
    return PhaseGradient.contract(chart.n, grad.p, grad.eta, d_phase, d_log, g_inv)


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

    The loop is an ordered array of coordinate rows (N, m) interpreted as
    a polyline; it must be closed, either with identical first and last
    coordinates or (for periodic coordinates) with first and last
    mapping to the same group element.  The loop is evaluated as stacks
    of `chart.block_rows()` points.  Steps larger than pi/2 are
    bisected (up to `max_depth` rounds) when `refine` is set, and raise
    ResolutionError otherwise; points with p < 1e-8 raise
    SingularLoopError.  The summed phase must land within 0.01 turns of
    an integer.
    """
    loop = np.asarray(loop, dtype=float)
    if loop.ndim != 2 or len(loop) < 3:
        raise DomainError("loop needs at least 3 points")
    if not np.allclose(loop[0], loop[-1], atol=1e-12):
        u_first, u_last = chart.evaluate(loop[[0, -1]])
        if np.max(np.abs(u_first - u_last)) >= 1e-10:
            raise DomainError("loop is not closed (first point != last point)")

    def eta_at(x):
        amp = polar_amplitude(pair, chart.evaluate(x))
        if np.min(amp.p) < P_GRAD:
            raise SingularLoopError(
                f"loop passes within p = {np.min(amp.p):.3e} of an amplitude zero"
            )
        return amp.eta

    block = chart.block_rows()
    etas = np.concatenate([eta_at(loop[k:k + block]) for k in range(0, len(loop), block)])
    steps = principal_angle(np.diff(etas))
    total = float(np.sum(steps[np.abs(steps) < np.pi / 2]))
    for k in np.flatnonzero(np.abs(steps) >= np.pi / 2):
        total += _unwrapped_step(
            loop[k], loop[k + 1], etas[k], etas[k + 1], eta_at, refine, max_depth
        )
    turns = total / (2 * np.pi)
    winding = round(turns)
    if abs(turns - winding) >= 0.01:
        raise ResolutionError(
            f"phase sum {turns:.4f} turns is not close to an integer"
        )
    return VortexWinding(winding=int(winding), max_phase_step=float(np.max(np.abs(steps))))


def _unwrapped_step(x0, x1, eta0, eta1, eta_at, refine, depth):
    step = principal_angle(eta1 - eta0)
    if abs(step) < np.pi / 2:
        return step
    if not refine or depth <= 0:
        raise ResolutionError(
            f"phase step {step:.3f} rad exceeds pi/2; refine the loop sampling"
        )
    xm = (x0 + x1) / 2.0
    em = eta_at(xm)
    return _unwrapped_step(x0, xm, eta0, em, eta_at, refine, depth - 1) + _unwrapped_step(
        xm, x1, em, eta1, eta_at, refine, depth - 1
    )

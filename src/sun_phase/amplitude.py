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

from .algebra import StatePair, unitarity_residual
from .charts import Chart, ck_metric, cometric, left_invariant_frame, partials
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
from .tolerances import ATOL_IDENTITY, FD_STEP, GATE_GRADIENT_LOWER_BOUND, P_GRAD, P_MIN


def principal_angle(delta) -> float | np.ndarray:
    """Wrap an angle difference to the principal branch (-pi, pi]."""
    return delta - 2 * np.pi * np.ceil((delta - np.pi) / (2 * np.pi))


def min_gradient_bound_sq(n: int) -> float:
    """2(n-1)/n, the square of `min_gradient_bound`: the floor of
    |grad eta|^2 and the U(1) part of the group's squared phase gradient
    on ray space."""
    if n < 2:
        raise DimensionError(f"group dimension must be >= 2, got {n}")
    return 2.0 * (n - 1) / n


def min_gradient_bound(n: int) -> float:
    """Lower bound sqrt(2(n-1)/n) on the phase gradient magnitude.

    Monotonically increasing in n, from 1 at n = 2 toward sqrt(2); it is
    simultaneously the largest possible eigenvalue magnitude of a
    normalized traceless Hermitian generator, and minus the U(1)
    eigenvalue on the reference state of a Cartan frame.
    """
    return float(np.sqrt(min_gradient_bound_sq(n)))


@dataclass(frozen=True)
class PolarAmplitude:
    """Amplitude value with modulus-squared p and principal phase eta.

    `phase_defined` is False when p is below P_MIN, too small for the
    phase to carry meaning; eta is then reported as 0.  Stacked matrices
    give arrays.
    """

    value: complex
    p: float
    eta: float

    @property
    def phase_defined(self):
        return self.p >= P_MIN

    def rows(self, index) -> "PolarAmplitude":
        """The rows `index` of a stacked amplitude."""
        return PolarAmplitude(self.value[index], self.p[index], self.eta[index])


def polar_amplitude(pair: StatePair, u: np.ndarray) -> PolarAmplitude:
    """Polar components of <psi_f|u|psi_i> for unitary u, or for each matrix
    of a stack u (N, n, n), with one pair per matrix from a stacked pair
    (ShapeError for any other number of rows).  One matrix is evaluated as
    a stack of one, so it rounds as its row of any stack does."""
    n = pair.n
    if u.ndim not in (2, 3) or u.shape[-2:] != (n, n):
        raise ShapeError(f"expected {n}x{n} matrices, got {u.shape}")
    if not unitarity_residual(u) < ATOL_IDENTITY:
        raise DomainError("matrix is not unitary")
    return _polar(pair, u)


def _polar(pair: StatePair, u: np.ndarray) -> PolarAmplitude:
    """`polar_amplitude` of matrices whose unitarity is already checked, as
    `Chart.evaluate` checks every U it returns.  ShapeError unless a stacked
    pair has exactly one row per matrix."""
    if u.ndim == 2:
        return _polar(pair, u[None]).rows(0)
    if pair.psi_i.ndim == 2 and len(pair.psi_i) != len(u):
        raise ShapeError(f"{len(pair.psi_i)} state pairs for {len(u)} matrices")
    value = (pair.psi_f.conj()[..., None, :] @ u @ pair.psi_i[..., :, None])[..., 0, 0]
    p = np.hypot(value.real, value.imag) ** 2  # as Python's complex abs (np.abs differs)
    if (p > 1.0 + P_MIN).any():
        raise InternalConsistencyError(f"modulus squared {np.max(p)} exceeds 1")
    eta = np.where(p >= P_MIN, np.angle(value), 0.0)
    return PolarAmplitude(value=value, p=p, eta=eta)


# the fields of PhaseGradient computed from the frame, after n, p and eta
_DIFFERENTIAL_FIELDS = (
    "d_phase", "d_log_modulus", "phase_grad_sq", "log_modulus_grad_sq", "cross"
)


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
        bound = min_gradient_bound_sq(self.n)
        if np.any(self.phase_grad_sq < bound - GATE_GRADIENT_LOWER_BOUND):  # False on NaN rows
            raise InternalConsistencyError(
                f"phase gradient {np.nanmin(self.phase_grad_sq)} below the bound {bound}"
            )

    def rows(self, index) -> "PhaseGradient":
        """The rows `index` of stacked gradients."""
        fields = ("p", "eta") + _DIFFERENTIAL_FIELDS
        return PhaseGradient(self.n, **{name: getattr(self, name)[index] for name in fields})

    @classmethod
    def contract(cls, n, p, eta, d_phase, d_log_modulus, g_inv) -> "PhaseGradient":
        """Contract the coordinate differentials with the inverse metric; the
        cross term grad p . grad eta uses dp = 2 p dlog(sqrt p)."""
        return cls(
            n, p, eta, d_phase, d_log_modulus,
            cometric(d_phase, g_inv, d_phase),
            cometric(d_log_modulus, g_inv, d_log_modulus),
            cometric(2.0 * p[..., None] * d_log_modulus, g_inv, d_phase),
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
    NaN gradients.  A stack raises the error of its first failing row.  A
    stacked pair gives row k its own pair.
    U and its partials come from one chart call; one point is evaluated as
    a stack of one, and every contraction is a product per point, so row k
    of a stack equals the point x[k] alone bit for bit.
    """
    if pair.n != chart.n:
        raise ShapeError("state pair and chart dimensions differ")
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:  # one point, evaluated as a stack of one
        grad = _stacked_gradient(pair, chart, x[None])
        if grad.p[0] < P_GRAD:
            raise NearZeroAmplitudeError(
                f"p = {grad.p[0]:.3e} below {P_GRAD:.0e}; gradient formulas unusable here"
            )
        return grad.rows(0)
    try:
        return _stacked_gradient(pair, chart, x)
    except SunPhaseError:
        # a stack raises what the per-point loop raised: the first failing row's error
        for k in range(len(x) if x.ndim == 2 else 0):
            try:
                phase_gradient(pair.rows(k), chart, x[k])
            except NearZeroAmplitudeError:
                continue
        raise


def _stacked_gradient(pair: StatePair, chart: Chart, x: np.ndarray) -> PhaseGradient:
    """`phase_gradient` at a stack x (N, m), from one chart evaluation; rows
    below P_GRAD get NaN gradients and no guard after the amplitude's.  A
    stack with every row kept goes to the frame route with no row copies;
    its products are per row, so the rows keep their bits."""
    u, du = partials(chart, x)
    amp = _polar(pair, u)
    kept_rows = amp.p >= P_GRAD
    if kept_rows.all():
        return _frame_gradient(pair, chart, u, du, amp, left_invariant_frame(chart, x, u, du))
    rows = np.flatnonzero(kept_rows)
    u, du = u[rows], du[rows]
    frame = left_invariant_frame(chart, x[rows], u, du)
    kept = _frame_gradient(pair.rows(rows), chart, u, du, amp.rows(rows), frame)
    gradients = {}
    for name in _DIFFERENTIAL_FIELDS:  # rows below P_GRAD stay NaN
        value = getattr(kept, name)
        gradients[name] = np.full((len(x),) + value.shape[1:], np.nan)
        gradients[name][rows] = value
    return PhaseGradient(chart.n, amp.p, amp.eta, **gradients)


def _frame_gradient(pair, chart, u, du, amp, frame) -> PhaseGradient:
    """`phase_gradient` at the points frame.x where p >= P_GRAD, given U,
    its partials, the polar amplitude and the left-invariant frame there."""
    metric = ck_metric(frame, du)
    # <f|U g_a|i>: <f|U times the generators side by side, (n, m n), as one
    # product per point, then each generator's row times |i>
    n, m = chart.n, chart.dim_m
    side_by_side = np.swapaxes(chart.algebra, 0, 1).reshape(n, m * n)
    f_u = pair.psi_f.conj()[..., None, :] @ u
    f_u_g = (f_u @ side_by_side).reshape(u.shape[:-2] + (m, n))
    numerators = (f_u_g @ pair.psi_i[..., :, None])[..., 0]
    ratios = numerators / amp.value[..., None]
    d_complex = (np.swapaxes(frame.omega, -1, -2) @ ratios[..., :, None])[..., 0]
    return PhaseGradient.contract(
        chart.n, amp.p, amp.eta, d_complex.real, -d_complex.imag, metric.g_inv
    )


def phase_gradient_fd(pair: StatePair, chart: Chart, x) -> PhaseGradient:
    """Gradient of phase and log-modulus by central differences of step FD_STEP.

    Phase increments are compared modulo 2 pi, choosing the
    representative within pi of zero, which is unambiguous at distance
    >> FD_STEP from amplitude zeros (enforced through the p threshold).
    The differentials of eta and log sqrt p are independent of the frame
    route.  The inverse metric they are contracted with is shared with it:
    g^-1 comes from one `partials`, `left_invariant_frame`, `ck_metric`
    chain, and the trace-form check in `ck_metric` guards it.  Used to
    cross-check `phase_gradient`, at one point.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeError("phase_gradient_fd takes one point")
    grad = phase_gradient(pair, chart, x)  # p, eta and every guard of the point
    steps = FD_STEP * np.eye(chart.dim_m)
    ap = _polar(pair, chart.evaluate(x + steps))
    am = _polar(pair, chart.evaluate(x - steps))
    if not (ap.phase_defined.all() and am.phase_defined.all()):
        raise NearZeroAmplitudeError("amplitude vanished inside the stencil")
    span = 2 * FD_STEP
    d_phase = (principal_angle(ap.eta - grad.eta) + principal_angle(grad.eta - am.eta)) / span
    d_log = (np.log(np.sqrt(ap.p)) - np.log(np.sqrt(am.p))) / span
    u, du = partials(chart, x)
    g_inv = ck_metric(left_invariant_frame(chart, x, u, du), du).g_inv
    return PhaseGradient.contract(chart.n, grad.p, grad.eta, d_phase, d_log, g_inv)


class RelationResiduals(NamedTuple):
    """Absolute residuals of the three gradient identities."""

    phase: float
    modulus: float
    cross: float


def group_relation_residuals(pair: StatePair, chart: Chart, x) -> RelationResiduals:
    """Residuals of the phase/modulus identities at one chart point.

    Returns (| |grad eta|^2 - 1/p - (1 - 2/n) |,
             | |grad log sqrt p|^2 - 1/p + 1 |,
             | grad p . grad eta |).
    From the exact frame formula; `phase_gradient_fd(...).residuals()` is the
    central-difference cross-check.
    """
    return phase_gradient(pair, chart, x).residuals()


def reconstruct_modulus(pair: StatePair, chart: Chart, x) -> float:
    """Modulus |<psi_f|U|psi_i>| recovered from the phase gradient alone
    (see `PhaseGradient.reconstructed_modulus`)."""
    return phase_gradient(pair, chart, x).reconstructed_modulus()


class VortexWinding(NamedTuple):
    """Winding number of a loop and the largest unrefined phase step
    |principal_angle(eta_{k+1} - eta_k)| between consecutive loop points."""

    winding: int
    max_phase_step: float


def vortex_winding(pair: StatePair, chart: Chart, loop, max_depth: int = 14) -> VortexWinding:
    """Winding number (1/2 pi) sum of unwrapped phase steps around a loop.

    The loop is an ordered array of coordinate rows (N, m) interpreted as
    a polyline; it must be closed, either with identical first and last
    coordinates or (for periodic coordinates) with first and last
    mapping to the same group element.  The loop is evaluated as stacks
    of `chart.block_rows()` points.  Steps larger than pi/2 are
    bisected, up to `max_depth` rounds; a step still that large raises
    ResolutionError (with `max_depth=0`, any such step does).  Points
    with p < 1e-8 raise SingularLoopError.  The summed phase must land
    within 0.01 turns of an integer.
    """
    loop = np.asarray(loop, dtype=float)
    if loop.ndim != 2 or len(loop) < 3:
        raise DomainError("loop needs at least 3 points")
    if not np.allclose(loop[0], loop[-1], rtol=0.0, atol=1e-12):
        u_first, u_last = chart.evaluate(loop[[0, -1]])
        if np.max(np.abs(u_first - u_last)) >= 1e-10:
            raise DomainError("loop is not closed (first point != last point)")

    def eta_at(x):
        amp = _polar(pair, chart.evaluate(x))
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
        total += _unwrapped_step(loop[k], loop[k + 1], etas[k], etas[k + 1], eta_at, max_depth)
    turns = total / (2 * np.pi)
    winding = round(turns)
    if abs(turns - winding) >= 0.01:
        raise ResolutionError(
            f"phase sum {turns:.4f} turns is not close to an integer"
        )
    return VortexWinding(winding=int(winding), max_phase_step=float(np.max(np.abs(steps))))


def _unwrapped_step(x0, x1, eta0, eta1, eta_at, depth):
    step = principal_angle(eta1 - eta0)
    if abs(step) < np.pi / 2:
        return step
    if depth <= 0:
        raise ResolutionError(
            f"phase step {step:.3f} rad exceeds pi/2; refine the loop sampling"
        )
    xm = (x0 + x1) / 2.0
    em = eta_at(xm)
    return _unwrapped_step(x0, xm, eta0, em, eta_at, depth - 1) + _unwrapped_step(
        xm, x1, em, eta1, eta_at, depth - 1
    )

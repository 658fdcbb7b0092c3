"""Cartan split of su(n) adapted to a reference state, and ray-space geometry.

Fixing a unit vector psi_i splits the algebra into a U(1) direction
(lambda0, the traceless projector combination with a definite eigenvalue
on psi_i), an su(n-1) isotropy block acting on the orthogonal
complement, and 2(n-1) coset directions pairing psi_i with the
complement.  Exponentiating the coset directions sweeps a section of
states |psi(y)> whose Fubini-Study geometry, Berry connection, and
phase/modulus identities are computed here, together with the exact
factorization of group amplitudes through the section and the
identities relating the group metric to the ray-space metric.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    GeneratorBasis,
    StatePair,
    build_gellmann_basis,
    dagger,
    expm_generator,
    expm_partials,
)
from .amplitude import RelationResiduals, polar_amplitude
from .charts import Chart, ck_metric, left_invariant_frame, partials
from .errors import (
    DegenerateMetricError,
    DomainError,
    InternalConsistencyError,
    NearZeroAmplitudeError,
    ShapeError,
)
from .tolerances import (
    ATOL_CONSTRUCTION,
    ATOL_FD_MATCH,
    ATOL_FRAME,
    CHART_MARGIN,
    P_GRAD,
)


def u1_eigenvalue(n: int) -> float:
    """Eigenvalue of the U(1) generator on the reference state: -sqrt(2(n-1)/n)."""
    return -float(np.sqrt(2.0 * (n - 1) / n))


@dataclass(frozen=True)
class CartanFrame:
    """Adapted orthonormal generator frame for a reference state.

    `coset` stacks the off-block generators X_1..X_{n-1}, Y_1..Y_{n-1};
    `iso` stacks the embedded su(n-1) block (empty for n = 2);
    `complement` holds the n-1 orthonormal vectors spanning the
    complement of psi_i, one per row.
    """

    n: int
    psi_i: np.ndarray
    lambda0: np.ndarray
    coset: np.ndarray
    iso: np.ndarray
    complement: np.ndarray

    @property
    def dim_coset(self) -> int:
        return 2 * (self.n - 1)

    @property
    def dim_iso(self) -> int:
        return (self.n - 1) ** 2 - 1

    def stacked(self) -> np.ndarray:
        """All generators in full-chart coordinate order: coset, iso, lambda0."""
        return np.concatenate(
            [self.coset, self.iso, self.lambda0[np.newaxis]], axis=0
        )


def _complement_basis(psi_i: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of psi_i, by Gram-Schmidt over
    the standard basis in order (deterministic)."""
    n = len(psi_i)
    kept: list[np.ndarray] = []
    for j in range(n):
        v = np.zeros(n, dtype=complex)
        v[j] = 1.0
        v = v - psi_i * (psi_i.conj() @ v)
        for u in kept:
            v = v - u * (u.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            kept.append(v / norm)
    if len(kept) != n - 1:
        raise InternalConsistencyError("complement basis construction failed")
    return np.array(kept)


def build_cartan_frame(psi_i, basis: GeneratorBasis) -> CartanFrame:
    """Adapted generator frame splitting su(n) around the ray of psi_i.

    lambda0 = sqrt(2/(n(n-1))) (1 - n |psi><psi|), normalized to
    (1/2) Tr lambda0^2 = 1 with eigenvalue -sqrt(2(n-1)/n) on psi_i;
    coset generators |psi><k| + |k><psi| and -i|psi><k| + i|k><psi|;
    isotropy block the generalized Gell-Mann basis of the complement.
    All pairwise trace-orthogonality relations are verified on exit.
    """
    psi_i = np.asarray(psi_i, dtype=complex)
    n = basis.n
    if psi_i.shape != (n,):
        raise ShapeError("reference state and basis dimensions differ")
    if abs(np.linalg.norm(psi_i) - 1.0) >= ATOL_CONSTRUCTION:
        raise DomainError("reference state is not unit-norm")

    eye = np.eye(n, dtype=complex)
    projector = np.outer(psi_i, psi_i.conj())
    lambda0 = np.sqrt(2.0 / (n * (n - 1))) * (eye - n * projector)

    complement = _complement_basis(psi_i)
    xs, ys = [], []
    for k in complement:
        cross = np.outer(psi_i, k.conj())
        xs.append(cross + dagger(cross))
        ys.append(-1j * cross + 1j * dagger(cross))
    coset = np.array(xs + ys)

    if n == 2:
        iso = np.zeros((0, n, n), dtype=complex)
    else:
        w = complement.T  # n x (n-1), columns are the |k>
        iso = np.array([w @ g @ dagger(w) for g in build_gellmann_basis(n - 1)])

    frame = CartanFrame(
        n=n, psi_i=psi_i, lambda0=lambda0, coset=coset, iso=iso, complement=complement
    )
    _validate_frame(frame)
    return frame


def _validate_frame(frame: CartanFrame) -> None:
    n = frame.n
    if 1 + frame.dim_iso + frame.dim_coset != n * n - 1:
        raise InternalConsistencyError("generator count mismatch")
    stack = frame.stacked()
    for g in stack:
        if np.max(np.abs(g - dagger(g))) >= ATOL_CONSTRUCTION:
            raise InternalConsistencyError("frame generator not Hermitian")
        if abs(np.trace(g)) >= ATOL_CONSTRUCTION:
            raise InternalConsistencyError("frame generator not traceless")
    gram = np.einsum("aij,bji->ab", stack, stack).real / 2.0
    if np.max(np.abs(gram - np.eye(len(stack)))) >= ATOL_CONSTRUCTION:
        raise InternalConsistencyError("frame generators not trace-orthonormal")
    residual = frame.lambda0 @ frame.psi_i - u1_eigenvalue(n) * frame.psi_i
    if np.max(np.abs(residual)) >= 1e-10:
        raise InternalConsistencyError("U(1) generator eigenvalue check failed")


def _coset_coordinates(frame: CartanFrame, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (frame.dim_coset,):
        raise ShapeError(f"expected {frame.dim_coset} coset coordinates")
    if np.linalg.norm(y) >= np.pi / 2:
        raise DomainError("coset coordinates outside the |y| < pi/2 ball")
    return y


def coset_element(frame: CartanFrame, y) -> np.ndarray:
    """Coset representative K(y) = exp(i y^A g_A) sweeping the section."""
    y = _coset_coordinates(frame, y)
    return expm_generator(np.einsum("a,aij->ij", y, frame.coset))


@dataclass(frozen=True)
class SectionPoint:
    """State, connection, and ray-space metric data at one section point.

    `dpsi` stacks the partials d psi / d y^mu.  `fs_metric` is the
    vielbein construction (contraction of the coset components of
    K^dag dK); `fs_metric_state` the equivalent state formula
    Re<d psi|d psi> - A A, kept for cross-checking.  `berry` is the
    connection -i<psi|d psi>; `u1_component` the lambda0 component of
    K^dag dK, proportional to it.
    """

    y: np.ndarray
    kmat: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    tau: np.ndarray
    iso_components: np.ndarray
    u1_component: np.ndarray
    berry: np.ndarray
    fs_metric: np.ndarray
    fs_metric_inv: np.ndarray
    fs_metric_state: np.ndarray


def section(frame: CartanFrame, y) -> SectionPoint:
    """Section state psi(y) = K(y) psi_i with its ray-space geometry.

    K and its exact partials come from one eigendecomposition
    (`algebra.expm_partials`).  The two Fubini-Study constructions are
    cross-checked to 1e-6 and the Berry connection verified real to 1e-9.
    """
    y = _coset_coordinates(frame, y)
    m = frame.dim_coset
    k0, dk = expm_partials(y, frame.coset)
    psi = k0 @ frame.psi_i

    pulled = np.einsum("ij,mjk->mik", dagger(k0), dk)  # K^dag dK per coordinate

    def real_components(gens: np.ndarray) -> np.ndarray:
        if len(gens) == 0:
            return np.zeros((0, m))
        comps = np.einsum("aij,mji->am", gens, pulled) / 2j
        if np.max(np.abs(comps.imag)) >= ATOL_FRAME:
            raise InternalConsistencyError("frame component not real")
        return comps.real

    tau = real_components(frame.coset)
    iso_components = real_components(frame.iso)
    u1_component = real_components(frame.lambda0[np.newaxis])[0]

    dpsi = np.einsum("mij,j->mi", dk, frame.psi_i)
    overlaps = np.einsum("i,mi->m", psi.conj(), dpsi)
    # exactly imaginary; with exact partials the real part is rounding
    # only, far below the guard
    if np.max(np.abs(overlaps.real)) >= 1e-9:
        raise InternalConsistencyError("Berry connection has an imaginary part")
    berry = overlaps.imag  # components of -i<psi|d psi>

    fs_metric = tau.T @ tau
    grams = np.einsum("mi,ki->mk", dpsi.conj(), dpsi).real
    fs_metric_state = grams - np.outer(berry, berry)
    if np.max(np.abs(fs_metric - fs_metric_state)) >= ATOL_FD_MATCH:
        raise InternalConsistencyError(
            "Fubini-Study constructions disagree beyond tolerance"
        )

    eigenvalues = np.linalg.eigvalsh(fs_metric)
    if eigenvalues[0] <= 0.0:
        raise DegenerateMetricError(f"section metric degenerate at y = {y}")
    fs_inv = np.linalg.inv(fs_metric)
    if np.max(np.abs(fs_metric @ fs_inv - np.eye(m))) >= ATOL_FRAME:
        raise DegenerateMetricError(f"section metric ill-conditioned at y = {y}")

    return SectionPoint(
        y=y,
        kmat=k0,
        psi=psi,
        dpsi=dpsi,
        tau=tau,
        iso_components=iso_components,
        u1_component=u1_component,
        berry=berry,
        fs_metric=fs_metric,
        fs_metric_inv=fs_inv,
        fs_metric_state=fs_metric_state,
    )


def u1_berry_residuals(point: SectionPoint, n: int) -> tuple[float, float]:
    """Componentwise residuals of the two sign conventions relating the
    U(1) frame component to the Berry connection.

    Returns (max|u1 - c A|, max|u1 + c A|) with c = sqrt(n/(2(n-1))).
    Exactly one of the two vanishes: with the negative-eigenvalue
    normalization of lambda0 fixed here, it is the second.
    """
    c = np.sqrt(n / (2.0 * (n - 1)))
    minus = float(np.max(np.abs(point.u1_component - c * point.berry)))
    plus = float(np.max(np.abs(point.u1_component + c * point.berry)))
    return minus, plus


def full_cartan_chart(frame: CartanFrame) -> Chart:
    """Chart splitting the group into coset, isotropy, and U(1) factors.

    Coordinates (y, xi_s, xi0) map to K(y) H_s(xi_s) exp(i lambda0 xi0);
    the attached generator stack follows the same order, so frame index
    dim-1 is the U(1) direction.  Exact partials: the product rule over
    the three factors, each differentiated by `algebra.expm_partials`.
    """
    n = frame.n
    m_coset, m_iso = frame.dim_coset, frame.dim_iso
    m = m_coset + m_iso + 1
    coset_g, iso_g, lam0 = frame.coset, frame.iso, frame.lambda0
    eye = np.eye(n, dtype=complex)

    def _map(x: np.ndarray) -> np.ndarray:
        y, xs, x0 = x[:m_coset], x[m_coset:m_coset + m_iso], x[-1]
        u = expm_generator(np.einsum("a,aij->ij", y, coset_g))
        if m_iso and np.any(xs):
            u = u @ expm_generator(np.einsum("a,aij->ij", xs, iso_g))
        if x0 != 0.0:
            u = u @ expm_generator(lam0, x0)
        return u

    def _partials(x: np.ndarray) -> np.ndarray:
        y, xs, x0 = x[:m_coset], x[m_coset:m_coset + m_iso], x[-1]
        k, dk = expm_partials(y, coset_g)
        s, ds = eye, 1j * iso_g
        if m_iso and np.any(xs):
            s, ds = expm_partials(xs, iso_g)
        e = expm_generator(lam0, x0) if x0 != 0.0 else eye
        d0 = k @ s @ (1j * lam0) @ e
        return np.concatenate([dk @ s @ e, k @ ds @ e, d0[np.newaxis]])

    def _contains(x: np.ndarray) -> bool:
        y, xs, x0 = x[:m_coset], x[m_coset:m_coset + m_iso], x[-1]
        return bool(
            np.linalg.norm(y) < np.pi / 2
            and np.linalg.norm(xs) < np.pi / 2
            and abs(x0) < np.pi
        )

    box = np.empty((m, 2))
    y_half = (np.pi / 2) * (1 - CHART_MARGIN) / np.sqrt(m_coset)
    box[:m_coset] = [-y_half, y_half]
    if m_iso:
        s_half = (np.pi / 2) * (1 - CHART_MARGIN) / np.sqrt(m_iso)
        box[m_coset:m_coset + m_iso] = [-s_half, s_half]
    box[-1] = [-np.pi * (1 - CHART_MARGIN), np.pi * (1 - CHART_MARGIN)]

    return Chart(
        label="cartan",
        n=n,
        dim_m=m,
        algebra=frame.stacked(),
        sample_box=box,
        map_fn=_map,
        contains_fn=_contains,
        partials_fn=_partials,
    )


def _section_amplitude(pair: StatePair, point: SectionPoint):
    """p and the y-derivatives of eta, log sqrt p and p on the section.

    The components of d log(amp) = <f|d psi> / <f|psi> are
    d log sqrt p + i d eta, so neither the phase nor the modulus is
    differentiated directly.
    """
    amp0 = complex(pair.psi_f.conj() @ point.psi)
    p0 = abs(amp0) ** 2
    if p0 < P_GRAD:
        raise NearZeroAmplitudeError(
            f"section amplitude p = {p0:.3e} too small at y = {point.y}"
        )
    d_log_amp = (point.dpsi @ pair.psi_f.conj()) / amp0
    d_log = d_log_amp.real
    return p0, d_log_amp.imag, d_log, 2.0 * p0 * d_log


def ray_relation_residuals(pair: StatePair, frame: CartanFrame, y) -> RelationResiduals:
    """Residuals of the ray-space phase/modulus identities at one section point.

    On the section psi(y), with the inverse of the Fubini-Study metric at
    unit scale (q = 1) and the Berry connection A:

        |grad eta - A|^2       = 1/p - 1
        |grad log sqrt p|^2     = 1/p - 1
        grad p . (grad eta - A) = 0

    Derivatives are exact (see `section`), so the residuals carry
    rounding error only, which grows like 1/p toward amplitude zeros.
    """
    return _section_relation_residuals(pair, section(frame, y))


def _section_relation_residuals(pair: StatePair, point: SectionPoint) -> RelationResiduals:
    """`ray_relation_residuals` at `point = section(frame, y)`."""
    p0, d_eta, d_log, d_p = _section_amplitude(pair, point)
    gauged = d_eta - point.berry
    g_inv = point.fs_metric_inv
    return RelationResiduals(
        phase=abs(float(gauged @ g_inv @ gauged) - (1.0 / p0 - 1.0)),
        modulus=abs(float(d_log @ g_inv @ d_log) - (1.0 / p0 - 1.0)),
        cross=abs(float(d_p @ g_inv @ gauged)),
    )


def factorization_residual(pair: StatePair, frame: CartanFrame, y, xi_s, xi0: float) -> float:
    """Residual of the exact amplitude factorization through the section.

    <psi_f| K(y) H_s(xi_s) exp(i lambda0 xi0) |psi_i>
        = exp(i eigenvalue(lambda0 on psi_i) xi0) <psi_f|psi(y)>

    holds because the isotropy factor fixes psi_i and psi_i is a
    lambda0 eigenvector; the residual is matrix-exponential rounding
    only (< 1e-9 everywhere).
    """
    xi_s = np.asarray(xi_s, dtype=float)
    if xi_s.shape != (frame.dim_iso,):
        raise ShapeError(f"expected {frame.dim_iso} isotropy coordinates")
    k0 = coset_element(frame, y)
    u = k0
    # identity factors are skipped so that xi = 0 is exactly trivial
    if frame.dim_iso and np.any(xi_s):
        u = u @ expm_generator(np.einsum("a,aij->ij", xi_s, frame.iso))
    if xi0 != 0.0:
        u = u @ expm_generator(frame.lambda0, xi0)
    lhs = complex(pair.psi_f.conj() @ u @ pair.psi_i)
    rhs = np.exp(1j * u1_eigenvalue(frame.n) * xi0) * complex(
        pair.psi_f.conj() @ k0 @ pair.psi_i
    )
    return float(abs(lhs - rhs))


@dataclass(frozen=True)
class BridgeResult:
    """Residuals tying the group-manifold metric to ray-space geometry.

    The group-side gradients use the full chart and its inverse metric;
    the ray side uses the section machinery, with the gauged phase
    differential taken in its frame form d eta + sqrt(2(n-1)/n) u1.
    `alt_residual_phase` evaluates the first identity with the Berry
    connection added instead of subtracted, for sign-convention
    reporting; `grad0_phase` is the frame component of d eta along the
    U(1) direction and `u1_frame_component` the extracted coefficient
    of the U(1) form along its own coordinate (identically 1).
    """

    residual_phase: float
    residual_mixed: float
    residual_modulus: float
    grad0_phase: float
    u1_frame_component: float
    alt_residual_phase: float


def bridge_residuals(pair: StatePair, frame: CartanFrame, y) -> BridgeResult:
    """Check that group gradients split into ray-space gradients plus the
    U(1) contribution, at the section slice of the full chart.

        g^-1(d eta, d eta) = g_FS^-1(D eta, D eta) + 2(n-1)/n
        g^-1(d eta, d p)   = g_FS^-1(D eta, d p)
        g^-1(d p,  d p)    = g_FS^-1(d p,  d p)

    with D eta = d eta + sqrt(2(n-1)/n) u1 (equal to d eta - A).  Both
    sides use exact derivatives: the full chart's partials on the group
    side, the section's on the ray side; tolerance 1e-4.
    """
    return _bridge_residuals(pair, frame, full_cartan_chart(frame), section(frame, y))


def _bridge_residuals(
    pair: StatePair, frame: CartanFrame, chart: Chart, point: SectionPoint
) -> BridgeResult:
    """`bridge_residuals` with `chart = full_cartan_chart(frame)` and
    `point = section(frame, y)`."""
    x0 = np.zeros(chart.dim_m)
    x0[: frame.dim_coset] = point.y

    u0 = chart.evaluate(x0)
    amp0 = polar_amplitude(pair, u0)
    if amp0.p < 1e-6:
        raise NearZeroAmplitudeError(f"amplitude p = {amp0.p:.3e} too small")

    du = partials(chart, x0)
    fr = left_invariant_frame(chart, x0, du=du, u=u0)
    metric = ck_metric(chart, x0, frame=fr, du=du)

    # d log(amp) = <f|dU|i> / <f|U|i> = d log sqrt p + i d eta
    d_log_amp = np.einsum("i,mij,j->m", pair.psi_f.conj(), du, pair.psi_i) / amp0.value
    d_eta = d_log_amp.imag
    d_p = 2.0 * amp0.p * d_log_amp.real

    g_inv = metric.g_inv
    lhs_phase = float(d_eta @ g_inv @ d_eta)
    lhs_mixed = float(d_eta @ g_inv @ d_p)
    lhs_modulus = float(d_p @ g_inv @ d_p)

    _, d_eta_y, _, d_p_y = _section_amplitude(pair, point)
    scale = np.sqrt(2.0 * (frame.n - 1) / frame.n)
    gauged = d_eta_y + scale * point.u1_component
    gauged_alt = d_eta_y + point.berry
    fs_inv = point.fs_metric_inv

    rhs_phase = float(gauged @ fs_inv @ gauged) + 2.0 * (frame.n - 1) / frame.n
    rhs_mixed = float(gauged @ fs_inv @ d_p_y)
    rhs_modulus = float(d_p_y @ fs_inv @ d_p_y)
    alt_phase = float(gauged_alt @ fs_inv @ gauged_alt) + 2.0 * (frame.n - 1) / frame.n

    return BridgeResult(
        residual_phase=abs(lhs_phase - rhs_phase),
        residual_mixed=abs(lhs_mixed - rhs_mixed),
        residual_modulus=abs(lhs_modulus - rhs_modulus),
        grad0_phase=float(d_eta @ fr.dual[:, -1]),
        u1_frame_component=float(fr.omega[-1, -1]),
        alt_residual_phase=abs(lhs_phase - alt_phase),
    )


def ck_block_decomposition_residual(frame: CartanFrame, y) -> float:
    """Residual of the coset block identity g_CK = g_FS + sum_i a^i a^i.

    The coset-coordinate block of the group metric at the section slice
    equals the Fubini-Study metric plus the contraction of the isotropy
    and U(1) components of K^dag dK.
    """
    chart = full_cartan_chart(frame)
    y = np.asarray(y, dtype=float)
    x0 = np.zeros(chart.dim_m)
    x0[: frame.dim_coset] = y
    g_full = ck_metric(chart, x0).g
    block = g_full[: frame.dim_coset, : frame.dim_coset]

    point = section(frame, y)
    correction = np.outer(point.u1_component, point.u1_component)
    if frame.dim_iso:
        correction = correction + point.iso_components.T @ point.iso_components
    predicted = point.fs_metric + correction
    return float(np.max(np.abs(block - predicted)))

"""Cartan split of su(n) adapted to a reference state, and ray-space geometry.

Fixing a unit vector psi_i in C^n, whose length alone fixes n, splits
the algebra into a U(1) direction (lambda0, the traceless projector
combination with a definite eigenvalue on psi_i), an su(n-1) isotropy
block acting on the orthogonal complement, and 2(n-1) coset directions
pairing psi_i with the complement.  The full Cartan chart U = K(y) H_s(xi_s) exp(i lambda0 xi0)
has the section of states psi(y) = U(y, 0, 0) psi_i = K(y) psi_i as its
slice.  `section(frame, y)` evaluates that slice once, at one point y or
a stack (N, 2(n-1)), from the coset factor alone: K(y) and dK/dy from one
`expm_partials` call, the one the full chart (`frame.chart`, built once
per frame) makes for that factor, and the first 2(n-1) frame columns
from K^dag dK.  Every ray-space check reads the `SectionPoint` it
returns: the Fubini-Study geometry and Berry connection, the phase/modulus
identities, the factorization of group amplitudes through the section
(K(y) times the chart's own isotropy and U(1) factors) and the
group-to-ray bridge.  The chart's partials and full frame at (y, 0, 0),
which only the bridge and the block decomposition read, are built on
first read from K and dK/dy by the chart's product rule, with no second
eigendecomposition.  The chart of psi_i is W U_e0(x) W^dag, W = [psi_i |
complement], so `_reference_pair` rotates pairs onto the chart U_e0 of e_0.
The inverse Fubini-Study metric is T T^T for T = tau^-1, the inverse of
the frame's 2(n-1)-square coset block tau, with no eigenvalue test: at
the slice the frame omega is block lower-triangular with an identity
isotropy/U(1) block, so det(omega) = det(tau) and the leading block of
omega^-1 is tau^-1, and the section inverts tau alone.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .algebra import (
    StatePair,
    _row_dot,
    _row_norm,
    build_gellmann_basis,
    dagger,
    expm_generator,
    expm_partials,
    generator_sum,
    unitarity_residual,
)
from .amplitude import (
    RelationResiduals,
    _frame_gradient,
    _modulus_sq,
    _polar,
    min_gradient_bound,
    min_gradient_bound_sq,
)
from .charts import (
    Chart,
    FrameAtPoint,
    ck_metric,
    cometric,
    frame_coefficients,
    frame_dual,
    left_invariant_frame,
    real_gram,
    vielbein_inverse,
)
from .errors import (
    DimensionError,
    DomainError,
    InternalConsistencyError,
    NearZeroAmplitudeError,
    ShapeError,
    SunPhaseError,
)
from .tolerances import (
    ATOL_CONSTRUCTION,
    ATOL_FD_MATCH,
    CHART_MARGIN,
    P_BRIDGE,
    P_GRAD,
)


def u1_eigenvalue(n: int) -> float:
    """Eigenvalue of the U(1) generator on the reference state: -sqrt(2(n-1)/n)."""
    return -min_gradient_bound(n)


@dataclass(frozen=True)
class CartanFrame:
    """Adapted orthonormal generator frame for a reference state.

    `coset` stacks the off-block generators X_1..X_{n-1}, Y_1..Y_{n-1};
    `iso` stacks the embedded su(n-1) block (empty for n = 2).  `n` is
    read off psi_i.
    """

    psi_i: np.ndarray
    lambda0: np.ndarray
    coset: np.ndarray
    iso: np.ndarray

    @property
    def n(self) -> int:
        return self.psi_i.shape[-1]

    @property
    def dim_coset(self) -> int:
        return 2 * (self.n - 1)

    @property
    def dim_iso(self) -> int:
        return (self.n - 1) ** 2 - 1

    def stacked(self) -> np.ndarray:
        """All generators in full-chart coordinate order: coset, iso, lambda0."""
        return np.concatenate([self.coset, self.iso, self.lambda0[None]])

    @cached_property
    def chart(self) -> Chart:
        """The full Cartan chart of this frame, built on first use and then
        shared by every section evaluated on the frame."""
        return full_cartan_chart(self)


def _complement_basis(psi_i: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of psi_i, by Gram-Schmidt over
    the standard basis in order (deterministic), one row per state of a
    stack (..., n).

    A stack of several states runs one Gram-Schmidt over all rows, each
    row projecting against the vectors it has kept so far; its rows equal
    the single-state loop bit for bit, and that loop, cheaper for one
    state, builds the basis of a single state."""
    n = psi_i.shape[-1]
    states = psi_i.reshape(-1, n)
    if len(states) == 1:
        bases = [_complement_basis_one(states[0])]
    else:
        bases = _complement_basis_rows(states)
    return np.reshape(bases, psi_i.shape[:-1] + (n - 1, n))


def _complement_basis_one(psi: np.ndarray) -> list[np.ndarray]:
    n = len(psi)
    kept: list[np.ndarray] = []
    for j in range(n):
        v = np.zeros(n, dtype=complex)
        v[j] = 1.0
        v = v - psi * (psi.conj() @ v)
        for u in kept:
            v = v - u * (u.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            kept.append(v / norm)
    if len(kept) != n - 1:
        raise InternalConsistencyError("complement basis construction failed")
    return kept


def _complement_basis_rows(states: np.ndarray) -> np.ndarray:
    """`_complement_basis_one` of every row of states (N, n) at once.  Row k
    keeps its vectors in slots 0 .. count[k] - 1: rows that dropped
    different standard basis vectors differ in count, and a slot that a
    row has not filled is a zero vector, whose projection subtracts exact
    zeros.  The dots and norms are per-row matmuls, the BLAS dots of the
    single-state loop."""
    rows, n = states.shape
    kept = np.zeros((rows, n, n), dtype=complex)
    count = np.zeros(rows, dtype=int)
    index = np.arange(rows)
    conj = states.conj()
    for j in range(n):
        v = np.zeros((rows, n), dtype=complex)
        v[:, j] = 1.0
        v = v - states * _row_dot(conj, v)[:, None]
        for slot in range(j):
            u = kept[:, slot]
            v = v - u * _row_dot(u.conj(), v)[:, None]
        norm = _row_norm(v)
        keep = norm > 1e-6
        kept[index[keep], count[keep]] = v[keep] / norm[keep, None]
        count += keep
    if (count != n - 1).any():
        raise InternalConsistencyError("complement basis construction failed")
    return kept[:, : n - 1]


def _adapted_basis(psi_i: np.ndarray) -> np.ndarray:
    """W = [psi_i | complement] for a state (n,) or each row of a stack
    (N, n): the frame of psi_i is W (frame of e_0) W^dag generator by
    generator.  InternalConsistencyError unless W is unitary to ATOL_CONSTRUCTION."""
    rows = np.concatenate([psi_i[..., None, :], _complement_basis(psi_i)], axis=-2)
    w = np.swapaxes(rows, -1, -2)
    if not unitarity_residual(w) < ATOL_CONSTRUCTION:
        raise InternalConsistencyError("[psi_i | complement] is not unitary")
    return w


def _reference_pair(pair: StatePair) -> StatePair:
    """(e_0, W^dag psi_f) for W = `_adapted_basis(psi_i)`, row by row for a
    stacked pair: <psi_f|W U_e0(x) W^dag|psi_i> = <W^dag psi_f|U_e0(x)|e_0>,
    with the same frame and metric at x."""
    w = _adapted_basis(pair.psi_i)
    e_0 = np.zeros_like(pair.psi_i)
    e_0[..., 0] = 1.0
    return StatePair(e_0, (dagger(w) @ pair.psi_f[..., :, None])[..., 0])


def build_cartan_frame(psi_i) -> CartanFrame:
    """Adapted generator frame splitting su(n) around the ray of psi_i.

    lambda0 = sqrt(2/(n(n-1))) (1 - n |psi><psi|), normalized to
    (1/2) Tr lambda0^2 = 1 with eigenvalue -sqrt(2(n-1)/n) on psi_i;
    coset generators |psi><k| + |k><psi| and -i|psi><k| + i|k><psi|;
    isotropy block the generalized Gell-Mann basis of the complement.
    All pairwise trace-orthogonality relations are verified on exit.
    psi_i is one state (n,): ShapeError for any other number of axes,
    DimensionError for n < 2, DomainError unless it has unit norm.
    """
    psi_i = np.asarray(psi_i, dtype=complex)
    if psi_i.ndim != 1:
        raise ShapeError(f"a reference state needs shape (n,), got {psi_i.shape}")
    n = len(psi_i)
    if n < 2:
        raise DimensionError(f"a reference state needs dimension >= 2, got {n}")
    if not abs(np.linalg.norm(psi_i) - 1.0) < ATOL_CONSTRUCTION:
        raise DomainError("reference state is not unit-norm")

    eye = np.eye(n, dtype=complex)
    projector = psi_i[:, None] * psi_i.conj()[None, :]
    lambda0 = np.sqrt(2.0 / (n * (n - 1))) * (eye - n * projector)

    complement = _complement_basis(psi_i)
    cross = psi_i[None, :, None] * complement.conj()[:, None, :]  # |psi><k| per k
    coset = np.concatenate([cross + dagger(cross), -1j * cross + 1j * dagger(cross)], axis=-3)

    if n == 2:
        iso = np.zeros((0, n, n), dtype=complex)
    else:
        w = complement.T[None, :, :]  # columns are the |k>
        iso = w @ build_gellmann_basis(n - 1) @ dagger(w)

    frame = CartanFrame(psi_i=psi_i, lambda0=lambda0, coset=coset, iso=iso)
    _validate_frame(frame)
    return frame


def _validate_frame(frame: CartanFrame) -> None:
    """Verify the generators of a frame."""
    n = frame.n
    if 1 + frame.dim_iso + frame.dim_coset != n * n - 1:
        raise InternalConsistencyError("generator count mismatch")
    stack = frame.stacked()
    if np.abs(stack - dagger(stack)).max() >= ATOL_CONSTRUCTION:
        raise InternalConsistencyError("frame generator not Hermitian")
    if np.abs(np.trace(stack, axis1=-2, axis2=-1)).max() >= ATOL_CONSTRUCTION:
        raise InternalConsistencyError("frame generator not traceless")
    flat = stack.reshape(stack.shape[:-2] + (n * n,))
    gram = (flat @ dagger(flat)).real / 2.0  # (1/2) Tr(g_a g_b^dag), g_b Hermitian
    if np.abs(gram - np.eye(n * n - 1)).max() >= ATOL_CONSTRUCTION:
        raise InternalConsistencyError("frame generators not trace-orthonormal")
    residual = (frame.lambda0 @ frame.psi_i[..., None])[..., 0] - u1_eigenvalue(n) * frame.psi_i
    if np.abs(residual).max() >= 1e-10:
        raise InternalConsistencyError("U(1) generator eigenvalue check failed")


def _coset_coordinates(frame: CartanFrame, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != frame.dim_coset:
        raise ShapeError(f"expected {frame.dim_coset} coset coordinates, got shape {y.shape}")
    if not (np.linalg.norm(y, axis=-1) < np.pi / 2).all():
        raise DomainError("coset coordinates outside the |y| < pi/2 ball")
    return y


def coset_element(frame: CartanFrame, y) -> np.ndarray:
    """Coset representative K(y) = exp(i y^A g_A) sweeping the section."""
    y = _coset_coordinates(frame, y)
    return expm_generator(generator_sum(y, frame.coset))


@dataclass(frozen=True)
class SectionPoint:
    """State, connection, and ray-space metric at section points y, one or
    stacked: the slice x = (y, 0, 0) of the full chart, where U(x) = K(y).

    `cartan` is the frame of the reference state, `chart` its full Cartan
    chart; `kmat` is K(y) and `dkmat` its partials dK/dy.  `tau`,
    `iso_components` and `u1_component` are the coset, isotropy and U(1)
    rows of the frame's first 2(n-1) columns (the components of
    K^dag dK).  `dpsi` stacks the partials d psi / d y^mu.  `fs_metric`
    is the vielbein construction tau^T tau; `fs_metric_state` the state
    formula Re<d psi|d psi> - A A, kept for cross-checking.  `berry` is
    the connection -i<psi|d psi>.  `du` and `frame`, the chart's partials
    and full frame at x, are built on first read (see `section`).
    """

    cartan: CartanFrame
    y: np.ndarray
    kmat: np.ndarray
    dkmat: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    tau: np.ndarray
    iso_components: np.ndarray
    u1_component: np.ndarray
    berry: np.ndarray
    fs_metric: np.ndarray
    fs_metric_inv: np.ndarray
    fs_metric_state: np.ndarray

    @property
    def chart(self) -> Chart:
        return self.cartan.chart

    @cached_property
    def du(self) -> np.ndarray:
        """The chart's partials at x = (y, 0, 0), by its product rule from
        K and dK/dy: dU/dxi_s = K i g_s and dU/dxi0 = K i lambda0."""
        x = _slice(self.cartan, self.y)
        m = self.y.shape[-1]
        return _product_rule(self.cartan, self.kmat, self.dkmat, x[..., m:-1], x[..., -1:])[1]

    @cached_property
    def frame(self) -> FrameAtPoint:
        """The chart's full frame at x = (y, 0, 0), with every guard of
        `left_invariant_frame`."""
        x = _slice(self.cartan, self.y)
        return left_invariant_frame(self.chart, x, self.kmat, self.du)

    def overlap(self, bra: np.ndarray):
        """<bra|psi(y)>: a scalar, or one value per row of a stack."""
        return (self.psi[..., None, :] @ bra.conj()[:, None])[..., 0, 0]

    def rows(self, index) -> "SectionPoint":
        """The points `index` of a stacked section; `du` and `frame` are
        built again for them on first read."""
        arrays = {f.name: getattr(self, f.name)[index] for f in fields(self) if f.name != "cartan"}
        return SectionPoint(cartan=self.cartan, **arrays)


def _slice(frame: CartanFrame, y: np.ndarray) -> np.ndarray:
    """Full-chart coordinates x = (y, 0, 0) of section points y."""
    return np.concatenate([y, np.zeros(y.shape[:-1] + (frame.dim_iso + 1,))], axis=-1)


def section(frame: CartanFrame, y) -> SectionPoint:
    """Section state psi(y) = K(y) psi_i with its ray-space geometry.

    Evaluates the coset factor only: K and dK/dy come from one
    `expm_partials` call, the one the full chart `frame.chart` makes for
    its coset factor, so K is the chart's U(y, 0, 0) bit for bit and is
    held to the chart's guards (domain, unitarity, det = 1).  K^dag dK is
    projected on all generators, with the guards of
    `charts.frame_coefficients`, for the frame's first 2(n-1) columns.
    The chart's partials and full frame at (y, 0, 0) are left to the
    point's `du` and `frame`, built on first read; only the bridge and the
    block decomposition read them.

    The two Fubini-Study constructions are cross-checked to ATOL_FD_MATCH
    and the Berry connection verified real to 1e-9.  tau is inverted by
    `charts.frame_dual` at y, behind its det guard and its check
    tau tau^-1 = 1, and `fs_metric_inv` is T T^T for T = tau^-1.  The det
    guard stands behind the positive definiteness of `fs_metric`, and
    DegenerateMetricError is raised unless fs_metric fs_metric_inv is the
    identity to ATOL_FRAME.  A stack raises the error of its first failing
    row.
    """
    y = _coset_coordinates(frame, y)
    m = frame.dim_coset
    try:
        kmat, dkmat = expm_partials(y, frame.coset)
        frame.chart._checked(kmat)
        columns = frame_coefficients(kmat, dkmat, frame.chart.algebra)
        tau = columns[..., :m, :]
        tau_inv = frame_dual(tau, y)
        psi = kmat @ frame.psi_i
        dpsi = dkmat @ frame.psi_i

        overlaps = (dpsi @ psi.conj()[..., :, None])[..., 0]  # <psi|d psi>
        # exactly imaginary; with exact partials the real part is rounding
        # only, far below the guard
        if not np.abs(overlaps.real).max(initial=0.0) < 1e-9:
            raise InternalConsistencyError("Berry connection has an imaginary part")
        berry = overlaps.imag  # components of -i<psi|d psi>

        fs_metric = np.swapaxes(tau, -1, -2) @ tau
        grams = real_gram(dpsi)  # Re<d psi|d psi>
        fs_metric_state = grams - berry[..., :, None] * berry[..., None, :]
        if not np.abs(fs_metric - fs_metric_state).max(initial=0.0) < ATOL_FD_MATCH:
            raise InternalConsistencyError(
                "Fubini-Study constructions disagree beyond tolerance"
            )
        fs_inv = vielbein_inverse(fs_metric, tau_inv, "y", y)
    except SunPhaseError:
        for row in y if y.ndim == 2 else ():
            section(frame, row)  # raises the error of the first failing row
        raise

    return SectionPoint(
        cartan=frame,
        y=y,
        kmat=kmat,
        dkmat=dkmat,
        psi=psi,
        dpsi=dpsi,
        tau=tau,
        iso_components=columns[..., m:-1, :],
        u1_component=columns[..., -1, :],
        berry=berry,
        fs_metric=fs_metric,
        fs_metric_inv=fs_inv,
        fs_metric_state=fs_metric_state,
    )


def u1_berry_residuals(point: SectionPoint) -> tuple[float, float]:
    """Componentwise residuals of the two sign conventions relating the
    U(1) frame component to the Berry connection.

    Returns (max|u1 - c A|, max|u1 + c A|) per point, c = sqrt(n/(2(n-1))).
    Exactly one of the two vanishes: with the negative-eigenvalue
    normalization of lambda0 fixed here, it is the second.
    """
    n = point.chart.n
    c = np.sqrt(n / (2.0 * (n - 1)))
    minus = np.max(np.abs(point.u1_component - c * point.berry), axis=-1)
    plus = np.max(np.abs(point.u1_component + c * point.berry), axis=-1)
    return minus, plus


def _nonzero_rows(coords: np.ndarray, value: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """`value` at the rows of `coords` with a nonzero entry, exactly `zero` elsewhere."""
    return np.where(coords.any(axis=-1)[..., None, None], value, zero)


def _times_fiber(frame: CartanFrame, u: np.ndarray, xs: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """u H_s(xs) exp(i lambda0 x0): the isotropy and U(1) factors of the full
    chart applied to u, each left out where its coordinates are all zero."""
    if frame.dim_iso and xs.any():
        s = expm_generator(generator_sum(xs, frame.iso))
        u = _nonzero_rows(xs, u @ s, u)
    if x0.any():
        u = _nonzero_rows(x0, u @ expm_generator(frame.lambda0, x0[..., 0]), u)
    return u


def _product_rule(
    frame: CartanFrame, k: np.ndarray, du_y: np.ndarray, xs: np.ndarray, x0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """U = K S E and its partials over (y, xs, x0), from K and dK/dy by the
    product rule; S and E are left out where they are exactly 1 in every
    row, as on the section slice."""
    iso_g, lam0, eye = frame.iso, frame.lambda0, np.eye(frame.n, dtype=complex)
    u, ds = k, 1j * iso_g
    if frame.dim_iso and xs.any():
        s_x, ds_x = expm_partials(xs, iso_g)
        u = _nonzero_rows(xs, k @ s_x, k)
        du_y = du_y @ _nonzero_rows(xs, s_x, eye)[..., None, :, :]
        ds = _nonzero_rows(xs[..., None, :], ds_x, ds)
    du_s, du_0 = k[..., None, :, :] @ ds, u @ (1j * lam0)
    if x0.any():
        e_x = expm_generator(lam0, x0[..., 0])
        e = _nonzero_rows(x0, e_x, eye)
        u = _nonzero_rows(x0, u @ e_x, u)
        du_y, du_s, du_0 = du_y @ e[..., None, :, :], du_s @ e[..., None, :, :], du_0 @ e
    return u, np.concatenate([du_y, du_s, du_0[..., None, :, :]], axis=-3)


def full_cartan_chart(frame: CartanFrame) -> Chart:
    """Chart splitting the group into coset, isotropy, and U(1) factors.

    Coordinates (y, xi_s, xi0) map to K(y) H_s(xi_s) exp(i lambda0 xi0);
    the attached generator stack follows the same order, so frame index
    dim-1 is the U(1) direction.  Exact partials: the product rule over
    the three factors, each differentiated by `algebra.expm_partials`,
    whose U is the map's bit for bit.  A factor with all-zero coordinates
    is exactly 1 in every row of a stack, and is then left out of the
    products.  The sample box and the domain depend only on n.
    """
    m_coset, m_iso = frame.dim_coset, frame.dim_iso
    m = m_coset + m_iso + 1

    def _split(x: np.ndarray):
        return x[..., :m_coset], x[..., m_coset:m_coset + m_iso], x[..., -1:]

    def _map(x: np.ndarray) -> np.ndarray:
        y, xs, x0 = _split(x)
        return _times_fiber(frame, expm_generator(generator_sum(y, frame.coset)), xs, x0)

    def _map_partials(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y, xs, x0 = _split(x)
        return _product_rule(frame, *expm_partials(y, frame.coset), xs, x0)

    def _contains(x: np.ndarray) -> np.ndarray:
        y, xs, x0 = x[..., :m_coset], x[..., m_coset:m_coset + m_iso], x[..., -1]
        y_norm, xs_norm = np.linalg.norm(y, axis=-1), np.linalg.norm(xs, axis=-1)
        return (y_norm < np.pi / 2) & (xs_norm < np.pi / 2) & (np.abs(x0) < np.pi)

    box = np.empty((m, 2))
    y_half = (np.pi / 2) * (1 - CHART_MARGIN) / np.sqrt(m_coset)
    box[:m_coset] = [-y_half, y_half]
    if m_iso:
        s_half = (np.pi / 2) * (1 - CHART_MARGIN) / np.sqrt(m_iso)
        box[m_coset:m_coset + m_iso] = [-s_half, s_half]
    box[-1] = [-np.pi * (1 - CHART_MARGIN), np.pi * (1 - CHART_MARGIN)]

    return Chart(
        label="cartan",
        algebra=frame.stacked(),
        sample_box=box,
        map_fn=_map,
        contains_fn=_contains,
        map_partials_fn=_map_partials,
    )


def _section_amplitude(pair: StatePair, point: SectionPoint):
    """p and the y-derivatives of eta, log sqrt p and p on the section.

    The components of d log(amp) = <f|d psi> / <f|psi> are
    d log sqrt p + i d eta, so neither the phase nor the modulus is
    differentiated directly.
    """
    amp0 = point.overlap(pair.psi_f)
    p0 = _modulus_sq(amp0)
    if np.min(p0, initial=np.inf) < P_GRAD:
        y = np.reshape(point.y, (-1, point.y.shape[-1]))[np.argmin(p0)]
        raise NearZeroAmplitudeError(f"section p = {np.min(p0):.3e} too small at y = {y}")
    d_log_amp = (point.dpsi @ pair.psi_f.conj()) / amp0[..., None]
    d_log = d_log_amp.real
    return p0, d_log_amp.imag, d_log, 2.0 * p0[..., None] * d_log


def ray_relation_residuals(pair: StatePair, point: SectionPoint) -> RelationResiduals:
    """Residuals of the ray-space phase/modulus identities at the section
    points `point = section(frame, y)`.

    On the section psi(y), with the inverse of the Fubini-Study metric at
    unit scale (q = 1) and the Berry connection A:

        |grad eta - A|^2       = 1/p - 1
        |grad log sqrt p|^2     = 1/p - 1
        grad p . (grad eta - A) = 0

    Derivatives are exact (see `section`), so the residuals carry
    rounding error only, which grows like 1/p toward amplitude zeros.
    """
    p0, d_eta, d_log, d_p = _section_amplitude(pair, point)
    gauged = d_eta - point.berry
    g_inv = point.fs_metric_inv
    return RelationResiduals(
        phase=np.abs(cometric(gauged, g_inv, gauged) - (1.0 / p0 - 1.0)),
        modulus=np.abs(cometric(d_log, g_inv, d_log) - (1.0 / p0 - 1.0)),
        cross=np.abs(cometric(d_p, g_inv, gauged)),
    )


def factorization_residual(pair: StatePair, point: SectionPoint, xi_s, xi0) -> float:
    """Residual of the exact amplitude factorization through the section.

    <psi_f| K(y) H_s(xi_s) exp(i lambda0 xi0) |psi_i>
        = exp(i eigenvalue(lambda0 on psi_i) xi0) <psi_f|psi(y)>

    at `point = section(frame, y)`, one row of xi_s and xi0 per point.  It
    holds because the isotropy factor fixes psi_i and psi_i is a lambda0
    eigenvector; the residual is matrix-exponential rounding only (< 1e-9
    everywhere).  The left side is the map of the point's chart at
    (y, xi_s, xi0), unchecked against its domain (the identity holds for
    every xi_s): the point's K(y) times the isotropy and U(1) factors,
    formed as the chart's map forms them, so bit for bit its value.  The
    right side reads K(y) = U(y, 0, 0) from the point.
    """
    y, frame = point.y, point.cartan
    xi_s, xi0 = np.asarray(xi_s, dtype=float), np.asarray(xi0, dtype=float)
    if xi_s.shape != y.shape[:-1] + (frame.dim_iso,) or xi0.shape != y.shape[:-1]:
        raise ShapeError(f"expected {frame.dim_iso} isotropy and 1 U(1) coordinates per point")
    u = _times_fiber(frame, point.kmat, xi_s, xi0[..., None])
    amps = (pair.psi_f.conj() @ np.stack([u, point.kmat]))[..., None, :] @ pair.psi_i[:, None]
    lhs, rhs = amps[..., 0, 0]
    phase = np.exp(1j * u1_eigenvalue(frame.n) * xi0)
    # the product phase * rhs spelled out, so that every row rounds as one point does
    re = lhs.real - (phase.real * rhs.real - phase.imag * rhs.imag)
    im = lhs.imag - (phase.real * rhs.imag + phase.imag * rhs.real)
    return np.hypot(re, im)[()]  # as Python's complex abs


@dataclass(frozen=True)
class BridgeResult:
    """Residuals tying the group-manifold metric to ray-space geometry.

    The group side is the frame route of `amplitude.phase_gradient` on the
    full chart at the section slice, from the section's partials and
    frame; the ray side uses the section machinery, with the
    gauged phase differential taken in its frame form
    d eta + sqrt(2(n-1)/n) u1.  `alt_residual_phase` evaluates the first
    identity with the Berry connection added instead of subtracted, for
    sign-convention reporting; `grad0_phase` is the frame component of
    d eta along the U(1) direction and `u1_frame_component` the extracted
    coefficient of the U(1) form along its own coordinate (identically 1).
    """

    residual_phase: float
    residual_mixed: float
    residual_modulus: float
    grad0_phase: float
    u1_frame_component: float
    alt_residual_phase: float


def bridge_residuals(pair: StatePair, point: SectionPoint) -> BridgeResult:
    """Check that group gradients split into ray-space gradients plus the
    U(1) contribution, at the section points `point = section(frame, y)`.

        g^-1(d eta, d eta) = g_FS^-1(D eta, D eta) + 2(n-1)/n
        g^-1(d eta, d p)   = g_FS^-1(D eta, d p)
        g^-1(d p,  d p)    = g_FS^-1(d p,  d p)

    with D eta = d eta + sqrt(2(n-1)/n) u1 (equal to d eta - A).  Both
    sides use exact derivatives of the point's full chart at x = (y, 0, 0):
    its frame route on the group side, from the section's partials and
    frame, and the section's geometry on the ray side; gated by the
    bridge checks of `CHECK_GATES["verify-ray"]`.
    NearZeroAmplitudeError below p = P_BRIDGE.  A stack raises the error of
    its first failing row.
    """
    p0, d_eta_y, _, d_p_y = _section_amplitude(pair, point)
    if np.min(p0, initial=np.inf) < P_BRIDGE:
        raise NearZeroAmplitudeError(f"amplitude p = {np.min(p0):.3e} too small")
    u = point.kmat
    try:
        group = _frame_gradient(pair, point.chart, u, point.du, _polar(pair, u), point.frame)
    except SunPhaseError:
        for k in range(len(u) if u.ndim == 3 else 0):
            bridge_residuals(pair, point.rows(k))  # the first failing row's error
        raise

    n = point.chart.n
    gauged = d_eta_y + min_gradient_bound(n) * point.u1_component
    gauged_alt = d_eta_y + point.berry
    fs_inv = point.fs_metric_inv
    rhs_phase = cometric(gauged, fs_inv, gauged) + min_gradient_bound_sq(n)
    alt_phase = cometric(gauged_alt, fs_inv, gauged_alt) + min_gradient_bound_sq(n)

    return BridgeResult(
        residual_phase=np.abs(group.phase_grad_sq - rhs_phase),
        residual_mixed=np.abs(group.cross - cometric(gauged, fs_inv, d_p_y)),
        residual_modulus=np.abs(
            4.0 * group.p**2 * group.log_modulus_grad_sq - cometric(d_p_y, fs_inv, d_p_y)
        ),
        grad0_phase=np.sum(group.d_phase * point.frame.dual[..., :, -1], axis=-1),
        u1_frame_component=point.frame.omega[..., -1, -1],
        alt_residual_phase=np.abs(group.phase_grad_sq - alt_phase),
    )


def ck_block_decomposition_residual(point: SectionPoint):
    """Residual of the coset block identity g_CK = g_FS + sum_i a^i a^i at
    the section points `point = section(frame, y)`, one value per point.

    The coset-coordinate block of the group metric at the section slice
    equals the Fubini-Study metric plus the contraction of the isotropy
    and U(1) components of K^dag dK.
    """
    m = point.y.shape[-1]
    block = ck_metric(point.frame, point.du).g[..., :m, :m]
    iso, u1 = point.iso_components, point.u1_component
    predicted = point.fs_metric + (
        u1[..., :, None] * u1[..., None, :] + np.swapaxes(iso, -1, -2) @ iso
    )
    return np.max(np.abs(block - predicted), axis=(-2, -1))[()]

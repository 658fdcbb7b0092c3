"""Differentiable coordinate charts on the SU(n) group manifold.

A chart maps real coordinates x to a special unitary matrix U(x).  From
the partial derivatives of the map we extract the left-invariant frame
(the coefficient forms of U^dag dU over the chart's generator stack
(m, n, n), which alone fixes n and the m coordinates) and the
bi-invariant metric g_uv = (1/2) Tr(dU dU^dag), for which the frame acts
as a vielbein.

Each function takes one point x (m,) or a stack of points (N, m); every
guard is evaluated on each row, and a stack fails when any row fails.
`partials(chart, x)` gives U and its exact partials from one chart
call, `Chart.evaluate(x, with_partials=True)` (one eigendecomposition
per factor on the exponential charts);
`Chart.evaluate(x)` gives U alone; `fd_partials(chart, x)` gives the pair
by central differences, as an independent cross-check.  The frame and
metric contractions are matrix products batched over points only, so
each row of a stack rounds as that point alone does.

`frame_coefficients` projects U^dag dU on the generators for any set of
partials, with the four frame guards, and `frame_dual` inverts a square
frame behind the det(omega) guard; `left_invariant_frame(chart, x, u,
du)` is the two over all coordinates, and the coset section uses them
for its coset columns and their square block tau; `ck_metric(frame, du)`
contracts that frame into the metric.  Both take the U and dU their
caller holds, so neither evaluates the chart.  The frame's inverse
dual = omega^-1 is the one matrix inversion per point; the inverse
metric is dual dual^T (`vielbein_inverse`).  No eigenvalue test runs:
g = omega^T omega is positive definite wherever the det(omega) guard
passes, and a frame too close to singular for rounding fails that guard
or the checks omega dual = 1 and g g^-1 = 1.
Every guard on a chart's value, frame and metric is written
`not residual < tol`, so that a NaN trips it.  The value guards read
`algebra.unitarity_residual` (one NaN-propagating maximum over the
stack) and then `algebra.det`, and the det(omega) guard reads
`algebra.det`: closed forms for 2 x 2 stacks, which hold the values of
the SU(2) charts to the same gates without one LAPACK or BLAS call per
matrix.  The SU(2) polar chart writes n.sigma and its partials entry by
entry, each part rounded as the contraction over the Pauli stack rounds
it, so its U and dU carry that contraction's bits without an einsum.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .algebra import (
    build_gellmann_basis,
    dagger,
    det,
    expm_generator,
    expm_partials,
    generator_sum,
    unitarity_residual,
)
from .errors import (
    ChartDegenerateError,
    DegenerateMetricError,
    DomainError,
    InternalConsistencyError,
    ShapeError,
)
from .tolerances import ATOL_FRAME, ATOL_IDENTITY, CHART_MARGIN, FD_STEP

BLOCK_ENTRIES = 2**16  # matrix entries of dU (rows x m x n x n) per evaluated block


@dataclass(frozen=True)
class Chart:
    """A coordinate patch x -> U(x) with an attached generator stack.

    `algebra` stacks the generators (dim_m, n, n) used to expand U^dag dU;
    its order fixes the frame index, and its shape fixes the matrix size
    `n` and the number of coordinates `dim_m`, which are read off it.
    `sample_box` is a conservative per-coordinate box inside the domain,
    used by sweep drivers; `contains` describes the true (possibly
    non-box) domain.  The functions take coordinates of shape
    (..., dim_m); `map_fn` gives U(x) and `map_partials_fn` gives U(x)
    together with the exact partials dU/dx_mu, stacked with shape
    (..., dim_m, n, n), from one shared evaluation.
    """

    label: str
    algebra: np.ndarray
    sample_box: np.ndarray
    map_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    contains_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    map_partials_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = field(repr=False)

    @property
    def n(self) -> int:
        return self.algebra.shape[-1]

    @property
    def dim_m(self) -> int:
        return len(self.algebra)

    def block_rows(self) -> int:
        """Points per stacked evaluation: about BLOCK_ENTRIES entries of dU."""
        return max(1, BLOCK_ENTRIES // (self.dim_m * self.n * self.n))

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return x.ndim in (1, 2) and x.shape[-1] == self.dim_m and self.contains_fn(x)

    def evaluate(self, x, with_partials: bool = False):
        """U(x); raises DomainError outside the chart domain.  With
        `with_partials`, the pair (U, dU) of U and its exact partials
        dU/dx_mu (..., dim_m, n, n), from one evaluation and one pass of the
        guards."""
        x = self._coordinates(x)
        if not with_partials:
            return self._checked(self.map_fn(x))
        u, du = self.map_partials_fn(x)
        return self._checked(u), du

    def _coordinates(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim_m:
            raise ShapeError(
                f"chart '{self.label}' expects {self.dim_m} coordinates, got {x.shape}"
            )
        if not self.contains_fn(x).all():
            raise DomainError(f"coordinates outside domain of chart '{self.label}'")
        return x

    def _checked(self, u: np.ndarray) -> np.ndarray:
        if not unitarity_residual(u) < ATOL_IDENTITY:
            raise InternalConsistencyError("chart produced a non-unitary matrix")
        if not (np.abs(det(u) - 1.0) < ATOL_IDENTITY).all():
            raise InternalConsistencyError("chart produced det != 1")
        return u


@dataclass(frozen=True)
class FrameAtPoint:
    """Left-invariant frame coefficients omega[..., a, mu] and their inverse."""

    x: np.ndarray
    omega: np.ndarray
    dual: np.ndarray


@dataclass(frozen=True)
class MetricAtPoint:
    """Metric g[..., mu, nu] (vielbein contraction) and its inverse."""

    g: np.ndarray
    g_inv: np.ndarray


def exp_chart(basis: np.ndarray) -> Chart:
    """Exponential chart U(x) = exp(i x^a g_a) on the ball |x| < pi/2, over
    a generator stack basis (m, n, n) such as `build_gellmann_basis(n)`.

    The conservative radius keeps the frame far from degeneracy for
    every n.  The exact Daleckii-Krein derivative of exp(iH) is attached
    (`algebra.expm_partials`).
    """
    m = len(basis)
    radius = np.pi / 2
    box_half = radius * (1.0 - CHART_MARGIN) / np.sqrt(m)

    def _map(x: np.ndarray) -> np.ndarray:
        return expm_generator(generator_sum(x, basis))

    def _map_partials(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return expm_partials(x, basis)

    def _contains(x: np.ndarray) -> np.ndarray:
        return np.linalg.norm(x, axis=-1) < radius

    return Chart(
        label="exp",
        algebra=basis,
        sample_box=np.array([[-box_half, box_half]] * m),
        map_fn=_map,
        contains_fn=_contains,
        map_partials_fn=_map_partials,
    )


def su2_polar_chart() -> Chart:
    """Polar chart on SU(2): U = cos(chi) 1 + i sin(chi) sigma.nhat(theta, phi).

    Coordinates (chi, theta, phi) with chi, theta in (margin, pi - margin)
    and phi periodic (finite).  The polar axes theta in {0, pi} (and chi in
    {0, pi}) are metric-degenerate and excluded.  Closed-form partial
    derivatives are attached.  n.sigma and its theta and phi partials are
    written entry by entry, [[n_z, n_x - i n_y], [n_x + i n_y, -n_z]], with
    every part rounded as the contraction over the Pauli stack rounds it:
    a sum from +0, so that a -0 part reads +0.
    """
    sigma = build_gellmann_basis(2)
    eye = np.eye(2, dtype=complex)
    margin = CHART_MARGIN

    def _n_sigma(nx, ny, nz) -> np.ndarray:
        """n.sigma of the components n_x, n_y, n_z (...), shape (..., 2, 2)."""
        parts = np.zeros(np.shape(nx) + (2, 2, 2))  # (..., row, column, re/im)
        parts[..., 0, 0, 0] = nz
        parts[..., 0, 1, 0] = nx
        parts[..., 0, 1, 1] = -ny
        parts[..., 1, 0, 0] = nx
        parts[..., 1, 0, 1] = ny
        parts[..., 1, 1, 0] = -nz
        parts += 0.0  # -0 -> +0, as in a sum that starts from +0
        return parts.view(complex)[..., 0]

    def _value(x: np.ndarray):
        """U(x), with n.sigma and the sines and cosines the partials share."""
        chi, theta, phi = x.T
        chi = chi[..., None, None]  # scales each 2 x 2 matrix
        trig = np.cos(chi), np.sin(chi), np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
        cos_chi, sin_chi, cos_t, sin_t, cos_p, sin_p = trig
        n_sigma = _n_sigma(sin_t * cos_p, sin_t * sin_p, cos_t)
        return cos_chi * eye + 1j * sin_chi * n_sigma, n_sigma, trig

    def _map(x: np.ndarray) -> np.ndarray:
        return _value(x)[0]

    def _map_partials(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u, n_sigma, (cos_chi, sin_chi, cos_t, sin_t, cos_p, sin_p) = _value(x)
        d_chi = -sin_chi * eye + 1j * cos_chi * n_sigma
        d_theta = 1j * sin_chi * _n_sigma(cos_t * cos_p, cos_t * sin_p, -sin_t)
        d_phi = 1j * sin_chi * _n_sigma(-sin_t * sin_p, sin_t * cos_p, 0.0)
        return u, np.stack([d_chi, d_theta, d_phi], axis=-3)

    def _contains(x: np.ndarray) -> np.ndarray:
        chi, theta, phi = x[..., 0], x[..., 1], x[..., 2]
        return (margin < chi) & (chi < np.pi - margin) & (margin < theta) & (
            theta < np.pi - margin
        ) & np.isfinite(phi)

    return Chart(
        label="su2-polar",
        algebra=sigma,
        sample_box=np.array(
            [[margin, np.pi - margin], [margin, np.pi - margin], [0.0, 2 * np.pi]]
        ),
        map_fn=_map,
        contains_fn=_contains,
        map_partials_fn=_map_partials,
    )


def left_translate(chart: Chart, v: np.ndarray) -> Chart:
    """Chart x -> v U(x) for fixed v in SU(n).

    The frame and metric are built from U^dag dU, so they are unchanged;
    this exists to verify that invariance.  v is one (n, n) matrix for the
    chart's n: ShapeError for any other shape.
    """
    v = np.asarray(v)
    if v.shape != (chart.n, chart.n):
        raise ShapeError(
            f"left-translation element must have shape {(chart.n,) * 2}, got {v.shape}"
        )
    if not unitarity_residual(v) < ATOL_IDENTITY:
        raise DomainError("left-translation element is not unitary")
    if not abs(det(v) - 1.0) < ATOL_IDENTITY:
        raise DomainError("left-translation element has det != 1")

    old_map, old_map_partials = chart.map_fn, chart.map_partials_fn

    def _map_partials(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u, du = old_map_partials(x)
        both = v @ np.concatenate([u[..., None, :, :], du], axis=-3)  # one product
        return both[..., 0, :, :], both[..., 1:, :, :]

    return replace(
        chart,
        label=chart.label + "+left",
        map_fn=lambda x: v @ old_map(x),
        map_partials_fn=_map_partials,
    )


def partials(chart: Chart, x) -> tuple[np.ndarray, np.ndarray]:
    """The pair (U, dU) of U(x) and its exact partial derivatives dU/dx_mu,
    stacked with shape (..., dim_m, n, n), from one chart call."""
    return chart.evaluate(x, with_partials=True)


def fd_partials(chart: Chart, x) -> tuple[np.ndarray, np.ndarray]:
    """`partials` by central differences of `Chart.evaluate` with step
    `FD_STEP`: the independent cross-check of the exact partials."""
    x = np.asarray(x, dtype=float)
    steps = FD_STEP * np.eye(chart.dim_m)
    plus, minus = ((x[..., None, :] + h).reshape(-1, chart.dim_m) for h in (steps, -steps))
    du = (chart.evaluate(plus) - chart.evaluate(minus)) / (2 * FD_STEP)
    return chart.evaluate(x), du.reshape(x.shape[:-1] + (chart.dim_m, chart.n, chart.n))


def left_invariant_frame(chart: Chart, x, u: np.ndarray, du: np.ndarray) -> FrameAtPoint:
    """Extract omega[a, mu] from U^dag dU = i omega^a g_a at x, given the
    value u and the partials du of the chart there, and invert it.  Runs
    the guards of `frame_coefficients` over the chart's generator stack and
    those of `frame_dual`; a singular omega raises ChartDegenerateError.
    """
    x = np.asarray(x, dtype=float)
    omega = frame_coefficients(u, du, chart.algebra)
    return FrameAtPoint(x=x, omega=omega, dual=frame_dual(omega, x))


def frame_coefficients(u: np.ndarray, du: np.ndarray, algebra: np.ndarray) -> np.ndarray:
    """omega[..., a, mu] with U^dag dU_mu = i omega^a g_a, for partials du
    (..., k, n, n) along any k coordinates and generators algebra
    (m, n, n); omega has shape (..., m, k).

    Verifies that U^dag dU is anti-Hermitian and traceless, that the
    extracted coefficients are real, and that they reconstruct U^dag dU
    over the generators.
    """
    n, k = u.shape[-1], du.shape[-3]
    lead = du.shape[:-3]
    # U^dag dU as one (n, n) @ (n, k n) product per point: pulled[..., i, mu, j]
    pulled = dagger(u) @ np.swapaxes(du, -3, -2).reshape(lead + (n, k * n))
    pulled = pulled.reshape(lead + (n, k, n))
    per_coord = np.swapaxes(pulled, -3, -2)  # U^dag dU_mu, (..., k, n, n)

    anti_herm = np.abs(per_coord + dagger(per_coord)).max(initial=0.0)
    traces = np.abs(np.trace(per_coord, axis1=-2, axis2=-1)).max(initial=0.0)
    if not (anti_herm < ATOL_FRAME and traces < ATOL_FRAME):
        raise InternalConsistencyError(
            f"U^dag dU not in the algebra (anti-Hermitian residue {anti_herm:.2e}, "
            f"trace residue {traces:.2e})"
        )

    # Tr(g_a P_mu) = sum_ij conj(g_a[i, j]) P_mu[i, j] for Hermitian g_a: the
    # conjugated (m, n^2) generator matrix times the entries of P_mu in row order
    gens = generator_matrix(algebra)
    omega_c = gens.conj() @ np.swapaxes(pulled, -1, -2).reshape(lead + (n * n, k)) / 2j
    imag_residue = np.abs(omega_c.imag).max(initial=0.0)
    if not imag_residue < ATOL_FRAME:
        raise InternalConsistencyError(
            f"frame coefficients not real (residue {imag_residue:.2e})"
        )
    omega = omega_c.real

    # i omega^a g_a per coordinate, from one real product with the generator matrix
    rebuilt = 1j * (np.swapaxes(omega, -1, -2) @ gens.view(float)).view(complex)
    if not np.abs(per_coord - rebuilt.reshape(lead + (k, n, n))).max(initial=0.0) < ATOL_FRAME:
        raise InternalConsistencyError("frame does not reconstruct U^dag dU")
    return omega


def frame_dual(omega: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The inverse dual = omega^-1 of square frame coefficients at points x,
    a chart's full frame or a section's coset block tau at y:
    ChartDegenerateError where |det(omega)| < 1e-10, InternalConsistencyError
    unless omega dual is the identity to ATOL_FRAME."""
    if not np.abs(det(omega)).min(initial=np.inf) >= 1e-10:
        raise ChartDegenerateError(f"frame singular at x = {x}")
    dual = np.linalg.inv(omega)
    if not np.abs(omega @ dual - np.eye(omega.shape[-1])).max(initial=0.0) < ATOL_FRAME:
        raise InternalConsistencyError("frame inversion failed")
    return dual


def ck_metric(frame: FrameAtPoint, du: np.ndarray) -> MetricAtPoint:
    """Bi-invariant metric at frame.x, as the frame contraction omega^T
    omega, and its inverse dual dual^T from the frame's inverse dual; du
    are the partials the frame was built from.

    Cross-checked entrywise against the defining trace form
    (1/2) Tr(dU_mu dU_nu^dag); disagreement beyond tolerance indicates a
    broken frame.  g is positive definite behind the frame's det(omega)
    guard; DegenerateMetricError when g g^-1 is not the identity to
    ATOL_FRAME (see `vielbein_inverse`).
    """
    g = np.swapaxes(frame.omega, -1, -2) @ frame.omega
    g_trace = 0.5 * real_gram(du.reshape(du.shape[:-2] + (du.shape[-1] ** 2,)))
    if not np.abs(g - g_trace).max(initial=0.0) < ATOL_FRAME:
        raise InternalConsistencyError(
            "vielbein metric disagrees with the trace form"
        )
    return MetricAtPoint(g=g, g_inv=vielbein_inverse(g, frame.dual, "x", frame.x))


def generator_matrix(algebra: np.ndarray) -> np.ndarray:
    """Generators (m, n, n) as the rows of an (m, n^2) matrix."""
    return np.ascontiguousarray(algebra).reshape(len(algebra), algebra.shape[-1] ** 2)


def real_gram(a: np.ndarray) -> np.ndarray:
    """Re(a a^dag) of complex matrices a (..., r, c), as one real (r, 2c)
    product with its transpose per matrix."""
    f = np.ascontiguousarray(a).view(float)
    return f @ np.swapaxes(f, -1, -2)


def vielbein_inverse(g: np.ndarray, dual: np.ndarray, name: str, at: np.ndarray) -> np.ndarray:
    """Inverse dual dual^T of a metric g = omega^T omega (or of a stack of
    them) at `name = at`, from the inverse vielbein dual = omega^-1.

    g is positive definite wherever omega is invertible, which the frame's
    det(omega) guard ensures; DegenerateMetricError unless the product
    g g^-1 is the identity to ATOL_FRAME (an ill-conditioned metric).
    """
    g_inv = dual @ np.swapaxes(dual, -1, -2)
    if not np.abs(g @ g_inv - np.eye(g.shape[-1])).max(initial=0.0) < ATOL_FRAME:
        raise DegenerateMetricError(f"metric inversion ill-conditioned at {name} = {at}")
    return g_inv


def cometric(a: np.ndarray, g_inv: np.ndarray, b: np.ndarray):
    """g^-1(a, b) of two covectors a[..., mu], b[..., mu]: a scalar, or one
    value per row of a stack."""
    return (a[..., None, :] @ g_inv @ b[..., :, None])[..., 0, 0][()]

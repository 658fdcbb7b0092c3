"""Differentiable coordinate charts on the SU(n) group manifold.

A chart maps real coordinates x to a special unitary matrix U(x).  From
the partial derivatives of the map we extract the left-invariant frame
(the coefficient forms of U^dag dU over a generator basis) and the
bi-invariant metric g_uv = (1/2) Tr(dU dU^dag), for which the frame acts
as a vielbein.

Each function takes one point x (m,) or a stack of points (N, m); every
guard is evaluated on each row, and a stack fails when any row fails.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import (
    GeneratorBasis,
    build_gellmann_basis,
    dagger,
    expm_generator,
    expm_partials,
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
    """A coordinate patch x -> U(x) with an attached generator basis.

    `algebra` stacks the generators used to expand U^dag dU; its order
    fixes the frame index.  `sample_box` is a conservative per-coordinate
    box inside the domain, used by sweep drivers; `contains` describes
    the true (possibly non-box) domain.  The functions take coordinates of
    shape (..., dim_m); `partials_fn` gives the exact partials dU/dx_mu,
    stacked with shape (..., dim_m, n, n).
    """

    label: str
    n: int
    dim_m: int
    algebra: np.ndarray
    sample_box: np.ndarray
    map_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    contains_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    partials_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def block_rows(self) -> int:
        """Points per stacked evaluation: about BLOCK_ENTRIES entries of dU."""
        return max(1, BLOCK_ENTRIES // (self.dim_m * self.n * self.n))

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return x.ndim in (1, 2) and x.shape[-1] == self.dim_m and self.contains_fn(x)

    def evaluate(self, x) -> np.ndarray:
        """U(x); raises DomainError outside the chart domain."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim_m:
            raise ShapeError(
                f"chart '{self.label}' expects {self.dim_m} coordinates, got {x.shape}"
            )
        if not self.contains_fn(x).all():
            raise DomainError(f"coordinates outside domain of chart '{self.label}'")
        u = self.map_fn(x)
        if np.abs(dagger(u) @ u - np.eye(self.n)).max() >= ATOL_IDENTITY:
            raise InternalConsistencyError("chart produced a non-unitary matrix")
        if (np.abs(np.linalg.det(u) - 1.0) >= ATOL_IDENTITY).any():
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


def exp_chart(basis: GeneratorBasis) -> Chart:
    """Exponential chart U(x) = exp(i x^a g_a) on the ball |x| < pi/2.

    The conservative radius keeps the frame far from degeneracy for
    every n.  The exact Daleckii-Krein derivative of exp(iH) is attached
    (`algebra.expm_partials`).
    """
    m = basis.dim_algebra
    radius = np.pi / 2
    box_half = radius * (1.0 - CHART_MARGIN) / np.sqrt(m)
    stacked = basis.matrices

    def _map(x: np.ndarray) -> np.ndarray:
        return expm_generator(np.einsum("...a,aij->...ij", x, stacked))

    def _partials(x: np.ndarray) -> np.ndarray:
        return expm_partials(x, stacked)[1]

    def _contains(x: np.ndarray) -> np.ndarray:
        return np.linalg.norm(x, axis=-1) < radius

    return Chart(
        label="exp",
        n=basis.n,
        dim_m=m,
        algebra=stacked,
        sample_box=np.array([[-box_half, box_half]] * m),
        map_fn=_map,
        contains_fn=_contains,
        partials_fn=_partials,
    )


def _unit_vector(theta, phi) -> np.ndarray:
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
    )


def su2_polar_chart() -> Chart:
    """Polar chart on SU(2): U = cos(chi) 1 + i sin(chi) sigma.nhat(theta, phi).

    Coordinates (chi, theta, phi) with chi, theta in (margin, pi - margin)
    and phi periodic.  The polar axes theta in {0, pi} (and chi in
    {0, pi}) are metric-degenerate and excluded.  Closed-form partial
    derivatives are attached.
    """
    basis = build_gellmann_basis(2)
    sigma = basis.matrices
    eye = np.eye(2, dtype=complex)
    margin = CHART_MARGIN

    def _map(x: np.ndarray) -> np.ndarray:
        chi, theta, phi = x.T
        chi = chi[..., None, None]  # scales each 2 x 2 matrix
        return np.cos(chi) * eye + 1j * np.sin(chi) * np.einsum(
            "...j,jab->...ab", _unit_vector(theta, phi), sigma
        )

    def _partials(x: np.ndarray) -> np.ndarray:
        chi, theta, phi = x.T
        chi = chi[..., None, None]
        nhat = _unit_vector(theta, phi)
        dn_dtheta = np.stack(
            [np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)], axis=-1
        )
        dn_dphi = np.stack(
            [-np.sin(theta) * np.sin(phi), np.sin(theta) * np.cos(phi), 0.0 * phi], axis=-1
        )
        d_chi = -np.sin(chi) * eye + 1j * np.cos(chi) * np.einsum("...j,jab->...ab", nhat, sigma)
        d_theta = 1j * np.sin(chi) * np.einsum("...j,jab->...ab", dn_dtheta, sigma)
        d_phi = 1j * np.sin(chi) * np.einsum("...j,jab->...ab", dn_dphi, sigma)
        return np.stack([d_chi, d_theta, d_phi], axis=-3)

    def _contains(x: np.ndarray) -> np.ndarray:
        chi, theta = x[..., 0], x[..., 1]
        return (margin < chi) & (chi < np.pi - margin) & (margin < theta) & (
            theta < np.pi - margin
        )

    return Chart(
        label="su2-polar",
        n=2,
        dim_m=3,
        algebra=sigma,
        sample_box=np.array(
            [[margin, np.pi - margin], [margin, np.pi - margin], [0.0, 2 * np.pi]]
        ),
        map_fn=_map,
        contains_fn=_contains,
        partials_fn=_partials,
    )


def left_translate(chart: Chart, v: np.ndarray) -> Chart:
    """Chart x -> v U(x) for fixed v in SU(n).

    The frame and metric are built from U^dag dU, so they are unchanged;
    this exists to verify that invariance.
    """
    if np.max(np.abs(dagger(v) @ v - np.eye(chart.n))) >= ATOL_IDENTITY:
        raise DomainError("left-translation element is not unitary")
    if abs(np.linalg.det(v) - 1.0) >= ATOL_IDENTITY:
        raise DomainError("left-translation element has det != 1")

    old_map, old_partials = chart.map_fn, chart.partials_fn
    return Chart(
        label=chart.label + "+left",
        n=chart.n,
        dim_m=chart.dim_m,
        algebra=chart.algebra,
        sample_box=chart.sample_box,
        map_fn=lambda x: v @ old_map(x),
        contains_fn=chart.contains_fn,
        partials_fn=lambda x: np.einsum("ij,...mjk->...mik", v, old_partials(x)),
    )


def partials(chart: Chart, x, backend: str = "analytic") -> np.ndarray:
    """Partial derivatives dU/dx_mu, stacked with shape (..., dim_m, n, n).

    backend "analytic" uses the chart's exact partials; "fd" takes
    central differences of `Chart.evaluate` with step `FD_STEP`, as an
    independent cross-check.
    """
    x = np.asarray(x, dtype=float)
    if backend == "analytic":
        if not np.asarray(chart.contains(x)).all():
            raise DomainError(f"coordinates outside domain of chart '{chart.label}'")
        return chart.partials_fn(x)
    if backend != "fd":
        raise ValueError(f"unknown backend '{backend}'")
    steps = FD_STEP * np.eye(chart.dim_m)
    plus, minus = ((x[..., None, :] + h).reshape(-1, chart.dim_m) for h in (steps, -steps))
    du = (chart.evaluate(plus) - chart.evaluate(minus)) / (2 * FD_STEP)
    return du.reshape(x.shape[:-1] + (chart.dim_m, chart.n, chart.n))


def left_invariant_frame(
    chart: Chart, x, du: np.ndarray | None = None, u: np.ndarray | None = None
) -> FrameAtPoint:
    """Extract omega[a, mu] from U^dag dU = i omega^a g_a and invert it.

    `du` and `u`, when given, are the partials and the value of the chart
    at x.  Verifies that U^dag dU is anti-Hermitian and traceless, that
    the extracted coefficients are real, and that they reconstruct
    U^dag dU over the chart's generator basis.  A singular omega raises
    ChartDegenerateError.
    """
    x = np.asarray(x, dtype=float)
    if u is None:
        u = chart.evaluate(x)
    if du is None:
        du = partials(chart, x)
    pulled = np.einsum("...ij,...mjk->...mik", dagger(u), du)  # U^dag dU per coordinate

    anti_herm = np.abs(pulled + dagger(pulled)).max()
    traces = np.abs(np.trace(pulled, axis1=-2, axis2=-1)).max()
    if anti_herm >= ATOL_FRAME or traces >= ATOL_FRAME:
        raise InternalConsistencyError(
            f"U^dag dU not in the algebra (anti-Hermitian residue {anti_herm:.2e}, "
            f"trace residue {traces:.2e})"
        )

    omega_c = np.einsum("aij,...mji->...am", chart.algebra, pulled) / 2j
    imag_residue = np.abs(omega_c.imag).max()
    if imag_residue >= ATOL_FRAME:
        raise InternalConsistencyError(
            f"frame coefficients not real (residue {imag_residue:.2e})"
        )
    omega = omega_c.real

    rebuilt = 1j * np.einsum("...am,aij->...mij", omega, chart.algebra)
    if np.abs(pulled - rebuilt).max() >= ATOL_FRAME:
        raise InternalConsistencyError("frame does not reconstruct U^dag dU")

    if np.abs(np.linalg.det(omega)).min() < 1e-10:
        raise ChartDegenerateError(f"frame singular at x = {x}")
    dual = np.linalg.inv(omega)
    if np.abs(omega @ dual - np.eye(chart.dim_m)).max() >= ATOL_FRAME:
        raise InternalConsistencyError("frame inversion failed")
    return FrameAtPoint(x=x, omega=omega, dual=dual)


def ck_metric(
    chart: Chart,
    x,
    frame: FrameAtPoint | None = None,
    du: np.ndarray | None = None,
) -> MetricAtPoint:
    """Bi-invariant metric at x, as the frame contraction omega^T omega.

    Cross-checked entrywise against the defining trace form
    (1/2) Tr(dU_mu dU_nu^dag); disagreement beyond tolerance indicates a
    broken frame.  Raises DegenerateMetricError when not positive
    definite.
    """
    x = np.asarray(x, dtype=float)
    if du is None:
        du = partials(chart, x)
    if frame is None:
        frame = left_invariant_frame(chart, x, du=du)

    g = np.swapaxes(frame.omega, -1, -2) @ frame.omega
    g_trace = 0.5 * np.einsum("...mij,...kij->...mk", du, du.conj()).real
    if np.abs(g - g_trace).max() >= ATOL_FRAME:
        raise InternalConsistencyError(
            "vielbein metric disagrees with the trace form"
        )

    if np.linalg.eigvalsh(g)[..., 0].min() <= 0.0:
        raise DegenerateMetricError(f"metric not positive definite at x = {x}")
    g_inv = np.linalg.inv(g)
    if np.abs(g @ g_inv - np.eye(chart.dim_m)).max() >= ATOL_FRAME:
        raise DegenerateMetricError(f"metric inversion ill-conditioned at x = {x}")
    return MetricAtPoint(g=g, g_inv=g_inv)

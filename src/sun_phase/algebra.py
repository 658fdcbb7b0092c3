"""Complex matrix core and su(n) Lie-algebra structure.

The su(n) generators of the defining representation, normalized so
that Tr(g_a g_b) = 2 delta_ab and stacked as one read-only (n^2 - 1, n, n)
array, together with the completeness identity on the fundamental
representation and one-parameter unitary subgroups built from a
Hermitian eigendecomposition.

Two stack kernels serve every unitarity and determinant guard of the
package.  `det` writes the determinant of trailing 2 x 2 shapes in
closed form, elementwise over any leading shape, and hands larger
matrices to `np.linalg.det`; `unitarity_residual` writes U^dag U of
2 x 2 matrices entry by entry and forms the product for larger ones.
On the 2 x 2 stacks of the SU(2) charts both replace one LAPACK or BLAS
call per matrix, and differ from those calls by rounding only, O(1e-16)
against guard gates of 1e-10.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    InternalConsistencyError,
    ShapeError,
)
from .tolerances import ATOL_CONSTRUCTION, ATOL_IDENTITY


def dagger(a: np.ndarray) -> np.ndarray:
    """Hermitian conjugate of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def det(a: np.ndarray) -> np.ndarray:
    """Determinant of a square matrix, or of each matrix in a stack of any
    leading shape (empty stacks included), real or complex.  2 x 2
    matrices are written ad - bc, all matrices of a stack at once; larger
    ones go to `np.linalg.det`."""
    if a.shape[-2:] == (2, 2):
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    return np.linalg.det(a)


def unitarity_residual(u: np.ndarray) -> float:
    """max |U^dag U - 1| over a square matrix or every matrix of a stack,
    0 for an empty stack.  A 2 x 2 U^dag U is written entry by entry (its
    lower off-diagonal entry is the conjugate of the upper one); larger
    matrices form the product.  One NaN-propagating reduction, so a NaN
    in any entry gives NaN."""
    if u.shape[-2:] != (2, 2):
        return np.abs(dagger(u) @ u - np.eye(u.shape[-1])).max(initial=0.0)
    a, b, c, d = u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1]
    first = np.abs(a.real**2 + a.imag**2 + c.real**2 + c.imag**2 - 1.0)
    second = np.abs(b.real**2 + b.imag**2 + d.real**2 + d.imag**2 - 1.0)
    cross = np.abs(a.conj() * b + c.conj() * d)
    return np.maximum(np.maximum(first, second), cross).max(initial=0.0)


def _check_square(a: np.ndarray, name: str = "matrix") -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {a.shape}")
    return a.shape[0]


@dataclass(frozen=True)
class StatePair:
    """Fixed initial/final unit vectors for transition amplitudes: vectors
    of shape (n,), or stacks (N, n) with one pair per row."""

    psi_i: np.ndarray
    psi_f: np.ndarray

    def __post_init__(self):
        for name, v in (("psi_i", self.psi_i), ("psi_f", self.psi_f)):
            if v.ndim not in (1, 2):
                raise ShapeError(f"{name} must have shape (n,) or (N, n), got {v.shape}")
            if not (np.abs(np.linalg.norm(v, axis=-1) - 1.0) < ATOL_CONSTRUCTION).all():
                raise DomainError(f"{name} is not unit-norm")
        if self.psi_i.shape != self.psi_f.shape:
            raise ShapeError("state vectors have different dimensions")
        if self.n < 2:
            raise DimensionError("states must live in dimension >= 2")

    @classmethod
    def from_vectors(cls, psi_i, psi_f) -> "StatePair":
        """Build a pair from arbitrary nonzero vectors, normalizing them."""
        psi_i = np.asarray(psi_i, dtype=complex)
        psi_f = np.asarray(psi_f, dtype=complex)
        ni, nf = np.linalg.norm(psi_i), np.linalg.norm(psi_f)
        if ni == 0.0 or nf == 0.0:
            raise DomainError("cannot normalize a zero vector")
        return cls(psi_i / ni, psi_f / nf)

    @property
    def n(self) -> int:
        return self.psi_i.shape[-1]

    def rows(self, index) -> "StatePair":
        """The rows `index` of a stacked pair; an unstacked pair serves every
        row, and so does a stacked pair for a slice that covers all of its
        rows.  Any other index builds, and validates, a new pair."""
        if self.psi_i.ndim == 1:
            return self
        if isinstance(index, slice) and index.indices(len(self.psi_i)) == (0, len(self.psi_i), 1):
            return self
        return StatePair(self.psi_i[index], self.psi_f[index])


@functools.lru_cache(maxsize=None)
def build_gellmann_basis(n: int) -> np.ndarray:
    """Generalized Gell-Mann generators of su(n), Tr(g_a g_b) = 2 delta_ab,
    stacked with shape (n^2 - 1, n, n).

    Ordering: symmetric off-diagonal pairs E_jk + E_kj by (j, k)
    lexicographic, then antisymmetric pairs -i E_jk + i E_kj, then the
    n - 1 diagonal generators.  For n = 2 this yields the Pauli matrices
    (sigma_x, sigma_y, sigma_z).  Built once per n and shared, so
    the stack is read-only.
    """
    if n < 2:
        raise DimensionError(f"group dimension must be >= 2, got {n}")
    gens = []
    for j in range(n):
        for k in range(j + 1, n):
            x = np.zeros((n, n), dtype=complex)
            x[j, k] = 1.0
            x[k, j] = 1.0
            gens.append(x)
    for j in range(n):
        for k in range(j + 1, n):
            y = np.zeros((n, n), dtype=complex)
            y[j, k] = -1.0j
            y[k, j] = 1.0j
            gens.append(y)
    for l in range(1, n):
        d = np.zeros((n, n), dtype=complex)
        for j in range(l):
            d[j, j] = 1.0
        d[l, l] = -float(l)
        gens.append(d * np.sqrt(2.0 / (l * (l + 1))))
    basis = np.array(gens)
    basis.flags.writeable = False
    return basis


def completeness_residual(x: np.ndarray, y: np.ndarray, basis: np.ndarray) -> float:
    """Residual of the fundamental-representation completeness identity.

    |(1/2) sum_a Tr(x g_a y g_a)  -  (Tr x Tr y - Tr(xy)/n)|

    summed over the generators `basis` (m, n, n).  Vanishes identically for
    an exactly orthonormal basis; the returned size measures basis quality.
    """
    n = _check_square(x, "x")
    if _check_square(y, "y") != n or basis.shape[-1] != n:
        raise ShapeError("x, y and basis must share one dimension")
    lhs = 0.5 * sum(np.trace(x @ g @ y @ g) for g in basis)
    rhs = np.trace(x) * np.trace(y) - np.trace(x @ y) / n
    return float(abs(lhs - rhs))


def _hermitian_eigh(l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if l.ndim < 2 or l.shape[-1] != l.shape[-2]:
        raise ShapeError(f"generator must be square, got shape {l.shape}")
    if not np.abs(l - dagger(l)).max(initial=0.0) < ATOL_IDENTITY:
        raise DomainError("generator is not Hermitian")
    return np.linalg.eigh(l)


def _unitary_from_eigh(w: np.ndarray, v: np.ndarray, t) -> np.ndarray:
    u = (v * np.exp(1j * w * np.asarray(t)[..., None])[..., None, :]) @ dagger(v)
    if not unitarity_residual(u) < ATOL_IDENTITY:
        raise InternalConsistencyError("exponential lost unitarity")
    return u


def expm_generator(l: np.ndarray, t=1.0) -> np.ndarray:
    """exp(i l t) for Hermitian l, via eigendecomposition.

    Exactly unitary up to eigensolver error, and det = 1 whenever l is
    traceless.  The eigenvalues are the angular frequencies of every
    matrix element of the resulting one-parameter subgroup.  A stack of
    generators (N, n, n), or times t of shape (N,), give stacks.
    """
    w, v = _hermitian_eigh(l)
    return _unitary_from_eigh(w, v, t)


def generator_sum(coeffs, gens: np.ndarray) -> np.ndarray:
    """x^a g_a of coefficients (..., m) over generators (m, n, n)."""
    return np.einsum("...a,aij->...ij", coeffs, gens)


def expm_partials(coeffs, gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U = exp(i x^a g_a) and its exact partials dU/dx_a, from one eigh.

    With x^a g_a = V diag(w) V^dag, the Daleckii-Krein formula gives
    dU/dx_a = V (Phi o V^dag g_a V) V^dag, where Phi holds the divided
    differences of exp(i w):

        Phi_jk = i exp(i (w_j + w_k)/2) sinc((w_j - w_k)/(2 pi))

    with numpy's normalized sinc.  This form needs no limit at
    degenerate or near-degenerate eigenvalues.  The four products take
    every generator at once, one product per point each: the generators
    side by side (n, m n) where V acts on the left and stacked (m n, n)
    where it acts on the right.  Returns (U, dU), with dU
    stacked as (m, n, n) for m generators (m, n, n).  Coefficients of
    shape (N, m) give U of shape (N, n, n) and dU of shape (N, m, n, n).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    m = len(gens)
    if gens.ndim != 3:
        raise ShapeError(f"expected one generator stack (m, n, n), got shape {gens.shape}")
    if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != m:
        raise ShapeError(f"expected {m} coefficients, got shape {coeffs.shape}")
    w, v = _hermitian_eigh(generator_sum(coeffs, gens))
    u = _unitary_from_eigh(w, v, 1.0)
    phi = 1j * np.exp(0.5j * (w[..., :, None] + w[..., None, :])) * np.sinc(
        (w[..., :, None] - w[..., None, :]) / (2 * np.pi)
    )
    # index order [i, a, k] throughout: an (n, m n) matrix for V on the left,
    # an (m n, n) matrix for V on the right
    n, lead = w.shape[-1], w.shape[:-1]
    side = np.swapaxes(gens, 0, 1).reshape(n, m * n)
    vh = dagger(v)
    rotated = ((vh @ side).reshape(lead + (n * m, n)) @ v).reshape(lead + (n, m, n))
    weighted = (phi[..., :, None, :] * rotated).reshape(lead + (n, m * n))
    du = ((v @ weighted).reshape(lead + (n * m, n)) @ vh).reshape(lead + (n, m, n))
    return u, np.swapaxes(du, -3, -2)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products of stacks (..., n), a matmul of (..., 1, n) by
    (..., n, 1): each row is the BLAS dot that a 1-D `a @ b` calls."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _row_norm(v: np.ndarray) -> np.ndarray:
    """Per-row 2-norms of a complex stack (..., n), bit for bit what
    `np.linalg.norm` gives for each row alone."""
    return np.sqrt(_row_dot(v.real, v.real) + _row_dot(v.imag, v.imag))


def _unit_rows(gauss: np.ndarray) -> np.ndarray:
    """Unit complex rows (..., n) from Gaussian draws (..., 2, n), the real
    parts first: a stack of `haar_state` draws, normalized at once."""
    v = gauss[..., 0, :] + 1j * gauss[..., 1, :]
    return v / _row_norm(v)[..., None]


def haar_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random unit vector, uniform on the sphere in C^n."""
    return _unit_rows(rng.standard_normal(2 * n).reshape(2, n))

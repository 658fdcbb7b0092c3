"""Complex matrix core and su(n) Lie-algebra structure.

Generator bases in the defining representation, normalized so that
Tr(g_a g_b) = 2 delta_ab, together with the trace inner product they
induce, the completeness identity on the fundamental representation,
and one-parameter unitary subgroups built from a Hermitian
eigendecomposition.
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


def _check_square(a: np.ndarray, name: str = "matrix") -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {a.shape}")
    return a.shape[0]


@dataclass(frozen=True)
class GeneratorBasis:
    """Ordered basis of the n^2 - 1 traceless Hermitian generators of su(n).

    `matrices` is stacked with shape (n^2 - 1, n, n); the ordering is fixed
    (symmetric pair type, then antisymmetric pair type, then diagonal) so
    that callers can index generators deterministically.
    """

    n: int
    matrices: np.ndarray

    def __len__(self) -> int:
        return self.matrices.shape[0]

    def __getitem__(self, a: int) -> np.ndarray:
        return self.matrices[a]

    def __iter__(self):
        return iter(self.matrices)

    @property
    def dim_algebra(self) -> int:
        return self.n * self.n - 1


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
            if (np.abs(np.linalg.norm(v, axis=-1) - 1.0) >= ATOL_CONSTRUCTION).any():
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
        """The rows `index` of a stacked pair; an unstacked pair serves every row."""
        return self if self.psi_i.ndim == 1 else StatePair(self.psi_i[index], self.psi_f[index])


@functools.lru_cache(maxsize=None)
def build_gellmann_basis(n: int) -> GeneratorBasis:
    """Generalized Gell-Mann generators of su(n), Tr(g_a g_b) = 2 delta_ab.

    Ordering: symmetric off-diagonal pairs E_jk + E_kj by (j, k)
    lexicographic, then antisymmetric pairs -i E_jk + i E_kj, then the
    n - 1 diagonal generators.  For n = 2 this yields the Pauli matrices
    (sigma_x, sigma_y, sigma_z).  Built once per n and shared, so
    `matrices` is read-only.
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
    matrices = np.array(gens)
    matrices.flags.writeable = False
    return GeneratorBasis(n=n, matrices=matrices)


def killing_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Trace inner product (1/2) Re Tr(ab).

    On Hermitian operands the trace is real; a significant imaginary part
    indicates corrupted inputs and raises.
    """
    na = _check_square(a, "a")
    nb = _check_square(b, "b")
    if na != nb:
        raise ShapeError(f"dimension mismatch: {na} vs {nb}")
    t = np.trace(a @ b)
    hermitian = max(np.max(np.abs(m - dagger(m))) for m in (a, b)) < ATOL_CONSTRUCTION
    if hermitian and abs(t.imag) >= ATOL_CONSTRUCTION:
        raise InternalConsistencyError(
            f"trace of Hermitian product has imaginary part {t.imag:.3e}"
        )
    return 0.5 * t.real


def completeness_residual(x: np.ndarray, y: np.ndarray, basis: GeneratorBasis) -> float:
    """Residual of the fundamental-representation completeness identity.

    |(1/2) sum_a Tr(x g_a y g_a)  -  (Tr x Tr y - Tr(xy)/n)|

    Vanishes identically for an exactly orthonormal basis; the returned
    size measures basis quality.
    """
    n = _check_square(x, "x")
    if _check_square(y, "y") != n or basis.n != n:
        raise ShapeError("x, y and basis must share one dimension")
    lhs = 0.5 * sum(np.trace(x @ g @ y @ g) for g in basis)
    rhs = np.trace(x) * np.trace(y) - np.trace(x @ y) / n
    return float(abs(lhs - rhs))


def _hermitian_eigh(l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if l.ndim < 2 or l.shape[-1] != l.shape[-2]:
        raise ShapeError(f"generator must be square, got shape {l.shape}")
    if np.abs(l - dagger(l)).max() >= ATOL_IDENTITY:
        raise DomainError("generator is not Hermitian")
    return np.linalg.eigh(l)


def _unitary_from_eigh(w: np.ndarray, v: np.ndarray, t) -> np.ndarray:
    u = (v * np.exp(1j * w * np.asarray(t)[..., None])[..., None, :]) @ dagger(v)
    if np.abs(dagger(u) @ u - np.eye(w.shape[-1])).max() >= ATOL_IDENTITY:
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


def expm_partials(coeffs, gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U = exp(i x^a g_a) and its exact partials dU/dx_a, from one eigh.

    With x^a g_a = V diag(w) V^dag, the Daleckii-Krein formula gives
    dU/dx_a = V (Phi o V^dag g_a V) V^dag, where Phi holds the divided
    differences of exp(i w):

        Phi_jk = i exp(i (w_j + w_k)/2) sinc((w_j - w_k)/(2 pi))

    with numpy's normalized sinc.  This form needs no limit at
    degenerate or near-degenerate eigenvalues.  Returns (U, dU), with dU
    stacked as (len(gens), n, n).  Coefficients of shape (N, len(gens))
    give U of shape (N, n, n) and dU of shape (N, len(gens), n, n).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != len(gens):
        raise ShapeError(f"expected {len(gens)} coefficients, got shape {coeffs.shape}")
    w, v = _hermitian_eigh(np.einsum("...a,aij->...ij", coeffs, gens))
    u = _unitary_from_eigh(w, v, 1.0)
    phi = 1j * np.exp(0.5j * (w[..., :, None] + w[..., None, :])) * np.sinc(
        (w[..., :, None] - w[..., None, :]) / (2 * np.pi)
    )
    v, vh = v[..., None, :, :], dagger(v)[..., None, :, :]  # broadcast over gens
    du = v @ (phi[..., None, :, :] * (vh @ gens @ v)) @ vh
    return u, du


def haar_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random unit vector, uniform on the sphere in C^n."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_hermitian(n: int, rng: np.random.Generator, traceless: bool = False) -> np.ndarray:
    """Random Hermitian matrix with O(1) entries."""
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (m + dagger(m)) / 2.0
    if traceless:
        h = h - np.trace(h).real * np.eye(n) / n
    return h

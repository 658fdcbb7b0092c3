"""Random test inputs shared by several test files."""
import numpy as np

from sun_phase.algebra import dagger


def random_hermitian(n: int, rng: np.random.Generator, traceless: bool = False) -> np.ndarray:
    """Random Hermitian matrix with O(1) entries."""
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (m + dagger(m)) / 2.0
    if traceless:
        h = h - np.trace(h).real * np.eye(n) / n
    return h

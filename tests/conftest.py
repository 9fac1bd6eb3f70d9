import numpy as np
import pytest

from modsym.modgroup import f2_count
from modsym.verify import random_isometry, random_point, random_tangent


def _char_poly_coeffs(m: np.ndarray) -> np.ndarray:
    """Coefficients (1, c2, c1, c0) of det(xI - m) for a 3x3 matrix.
    Dtype preserving, so extended-precision inputs keep their accuracy."""
    m = np.asarray(m)
    tr = np.trace(m)
    e2 = 0.5 * (tr**2 - np.trace(m @ m))
    det = (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )
    return np.array([m.dtype.type(1), -tr, e2, -det])


@pytest.fixture
def char_poly_coeffs():
    return _char_poly_coeffs


def _f2_index(level: np.ndarray) -> np.ndarray:
    """The row of each reduced word of an (m, n) letter array within
    f2_levels(n): the first letter, then base 3 over each letter's place
    among the allowed continuations.  So a prefix of k letters has index
    f2_index(level) // 3**(n - k)."""
    m, n = level.shape
    if f2_count(n) > 2**63:
        raise ValueError(f"words of length {n} have no int64 index")
    index = level[:, 0].copy() if n else np.zeros(m, dtype=np.int64)
    for col in range(1, n):
        prev, cur = level[:, col - 1], level[:, col]
        index = 3 * index + cur - (cur > prev ^ 1)
    return index


@pytest.fixture
def f2_index():
    """A reference index of reduced words in ``f2_levels`` order, to place
    sampled or inverted words among the complete enumeration."""
    return _f2_index


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def rand_point(rng):
    return lambda scale=0.7: random_point(rng, scale)


@pytest.fixture
def rand_tangent(rng):
    return lambda scale=0.7: random_tangent(rng, scale)


@pytest.fixture
def rand_isometry(rng):
    return lambda: random_isometry(rng)

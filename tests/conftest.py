import numpy as np
import pytest

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

"""Numeric kernel for the symmetric space of determinant-one positive
definite symmetric 3x3 matrices and its full isometry group.

A point of the space is an SPD matrix ``p`` with ``det p = 1``.  An
isometry is a pair ``(A, parity)`` with ``det A = 1``:

* orientation preserving:  ``p -> A p A^T``
* orientation reversing:   ``p -> A p^{-1} A^T``

The reversing case is the action ``[M] -> [A M^*]`` on classes, with
``M^* = (M^{-1})^T`` the contragredient.  The inversion fixing a point
``x`` is the reversing isometry with matrix ``x`` itself.

All tangent vectors are stored transported to the identity: the tangent
vector of the geodesic from ``p`` to ``q`` is ``log(p^{-1/2} q p^{-1/2})``,
a traceless symmetric matrix, and the metric is ``<u, v> = tr(uv)``.

Every value is immutable after construction; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError

# Symmetry defect allowed on construction, relative to the matrix norm.
SYMMETRY_TOL = 1e-12
# Eigenvalue ratio beyond which inputs are rejected as too degenerate.
CONDITION_LIMIT = 1e12
# Relative symmetry tolerance used when classifying involutions.
INVOLUTION_SYM_TOL = 1e-8

INVERSION = "inversion"
TYPEII_PLANE_FIX = "typeII-plane-fix"
NOT_INVOLUTION = "not-involution"

# Basis of the tangent space at the identity: p0, p1, p2 span the
# block-diagonal (parallel-set) directions, f1, f2 the fiber directions.
P0 = np.diag([2.0, -1.0, -1.0])
P1 = np.diag([0.0, 0.5, -0.5])
P2 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.5, 0.0]])
F1 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
F2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
for _m in (P0, P1, P2, F1, F2):
    _m.flags.writeable = False


def rotation(theta: float, dtype=np.float64) -> np.ndarray:
    """Rotation fixing the first axis: 1 (+) rotation by theta in the 2-3 plane."""
    theta = dtype(theta)
    c, s = np.cos(theta), np.sin(theta)
    out = np.eye(3, dtype=dtype)
    out[1, 1] = c
    out[1, 2] = -s
    out[2, 1] = s
    out[2, 2] = c
    return out


def check_symmetric(m: np.ndarray, tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Validate the symmetry defect of ``m`` and return the symmetrized matrix.

    Raises ValueError when ``|m - m^T| > tol * |m|``.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    scale = np.linalg.norm(m)
    if np.linalg.norm(m - m.T) > tol * max(scale, 1e-300):
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (m + m.T)


def _sym_eigh(m: np.ndarray):
    """Eigendecomposition of a symmetric matrix, ascending eigenvalues."""
    return np.linalg.eigh(0.5 * (m + m.T))


def _sym_func(m: np.ndarray, fn) -> np.ndarray:
    w, u = _sym_eigh(m)
    return (u * fn(w)) @ u.T


class Point:
    """A point of the space: SPD 3x3 matrix, renormalized to det 1.

    The eigendecomposition is computed once at construction and cached;
    ``sqrt``, ``inv_sqrt``, ``inv`` and ``log`` read it directly.
    """

    __slots__ = ("mat", "_evals", "_evecs")

    def __init__(self, mat: np.ndarray):
        mat = check_symmetric(mat)
        w, u = np.linalg.eigh(mat)
        if w[0] <= 0.0:
            raise DomainError("matrix is not positive definite")
        if w[2] / w[0] > CONDITION_LIMIT:
            raise ConditioningError(
                f"eigenvalue ratio {w[2] / w[0]:.3e} exceeds {CONDITION_LIMIT:.0e}"
            )
        # Renormalize det to 1 (divide by the cube root of the determinant).
        scale = float(np.prod(w)) ** (-1.0 / 3.0)
        self.mat = mat * scale
        self._evals = w * scale
        self._evecs = u
        self.mat.flags.writeable = False
        self._evals.flags.writeable = False
        self._evecs.flags.writeable = False

    def _func(self, fn) -> np.ndarray:
        return (self._evecs * fn(self._evals)) @ self._evecs.T

    def sqrt(self) -> np.ndarray:
        return self._func(np.sqrt)

    def inv_sqrt(self) -> np.ndarray:
        return self._func(lambda w: 1.0 / np.sqrt(w))

    def inv(self) -> np.ndarray:
        return self._func(lambda w: 1.0 / w)

    def log(self) -> np.ndarray:
        out = self._func(np.log)
        return out - (np.trace(out) / 3.0) * np.eye(3)

    def allclose(self, other: "Point", tol: float = 1e-10) -> bool:
        return bool(np.linalg.norm(self.mat - other.mat) <= tol * (1.0 + np.linalg.norm(self.mat)))

    def __repr__(self):
        return f"Point(evals={np.sort(self._evals)[::-1]!r})"


def identity_point() -> Point:
    return Point(np.eye(3))


@dataclass(frozen=True)
class Isometry:
    """Matrix plus orientation parity.  The matrix is normalized to det 1
    (a sign flip does not change the projective action)."""

    mat: np.ndarray
    reversing: bool = False

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=float)
        if mat.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {mat.shape}")
        d = float(np.linalg.det(mat))
        if abs(d) < 1e-12:
            raise DomainError("isometry matrix is singular")
        if d < 0:
            mat = -mat
            d = -d
        mat = mat / d ** (1.0 / 3.0)
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    @classmethod
    def identity(cls) -> "Isometry":
        return cls(np.eye(3), reversing=False)

    def is_identity(self, tol: float = 1e-10) -> bool:
        return not self.reversing and bool(np.linalg.norm(self.mat - np.eye(3)) <= tol)


def _star(m: np.ndarray) -> np.ndarray:
    """Contragredient (inverse transpose)."""
    return np.linalg.inv(m).T


def spd_exp(v: np.ndarray) -> Point:
    """Exponential at the identity of a traceless symmetric matrix."""
    v = check_symmetric(v)
    if abs(np.trace(v)) > 1e-8 * max(1.0, np.linalg.norm(v)):
        raise ValueError("tangent vector must be traceless")
    return Point(_sym_func(v, np.exp))


def spd_log(p: Point) -> np.ndarray:
    """Inverse of :func:`spd_exp`; returns a traceless symmetric matrix."""
    return p.log()


def act(g: Isometry, p: Point) -> Point:
    """Apply an isometry to a point."""
    if g.reversing:
        return Point(g.mat @ p.inv() @ g.mat.T)
    return Point(g.mat @ p.mat @ g.mat.T)


def compose(g: Isometry, h: Isometry) -> Isometry:
    """Group law, ``compose(g, h)`` acts as ``g`` after ``h``.

    (A, +)(B, e) = (A B, e) and (A, -)(B, e) = (A B^*, -e).
    """
    hm = _star(h.mat) if g.reversing else h.mat
    return Isometry(g.mat @ hm, reversing=g.reversing != h.reversing)


def inversion_at(x: Point) -> Isometry:
    """The point inversion fixing ``x``: the reversing isometry p -> x p^{-1} x."""
    return Isometry(x.mat, reversing=True)


def _relative_eigh(p: Point, q: Point):
    """Ascending eigenvalues and eigenvectors of the segment's relative
    matrix p^{-1/2} q p^{-1/2}: the one decomposition that every explicit
    segment operation reads."""
    h = p.inv_sqrt()
    w, u = _sym_eigh(h @ q.mat @ h)
    if w[0] <= 0.0:
        raise DomainError("relative matrix is not positive definite")
    return w, u


def distance(p: Point, q: Point) -> float:
    """Riemannian distance |log(p^{-1/2} q p^{-1/2})| in the tr(uv) metric."""
    w, _ = _relative_eigh(p, q)
    return float(np.linalg.norm(np.log(w)))


def midpoint(p: Point, q: Point) -> Point:
    """Geodesic midpoint p^{1/2} (p^{-1/2} q p^{-1/2})^{1/2} p^{1/2}."""
    w, u = _relative_eigh(p, q)
    return Point(p.sqrt() @ ((u * np.sqrt(w)) @ u.T) @ p.sqrt())


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector at ``base``, stored transported to the identity."""

    base: Point
    vec: np.ndarray

    def __post_init__(self):
        vec = check_symmetric(self.vec)
        if abs(np.trace(vec)) > 1e-10 * max(1.0, np.linalg.norm(vec)):
            raise ValueError("tangent vector must be traceless")
        vec = vec - (np.trace(vec) / 3.0) * np.eye(3)
        vec.flags.writeable = False
        object.__setattr__(self, "vec", vec)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))


def log_map(p: Point, q: Point) -> TangentVector:
    """Initial velocity of the geodesic from p to q (at the identity chart)."""
    w, u = _relative_eigh(p, q)
    v = (u * np.log(w)) @ u.T
    return TangentVector(p, v - (np.trace(v) / 3.0) * np.eye(3))


def exp_map(p: Point, v: TangentVector) -> Point:
    """Geodesic endpoint p^{1/2} exp(v) p^{1/2}; v must be based at p."""
    if v.base is not p and not np.allclose(v.base.mat, p.mat, rtol=0.0, atol=1e-12):
        raise ValueError("tangent vector is not based at the given point")
    return Point(p.sqrt() @ _sym_func(v.vec, np.exp) @ p.sqrt())


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, one per entry of the leading
    stack axes, as one matmul.  Each equals ndarray.dot of its two rows bit
    for bit; np.linalg.norm(x, axis=-1) sums in another order and does not."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, bit-equal to np.linalg.norm of
    each row."""
    return np.sqrt(_dot(x, x))


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each C-contiguous matrix of a stack, bit-equal to
    np.linalg.norm of each matrix."""
    return _norm(m.reshape(m.shape[:-2] + (-1,)))


_NEXT = np.array([1, 2, 0])
_AFTER = np.array([2, 0, 1])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis, with the products and differences
    of np.cross (so bit-equal to it) at a fraction of its call cost."""
    return a[..., _NEXT] * b[..., _AFTER] - a[..., _AFTER] * b[..., _NEXT]


def _any(mask) -> bool:
    """Whether any entry of a boolean stack is set.  A 0-d mask is read
    directly: numpy's reduction costs more than the check itself."""
    return bool(mask.any() if mask.ndim else mask)


def _unstacked(x):
    """A 0-d result as a Python float, as an unstacked call returns it."""
    return float(x) if x.ndim == 0 else x


def matrix_angle(u: np.ndarray, v: np.ndarray):
    """Angle between two nonzero matrices in the trace metric, via the
    half-angle tangent; exact at 0 and pi, unlike arccos of the cosine.
    Leading stack axes give one angle per pair of matrices."""
    un = u / _frobenius(u)[..., None, None]
    vn = v / _frobenius(v)[..., None, None]
    return _unstacked(2.0 * np.arctan2(_frobenius(un - vn), _frobenius(un + vn)))


def angle_at(p: Point, q: Point, r: Point) -> float:
    """Riemannian angle at p between the geodesics toward q and r."""
    u = log_map(p, q).vec
    w = log_map(p, r).vec
    if np.linalg.norm(u) < 1e-14 or np.linalg.norm(w) < 1e-14:
        raise DomainError("angle undefined at coincident points")
    return matrix_angle(u, w)


def classify_involution(g: Isometry) -> str:
    """Classify an orientation-reversing isometry among involution types.

    A reversing isometry squares to the identity iff its matrix is
    symmetric; the signature then separates inversions (definite) from
    involutions fixing a type-II hyperbolic plane (signature (1,2)).
    """
    if not g.reversing:
        raise ValueError("classify_involution expects an orientation-reversing isometry")
    a = g.mat
    if np.linalg.norm(a - a.T) > INVOLUTION_SYM_TOL * np.linalg.norm(a):
        return NOT_INVOLUTION
    w = np.linalg.eigvalsh(0.5 * (a + a.T))
    n_pos = int(np.sum(w > 0.0))
    n_neg = int(np.sum(w < 0.0))
    if n_pos == 3:
        return INVERSION
    if (n_pos, n_neg) in ((1, 2), (2, 1)):
        return TYPEII_PLANE_FIX
    return NOT_INVOLUTION

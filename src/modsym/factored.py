"""Factored representation of points for far-apart geometry.

An explicit SPD matrix stored in floating point loses its small
eigenvalues once the spread exceeds 1/eps, which happens quickly along
group orbits.  This module keeps every point as a factor pair

    p = (F e^{s_f}) (F e^{s_f})^T,      p^{-1} = (Fi e^{s_i})^T (Fi e^{s_i})

with F, Fi unit-scaled 3x3 matrices and explicit log-scales.  That pair
is the orientation-preserving isometry (F, +) taking the identity to p,
so points and isometries are one type with one product: ``fact`` is
``fcompose``.  There is no orientation-reversing case: the orbit
computations run on the free subgroup F2, whose elements all preserve
orientation, and the inversion rho(a) inside its generators is folded
away by ``charvar._fold``.  The module never
extracts a small singular value from an explicit matrix: for a segment
p -> q with G = F_p^{-1} F_q, the relative log-eigenvalues come from the
top singular values of G and of G^{-1} (duality), and the middle one
from the trace-zero constraint.  Frames use only top singular vectors.

The segment primitives (``seg_lambdas``, ``seg_frame``, ``fmidpoint``,
``fzeta_direction``) and the products under them take leading stack
axes: an FIsometry may hold (..., 3, 3) factors with (...)-shaped
log-scales, and one call then does one batched matmul or SVD per step
for the whole stack.  Each entry equals the unstacked call bit
for bit; an unstacked call is the zero-axis case of the same code.  A
check that fails on a stack raises the error of its first failing entry
(``errors.raise_first``).  The orbit layer calls them on stacks only:
the midpoint window, the Morse flat check (the sector frames of all
window ends in one ``seg_frame``) and the orbit triangle (its three
sides in one ``fdistance``, its six segment logs in one
``seg_log_vector``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RegularityError, raise_first
from .symspace import Point, _check_regular, _cross, _dot, _norm, _unstacked


def _rescaled(m: np.ndarray, logscale):
    """Each 3x3 matrix of ``m`` over its max |entry|, and ``logscale``
    plus the log of that divisor."""
    s = np.abs(m).max(axis=(-2, -1))
    raise_first([(~np.isfinite(s),
                  lambda i: DomainError("factor matrix is outside the float64 range")),
                 (s == 0.0, lambda i: DomainError("degenerate factor matrix"))])
    return m / s[..., None, None], logscale + _unstacked(np.log(s))


@dataclass(frozen=True)
class FIsometry:
    """Orientation-preserving isometry with an explicitly maintained
    inverse matrix, so that orbit translates of factored points never
    invert numerically.

    A point p is the isometry that takes the identity to it: ``mat e^{lm}``
    is a factor F of p = F F^T and ``matinv e^{lmi}`` is F^{-1}.  A stack
    of isometries holds (..., 3, 3) matrices and (...)-shaped log-scales;
    indexing or iterating it gives views, and one entry comes back
    unstacked."""

    mat: np.ndarray
    matinv: np.ndarray
    lm: float = 0.0
    lmi: float = 0.0

    @classmethod
    def from_pair(cls, mat, matinv, lm=0.0, lmi=0.0) -> "FIsometry":
        mat, lm = _rescaled(np.asarray(mat, dtype=float), lm)
        matinv, lmi = _rescaled(np.asarray(matinv, dtype=float), lmi)
        mat.flags.writeable = False
        matinv.flags.writeable = False
        return cls(mat=mat, matinv=matinv, lm=lm, lmi=lmi)

    def __getitem__(self, index) -> "FIsometry":
        lm, lmi = self.lm[index], self.lmi[index]
        if lm.ndim == 0:
            lm, lmi = float(lm), float(lmi)
        return FIsometry(self.mat[index], self.matinv[index], lm, lmi)

    @classmethod
    def identity(cls) -> "FIsometry":
        """The identity, one shared read-only instance."""
        return _IDENTITY

    @classmethod
    def from_point(cls, p: Point) -> "FIsometry":
        return cls.from_pair(p.sqrt(), p.inv_sqrt())

    def to_point(self) -> Point:
        """The image of the identity as an explicit Point; only valid at
        moderate scales."""
        return Point((self.mat @ self.mat.T) * np.exp(2.0 * self.lm))


_IDENTITY = FIsometry.from_pair(np.eye(3), np.eye(3))


def fstack(isometries, axis: int = 0) -> FIsometry:
    """Isometries stacked along a new axis."""
    gs = list(isometries)
    return FIsometry(
        np.stack([g.mat for g in gs], axis), np.stack([g.matinv for g in gs], axis),
        np.stack([g.lm for g in gs], axis), np.stack([g.lmi for g in gs], axis),
    )


def _product(g: FIsometry, h: FIsometry):
    """Unscaled factor pair of g h: (mat, matinv, lm, lmi)."""
    return g.mat @ h.mat, h.matinv @ g.matinv, g.lm + h.lm, h.lmi + g.lmi


def fcompose(g: FIsometry, h: FIsometry) -> FIsometry:
    """Group law matching symspace.compose, with maintained inverses.  On
    a factored point p, ``fcompose(g, p)`` is g(p)."""
    return FIsometry.from_pair(*_product(g, h))


def finverse(g: FIsometry) -> FIsometry:
    """Inverse isometry: (A, +)^{-1} = (A^{-1}, +).  The factors are
    already unit-scaled."""
    return FIsometry(g.matinv, g.mat, g.lmi, g.lm)


# the action on factored points is the group law
fact = fcompose


def _lambdas(sg, sgi, lg, lgi) -> np.ndarray:
    """(l1, l2, l3) from the singular values of G and G^{-1} and their
    log-scales: l1 from sigma_1(G), l3 from sigma_1(G^{-1}), l2 = -l1 - l3.
    A product whose top singular value underflowed to 0 has no logarithm."""
    raise_first([(~((sg[..., 0] > 0.0) & (sgi[..., 0] > 0.0)), lambda i: DomainError(
        "relative factor product underflows the float64 range"))])
    l1 = 2.0 * (np.log(sg[..., 0]) + lg)
    l3 = -2.0 * (np.log(sgi[..., 0]) + lgi)
    lam = np.empty(l1.shape + (3,))
    lam[..., 0] = l1
    lam[..., 1] = -l1 - l3
    lam[..., 2] = l3
    return lam


def seg_lambdas(p: FIsometry, q: FIsometry) -> np.ndarray:
    """Descending log-eigenvalues of the segment pq, by duality."""
    g, gi, lg, lgi = _product(finverse(p), q)
    return _lambdas(np.linalg.svd(g, compute_uv=False), np.linalg.svd(gi, compute_uv=False),
                    lg, lgi)


def fdistance(p: FIsometry, q: FIsometry):
    return _unstacked(_norm(seg_lambdas(p, q)))


def seg_frame(p: FIsometry, q: FIsometry):
    """(lambdas, U) with U = [u1, u2, u3] an orthonormal frame of the
    segment log in the identity chart at p.  u1 is the top left singular
    vector of G, u3 the top right singular vector of G^{-1}; u2 closes
    the frame.  Raises on wall-adjacent or tied spectra."""
    g, gi, lg, lgi = _product(finverse(p), q)
    ug, sg, _ = np.linalg.svd(g)
    _, sgi, vgi = np.linalg.svd(gi)
    lam = _lambdas(sg, sgi, lg, lgi)
    u1 = ug[..., :, 0]
    u3 = vgi[..., 0, :]
    u3 = u3 - _dot(u3, u1)[..., None] * u1
    n3 = _norm(u3)
    _check_regular(lam, (n3 < 1e-8, lambda i: RegularityError(
        "degenerate frame in segment decomposition")))
    u3 = u3 / n3[..., None]
    u2 = _cross(u3, u1)
    u2 = u2 / _norm(u2)[..., None]
    return lam, np.stack([u1, u2, u3], axis=-1)


def seg_log_vector(p: FIsometry, q: FIsometry) -> np.ndarray:
    """log(p^{-1/2} q p^{-1/2}) as an explicit symmetric matrix."""
    lam, u = seg_frame(p, q)
    return (u * lam[..., None, :]) @ u.swapaxes(-1, -2)


def fzeta_direction(p: FIsometry, q: FIsometry) -> np.ndarray:
    _, u = seg_frame(p, q)
    u1, u3 = u[..., :, 0], u[..., :, 2]
    return u1[..., :, None] * u1[..., None, :] - u3[..., :, None] * u3[..., None, :]


def fmidpoint(p: FIsometry, q: FIsometry) -> FIsometry:
    """Geodesic midpoint as a factored point: F_m = F_p (G G^T)^{1/4}."""
    lam, u = seg_frame(p, q)
    ut = u.swapaxes(-1, -2)
    quarter = (u * np.exp(lam / 4.0)[..., None, :]) @ ut
    quarter_inv = (u * np.exp(-lam / 4.0)[..., None, :]) @ ut
    return FIsometry.from_pair(
        p.mat @ quarter, quarter_inv @ p.matinv, p.lm, p.lmi,
    )


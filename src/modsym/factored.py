"""Factored representation of points for far-apart geometry.

An explicit SPD matrix stored in floating point loses its small
eigenvalues once the spread exceeds 1/eps, which happens quickly along
group orbits.  This module keeps every point as a factor pair

    p = (F e^{s_f}) (F e^{s_f})^T,      p^{-1} = (Fi e^{s_i})^T (Fi e^{s_i})

with F, Fi unit-scaled 3x3 matrices and explicit log-scales, and never
extracts a small singular value from an explicit matrix: for a segment
p -> q with G = F_p^{-1} F_q, the relative log-eigenvalues come from the
top singular values of G and of G^{-1} (duality), and the middle one
from the trace-zero constraint.  Frames use only top singular vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RegularityError
from .flats import Flag, Flat, _check_regular, _flat_minimize
from .symspace import Point, matrix_angle


def _rescaled(m: np.ndarray, logscale: float):
    s = float(np.max(np.abs(m)))
    if not np.isfinite(s):
        raise DomainError("factor matrix is outside the float64 range")
    if s == 0.0:
        raise DomainError("degenerate factor matrix")
    return m / s, logscale + float(np.log(s))


@dataclass(frozen=True)
class FPoint:
    """Point as a scaled factor pair; immutable."""

    f: np.ndarray
    finv: np.ndarray
    lf: float
    lfi: float

    @classmethod
    def from_factor(cls, f: np.ndarray, finv: np.ndarray,
                    lf: float = 0.0, lfi: float = 0.0) -> "FPoint":
        f, lf = _rescaled(np.asarray(f, dtype=float), lf)
        finv, lfi = _rescaled(np.asarray(finv, dtype=float), lfi)
        f.flags.writeable = False
        finv.flags.writeable = False
        return cls(f=f, finv=finv, lf=lf, lfi=lfi)

    @classmethod
    def identity(cls) -> "FPoint":
        return cls.from_factor(np.eye(3), np.eye(3))

    @classmethod
    def from_point(cls, p: Point) -> "FPoint":
        return cls.from_factor(p.sqrt(), p.inv_sqrt())

    def to_point(self) -> Point:
        """Explicit Point; only valid at moderate scales."""
        m = (self.f @ self.f.T) * np.exp(2.0 * self.lf)
        return Point(m)


@dataclass(frozen=True)
class FIsometry:
    """Isometry with an explicitly maintained inverse matrix, so that
    orbit translates of factored points never invert numerically."""

    mat: np.ndarray
    matinv: np.ndarray
    reversing: bool
    lm: float = 0.0
    lmi: float = 0.0

    @classmethod
    def from_pair(cls, mat, matinv, reversing, lm=0.0, lmi=0.0) -> "FIsometry":
        mat, lm = _rescaled(np.asarray(mat, dtype=float), lm)
        matinv, lmi = _rescaled(np.asarray(matinv, dtype=float), lmi)
        mat.flags.writeable = False
        matinv.flags.writeable = False
        return cls(mat=mat, matinv=matinv, reversing=reversing, lm=lm, lmi=lmi)

    @classmethod
    def identity(cls) -> "FIsometry":
        return cls.from_pair(np.eye(3), np.eye(3), False)


def fcompose(g: FIsometry, h: FIsometry) -> FIsometry:
    """Group law matching symspace.compose, with maintained inverses."""
    if g.reversing:
        mat = g.mat @ h.matinv.T
        matinv = h.mat.T @ g.matinv
        lm, lmi = g.lm + h.lmi, h.lm + g.lmi
    else:
        mat = g.mat @ h.mat
        matinv = h.matinv @ g.matinv
        lm, lmi = g.lm + h.lm, h.lmi + g.lmi
    return FIsometry.from_pair(mat, matinv, g.reversing != h.reversing, lm, lmi)


def finverse(g: FIsometry) -> FIsometry:
    """Inverse isometry.  (A, +)^{-1} = (A^{-1}, +) and a reversing
    isometry (A, -): p -> A p^{-1} A^T is its own kind: (A, -)^{-1} =
    (A^{*-1}, -) = (A^T, -)."""
    if g.reversing:
        return FIsometry.from_pair(g.mat.T, g.matinv.T, True, g.lm, g.lmi)
    return FIsometry.from_pair(g.matinv, g.mat, False, g.lmi, g.lm)


def fact(g: FIsometry, p: FPoint) -> FPoint:
    """Apply an isometry to a factored point."""
    if g.reversing:
        return FPoint.from_factor(
            g.mat @ p.finv.T, p.f.T @ g.matinv,
            g.lm + p.lfi, p.lf + g.lmi,
        )
    return FPoint.from_factor(
        g.mat @ p.f, p.finv @ g.matinv,
        g.lm + p.lf, p.lfi + g.lmi,
    )


def _relative_pair(p: FPoint, q: FPoint):
    """G = F_p^{-1} F_q and its inverse, with log-scales."""
    g = p.finv @ q.f
    gi = q.finv @ p.f
    return g, gi, p.lfi + q.lf, q.lfi + p.lf


def seg_lambdas(p: FPoint, q: FPoint) -> np.ndarray:
    """Descending log-eigenvalues of the segment pq, by duality."""
    g, gi, lg, lgi = _relative_pair(p, q)
    l1 = 2.0 * (float(np.log(np.linalg.svd(g, compute_uv=False)[0])) + lg)
    l3 = -2.0 * (float(np.log(np.linalg.svd(gi, compute_uv=False)[0])) + lgi)
    return np.array([l1, -l1 - l3, l3])


def fdistance(p: FPoint, q: FPoint) -> float:
    return float(np.linalg.norm(seg_lambdas(p, q)))


def seg_frame(p: FPoint, q: FPoint):
    """(lambdas, U) with U = [u1, u2, u3] an orthonormal frame of the
    segment log in the identity chart at p.  u1 is the top left singular
    vector of G, u3 the top right singular vector of G^{-1}; u2 closes
    the frame.  Raises on wall-adjacent or tied spectra."""
    g, gi, lg, lgi = _relative_pair(p, q)
    ug, sg, _ = np.linalg.svd(g)
    _, sgi, vgi = np.linalg.svd(gi)
    l1 = 2.0 * (float(np.log(sg[0])) + lg)
    l3 = -2.0 * (float(np.log(sgi[0])) + lgi)
    lam = np.array([l1, -l1 - l3, l3])
    _check_regular(lam)
    u1 = ug[:, 0]
    u3 = vgi[0, :]
    u3 = u3 - (u3 @ u1) * u1
    n3 = np.linalg.norm(u3)
    if n3 < 1e-8:
        raise RegularityError("degenerate frame in segment decomposition")
    u3 = u3 / n3
    u2 = np.cross(u3, u1)
    u2 = u2 / np.linalg.norm(u2)
    return lam, np.column_stack([u1, u2, u3])


def seg_log_vector(p: FPoint, q: FPoint) -> np.ndarray:
    """log(p^{-1/2} q p^{-1/2}) as an explicit symmetric matrix."""
    lam, u = seg_frame(p, q)
    return (u * lam) @ u.T


def fangle(p: FPoint, q: FPoint, r: FPoint) -> float:
    """Riemannian angle at p between the segments toward q and r."""
    v = seg_log_vector(p, q)
    w = seg_log_vector(p, r)
    if np.linalg.norm(v) < 1e-14 or np.linalg.norm(w) < 1e-14:
        raise DomainError("angle undefined at coincident points")
    return matrix_angle(v, w)


def fzeta_direction(p: FPoint, q: FPoint) -> np.ndarray:
    _, u = seg_frame(p, q)
    return np.outer(u[:, 0], u[:, 0]) - np.outer(u[:, 2], u[:, 2])


def fzeta_angle(p: FPoint, q: FPoint, q2: FPoint) -> float:
    return matrix_angle(fzeta_direction(p, q), fzeta_direction(p, q2))


def fmidpoint(p: FPoint, q: FPoint) -> FPoint:
    """Geodesic midpoint as a factored point: F_m = F_p (G G^T)^{1/4}."""
    lam, u = seg_frame(p, q)
    quarter = (u * np.exp(lam / 4.0)) @ u.T
    quarter_inv = (u * np.exp(-lam / 4.0)) @ u.T
    return FPoint.from_factor(
        p.f @ quarter, quarter_inv @ p.finv, p.lf, p.lfi,
    )


def _flag_from_frame(p: FPoint, u_top: np.ndarray, u_bot: np.ndarray) -> Flag:
    point = p.f @ u_top
    point = point / np.linalg.norm(point)
    # re-project onto the incidence condition, which the factor pair
    # only satisfies up to its consistency drift
    line = p.finv.T @ u_bot
    line = line - (line @ point) * point
    return Flag(point=point, line=line)


def fflag_of_sector(p: FPoint, q: FPoint) -> Flag:
    """Sector flag at p toward q, in factored arithmetic."""
    _, u = seg_frame(p, q)
    return _flag_from_frame(p, u[:, 0], u[:, 2])


def fflag_of_sector_opposite(p: FPoint, q: FPoint) -> Flag:
    """Flag of the sector at p opposite to the one toward q (the chamber
    of the reversed geodesic)."""
    _, u = seg_frame(p, q)
    return _flag_from_frame(p, u[:, 2], u[:, 0])


def fflat_project(p: FPoint, flat: Flat, noise_cap: float = 1e-6):
    """Nearest point on the flat from a factored point; (a, b, distance).

    Newton steps on the closed-form Hessian, as ``flats._flat_minimize``.
    ``noise_cap`` is the largest gradient at which a stalled solve still
    returns: coordinate-grade projections of far-away points pass 1.0.
    """
    a, b, dist, _ = _flat_minimize(flat, p.f, p.finv, p.lf, p.lfi, noise_cap)
    return a, b, dist


def chart_point(center: FPoint, q: FPoint) -> FPoint:
    """q expressed in the factor chart of ``center`` (the isometry
    y -> F_c^{-1} y F_c^{-T}, which maps ``center`` to the identity).
    Far-away configurations become numerically workable in this chart."""
    return FPoint.from_factor(
        center.finv @ q.f, q.finv @ center.f,
        center.lfi + q.lf, q.lfi + center.lf,
    )

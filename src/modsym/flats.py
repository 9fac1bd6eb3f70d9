"""Asymptotic and parallel-set geometry: Cartan projection, chamber types,
the canonical involution, nearest-point projection to the block-diagonal
parallel set, cylindrical coordinates, zeta-angles, flags and maximal flats.

Conventions.  The model chamber is the arc [0, pi/3] of directions of the
trace-zero plane; the chamber angle is 0 on the wall l1 = l2, pi/3 on the
wall l2 = l3, and pi/6 on the bisector direction (1, 0, -1).  The
canonical involution reflects the arc about pi/6.

The parallel set used throughout is the one of the singular line fixed by
the order-three rotation about the first axis: block-diagonal points
diag(b, C) with C a 2x2 SPD block and b det(C) = 1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    OppositionError,
    RegularityError,
    raise_first,
)
from .symspace import (
    F1,
    P0,
    P1,
    Point,
    _any,
    _dot,
    _norm,
    _relative_eigh,
    _sym_func,
    _unstacked,
    check_symmetric,
    matrix_angle,
    rotation,
)

CHAMBER_MAX = np.pi / 3.0
ZETA = np.pi / 6.0

# Orthonormal frame of the trace-zero plane used for chamber angles.
_E1 = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
_E2 = np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)

# A segment counts as regular when its chamber angle keeps this distance
# from both walls; eigenvalue ties below the tie tolerance are rejected.
REGULARITY_WALL_TOL = 1e-6
EIGEN_TIE_TOL = 1e-9

PROJECTION_TOL = 1e-10
PROJECTION_MAX_ITER = 500


def cartan_projection(g: np.ndarray) -> np.ndarray:
    """Sorted log-singular-value vector of a determinant-one matrix.

    Returns (l1, l2, l3) descending with l1 + l2 + l3 = 0.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (3, 3) or not np.all(np.isfinite(g)):
        raise DomainError("cartan projection expects a finite 3x3 matrix")
    sv = np.linalg.svd(g, compute_uv=False)
    if sv[-1] <= 0.0 or not np.all(np.isfinite(sv)):
        raise DomainError("matrix is singular")
    lam = np.log(sv)
    lam = lam - lam.mean()
    return np.sort(lam)[::-1]


def _chamber_phi(v: np.ndarray) -> np.ndarray:
    """Chamber angle of each sorted trace-free triple of a stack, unchecked."""
    return np.clip(np.arctan2(_dot(v, _E2), _dot(v, _E1)) + ZETA, 0.0, CHAMBER_MAX)


def chamber_angle(v: np.ndarray):
    """Type angle in [0, pi/3] of a sorted trace-free triple; leading stack
    axes give one angle per triple."""
    v = np.asarray(v, dtype=float)
    zero = _norm(v) < 1e-300
    if _any(zero):
        raise_first([(zero, lambda i: DomainError("chamber angle of the zero vector is undefined"))])
    return _unstacked(_chamber_phi(v))


def iota(phi: float) -> float:
    """Canonical involution of the model chamber: reflection about pi/6."""
    return CHAMBER_MAX - phi


@dataclass(frozen=True)
class ModelInterval:
    """Involution-symmetric compact subinterval of the open model chamber."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 < self.lo < ZETA < self.hi < CHAMBER_MAX):
            raise ValueError("interval must contain pi/6 in its interior")
        if abs(self.lo + self.hi - CHAMBER_MAX) > 1e-12:
            raise ValueError("interval must be symmetric under the canonical involution")

    @classmethod
    def symmetric(cls, halfwidth: float) -> "ModelInterval":
        return cls(ZETA - halfwidth, ZETA + halfwidth)

    def contains(self, phi: float) -> bool:
        return self.lo <= phi <= self.hi


def segment_type(p: Point, q: Point) -> float:
    """Chamber angle of the segment pq; satisfies type(qp) = iota(type(pq))."""
    logw = np.log(_relative_eigh(p, q)[0])
    lam = (logw - logw.mean())[::-1]
    if np.linalg.norm(lam) < 1e-12:
        raise DomainError("segment type undefined for coincident points")
    return chamber_angle(lam)


# -- nearest point projection to the parallel set ---------------------------


def _block_part(v: np.ndarray) -> np.ndarray:
    out = v.copy()
    out[0, 1] = out[0, 2] = out[1, 0] = out[2, 0] = 0.0
    return out


# The half-turn about the first axis, exact: rotation(pi) is not, since
# sin(pi) != 0 in floating point.
_HALF_TURN = np.diag([1.0, -1.0, -1.0])


def project_to_parallel_set(q: Point) -> Point:
    """Nearest block-diagonal point, in closed form: the midpoint of q and
    R q R, for R the half-turn about the first axis.

    The parallel set is the fixed set of the isometric involution
    p -> R p R.  The geodesic from q to its nearest point y meets the set
    normally (Bridson-Haefliger II.2.4), and the involution reverses the
    normal directions, so it continues that geodesic through y to R q R.
    Each pass works in the chart of a block-diagonal centre b, which R
    fixes: with q_c = b^{-1/2} q b^{-1/2} and the SVD
    q_c^{-1/2} R q_c^{1/2} = W S V^T, the midpoint is L L^T with
    L = b^{1/2} q_c^{1/2} W S^{1/2}.  The first pass centres at the block
    part of q; the second, at the block part of the first result, is the
    more accurate for starting nearer the answer.
    """
    centre = Point(_block_part(q.mat))
    for _ in range(2):
        qc = Point(centre.inv_sqrt() @ q.mat @ centre.inv_sqrt())
        qc_half = qc.sqrt()
        w, sv, _ = np.linalg.svd(qc.inv_sqrt() @ _HALF_TURN @ qc_half)
        # L L^T is symmetric by construction, unlike a sandwich product
        half = centre.sqrt() @ qc_half @ (w * np.sqrt(sv))
        centre = Point(_block_part(half @ half.T))
    return centre


# -- cylindrical coordinates -------------------------------------------------


@dataclass(frozen=True)
class ParallelCoords:
    """Fiber polar part (s, alpha), axis coordinate r, and base polar part
    (t, beta) of a point, in the trivialization by parallel transport."""

    s: float
    alpha: float
    r: float
    t: float
    beta: float

    def __post_init__(self):
        if self.s < 0.0 or self.t < 0.0:
            raise ValueError("radial coordinates must be nonnegative")
        object.__setattr__(self, "alpha", float(self.alpha) % (2.0 * np.pi))
        object.__setattr__(self, "beta", float(self.beta) % (2.0 * np.pi))


def parallel_part(c: ParallelCoords) -> np.ndarray:
    """The tangent direction r p0 + t R_{beta/2} p1 R_{-beta/2}."""
    rb = rotation(c.beta / 2.0)
    return c.r * P0 + c.t * (rb @ P1 @ rb.T)


def fiber_part(c: ParallelCoords) -> np.ndarray:
    """The tangent direction s R_alpha f1 R_{-alpha}."""
    ra = rotation(c.alpha)
    return c.s * (ra @ F1 @ ra.T)


def point_from_coords(c: ParallelCoords) -> Point:
    """The point B B^T for B = exp(parallel part) exp(fiber part)."""
    eu = _sym_func(parallel_part(c), np.exp)
    ew2 = _sym_func(2.0 * fiber_part(c), np.exp)
    return Point(eu @ ew2 @ eu)


def coords_from_point(p: Point) -> ParallelCoords:
    """Invert :func:`point_from_coords` via the nearest-point projection.

    The block-diagonal projection determines (r, t, beta); conjugating it
    away leaves the fiber exponential, which determines (s, alpha).  The
    angles collapse (and are reported as 0) when s = 0 or t = 0.
    """
    base = project_to_parallel_set(p)
    u = 0.5 * base.log()
    r = float(u[0, 0]) / 2.0
    m = u[1:, 1:] + r * np.eye(2)
    t = 2.0 * float(np.hypot(m[0, 0], m[0, 1]))
    beta = float(np.arctan2(m[0, 1], m[0, 0])) if t > 1e-12 else 0.0
    eu_inv = _sym_func(-u, np.exp)
    residue = check_symmetric(eu_inv @ p.mat @ eu_inv, tol=1e-8)
    w = 0.5 * _sym_func(Point(residue).mat, np.log)
    s = float(np.hypot(w[0, 1], w[0, 2]))
    alpha = float(np.arctan2(w[0, 2], w[0, 1])) if s > 1e-12 else 0.0
    return ParallelCoords(s=s, alpha=alpha, r=r, t=t, beta=beta)


# -- zeta angles -------------------------------------------------------------


def _check_regular(lam: np.ndarray, *more) -> None:
    """Reject a segment with descending log-eigenvalues ``lam`` that is
    degenerate, at or too near a wall, or numerically tied; ``more`` adds
    (failed, error) checks made after these (see ``errors.raise_first``).
    Leading stack axes of ``lam`` check one segment each."""
    phi = _chamber_phi(lam)
    checks = [
        (_norm(lam) < 1e-12, lambda i: DomainError("segment undefined for coincident points")),
        (np.minimum(phi, CHAMBER_MAX - phi) < REGULARITY_WALL_TOL,
         lambda i: RegularityError(f"segment type {phi[i]:.3e} is too close to a wall")),
        ((lam[..., 0] - lam[..., 1] < EIGEN_TIE_TOL) | (lam[..., 1] - lam[..., 2] < EIGEN_TIE_TOL),
         lambda i: RegularityError("eigenvalue tie: segment is numerically singular")),
        *more,
    ]
    if _any(reduce(operator.or_, (failed for failed, _ in checks))):
        raise_first(checks)


def _regular_frame(p: Point, q: Point):
    """Descending eigenvalues and frame of the segment log; rejects
    segments at or too near the walls."""
    w, u = _relative_eigh(p, q)
    logw = np.log(w)
    lam = (logw - logw.mean())[::-1]
    _check_regular(lam)
    return lam, u[:, ::-1]


def zeta_direction(p: Point, q: Point) -> np.ndarray:
    """Unit-sector bisector direction U diag(1, 0, -1) U^T of the Weyl
    sector through q, in the identity chart at p."""
    _, u = _regular_frame(p, q)
    return np.outer(u[:, 0], u[:, 0]) - np.outer(u[:, 2], u[:, 2])


def zeta_angle(p: Point, q: Point, q2: Point) -> float:
    """Angle at p between the chamber bisector rays toward q and q2."""
    return matrix_angle(zeta_direction(p, q), zeta_direction(p, q2))


# -- flags and maximal flats -------------------------------------------------


def _canonical_unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-300:
        raise DomainError("cannot normalize the zero vector")
    v = v / n
    k = int(np.argmax(np.abs(v)))
    return -v if v[k] < 0 else v


@dataclass(frozen=True)
class Flag:
    """Incident point-line pair: unit vector and unit covector up to sign."""

    point: np.ndarray
    line: np.ndarray

    def __post_init__(self):
        point = _canonical_unit(self.point)
        line = _canonical_unit(self.line)
        if abs(float(line @ point)) > 1e-10:
            raise DomainError("flag is not incident")
        point.flags.writeable = False
        line.flags.writeable = False
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "line", line)


def flag_of_sector(p: Point, q: Point) -> Flag:
    """Ideal flag of the Weyl sector with tip p containing q: the top
    eigendirection as the point, the plane missing the bottom one as the
    line."""
    _, u = _regular_frame(p, q)
    point = p.sqrt() @ u[:, 0]
    line = p.inv_sqrt() @ u[:, 2]
    return Flag(point=point, line=line)


@dataclass(frozen=True)
class Flat:
    """Maximal flat {g diag(e^a, e^b, e^{-a-b}) g^T} given by its frame."""

    frame: np.ndarray

    def __post_init__(self):
        frame = np.array(self.frame, dtype=float)
        d = float(np.linalg.det(frame))
        if abs(d) < 1e-12:
            raise DomainError("flat frame is singular")
        if d < 0:
            # flipping one column's sign leaves the flat unchanged
            frame[:, 1] = -frame[:, 1]
            d = -d
        frame = frame / d ** (1.0 / 3.0)
        frame.flags.writeable = False
        object.__setattr__(self, "frame", frame)

    def point_at(self, a: float, b: float) -> Point:
        d = np.exp([a, b, -a - b])
        return Point((self.frame * d) @ self.frame.T)


def flat_from_flags(f_minus: Flag, f_plus: Flag, tol: float = 1e-8) -> Flat:
    """The unique maximal flat asymptotic to two opposite chambers.

    The frame columns are (point of f_plus, intersection of the two
    lines, point of f_minus); genericity requires the cross pairings and
    the resulting determinant to stay away from zero.
    """
    if abs(float(f_plus.line @ f_minus.point)) < tol:
        raise OppositionError("point of f_minus lies on the line of f_plus")
    if abs(float(f_minus.line @ f_plus.point)) < tol:
        raise OppositionError("point of f_plus lies on the line of f_minus")
    middle = np.cross(f_plus.line, f_minus.line)
    if np.linalg.norm(middle) < tol:
        raise OppositionError("the two flag lines coincide")
    g = np.column_stack([f_plus.point, middle / np.linalg.norm(middle), f_minus.point])
    if abs(float(np.linalg.det(g))) < tol:
        raise OppositionError("flags are not in general position")
    return Flat(frame=g)


def _flat_minimize(flat, f_p, finv_p, lp, lpi, noise_cap=1e-6):
    """Minimize half the squared distance from the factored point
    (f_p e^{lp})(f_p e^{lp})^T over the flat, in its affine (a, b) chart.

    Works entirely through G(a, b) = D^{-1/2} g^{-1} F_p and its inverse,
    whose top singular values give all three relative log-eigenvalues by
    duality.  Undamped Newton steps: with G G^T = U diag(e^l) U^T and
    E~_k = U^T E_k U for E_a = diag(1, 0, -1), E_b = diag(0, 1, -1), the
    curvature R(X,Y)Z = -[[X,Y],Z]/4 gives the Hessian
    H_kl = sum_ij E~_k,ij E~_l,ij phi(l_i - l_j), phi(mu) = (mu/2)/tanh(mu/2)
    >= 1, so H dominates the chart's Gram matrix [[2, 1], [1, 2]] and no
    step outruns the unit gradient step.  Returns (a, b, distance, steps).
    A step that lowers the distance by at most 5e-15 max(1, d) returns at
    the current point if the gradient is below ``noise_cap`` and raises
    ConvergenceError otherwise.
    """
    g = flat.frame
    ginv = np.linalg.inv(g)
    gram_inv = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0

    h = ginv @ f_p
    hs = np.max(np.abs(h))
    hh = (h / hs) @ (h / hs).T
    dlog = np.log(np.maximum(np.diag(hh), 1e-300)) + 2.0 * (lp + np.log(hs))
    a, b = float(dlog[0] - dlog.mean()), float(dlog[1] - dlog.mean())

    def lambdas(aa, bb):
        half = np.exp([-aa / 2.0, -bb / 2.0, (aa + bb) / 2.0])
        gh = (ginv * half[:, None]) @ f_p
        gh_i = finv_p @ (g * (1.0 / half)[None, :])
        l1 = 2.0 * (np.log(np.linalg.svd(gh, compute_uv=False)[0]) + lp)
        l3 = -2.0 * (np.log(np.linalg.svd(gh_i, compute_uv=False)[0]) + lpi)
        return float(np.linalg.norm([l1, -l1 - l3, l3])), gh

    dist, gh = lambdas(a, b)
    for iteration in range(PROJECTION_MAX_ITER):
        w, uvecs = np.linalg.eigh(gh @ gh.T)
        if w[0] <= 0:
            # the gradient products are at their cancellation floor
            if noise_cap >= 1e-2:
                return a, b, dist, iteration
            raise DomainError("degenerate relative matrix in flat projection")
        ell = np.log(w)
        # E~_k = U^T E_k U; the log vector's components along (E_a, E_b)
        # are the traces of E~_k against diag(l)
        e_t = np.einsum("ki,ia,ib->kab", [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]], uvecs, uvecs)
        rhs = np.einsum("kii,i->k", e_t, ell)
        gnorm = float(np.sqrt(max(rhs @ gram_inv @ rhs, 0.0)))
        if gnorm <= PROJECTION_TOL:
            return a, b, dist, iteration
        half_gap = (ell[:, None] - ell[None, :]) / 2.0
        phi = np.divide(half_gap, np.tanh(half_gap), out=np.ones((3, 3)),
                        where=half_gap != 0.0)
        hess = np.einsum("kab,lab,ab->kl", e_t, e_t, phi)
        delta = np.linalg.solve(hess, rhs)
        dist_try, gh_try = lambdas(a + delta[0], b + delta[1])
        if dist - dist_try <= 5e-15 * max(1.0, dist):
            # the gradient is at its noise floor.  On d, not d^2: a 1e-14
            # floor on d^2 ends a solve at d = 7e-4 with d 7e-12 too large
            if gnorm <= noise_cap:
                return a, b, dist, iteration
            raise ConvergenceError(
                "flat projection stalled", iterations=iteration, grad_norm=gnorm
            )
        a, b = a + delta[0], b + delta[1]
        gh, dist = gh_try, dist_try
    raise ConvergenceError(
        "flat projection did not converge", iterations=PROJECTION_MAX_ITER, grad_norm=gnorm
    )


def flat_project(p: Point, flat: Flat):
    """Nearest point on the flat; returns (a, b, distance)."""
    a, b, dist, _ = _flat_minimize(flat, p.sqrt(), p.inv_sqrt(), 0.0, 0.0)
    return a, b, dist


def distance_to_flat(p: Point, flat: Flat) -> float:
    return flat_project(p, flat)[2]

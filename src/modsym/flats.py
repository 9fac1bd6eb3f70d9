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

from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DomainError, GeometryError, OppositionError,
                     PreconditionError, _row_major, raise_first)
from .factored import FIsometry, _lambdas, _product, _rescaled, finverse, fstack
from .symspace import (
    CHAMBER_MAX,
    EIGEN_TIE_TOL,
    F1,
    P0,
    P1,
    REGULARITY_WALL_TOL,
    ZETA,
    Point,
    _chamber_phi,
    _check_regular,
    _cross,
    _dot,
    _norm,
    _relative_eigh,
    _sym_func,
    _unstacked,
    check_symmetric,
    matrix_angle,
    rotation,
)

PROJECTION_TOL = 1e-10
PROJECTION_MAX_ITER = 500
# how far from one the determinant of a frame handed to the flat solver
# may be; the scaled frames Morse hands it reach 3e-10 on the geometry
# bench windows
FRAME_DET_TOL = 1e-6


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


def chamber_angle(v: np.ndarray):
    """Type angle in [0, pi/3] of a sorted trace-free triple; leading stack
    axes give one angle per triple."""
    v = np.asarray(v, dtype=float)
    raise_first([(_norm(v) < 1e-300,
                  lambda i: DomainError("chamber angle of the zero vector is undefined"))])
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

    def contains(self, phi):
        """Whether phi lies in the interval; one answer per entry of an array."""
        return (self.lo <= phi) & (phi <= self.hi)


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
#
# The frame builders take leading stack axes and return their checks as
# (failed, error) pairs in the order an unstacked call makes them (see
# ``errors.raise_first``): ``Flag``, ``flat_from_flags`` and ``Flat`` are
# their zero-axis cases, and ``_flat_frames`` chains them over a stack of
# flag pairs.


def _canonical_units(v: np.ndarray):
    """Each vector over its norm, signed so that its largest |entry| is
    positive, and where it is zero."""
    n = _norm(v)
    zero = n < 1e-300
    v = v / np.where(zero, 1.0, n)[..., None]
    top = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], axis=-1)
    return np.where(top < 0, -v, v), zero


def _unit_flags(point: np.ndarray, line: np.ndarray):
    """Canonical unit point and line of each flag, and the checks of ``Flag``."""
    point, zero_point = _canonical_units(point)
    line, zero_line = _canonical_units(line)

    def zero(i):
        return DomainError("cannot normalize the zero vector")

    return point, line, [
        (zero_point, zero),
        (zero_line, zero),
        (np.abs(_dot(line, point)) > 1e-10, lambda i: DomainError("flag is not incident")),
    ]


def _opposed_frames(plus_point, plus_line, minus_point, minus_line, tol):
    """Frame (point of f_plus, intersection of the two lines, point of
    f_minus) of each pair of flags, its determinant, and the checks of
    ``flat_from_flags``."""
    middle = _cross(plus_line, minus_line)
    n = _norm(middle)
    g = np.stack([plus_point, middle / np.where(n < tol, 1.0, n)[..., None], minus_point],
                 axis=-1)
    d = np.linalg.det(g)
    return g, d, [
        (np.abs(_dot(plus_line, minus_point)) < tol,
         lambda i: OppositionError("point of f_minus lies on the line of f_plus")),
        (np.abs(_dot(minus_line, plus_point)) < tol,
         lambda i: OppositionError("point of f_plus lies on the line of f_minus")),
        (n < tol, lambda i: OppositionError("the two flag lines coincide")),
        (np.abs(d) < tol, lambda i: OppositionError("flags are not in general position")),
    ]


def _normalised_frames(g: np.ndarray, d: np.ndarray):
    """Each frame, of determinant ``d``, made positive with one column's sign
    (which leaves the flat unchanged) and scaled to determinant one; and the
    check of ``Flat``."""
    singular = np.abs(d) < 1e-12
    frame = g.copy()
    frame[..., 1] = np.where((d < 0)[..., None], -g[..., 1], g[..., 1])
    # the cube root as float **, entry by entry: numpy's array power and
    # cbrt round differently on some entries
    root = np.array([x ** (1.0 / 3.0) for x in np.abs(d).ravel().tolist()]).reshape(d.shape)
    frame = frame / np.where(singular, 1.0, root)[..., None, None]
    return frame, [(singular, lambda i: DomainError("flat frame is singular"))]


def _flat_frames(points: np.ndarray, lines: np.ndarray, tol: float = 1e-8):
    """The flats of a stack of flag pairs, (f_plus, f_minus) along the
    second-last axis of ``points`` and ``lines``: the frames as
    ``flat_from_flags`` hands them to ``Flat``, the frames of those flats,
    and the checks of the two ``Flag``s, ``flat_from_flags`` and ``Flat`` in
    that order."""
    point, line, flag_checks = _unit_flags(points, lines)
    g, d, opposed = _opposed_frames(point[..., 0, :], line[..., 0, :],
                                    point[..., 1, :], line[..., 1, :], tol)
    frame, singular = _normalised_frames(g, d)
    flags = [(failed[..., slot], error) for slot in (0, 1) for failed, error in flag_checks]
    return g, frame, flags + opposed + singular


@dataclass(frozen=True)
class Flag:
    """Incident point-line pair: unit vector and unit covector up to sign."""

    point: np.ndarray
    line: np.ndarray

    def __post_init__(self):
        point, line, checks = _unit_flags(np.asarray(self.point, dtype=float),
                                          np.asarray(self.line, dtype=float))
        raise_first(checks)
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
        frame, checks = _normalised_frames(frame, np.linalg.det(frame))
        raise_first(checks)
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
    g, _, checks = _opposed_frames(f_plus.point, f_plus.line, f_minus.point, f_minus.line, tol)
    raise_first(checks)
    return Flat(frame=g)


_E_AB = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
_GRAM_INV = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0


def _flat_lambdas(a, b, g, ginv, target):
    """Distance from ``target`` to the chart points (a, b), and
    G(a, b) = D^{-1/2} g^{-1} F for the factor F of the target, one per
    entry of the stacks."""
    half = np.empty(a.shape + (3,))
    half[..., 0], half[..., 1], half[..., 2] = -a / 2.0, -b / 2.0, (a + b) / 2.0
    half = np.exp(half)
    point = FIsometry(g * (1.0 / half)[..., None, :], ginv * half[..., :, None])
    gh, gh_i, lg, lgi = _product(finverse(point), target)
    lam = _lambdas(np.linalg.svd(gh, compute_uv=False), np.linalg.svd(gh_i, compute_uv=False),
                   lg, lgi)
    return _norm(lam), gh


def _compact(go, *arrays):
    """The entries of each array where ``go`` is set; all of them where it
    is None."""
    return arrays if go is None else tuple(x[go] for x in arrays)


def _flat_minimize(frame, target: FIsometry, noise_cap=1e-6):
    """Minimize half the squared distance from the factored point
    ``target`` over the flat of ``frame``, in its affine (a, b) chart.

    Works entirely through the relative factor product
    G(a, b) = D^{-1/2} g^{-1} F of the flat point
    g D^{1/2}, D = diag(e^a, e^b, e^{-a-b}), and the target, whose
    relative log-eigenvalues ``factored._lambdas`` reads by duality.
    ``frame`` must have determinant one, as the frames of ``Flat`` and
    ``_flat_frames`` have: duality takes the middle log-eigenvalue from
    a zero sum, which holds only then, and with another determinant the
    steps stall on most targets.  A frame whose determinant is off one by
    more than ``FRAME_DET_TOL`` raises ``PreconditionError``.
    Undamped Newton steps: with G G^T = U diag(e^l) U^T and
    E~_k = U^T E_k U for E_a = diag(1, 0, -1), E_b = diag(0, 1, -1), the
    curvature R(X,Y)Z = -[[X,Y],Z]/4 gives the Hessian
    H_kl = sum_ij E~_k,ij E~_l,ij phi(l_i - l_j), phi(mu) = (mu/2)/tanh(mu/2)
    >= 1, so H dominates the chart's Gram matrix [[2, 1], [1, 2]] and no
    step outruns the unit gradient step.  Returns (a, b, distance, steps).
    A step that lowers the distance by at most 5e-15 max(1, d) returns at
    the current point if the gradient is below ``noise_cap`` and raises
    ConvergenceError otherwise.

    A (n, 3, 3) ``frame`` with a target stack and caps of length n, or one
    cap for all, makes one solve per entry; the steps run on the stack of
    entries still going, which an entry leaves when it returns.  A pass
    raises the first failure it meets at once, with ``row`` its index,
    and ``errors._row_major`` reruns the entries before it: the error is
    the one a loop over the entries meets first.  An entry whose factor
    products leave the float64 range fails the checks of
    ``factored._rescaled`` or ``_lambdas``.  Each entry equals the
    unstacked call bit for bit; an unstacked call is the one-entry case,
    returns Python numbers and raises with no ``row``.
    """
    stacked = np.ndim(frame) == 3
    g = np.asarray(frame, dtype=float)
    if not stacked:
        g, target = g[None], fstack([target])
    ginv = np.linalg.inv(g)
    caps = np.broadcast_to(noise_cap, len(g))
    det = np.linalg.det(g)
    off_one = ~(np.abs(det - 1.0) <= FRAME_DET_TOL)  # a NaN determinant too

    def newton(n):
        """One pass over the first n entries; its first failure raises."""
        out = np.empty((3, n))
        steps = np.zeros(n, dtype=int)
        rows, cap, inputs = np.arange(n), caps[:n], (g[:n], ginv[:n], target[:n])

        def settle(done):
            """Return the ``done`` entries at the current point; the mask of
            the entries that go on, or None if all do."""
            if not done.any():
                return None
            out[:, rows[done]] = a[done], b[done], dist[done]
            steps[rows[done]] = iteration
            return ~done

        try:
            raise_first([(off_one[:n], lambda i: PreconditionError(
                f"flat frame has determinant {det[i]:.17g}, not 1"))])
            h, lh = _rescaled(ginv[:n] @ target.mat[:n], target.lm[:n])
            dlog = np.log(np.maximum(np.diagonal(h @ h.swapaxes(-1, -2), axis1=-2, axis2=-1),
                                     1e-300)) + 2.0 * lh[:, None]
            mean = dlog.mean(axis=-1)
            a, b = dlog[:, 0] - mean, dlog[:, 1] - mean
            dist, gh = _flat_lambdas(a, b, *inputs)
            for iteration in range(PROJECTION_MAX_ITER):
                w, uvecs = np.linalg.eigh(gh @ gh.swapaxes(-1, -2))
                # at w <= 0 the gradient products are at their cancellation floor
                floor = w[:, 0] <= 0
                raise_first([(floor & ~(cap >= 1e-2), lambda i: DomainError(
                    "degenerate relative matrix in flat projection"))])
                rows, a, b, dist, w, uvecs, cap, *inputs = _compact(
                    settle(floor), rows, a, b, dist, w, uvecs, cap, *inputs)
                if not rows.size:
                    break
                ell = np.log(w)
                # E~_k = U^T E_k U; the log vector's components along (E_a, E_b)
                # are the traces of E~_k against diag(l)
                e_t = np.einsum("ki,...ia,...ib->...kab", _E_AB, uvecs, uvecs)
                rhs = np.einsum("...kii,...i->...k", e_t, ell)
                gnorm = np.sqrt(np.maximum(_dot((rhs[:, None, :] @ _GRAM_INV)[:, 0], rhs), 0.0))
                rows, a, b, dist, ell, e_t, rhs, gnorm, cap, *inputs = _compact(
                    settle(gnorm <= PROJECTION_TOL), rows, a, b, dist, ell, e_t, rhs, gnorm, cap,
                    *inputs)
                if not rows.size:
                    break
                half_gap = (ell[:, :, None] - ell[:, None, :]) / 2.0
                phi = np.divide(half_gap, np.tanh(half_gap), out=np.ones_like(half_gap),
                                where=half_gap != 0.0)
                hess = np.einsum("...kab,...lab,...ab->...kl", e_t, e_t, phi)
                delta = np.linalg.solve(hess, rhs[:, :, None])[:, :, 0]
                a_try, b_try = a + delta[:, 0], b + delta[:, 1]
                dist_try, gh_try = _flat_lambdas(a_try, b_try, *inputs)
                # the gradient is at its noise floor.  On d, not d^2: a 1e-14
                # floor on d^2 ends a solve at d = 7e-4 with d 7e-12 too large
                stall = dist - dist_try <= 5e-15 * np.maximum(1.0, dist)
                raise_first([(stall & ~(gnorm <= cap), lambda i: ConvergenceError(
                    "flat projection stalled", iterations=iteration,
                    grad_norm=float(gnorm[i])))])
                rows, a, b, dist, gh, gnorm, cap, *inputs = _compact(
                    settle(stall), rows, a_try, b_try, dist_try, gh_try, gnorm, cap, *inputs)
                if not rows.size:
                    break
            else:
                raise_first([(np.ones(rows.size, dtype=bool), lambda i: ConvergenceError(
                    "flat projection did not converge", iterations=PROJECTION_MAX_ITER,
                    grad_norm=float(gnorm[i])))])
        except GeometryError as exc:
            # from the entries still going to the stack
            exc.row = int(rows[exc.row]) if stacked else None
            raise
        return out, steps

    out, steps = _row_major(newton, len(g))
    if not stacked:
        return float(out[0, 0]), float(out[1, 0]), float(out[2, 0]), int(steps[0])
    return (*out, steps)


def flat_project(p: Point, flat: Flat):
    """Nearest point on the flat; returns (a, b, distance)."""
    a, b, dist, _ = _flat_minimize(flat.frame, FIsometry(p.sqrt(), p.inv_sqrt()))
    return a, b, dist


def distance_to_flat(p: Point, flat: Flat) -> float:
    return flat_project(p, flat)[2]

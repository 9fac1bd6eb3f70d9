"""Arbitrary-precision evaluation of the straightness diagnostics.

At large base coordinates the straightness deficit pi - zeta-angle decays
like e^{-c t} while the orbit data spans e^{+c' t} scales; once the
deficit falls under the double-precision noise floor the fast factored
path can only report noise.  This module recomputes the local midpoint
triples with mpmath at a precision chosen from the coordinate scale, so
monotone trends in the deficit remain measurable.  It also serves as an
independent oracle for the fast path at moderate coordinates.
"""

from __future__ import annotations

import functools

from mpmath import mp
from mpmath.matrices.eigen_symmetric import r_sy_tridiag, tridiag_eigen

from .errors import DegenerateTriangleError, DomainError
from .modgroup import F2Word, f2_inverse, f2_mul, f2_to_mod


# 3x3 matrices are nested lists of mpf.  A product is mp.fdot over the
# (row, column) pairs, in the order mp.matrix multiplies them, and a
# decomposition runs the EISPACK routines under mp.eigsy, so every value
# carries the bits the mp.matrix route gives, without its indexing cost.

_R3 = range(3)
_EYE = [[mp.one if i == j else mp.zero for j in _R3] for i in _R3]


def _mul(a, b):
    """a b, as mp.matrix.__mul__ forms it."""
    cols = list(zip(*b))
    return [[mp.fdot(row, col) for col in cols] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _diag(values):
    return [[values[i] if i == j else mp.zero for j in _R3] for i in _R3]


def _rotation(theta):
    c, s = mp.cos(theta), mp.sin(theta)
    return [[mp.one, mp.zero, mp.zero], [mp.zero, c, -s], [mp.zero, s, c]]


def _x_pair(s, t, theta):
    """Closed-form x = S W S and its inverse for the gauge-fixed point."""
    s, t = mp.mpf(s), mp.mpf(t)
    alpha = mp.mpf(theta) / 2
    S = _diag([mp.one, mp.e ** (t / 2), mp.e ** (-t / 2)])
    Si = _diag([mp.one, mp.e ** (-t / 2), mp.e ** (t / 2)])
    c, sn = mp.cos(alpha), mp.sin(alpha)
    wt = [[mp.zero, c, sn], [c, mp.zero, mp.zero], [sn, mp.zero, mp.zero]]
    wt2 = _mul(wt, wt)

    def expw(factor):
        sh, ch = mp.sinh(factor * s), mp.cosh(factor * s) - 1
        return [[_EYE[i][j] + sh * wt[i][j] + ch * wt2[i][j] for j in _R3] for i in _R3]

    return _mul(_mul(S, expw(2)), S), _mul(_mul(Si, expw(-2)), Si)


def _word_matrix(w, x, xinv, rot, rot2):
    """Left fold with the contragredient substitution rule; returns the
    matrix of an even word."""
    table = {"a": (x, xinv), "b": (rot, rot), "B": (rot2, rot2)}
    out = _EYE
    reversed_state = False
    for syll in w.syllables:
        plain, starred = table[syll]
        out = _mul(out, starred if reversed_state else plain)
        if syll == "a":
            reversed_state = not reversed_state
    if reversed_state:
        raise ValueError("odd word has no matrix")
    return out


class _Sym3(dict):
    """A 3x3 matrix keyed by (i, j), the interface mpmath's EISPACK
    routines index."""

    rows = 3


def _sym_eig_desc(m):
    """Descending eigenvalues and the matching eigenvector columns of a
    symmetric m: tred2 and imtql2, the routines of mp.eigsy, on a dict
    and lists."""
    q = _Sym3(((i, j), m[i][j]) for i in _R3 for j in _R3)
    d, e = [mp.zero] * 3, [mp.zero] * 3
    r_sy_tridiag(mp, q, d, e, calc_ev=True)
    tridiag_eigen(mp, d, e, q)
    # the routines store exact 0 and 1 as ints, which mp.matrix converts
    order = sorted(_R3, key=lambda i: -d[i])
    return ([mp.convert(d[i]) for i in order],
            [[mp.convert(q[r, i]) for i in order] for r in _R3])


def _congruence(g, m):
    """g m g^T."""
    return _mul(_mul(g, m), _transpose(g))


def _spd_pows(m, *exponents):
    """The powers m^e of an SPD matrix, one per exponent, from one
    eigendecomposition."""
    vals, q = _sym_eig_desc(m)
    return [_congruence(q, _diag([v**e for v in vals])) for e in exponents]


def _rel_frame(pis, q):
    """Descending log-eigenvalues and frame of log(p^{-1/2} q p^{-1/2}),
    given pis = p^{-1/2}; raises DomainError where they are all exactly 0."""
    vals, u = _sym_eig_desc(_mul(_mul(pis, q), pis))
    lam = [mp.log(v) for v in vals]
    mean = sum(lam) / 3
    lam = [v - mean for v in lam]
    if not any(lam):
        raise DomainError("segment undefined for coincident points")
    return lam, u


def _zeta_dir(u):
    """Zeta direction u_1 u_1^T - u_3 u_3^T of a relative frame."""
    return [[u[i][0] * u[j][0] - u[i][2] * u[j][2] for j in _R3] for i in _R3]


def _frobenius(a, b):
    return sum(a[i][j] * b[i][j] for i in _R3 for j in _R3)


def _angle_between(d1, d2):
    c = _frobenius(d1, d2) / 2
    c = max(min(c, mp.mpf(1)), mp.mpf(-1))
    return mp.acos(c)


def _chamber_angle(lam):
    e1 = (lam[0] - lam[2]) / mp.sqrt(2)
    e2 = (lam[0] - 2 * lam[1] + lam[2]) / mp.sqrt(6)
    return mp.atan2(e2, e1) + mp.pi / 6


def default_dps(s: float, t: float) -> int:
    """Working precision scaled to the orbit displacement at (s, t)."""
    return int(6.0 * (s + t)) + 80


def straightness_stats(s, t, theta, window: list[F2Word]):
    """Deficits pi - zeta-angle, spacings and types of the midpoint
    sequence along the window, via local midpoint triples in mpmath at
    ``default_dps(s, t)``.

    Everything that depends on one step is computed once per distinct
    step word, the chart m^{-1/2} of its midpoint only where a segment
    starts there, and each segment frame once per distinct pair of
    consecutive steps.  Returns a dict of float lists: deficits,
    spacings, types.
    """
    if len(window) < 4:
        raise ValueError("straightness needs at least 3 midpoints")
    with mp.workdps(default_dps(s, t)):
        x, xinv = _x_pair(s, t, theta)
        rot = _rotation(2 * mp.pi / 3)
        rot2 = _transpose(rot)
        half = mp.mpf(0.5)
        xis, xs = _spd_pows(x, -half, half)

        # the caches below live for this call only
        @functools.cache
        def step(w: F2Word):
            """The step's matrix g, its inverse and the local midpoint
            m = mid(x, g x g^T)."""
            g = _word_matrix(f2_to_mod(w), x, xinv, rot, rot2)
            (root,) = _spd_pows(_mul(_mul(xis, _congruence(g, x)), xis), half)
            return g, mp.inverse(g).tolist(), _mul(_mul(xs, root), xs)

        @functools.cache
        def chart(w: F2Word):
            """m^{-1/2} of the step's local midpoint, the chart a segment
            from it is measured in; a step that is only the window's last
            has none."""
            return _spd_pows(step(w)[2], -half)[0]

        @functools.cache
        def forward(u: F2Word, v: F2Word):
            """Frame of the segment from the midpoint of u on to the
            midpoint of v, in the chart of u."""
            g = step(u)[0]
            return _rel_frame(chart(u), _congruence(g, step(v)[2]))

        @functools.cache
        def back(u: F2Word, v: F2Word):
            """Frame of the segment from the midpoint of v back to the
            midpoint of u, in the chart of v."""
            _, ginv, mid = step(u)
            return _rel_frame(chart(v), _congruence(ginv, mid))

        steps = [f2_mul(f2_inverse(w_prev), w_next) for w_prev, w_next in zip(window, window[1:])]
        pairs = list(zip(steps, steps[1:]))
        frames = [forward(u, v) for u, v in pairs]
        spacings = [float(mp.sqrt(sum(v**2 for v in lam))) for lam, _ in frames]
        types = [float(_chamber_angle(lam)) for lam, _ in frames]
        deficits = [
            float(mp.pi - _angle_between(_zeta_dir(back(*pair)[1]), _zeta_dir(frame)))
            for pair, (_, frame) in zip(pairs, frames[1:])
        ]
    return {"deficits": deficits, "spacings": spacings, "types": types}


def triangle_angle(s, t, theta) -> float:
    """Vertex angle at x of the orbit triangle (x, bx, b^2 x), at
    ``default_dps(s, t)``."""
    with mp.workdps(default_dps(s, t)):
        x, _ = _x_pair(s, t, theta)
        rot = _rotation(2 * mp.pi / 3)
        y = _congruence(rot, x)
        z = _congruence(rot, y)
        (xis,) = _spd_pows(x, mp.mpf(-0.5))
        try:
            lam_y, uy = _rel_frame(xis, y)
            lam_z, uz = _rel_frame(xis, z)
        except DomainError as exc:
            raise DegenerateTriangleError(
                "orbit triangle collapses: the rotation fixes the inversion center") from exc
        vy = _congruence(uy, _diag(lam_y))
        vz = _congruence(uz, _diag(lam_z))
        ny = mp.sqrt(sum(v**2 for row in vy for v in row))
        nz = mp.sqrt(sum(v**2 for row in vz for v in row))
        c = _frobenius(vy, vz) / (ny * nz)
        c = max(min(c, mp.mpf(1)), mp.mpf(-1))
        return float(mp.acos(c))

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
import math

from mpmath import mp
from mpmath.libmp import (ComplexResult, finf, fninf, fone, fzero, from_man_exp, mpf_abs,
                          mpf_add, mpf_div, mpf_ge, mpf_gt, mpf_le, mpf_lt, mpf_mul,
                          mpf_mul_int, mpf_neg, mpf_rdiv_int, mpf_sub, mpf_sum, normalize1)
from mpmath.libmp.libmpf import reciprocal_rnd

from .errors import DegenerateTriangleError, DomainError
from .modgroup import F2Word, f2_inverse, f2_mul, f2_to_mod


# 3x3 matrices are nested lists of mpf.  The hot kernels (products,
# decompositions and their square roots) run on libmp's raw (sign, man,
# exp, bc) tuples, each operation in the order and with the rounding that
# mp.matrix and mp.eigsy use, so every value carries the bits the
# mp.matrix route gives, without the mpf object and dispatch cost.

_R3 = range(3)
_EYE = [[mp.one if i == j else mp.zero for j in _R3] for i in _R3]


def _raw(a):
    return [[v._mpf_ for v in row] for row in a]


def _mul(a, b):
    """a b, as mp.matrix.__mul__ forms it: mp.fdot of each (row, column)
    pair, an exact product per term and one rounded sum."""
    prec, rnd = mp._prec_rounding
    make = mp.make_mpf
    cols = list(zip(*_raw(b)))
    return [[make(mpf_sum([mpf_mul(x, y) for x, y in zip(row, col)], prec, rnd))
             for col in cols] for row in _raw(a)]


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


def _sqrt(v, prec, rnd):
    """libmp.mpf_sqrt of a raw value, step for step, with math.isqrt in
    place of its sqrtrem: the floor square root is unique, so the bits
    are the same."""
    sign, man, exp, bc = v
    if sign:
        raise ComplexResult("square root of a negative number")
    if not man:
        return v
    if exp & 1:
        exp -= 1
        man <<= 1
        bc += 1
    elif man == 1:
        return normalize1(sign, man, exp // 2, bc, prec, rnd)
    shift = max(4, 2 * prec - bc + 4)
    shift += shift & 1
    man <<= shift
    root = math.isqrt(man)
    if rnd not in "fd" and root * root != man:
        # perturb up, as mpf_sqrt does on a nonzero remainder
        root = (root << 1) + 1
        shift += 2
    return from_man_exp(root, (exp - shift) // 2, prec, rnd)


# v ** e for the exponents e = +-1/2 of _spd_pows, as mpf_pow forms them:
# the root, and one over the root taken at prec + 10
_HALF_POWERS = {
    0.5: _sqrt,
    -0.5: lambda v, prec, rnd: mpf_div(
        fone, _sqrt(v, prec + 10, reciprocal_rnd[rnd]), prec, rnd),
}


def _hypot1(x, prec, rnd):
    """mp.hypot(x, 1), as libmp.mpf_hypot forms it."""
    if x == fzero:
        return mpf_abs(fone, prec, rnd)
    return _sqrt(mpf_add(mpf_mul(x, x), fone, prec + 4), prec, rnd)


def _tred2(a, prec, rnd):
    """mpmath's r_sy_tridiag (EISPACK tred2) with calc_ev on a raw
    symmetric 3x3 a, in place: returns the diagonal d and off-diagonal e
    of the tridiagonal form and leaves its orthogonal basis in a.  The
    routine's exact ints 0 and 1 are fzero and fone, which round alike."""
    n = 3
    d, e = [fzero] * n, [fzero] * n
    for i in range(n - 1, 0, -1):
        scale = fzero
        for k in range(i):
            scale = mpf_add(scale, mpf_abs(a[k][i], prec, rnd), prec, rnd)
        scale_inv = fzero
        if scale != fzero:
            scale_inv = mpf_rdiv_int(1, scale, prec, rnd)
        if i == 1 or scale == fzero or scale_inv in (finf, fninf):
            e[i] = a[i - 1][i]
            d[i] = fzero
            continue
        h = fzero
        for k in range(i):
            a[k][i] = mpf_mul(a[k][i], scale_inv, prec, rnd)
            h = mpf_add(h, mpf_mul(a[k][i], a[k][i], prec, rnd), prec, rnd)
        f = a[i - 1][i]
        g = _sqrt(h, prec, rnd)
        if mpf_gt(f, fzero):
            g = mpf_neg(g, prec, rnd)
        e[i] = mpf_mul(scale, g, prec, rnd)
        h = mpf_sub(h, mpf_mul(f, g, prec, rnd), prec, rnd)
        a[i - 1][i] = mpf_sub(f, g, prec, rnd)
        f = fzero
        for j in range(i):
            a[i][j] = mpf_div(a[j][i], h, prec, rnd)
            g = fzero
            for k in range(j + 1):
                g = mpf_add(g, mpf_mul(a[k][j], a[k][i], prec, rnd), prec, rnd)
            for k in range(j + 1, i):
                g = mpf_add(g, mpf_mul(a[j][k], a[k][i], prec, rnd), prec, rnd)
            e[j] = mpf_div(g, h, prec, rnd)
            f = mpf_add(f, mpf_mul(e[j], a[j][i], prec, rnd), prec, rnd)
        hh = mpf_div(f, mpf_mul_int(h, 2, prec, rnd), prec, rnd)
        for j in range(i):
            f = a[j][i]
            g = mpf_sub(e[j], mpf_mul(hh, f, prec, rnd), prec, rnd)
            e[j] = g
            for k in range(j + 1):
                a[k][j] = mpf_sub(a[k][j], mpf_add(mpf_mul(f, e[k], prec, rnd),
                                                   mpf_mul(g, a[k][i], prec, rnd), prec, rnd),
                                  prec, rnd)
        d[i] = h
    e = e[1:] + [fzero]
    d[0] = fzero
    for i in range(n):
        if d[i] != fzero:
            for j in range(i):
                g = fzero
                for k in range(i):
                    g = mpf_add(g, mpf_mul(a[i][k], a[k][j], prec, rnd), prec, rnd)
                for k in range(i):
                    a[k][j] = mpf_sub(a[k][j], mpf_mul(g, a[k][i], prec, rnd), prec, rnd)
        d[i] = a[i][i]
        a[i][i] = fone
        for j in range(i):
            a[j][i] = a[i][j] = fzero
    return d, e


def _imtql2(d, e, z, prec, rnd):
    """mpmath's tridiag_eigen (EISPACK imtql2) on raw values, in place:
    the eigenvalues of the tridiagonal (d, e) into d in ascending order,
    and z times the eigenvector matrix into z."""
    n = 3
    e[n - 1] = fzero
    iterlim = 2 * mp.dps
    eps = (0, 1, 1 - prec, 1)
    for l in range(n):
        j = 0
        while True:
            m = l
            while m + 1 != n:
                # a small subdiagonal element
                bound = mpf_mul(eps, mpf_add(mpf_abs(d[m], prec, rnd),
                                             mpf_abs(d[m + 1], prec, rnd), prec, rnd), prec, rnd)
                if mpf_le(mpf_abs(e[m], prec, rnd), bound):
                    break
                m += 1
            if m == l:
                break
            if j >= iterlim:
                raise RuntimeError(
                    "tridiag_eigen: no convergence to an eigenvalue after %d iterations" % iterlim)
            j += 1
            # form shift
            p = d[l]
            g = mpf_div(mpf_sub(d[l + 1], p, prec, rnd), mpf_mul_int(e[l], 2, prec, rnd),
                        prec, rnd)
            r = _hypot1(g, prec, rnd)
            s = (mpf_sub if mpf_lt(g, fzero) else mpf_add)(g, r, prec, rnd)
            g = mpf_add(mpf_sub(d[m], p, prec, rnd), mpf_div(e[l], s, prec, rnd), prec, rnd)
            s, c, p = fone, fone, fzero
            for i in range(m - 1, l - 1, -1):
                f = mpf_mul(s, e[i], prec, rnd)
                b = mpf_mul(c, e[i], prec, rnd)
                if mpf_gt(mpf_abs(f, prec, rnd), mpf_abs(g, prec, rnd)):
                    c = mpf_div(g, f, prec, rnd)
                    r = _hypot1(c, prec, rnd)
                    e[i + 1] = mpf_mul(f, r, prec, rnd)
                    s = mpf_rdiv_int(1, r, prec, rnd)
                    c = mpf_mul(c, s, prec, rnd)
                else:
                    s = mpf_div(f, g, prec, rnd)
                    r = _hypot1(s, prec, rnd)
                    e[i + 1] = mpf_mul(g, r, prec, rnd)
                    c = mpf_rdiv_int(1, r, prec, rnd)
                    s = mpf_mul(s, c, prec, rnd)
                g = mpf_sub(d[i + 1], p, prec, rnd)
                r = mpf_add(mpf_mul(mpf_sub(d[i], g, prec, rnd), s, prec, rnd),
                            mpf_mul(mpf_mul_int(c, 2, prec, rnd), b, prec, rnd), prec, rnd)
                p = mpf_mul(s, r, prec, rnd)
                d[i + 1] = mpf_add(g, p, prec, rnd)
                g = mpf_sub(mpf_mul(c, r, prec, rnd), b, prec, rnd)
                for row in z:
                    f = row[i + 1]
                    row[i + 1] = mpf_add(mpf_mul(s, row[i], prec, rnd),
                                         mpf_mul(c, f, prec, rnd), prec, rnd)
                    row[i] = mpf_sub(mpf_mul(c, row[i], prec, rnd),
                                     mpf_mul(s, f, prec, rnd), prec, rnd)
            d[l] = mpf_sub(d[l], p, prec, rnd)
            e[l] = g
            e[m] = fzero
    # selection sort, ascending; ties keep their order
    for i in range(n - 1):
        k, p = i, d[i]
        for j in range(i + 1, n):
            if not mpf_ge(d[j], p):
                k, p = j, d[j]
        if k != i:
            d[k], d[i] = d[i], p
            for row in z:
                row[i], row[k] = row[k], row[i]


def _sym_eig_desc(m):
    """Descending eigenvalues and the matching eigenvector columns of a
    symmetric m: tred2 and imtql2, the routines of mp.eigsy, bit for bit."""
    prec, rnd = mp._prec_rounding
    q = _raw(m)
    d, e = _tred2(q, prec, rnd)
    _imtql2(d, e, q, prec, rnd)
    make = mp.make_mpf
    vals = [make(v) for v in d]
    order = sorted(_R3, key=lambda i: -vals[i])
    return [vals[i] for i in order], [[make(row[i]) for i in order] for row in q]


def _congruence(g, m):
    """g m g^T."""
    return _mul(_mul(g, m), _transpose(g))


def _spd_pows(m, *exponents):
    """The powers m^e, e = +-1/2, of an SPD matrix, one per exponent,
    from one eigendecomposition."""
    vals, q = _sym_eig_desc(m)
    prec, rnd = mp._prec_rounding
    make = mp.make_mpf
    return [_congruence(q, _diag([make(_HALF_POWERS[e](v._mpf_, prec, rnd)) for v in vals]))
            for e in exponents]


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
        half = 0.5
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
        (xis,) = _spd_pows(x, -0.5)
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

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

from .errors import DegenerateTriangleError, DomainError
from .modgroup import F2Word, f2_inverse, f2_mul, f2_to_mod


def _rotation(theta):
    c, s = mp.cos(theta), mp.sin(theta)
    return mp.matrix([[1, 0, 0], [0, c, -s], [0, s, c]])


def _x_pair(s, t, theta):
    """Closed-form x = S W S and its inverse for the gauge-fixed point."""
    s, t = mp.mpf(s), mp.mpf(t)
    alpha = mp.mpf(theta) / 2
    S = mp.diag([1, mp.e ** (t / 2), mp.e ** (-t / 2)])
    Si = mp.diag([1, mp.e ** (-t / 2), mp.e ** (t / 2)])
    wt = mp.matrix(3, 3)
    wt[0, 1] = wt[1, 0] = mp.cos(alpha)
    wt[0, 2] = wt[2, 0] = mp.sin(alpha)
    wt2 = wt * wt
    eye = mp.eye(3)

    def expw(factor):
        return eye + mp.sinh(factor * s) * wt + (mp.cosh(factor * s) - 1) * wt2

    return S * expw(2) * S, Si * expw(-2) * Si


def _word_matrix(w, x, xinv, rot, rot2):
    """Left fold with the contragredient substitution rule; returns the
    matrix of an even word."""
    table = {"a": (x, xinv), "b": (rot, rot), "B": (rot2, rot2)}
    out = mp.eye(3)
    reversed_state = False
    for syll in w.syllables:
        plain, starred = table[syll]
        out = out * (starred if reversed_state else plain)
        if syll == "a":
            reversed_state = not reversed_state
    if reversed_state:
        raise ValueError("odd word has no matrix")
    return out


def _sym_eig_desc(m):
    e, q = mp.eigsy(m)
    pairs = sorted(((e[i], i) for i in range(3)), key=lambda p: -p[0])
    vals = [p[0] for p in pairs]
    cols = mp.matrix(3, 3)
    for j, (_, i) in enumerate(pairs):
        for r in range(3):
            cols[r, j] = q[r, i]
    return vals, cols


def _spd_pows(m, *exponents):
    """The powers m^e of an SPD matrix, one per exponent, from one
    eigendecomposition."""
    vals, q = _sym_eig_desc(m)
    return [q * mp.diag([v**e for v in vals]) * q.T for e in exponents]


def _rel_frame(pis, q):
    """Descending log-eigenvalues and frame of log(p^{-1/2} q p^{-1/2}),
    given pis = p^{-1/2}; raises DomainError where they are all exactly 0."""
    vals, u = _sym_eig_desc(pis * q * pis)
    lam = [mp.log(v) for v in vals]
    mean = sum(lam) / 3
    lam = [v - mean for v in lam]
    if not any(lam):
        raise DomainError("segment undefined for coincident points")
    return lam, u


def _zeta_dir(u):
    """Zeta direction u_1 u_1^T - u_3 u_3^T of a relative frame."""
    d = mp.matrix(3, 3)
    for i in range(3):
        for j in range(3):
            d[i, j] = u[i, 0] * u[j, 0] - u[i, 2] * u[j, 2]
    return d


def _angle_between(d1, d2):
    c = sum(d1[i, j] * d2[i, j] for i in range(3) for j in range(3)) / 2
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
        rot2 = rot.T
        half = mp.mpf(0.5)
        xis, xs = _spd_pows(x, -half, half)

        # the caches below live for this call only
        @functools.cache
        def step(w: F2Word):
            """The step's matrix g, its inverse and the local midpoint
            m = mid(x, g x g^T)."""
            g = _word_matrix(f2_to_mod(w), x, xinv, rot, rot2)
            (root,) = _spd_pows(xis * (g * x * g.T) * xis, half)
            return g, g**-1, xs * root * xs

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
            return _rel_frame(chart(u), g * step(v)[2] * g.T)

        @functools.cache
        def back(u: F2Word, v: F2Word):
            """Frame of the segment from the midpoint of v back to the
            midpoint of u, in the chart of v."""
            _, ginv, mid = step(u)
            return _rel_frame(chart(v), ginv * mid * ginv.T)

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
        y = rot * x * rot.T
        z = rot * y * rot.T
        (xis,) = _spd_pows(x, mp.mpf(-0.5))
        try:
            lam_y, uy = _rel_frame(xis, y)
            lam_z, uz = _rel_frame(xis, z)
        except DomainError as exc:
            raise DegenerateTriangleError(
                "orbit triangle collapses: the rotation fixes the inversion center") from exc
        vy = uy * mp.diag(lam_y) * uy.T
        vz = uz * mp.diag(lam_z) * uz.T
        ny = mp.sqrt(sum(vy[i, j] ** 2 for i in range(3) for j in range(3)))
        nz = mp.sqrt(sum(vz[i, j] ** 2 for i in range(3) for j in range(3)))
        c = sum(vy[i, j] * vz[i, j] for i in range(3) for j in range(3)) / (ny * nz)
        c = max(min(c, mp.mpf(1)), mp.mpf(-1))
        return float(mp.acos(c))

"""The matrix work of the mpmath oracle on ``mp.matrix``, with ``mp.eigsy``
for each decomposition.  ``modsym.highprec`` does the same work on nested
lists of mpf; the tests hold it to this route bit for bit, and use this
route where they want an mpmath matrix built independently of highprec.
"""

from mpmath import mp

from modsym.errors import DomainError


def rotation(theta):
    c, s = mp.cos(theta), mp.sin(theta)
    return mp.matrix([[1, 0, 0], [0, c, -s], [0, s, c]])


def x_pair(s, t, theta):
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


def word_matrix(w, x, xinv, rot, rot2):
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


def sym_eig_desc(m):
    e, q = mp.eigsy(m)
    pairs = sorted(((e[i], i) for i in range(3)), key=lambda p: -p[0])
    vals = [p[0] for p in pairs]
    cols = mp.matrix(3, 3)
    for j, (_, i) in enumerate(pairs):
        for r in range(3):
            cols[r, j] = q[r, i]
    return vals, cols


def spd_pows(m, *exponents):
    vals, q = sym_eig_desc(m)
    return [q * mp.diag([v**e for v in vals]) * q.T for e in exponents]


def rel_frame(pis, q):
    vals, u = sym_eig_desc(pis * q * pis)
    lam = [mp.log(v) for v in vals]
    mean = sum(lam) / 3
    lam = [v - mean for v in lam]
    if not any(lam):
        raise DomainError("segment undefined for coincident points")
    return lam, u


def zeta_dir(u):
    d = mp.matrix(3, 3)
    for i in range(3):
        for j in range(3):
            d[i, j] = u[i, 0] * u[j, 0] - u[i, 2] * u[j, 2]
    return d


def angle_between(d1, d2):
    c = sum(d1[i, j] * d2[i, j] for i in range(3) for j in range(3)) / 2
    c = max(min(c, mp.mpf(1)), mp.mpf(-1))
    return mp.acos(c)

"""Empirical Anosov diagnostics: orbit triangles, midpoint sequences along
discrete geodesics of the rank-two free subgroup, straightness and spacing
reports, singular-value-gap growth scans, the peripheral type (read from
tr rho(baba)) with the growth of the peripheral powers, and distance-to-flat
checks.

Everything here is a deterministic function of (coordinates, window or
seed, budget).  Orbit geometry runs on factored points, so the reports
stay meaningful at coordinate scales far beyond what explicit SPD
matrices can hold.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, islice, repeat, zip_longest
from typing import Sequence

import numpy as np

from .charvar import (
    ABAB,
    BABA,
    SURFACE_TOL,
    Coordinates,
    Representation,
    _f2_fold,
    _f2_tables,
    f2_fisometries,
    matrix_of,
    rep_from_coords,
)
from .errors import (
    DegenerateTriangleError,
    DomainError,
    GeometryError,
    PreconditionError,
    RegularityError,
    _row_major,
    raise_first,
)
from .factored import (
    FIsometry,
    fact,
    fcompose,
    fdistance,
    finverse,
    fmidpoint,
    fstack,
    fzeta_direction,
    seg_frame,
    seg_lambdas,
    seg_log_vector,
)
from .flats import (
    Flat,
    ModelInterval,
    _flat_frames,
    _flat_minimize,
    chamber_angle,
)
from .modgroup import (
    F2Word,
    f2_count,
    f2_inverse,
    f2_levels,
    f2_mul,
    f2_names,
    f2_rng,
    f2_sample,
    random_f2_geodesic,
)
from .symspace import _dot, _norm, matrix_angle


# -- orbit triangle ----------------------------------------------------------


@dataclass(frozen=True)
class TriangleReport:
    """Angles and side lengths of the orbit triangle (x, bx, b^2 x)."""

    sides: tuple[float, float, float]     # (xy, yz, zx)
    angles: tuple[float, float, float]    # at x, y, z


def triangle_report(rep: Representation) -> TriangleReport:
    x = rep.fx
    b = rep._letters["b"][0]
    y = fact(b, x)
    vertices = fstack([x, y, fact(b, y)])
    sides = fdistance(vertices, vertices[[1, 2, 0]]).tolist()
    if min(sides) < 1e-8:
        raise DegenerateTriangleError(
            "orbit triangle collapses: the rotation fixes the inversion center"
        )
    # at each vertex, the segments toward the next vertex and the one after
    logs = seg_log_vector(vertices[:, None], vertices[[[1, 2], [2, 0], [0, 1]]])
    return TriangleReport(
        sides=tuple(sides),
        angles=tuple(matrix_angle(logs[:, 0], logs[:, 1]).tolist()),
    )


# -- midpoint sequences ------------------------------------------------------


@dataclass(frozen=True)
class MidpointSequence:
    """Midpoints m_n = mid(x_n, x_{n+1}) of the orbit points x_n = rho(g_n) x.

    The midpoints are stored in local form, one stack entry per midpoint:
    ``local_mids[n]`` is mid(x, rho(steps[n]) x), so that m_n = rho(g_n)
    local_mids[n]; ``midpoints`` builds the global ones on first read.
    Everything measured between nearby midpoints is computed in the chart
    of the common orbit prefix: a product mat @ matinv of one large word
    never appears, which keeps the small relative eigenvalues meaningful
    at any scale.
    """

    rep: Representation
    words: tuple[F2Word, ...]
    steps: FIsometry        # steps[n] = rho(g_n^{-1} g_{n+1})
    local_mids: FIsometry   # local_mids[n] = mid(x, steps[n] x)
    equidistance_defect: float

    @cached_property
    def midpoints(self) -> tuple[FIsometry, ...]:
        return tuple(fact(f2_fisometries(self.rep, self.words[:-1]), self.local_mids))


def _local_midpoints(x: FIsometry, steps: FIsometry):
    """mid(x, step x) for each step of a stack, with its equidistance defect
    |d(m, x) - d(m, step x)| / max(1, d(m, x)).  The first stack axis of
    ``steps`` is the midpoint axis; trailing stack axes hold the windows of
    other points, whose x then stacks along them."""
    y = fact(steps, x)
    mids = fmidpoint(x, y)
    dp = fdistance(mids, x)
    return mids, np.abs(dp - fdistance(mids, y)) / np.fmax(1.0, dp)


def _step_words(words: tuple[F2Word, ...]) -> list[F2Word]:
    """g_n^{-1} g_{n+1} for consecutive words of a window."""
    return [f2_mul(f2_inverse(w_prev), w_next) for w_prev, w_next in zip(words, words[1:])]


def _defect(ratios: list[float]) -> float:
    """The equidistance defect of a window from its midpoints' ratios."""
    return max([0.0, *ratios])


def midpoint_sequence(rep: Representation, window: Sequence[F2Word]) -> MidpointSequence:
    """The midpoint sequence of the orbit of ``rep.fx`` along the window,
    with the steps between consecutive words, their local midpoints and
    the equidistance defect max |d(m, x) - d(m, step x)| / max(1, d(m, x)).

    A repeat call on the last window built (``morse_flat_check`` after
    its caller built the sequence) wraps the stacks of ``_window_stacks``
    in a new MidpointSequence.  The verdict's window does not come
    through here: ``_window_block`` runs the same stages.
    """
    words = tuple(window)
    if len(words) < 3:
        raise ValueError("geodesic window must contain at least 3 words")
    return MidpointSequence(rep, words, *_window_stacks(rep, words))


@lru_cache(maxsize=1)
def _window_stacks(rep: Representation, words: tuple[F2Word, ...]):
    """The steps and local midpoints of a window, as read-only stacks, and
    its equidistance defect.  The one entry is the last window built,
    keyed by the representation and the words; a window that raises
    leaves it as it was."""
    step_words = _step_words(words)
    n = len(step_words)
    steps = _row_major(lambda k: f2_fisometries(rep, step_words[:k]), n)
    mids, ratios = _row_major(lambda k: _local_midpoints(rep.fx, steps[:k]), n)
    for a in (steps.lm, steps.lmi, mids.lm, mids.lmi):
        a.flags.writeable = False
    return steps, mids, _defect(ratios.tolist())


@dataclass(frozen=True)
class StraightnessReport:
    """Quantitative discrete-geodesic data of a midpoint sequence."""

    min_zeta_angle: float
    min_spacing: float
    type_min: float
    type_max: float
    theta_interval: ModelInterval
    all_types_within: bool
    zeta_angles: tuple[float, ...]
    spacings: tuple[float, ...]


def _segments(steps: FIsometry, mids: FIsometry, count: int):
    """Segments n < count, from m_n to m_{n+1}, both in the chart of g_n:
    the next midpoint in that chart, the log-eigenvalues and the spacing.
    As in every window stage, the first stack axis is the midpoint axis."""
    nxt = fact(steps[:count], mids[1:count + 1])
    lam = seg_lambdas(mids[:count], nxt)
    spacing = _norm(lam)
    raise_first([(spacing < 1e-12, lambda i: RegularityError(
        f"midpoint segment {i[0]}: segment type undefined for coincident points"))])
    return nxt, lam, spacing


def _vertex_angles(steps: FIsometry, mids: FIsometry, nxt: FIsometry, count: int):
    """zeta-angles at m_n for 1 <= n <= count, between the segments back to
    m_{n-1} and on to m_{n+1}: both frames of a vertex in one stack."""
    prev = fact(finverse(steps[:count]), mids[:count])
    ends = fstack([prev, nxt[1:count + 1]], axis=1)
    try:
        directions = fzeta_direction(mids[1:count + 1, None], ends)
    except (RegularityError, DomainError) as exc:
        wrapped = RegularityError(f"midpoint vertex {exc.row + 1}: {exc}")
        wrapped.row = exc.row
        raise wrapped from exc
    return matrix_angle(directions[:, 0], directions[:, 1])


def _straightness_stacks(steps: FIsometry, mids: FIsometry, n_mid: int):
    """The zeta-angles, spacings and segment types of the windows of n_mid
    steps and local midpoints, as stacks whose first axis runs along the
    window."""
    if n_mid < 3:
        raise ValueError("straightness needs at least 3 midpoints")
    nxt, lam, spacing = _row_major(lambda k: _segments(steps, mids, k), n_mid - 1)
    zeta_angles = _row_major(lambda k: _vertex_angles(steps, mids, nxt, k), n_mid - 2)
    return zeta_angles, spacing, chamber_angle(lam)


def _report(zeta_angles: list, spacings: list, types: list,
            theta: ModelInterval) -> StraightnessReport:
    return StraightnessReport(
        min_zeta_angle=min(zeta_angles),
        min_spacing=min(spacings),
        type_min=min(types),
        type_max=max(types),
        theta_interval=theta,
        all_types_within=all(theta.contains(t) for t in types),
        zeta_angles=tuple(zeta_angles),
        spacings=tuple(spacings),
    )


def straightness_report(seq: MidpointSequence, theta: ModelInterval) -> StraightnessReport:
    stacks = _straightness_stacks(seq.steps, seq.local_mids, len(seq.words) - 1)
    return _report(*(a.tolist() for a in stacks), theta)


# -- Cartan gap scan ---------------------------------------------------------


@dataclass(frozen=True)
class GapReport:
    """Per-word singular-value gaps and the fitted linear lower bound
    gap >= c n - C (lower convex minorant of the per-length minima).

    ``letters[i]`` holds the words of the i-th length scanned as an int64
    letter array of shape (m, n); the rows of all lengths, in order, line
    up with ``lengths``, ``gap12`` and ``gap23``.  The letter arrays are
    the read-only tables of ``_scan_tables``, shared by every scan of the
    same configuration, enumerated or sampled.  ``words`` spells them as
    strings, built on first read.
    """

    letters: tuple[np.ndarray, ...]
    lengths: np.ndarray
    gap12: np.ndarray
    gap23: np.ndarray
    per_length_min: tuple[tuple[int, float], ...]
    slope_c: float
    intercept_C: float
    enumerated: bool
    seed: int
    products: int    # 3x3 products the fold formed

    @cached_property
    def words(self) -> tuple[str, ...]:
        return tuple(name for level in self.letters for name in f2_names(level))


# The closed form of the top eigenvalue reads it off arccos(r) / 3, which
# amplifies rounding like eps / delta as the top two eigenvalues close in
# (r -> -1, relative gap delta).  Rows with 1 + r below _TIE_MARGIN (top
# two within about 1%) go to LAPACK instead.  So do near-scalar Grams,
# with spread p at most _SCALAR_SPREAD times the mean eigenvalue q: they
# include orthogonal words and the fixed point, whose gaps are rounding
# noise that must stay the same noise as LAPACK's, and p = 0 leaves r
# undefined.
_TIE_MARGIN = 1e-3
_SCALAR_SPREAD = 1e-8


def _log_sigma1(mats: np.ndarray) -> np.ndarray:
    """log of the top singular value of each matrix of a planar (3, 3, ...)
    stack, where ``mats[i, j]`` holds entry (i, j) of every matrix, as half
    the log of the top eigenvalue of G G^T.  The entries must be rescaled
    to max |entry| 1, so that G G^T cannot overflow.

    The eigenvalue is the closed form q + 2 p cos(arccos(r) / 3) of a
    symmetric 3x3 matrix (O. K. Smith, CACM 4(4), 1961), from the six
    distinct entries of G G^T; rows near a top tie or a scalar Gram take
    ``eigvalsh`` instead (see _TIE_MARGIN)."""
    m = mats.reshape(3, 3, -1)
    # the Gram entries, as dot products of rows summed plane by plane
    a, d, f, b, c, e = (m[i, 0] * m[j, 0] + m[i, 1] * m[j, 1] + m[i, 2] * m[j, 2]
                        for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)))
    q = (a + d + f) / 3
    a, d, f = a - q, d - q, f - q
    p = np.sqrt((a * a + d * d + f * f + 2 * (b * b + c * c + e * e)) / 6)
    det = a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)
    scalar = p <= _SCALAR_SPREAD * q
    r = det / (2 * np.where(scalar, 1.0, p) ** 3)
    lam = q + 2 * p * np.cos(np.arccos(np.clip(r, -1.0, 1.0)) / 3)
    fallback = scalar | (1 + r < _TIE_MARGIN)
    if fallback.any():
        g = np.ascontiguousarray(np.moveaxis(m[:, :, fallback], -1, 0))
        lam[fallback] = np.linalg.eigvalsh(g @ np.swapaxes(g, -1, -2))[:, -1]
    return 0.5 * np.log(lam).reshape(mats.shape[2:])


def _rescale_batch(mats: np.ndarray):
    """Divide each matrix of a fresh planar (3, 3, m) stack in place by its
    max |entry|; return the stack and the log of each divisor.  A product
    that underflowed to 0 has no scale."""
    planes = mats.reshape(9, -1)
    s = np.abs(planes[0])
    for plane in planes[1:]:
        np.maximum(s, np.abs(plane), out=s)
    if not s.all():
        raise DomainError("word product underflows the float64 range")
    mats /= s
    return mats, np.log(s)


def _cartan_pair(mats, invs, lm, lmi):
    """(log sigma_1, log sigma_3) of each word, from the normalized
    (..., 3, 3) matrices of the words and of their inverses with their
    log-scales: sigma_3(g) = 1 / sigma_1(g^-1)."""
    l1 = _log_sigma1(np.moveaxis(mats, (-2, -1), (0, 1))) + lm
    return l1, -(_log_sigma1(np.moveaxis(invs, (-2, -1), (0, 1))) + lmi)


def _letter_planes(table: np.ndarray, letter: np.ndarray) -> np.ndarray:
    """The planar (3, 3, m) stack of table[letter[i]] for a (4, 3, 3) table."""
    return table.reshape(len(table), 9).T.take(letter, axis=1).reshape(3, 3, -1)


def _times_letters(mats: np.ndarray, letter: np.ndarray, table: np.ndarray):
    """mats[..., i] @ table[letter[i]] for a fresh planar (3, 3, m) stack,
    in place.  Each result row is three multiply-adds over whole planes,
    summed in index order, and is written back once its three products
    are formed.  Rounds like a per-matrix product with no fused
    multiply-add, so it can differ from ``matmul`` by a few ulp of the
    largest entry."""
    g = _letter_planes(table, letter)
    acc, term = np.empty((2, 3, mats.shape[2]))
    for row in mats:
        np.multiply(row[0], g[0], out=acc)
        acc += np.multiply(row[1], g[1], out=term)
        np.multiply(row[2], g[2], out=term)
        np.add(acc, term, out=row)
    return mats


@lru_cache(maxsize=4)
def _scan_tables(max_len: int, budget: int | None, seed: int | None):
    """The word tables of a gap scan, as read-only arrays shared by every
    scan of the same configuration: the levels, ``levels[i]`` holding the
    words of length i + 1 as int64 letters, and their prefix tree as
    ``_prefix_tree`` builds it.

    With ``budget`` None the levels are the complete ``f2_levels(max_len)``,
    which depend on max_len alone (``seed`` is None).  Otherwise every
    length n is drawn before the fold, in order, as min(budget // max_len
    (at least 1), f2_count(n)) words of ``f2_sample`` on ``f2_rng(seed)``."""
    if budget is None:
        levels = tuple(f2_levels(max_len))
    else:
        rng = f2_rng(seed)
        per_length = max(1, budget // max_len)
        levels = tuple(f2_sample(rng, min(per_length, f2_count(n)), n)
                       for n in range(1, max_len + 1))
    tree = tuple(_prefix_tree(levels))
    for table in (*levels, *(a for depth in tree for a in depth)):
        table.setflags(write=False)
    return levels, tree


def _prefix_tree(levels):
    """The prefix tree of levels, ``levels[i]`` holding words of length
    i + 1, as _prefix_fold reads it, built one depth at a time.  The rows
    of a level of m words are the words followed by their inverses: row
    m + i is the inverse of row i, whose k-th letter is the inverse of the
    word's k-th from the end.  The nodes at depth k are the distinct (node
    at depth k - 1, letter) pairs of the rows of length >= k, ascending,
    so a word drawn twice, or a prefix shared by a word and an inverse, is
    one node.  On the complete levels of ``f2_levels`` that numbering is
    their row order, so row i of each level is node i.  Parents and rows
    come as int32 and letters as int8: the fold reads them only as
    indices.  It runs once per configuration, for ``_scan_tables``."""
    # per live level (rows of length >= k): the node of each row at the
    # current depth
    rows = [np.zeros(2 * len(level), dtype=np.int64) for level in levels]
    for k in range(1, len(levels) + 1):
        live = levels[k - 1:]
        keys = np.concatenate([4 * r + np.concatenate([lv[:, k - 1], lv[:, lv.shape[1] - k] ^ 1])
                               for r, lv in zip(rows, live)])
        nodes, place = np.unique(keys, return_inverse=True)
        parent, letter = np.divmod(nodes, 4)
        rows = np.split(place, np.cumsum([2 * len(lv) for lv in live[:-1]]))
        yield parent.astype(np.int32), letter.astype(np.int8), rows.pop(0).astype(np.int32)


def _prefix_fold(tree, gmat, glm):
    """log sigma_1 of the rows of each level of a prefix tree, and the
    number of 3x3 products formed.

    ``tree`` gives one (parent, letter, rows) per depth k = 1, 2, ...:
    node j at depth k is node parent[j] at depth k - 1 followed by
    letter[j] (at depth 1, the empty word's, so parent is not read), and
    row i of the level of length k is node rows[i].  A
    node's normalized matrix is its parent's times its letter's, rescaled,
    and its log-scale is its parent's plus its letter's plus the rescale's.
    So each node is formed once, however many rows pass through it, in
    the same arithmetic whichever words share it, and only the previous
    depth is kept, as a planar (3, 3, nodes) stack.
    """
    l1 = []
    products = 0
    for k, (parent, letter, rows) in enumerate(tree, 1):
        if k == 1:
            mats, lm = _letter_planes(gmat, letter), glm[letter]
        else:
            # rebinding to the gather frees the previous depth's stack before
            # the product, which bounds the peak memory
            mats = mats.take(parent, axis=2)
            mats, logs = _rescale_batch(_times_letters(mats, letter, gmat))
            lm = lm[parent] + glm[letter] + logs
            products += len(letter)
        l1.append((_log_sigma1(mats) + lm)[rows])
    return l1, products


def cartan_gap_scan(
    rep: Representation,
    max_len: int,
    sample_budget: int | None = None,
    seed: int = 0,
) -> GapReport:
    """Gap growth over reduced words of the free subgroup up to max_len.

    Enumerates exhaustively when the full count of words fits in the
    budget (50 000 when None), otherwise draws a seeded uniform sample per
    length.  The draws are with replacement, so a sampled level may hold
    a word more than once: the fold forms it once, and each of its rows
    stays in the report.  The words and their prefix tree come from
    ``_scan_tables``, built once per max_len when enumerated and once per
    (max_len, budget, seed) when sampled, and shared read-only by every
    scan of that configuration.  The linear lower bound is fitted to the
    per-length minima of min(gap12, gap23).
    The generator matrices stay normalized and their log-scales are
    summed apart, so the scan works at any scale; one fold over the prefix
    tree of the words and their inverses forms each distinct product
    once, and sigma_3 of a word is read off its inverse's row.  A sampled
    word's gaps equal, bit for bit, those of its row in the complete
    enumeration of the same max-len.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if sample_budget is not None and sample_budget < 1:
        raise ValueError("sample_budget must be >= 1")
    budget = sample_budget if sample_budget is not None else 50_000
    enumerated = sum(f2_count(n) for n in range(1, max_len + 1)) <= budget
    # the complete levels are one table per max_len, whatever the budget or seed
    tables = _scan_tables(max_len, None, None) if enumerated else _scan_tables(max_len, budget, seed)
    return _gap_report(rep, tables, enumerated, seed)


def _gap_report(rep: Representation, tables, enumerated: bool, seed: int) -> GapReport:
    """The gap scan of ``rep`` over the (levels, tree) of ``_scan_tables``."""
    letters, tree = tables
    g = rep.f2_generators()
    l1s, products = _prefix_fold(tree, g.mat, g.lm)
    gap12, gap23 = [], []
    for l1, level in zip(l1s, letters):
        # sigma_3(w) = 1 / sigma_1(w^-1), read off the row of w^-1
        l1, l3 = l1[:len(level)], -l1[len(level):]
        l2 = -l1 - l3
        gap12.append(l1 - l2)
        gap23.append(l2 - l3)

    per_len = [
        (level.shape[1], float(np.minimum(g12, g23).min()))
        for level, g12, g23 in zip(letters, gap12, gap23)
    ]
    # the last edge of the lower convex minorant is the steepest secant
    # into the last per-length minimum
    n_last, y_last = per_len[-1]
    c = max(((y_last - y) / (n_last - n) for n, y in per_len[:-1]), default=0.0)
    return GapReport(
        letters=letters,
        lengths=np.concatenate([np.full(len(level), level.shape[1]) for level in letters]),
        gap12=np.concatenate(gap12),
        gap23=np.concatenate(gap23),
        per_length_min=tuple(per_len),
        slope_c=float(c),
        intercept_C=float(c * n_last - y_last),
        enumerated=enumerated,
        seed=seed,
        products=products,
    )


def word_cartan(rep: Representation, w: F2Word) -> np.ndarray:
    """Cartan vector of one reduced word, by the forward/inverse duality
    (accurate for all three entries at any word length)."""
    g, gi = f2_fisometries(rep, [w, f2_inverse(w)])
    l1, l3 = _cartan_pair(g.mat, gi.mat, g.lm, gi.lm)
    return np.array([l1, -l1 - l3, l3])


# -- peripheral growth -------------------------------------------------------


@dataclass(frozen=True)
class PeripheralGrowthReport:
    """Cartan spread of the powers of the peripheral element rho(baba),
    with its type read from tau = tr rho(baba): ``"linear"`` when rho(baba)
    is loxodromic, with ``kappa = log |mu_1 / mu_3|``, and ``"log"``
    otherwise, with ``kappa`` the slope of ``gaps`` against ``log ns``.

    ``element`` is rho(baba) as an FIsometry of its unscaled float64
    matrix and that of its inverse, with their log-scales.  ``gaps``
    folds its powers on first read; on the ``"log"`` side
    ``peripheral_growth`` has formed them already, for kappa.
    """

    ns: np.ndarray
    model: str            # "log" or "linear"
    kappa: float
    element: FIsometry

    @cached_property
    def gaps(self) -> np.ndarray:
        return _peripheral_spread(self.element, len(self.ns))


# Largest binary exponent the float64 copy of a word matrix may reach:
# 2^1020 leaves room for the three-term sums of the power products.
_FLOAT_EXP_MAX = 1020


def _as_float(m: np.ndarray):
    """(m 2^-k as float64, k log 2) for an extended-precision matrix, with
    the least k >= 0 that keeps every entry below 2^_FLOAT_EXP_MAX; the
    scaling is exact, and k = 0 leaves m as a plain cast."""
    k = max(0, int(np.frexp(np.max(np.abs(m)))[1]) - _FLOAT_EXP_MAX)
    return np.ldexp(m, -k).astype(float), k * float(np.log(2.0))


def _peripheral_powers(element: FIsometry, n_max: int) -> FIsometry:
    """P^n for n = 1..n_max as an (n_max,) stack, where ``element`` is P:
    step n is ``fcompose(P^(n-1), P)`` from the identity, so the inverse
    the fold maintains is P^-n.  The first step whose product leaves the
    float64 range or is 0 raises its DomainError, forward before
    inverse."""
    # such a product overflows or turns NaN in matmul, before _rescaled
    # raises for it
    with np.errstate(over="ignore", invalid="ignore"):
        powers = accumulate(repeat(element, n_max), fcompose, initial=FIsometry.identity())
        return fstack(islice(powers, 1, None))


def _peripheral_spread(element: FIsometry, n_max: int) -> np.ndarray:
    """lambda_1 - lambda_3 of P^n for n = 1..n_max, where ``element`` is P."""
    powers = _peripheral_powers(element, n_max)
    l1, l3 = _cartan_pair(powers.mat, powers.matinv, powers.lm, powers.lmi)
    return l1 - l3


def peripheral_growth(rep: Representation, n_max: int) -> PeripheralGrowthReport:
    """Cartan spread lambda_1 - lambda_3 of rho(baba)^n for n <= n_max,
    and the type of rho(baba).

    By trace symmetry rho(baba) has the characteristic polynomial
    (x - 1)(x^2 + (1 - tau) x + 1), so it is loxodromic exactly when
    tau < -1 or tau > 3, and then the spread grows like n kappa with
    kappa = 2 arccosh(|tau - 1| / 2) = log |mu_1 / mu_3|.  For tau in
    [-1, 3] it is elliptic (bounded powers) or parabolic (a spread of about
    2 log n at tau = -1 and 4 log n at tau = 3); it is then not proximal,
    so rho is not Anosov.  tau is the trace of the extended-precision word
    matrix, and the interval is widened by ``charvar.SURFACE_TOL`` on both
    sides, so the tr = -1 surface reads ``"log"``.

    The powers are folded here only on the ``"log"`` side, whose kappa
    needs them, and a DomainError of the fold raises here.  On the
    ``"linear"`` side they are folded on the first read of ``gaps``, and
    such an error raises there.
    """
    if n_max < 4:
        raise PreconditionError("peripheral growth needs n_max >= 4")
    baba = matrix_of(rep, BABA)
    tau = np.trace(baba)
    ns = np.arange(1, n_max + 1, dtype=float)
    (p, lp), (pinv, lpi) = _as_float(baba), _as_float(matrix_of(rep, ABAB))
    element = FIsometry(p, pinv, lp, lpi)
    if tau < -1.0 - SURFACE_TOL or tau > 3.0 + SURFACE_TOL:
        return PeripheralGrowthReport(ns=ns, model="linear", element=element,
                                      kappa=float(2.0 * np.arccosh(abs(tau - 1) / 2)))
    gaps = _peripheral_spread(element, n_max)
    fit = np.column_stack([np.log(ns), np.ones_like(ns)])
    report = PeripheralGrowthReport(ns=ns, model="log", element=element,
                                    kappa=float(np.linalg.lstsq(fit, gaps, rcond=None)[0][0]))
    # fill the cache of ``gaps``: cached_property stores in the instance
    # dict, which a frozen dataclass leaves to object.__setattr__
    object.__setattr__(report, "gaps", gaps)
    return report


# -- local Morse flat check --------------------------------------------------


@dataclass(frozen=True)
class MorseFlatReport:
    """Distances of the midpoints to the flat spanned by the endpoint
    sector flags, and whether their projections advance monotonically."""

    max_distance: float
    distances: tuple[float, ...]
    projections: tuple[tuple[float, float], ...]
    monotone: bool
    violations: int
    flat: Flat
    # Newton steps of the flat projections at each midpoint: (centre, next
    # midpoint); the last midpoint has no next one
    iterations: tuple[tuple[int, int | None], ...]


def morse_flat_check(
    rep: Representation,
    window: Sequence[F2Word],
    theta_prime: ModelInterval,
) -> MorseFlatReport:
    """Distance of each midpoint to the flat spanned by the window-end
    sector flags, plus a monotone-advance check of the projections.

    Pulling one global frame backwards through a long orbit word is
    numerically hopeless (the flag directions contract through the
    inverse), so the flat is re-anchored at every midpoint from forward
    and backward flag proxies; these agree with the window-end flags to
    within e^{-gap * k}, far below the reported digits.  Monotonicity is
    checked on consecutive projection steps; since the type-restricted
    Weyl sector is a convex cone, consecutive steps inside the cone imply
    the same for all forward pairs.

    The products that carry each midpoint to the window ends fold as one
    (ahead, behind) stack per step.  Each later stage runs on the stack
    of all midpoints: the charted window ends, their sector frames
    (``seg_frame``), the charted next midpoints, the flags and flats
    (``flats._flat_frames``), and one
    Newton solve (``flats._flat_minimize``) for the centre projection of
    each midpoint and the next-midpoint projection of each but the last;
    the projection steps and their violations are tallied as arrays.
    The first error is the one a per-midpoint loop meets first
    (``_row_major``): a chart or frame stage's error carries the
    midpoint as ``row``; a flag, flat or projection error, met row by
    row in the loop's order, carries none, since the rows before it
    passed every stage, and nor does a window-end fold's.  Raises:

    - DomainError from a window-end fold or a chart product that leaves
      the float64 range or degenerates, and from a sector frame whose
      relative factor product underflows or whose ends coincide;
    - RegularityError from a sector frame whose segment lies too close
      to a wall, has tied eigenvalues or a degenerate frame;
    - OppositionError when the flags fail to be in general position;
    - the flat projection's ConvergenceError or DomainError when a
      projection stalls above its noise floor or meets a degenerate
      relative matrix.
    """
    seq = midpoint_sequence(rep, window)
    n_mid = len(seq.words) - 1
    last = n_mid - 1
    steps, mids = seq.steps, seq.local_mids
    # ahead[n] = rho(g_n^{-1} g_last) = steps[n] ahead[n+1], and
    # behind[n] = rho(g_n^{-1} g_0) = steps[n-1]^{-1} behind[n-1]: fold k
    # is the stack (ahead[last - k], behind[k]), one step on the left of
    # fold k - 1
    left = fstack([steps[last - 1::-1], finverse(steps[:last])], axis=1)
    try:
        fold_pairs = fstack(accumulate(left, lambda g, step: fcompose(step, g),
                                       initial=fstack([FIsometry.identity()] * 2)))
    except GeometryError as exc:
        # the loop folds each end unstacked, before any midpoint: no row
        exc.row = None
        raise
    # slot 0 of a midpoint holds the window end ahead, slot 1 the end
    # behind; the first and last midpoints have one end, which fills both
    # slots, and the slot of the missing end reads the opposite sector
    opposite = np.zeros((n_mid, 2), dtype=bool)
    opposite[0, 1] = opposite[last, 0] = True
    from_behind = opposite != [False, True]
    at = np.arange(n_mid)[:, None]
    folds = fold_pairs[np.where(from_behind, at, last - at), from_behind.astype(int)]
    ends = mids[np.where(from_behind, 0, last)]
    origin = FIsometry.identity()

    def rows(count):
        # everything is measured in the factor chart of the midpoint,
        # where it is the identity and both flag directions stay
        # O(1)-separated no matter how deep in the orbit the window sits
        to_chart = finverse(mids[:count])
        _, u = seg_frame(origin, fact(to_chart[:, None], fact(folds[:count], ends[:count])))
        # a sector's flag is (u1, u3) of its frame, the opposite one's (u3, u1)
        u = np.where(opposite[:count, :, None, None], u[..., ::-1], u)
        point = u[..., 0] / _norm(u[..., 0])[..., None]
        # re-project onto the incidence condition, which the frame only
        # satisfies up to rounding
        line = u[..., 2] - _dot(u[..., 2], point)[..., None] * point
        # coordinate-grade projections of the next midpoint in each chart:
        # only the chart coordinates (order ~ spacing) matter
        ahead_count = min(count, last)
        nxt = fact(to_chart[:ahead_count], fact(steps[:ahead_count], mids[1:ahead_count + 1]))
        g, frames, checks = _flat_frames(point, line)
        failed = np.any([f for f, _ in checks], axis=0)
        made = int(np.argmax(failed)) if failed.any() else count
        # the projections of the rows before the first that fails to make
        # its flat, in the loop's order: the centre of each midpoint, then
        # the next midpoint of each but the last
        row = np.repeat(np.arange(made), 2)
        to_next = np.tile([False, True], made)
        keep = ~to_next | (row < last)
        row, to_next = row[keep], to_next[keep]
        targets = fstack([origin, *nxt])[np.where(to_next, row + 1, 0)]
        try:
            a, b, d, n_steps = _flat_minimize(frames[row], targets, np.where(to_next, 1.0, 1e-6))
            raise_first(checks)
        except GeometryError as exc:
            # the rows before passed every stage, so this is the loop's
            # first error, and _row_major must not run them again
            exc.row = None
            raise
        centre = ~to_next
        iterations = tuple(zip_longest(n_steps[centre].tolist(), n_steps[to_next].tolist()))
        return (Flat(frame=g[0]), tuple(d[centre].tolist()), np.stack([a, b], axis=-1), to_next,
                iterations)

    flat, dists, ab, to_next, iterations = _row_major(rows, n_mid)
    # each projection step, from a midpoint's centre to the next midpoint,
    # violates the monotone advance unless it is ordered and its type lies
    # in theta'
    delta = ab[to_next] - ab[~to_next][:last]
    da, db = delta.T
    dc = -da - db
    slack = 1e-9 * np.maximum(1.0, np.abs(da) + np.abs(db))
    ordered = (da >= db - slack) & (db >= dc - slack)
    phi = chamber_angle(np.sort(np.stack([da, db, dc], axis=-1)[ordered])[:, ::-1])
    violations = last - int(np.count_nonzero(theta_prime.contains(phi)))
    projections = np.cumsum(np.vstack([np.zeros(2), delta]), axis=0)
    return MorseFlatReport(
        max_distance=max(dists),
        distances=dists,
        projections=tuple(map(tuple, projections.tolist())),
        monotone=violations == 0,
        violations=violations,
        flat=flat,
        iterations=iterations,
    )


# -- combined verdict --------------------------------------------------------

EVIDENCE_ANOSOV = "evidence-anosov"
EVIDENCE_DEGENERATE = "evidence-degenerate"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class VerdictConfig:
    """Heuristic thresholds for the empirical verdict.  These are artifact
    policy, deliberately exposed: the combined criterion is

        slope_c >= spacing_factor * min_spacing   (words up to max_len >= 8)
        min zeta-angle >= pi - zeta_slack
        all midpoint-segment types within pi/6 +- theta_halfwidth
    """

    max_len: int = 10
    samples: int = 50_000
    window: int = 10
    peripheral_n: int = 64
    seed: int = 0
    theta_halfwidth: float = float(np.pi / 8.0)
    zeta_slack: float = 0.5
    spacing_factor: float = 0.05


@dataclass(frozen=True)
class AnosovVerdict:
    coordinates: Coordinates
    verdict: str
    stats: dict = field(default_factory=dict)


@lru_cache(maxsize=4)
def _verdict_window(length: int, seed: int) -> tuple[F2Word, ...]:
    """``random_f2_geodesic(length, seed)`` as a tuple, drawn once per
    configuration and shared by every verdict that reads it."""
    return tuple(random_f2_geodesic(length, seed))


def _window_block(reps: list[Representation], cfg: VerdictConfig):
    """Yield the equidistance defect of the verdict window of each rep,
    then each rep's StraightnessReport, from one stacked pass: the stages
    of ``midpoint_sequence`` and ``straightness_report`` on (n, P) stacks,
    the midpoint axis first and one column per rep, after the F2 tables
    of all reps as one stack.  Each entry equals the unstacked stage's
    bit for bit; each stage runs when its first value is asked for and
    raises, as they do, what a loop over the midpoints meets first."""
    words = _verdict_window(cfg.window, cfg.seed)
    if len(words) < 3:
        raise ValueError("geodesic window must contain at least 3 words")
    step_words = _step_words(words)
    n = len(step_words)
    table, x = _f2_tables(reps), fstack([rep.fx for rep in reps])
    steps = _row_major(lambda k: _f2_fold(table, step_words[:k]), n)
    mids, ratios = _row_major(lambda k: _local_midpoints(x, steps[:k]), n)
    yield from map(_defect, ratios.T.tolist())
    theta = ModelInterval.symmetric(cfg.theta_halfwidth)
    stacks = _straightness_stacks(steps, mids, n)
    for lists in zip(*(a.T.tolist() for a in stacks)):
        yield _report(*lists, theta)


def _verdict(c: Coordinates, rep: Representation, cfg: VerdictConfig, window) -> AnosovVerdict:
    """The verdict at c, where ``rep`` is ``rep_from_coords(c)`` and
    ``window`` yields the window's equidistance defect, then its
    StraightnessReport; either may raise a window error."""
    stats: dict = asdict(cfg)

    peripheral = peripheral_growth(rep, cfg.peripheral_n)
    stats["peripheral_model"] = peripheral.model
    stats["peripheral_kappa"] = peripheral.kappa

    straight = None
    window = iter(window)
    try:
        stats["equidistance_defect"] = next(window)
        straight = next(window)
        stats["min_zeta_angle"] = straight.min_zeta_angle
        stats["min_spacing"] = straight.min_spacing
        stats["type_min"] = straight.type_min
        stats["type_max"] = straight.type_max
    except (RegularityError, DomainError) as exc:
        stats["straightness_error"] = str(exc)

    gaps = cartan_gap_scan(rep, cfg.max_len, cfg.samples, cfg.seed)
    stats["slope_c"] = gaps.slope_c
    stats["intercept_C"] = gaps.intercept_C

    straight_ok = (
        straight is not None
        and straight.min_zeta_angle >= np.pi - cfg.zeta_slack
        and straight.all_types_within
        and straight.min_spacing > 0.0
    )
    gap_ok = (
        cfg.max_len >= 8
        and straight is not None
        and gaps.slope_c >= cfg.spacing_factor * straight.min_spacing
    )
    if straight_ok and gap_ok:
        verdict = EVIDENCE_ANOSOV
    elif peripheral.model == "log":
        verdict = EVIDENCE_DEGENERATE
    else:
        verdict = INCONCLUSIVE
    return AnosovVerdict(coordinates=c, verdict=verdict, stats=stats)


def anosov_verdict(c: Coordinates, config: VerdictConfig | None = None) -> AnosovVerdict:
    """Combine straightness, gap growth and peripheral growth into one of
    evidence-anosov / evidence-degenerate / inconclusive.  The window is
    the stacked pass of ``anosov_verdicts`` on the one point."""
    cfg = config or VerdictConfig()
    rep = rep_from_coords(c)
    return _verdict(c, rep, cfg, _window_block([rep], cfg))


# The stacked window pass takes the points of a block in chunks of at most
# this many: its temporaries grow with the stack (about 40 MB at 2048
# points, 1.2 MB at 64), while its cost per point stops falling near 64.
_WINDOW_POINTS = 64


def anosov_verdicts(coords: Sequence[Coordinates],
                    config: VerdictConfig | None = None) -> list[AnosovVerdict]:
    """``anosov_verdict`` of each point of a block, in order, bit for bit.
    The block is cut into even chunks of at most ``_WINDOW_POINTS``
    points.  Each chunk forms the straightness windows of its points as
    one stacked pass (``_window_block``); then each of its points takes
    its peripheral growth, its straightness stats read off the pass, its
    gap scan and its verdict, as ``anosov_verdict`` does.

    A chunk whose stacked pass raises anything runs ``anosov_verdict``
    point by point instead, so window errors (``straightness_error``) and
    raised errors are the loop's, in its order.  A point's GeometryError
    raises with ``row`` set to the point's index in the block."""
    cfg = config or VerdictConfig()
    coords = list(coords)
    verdicts = []
    chunks = max(1, -(-len(coords) // _WINDOW_POINTS))
    for rows in np.array_split(np.arange(len(coords)), chunks):
        rows = rows.tolist()
        try:
            reps = [rep_from_coords(coords[row]) for row in rows]
            windows = list(_window_block(reps, cfg))
        except Exception:
            # whatever the pass meets, a window error, a warning raised as
            # an error or a short window, the loop meets again in its order
            windows = None
        for k, row in enumerate(rows):
            try:
                verdicts.append(anosov_verdict(coords[row], cfg) if windows is None
                                else _verdict(coords[row], reps[k], cfg, windows[k::len(rows)]))
            except GeometryError as exc:
                exc.row = row
                raise
    return verdicts

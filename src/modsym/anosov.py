"""Empirical Anosov diagnostics: orbit triangles, midpoint sequences along
discrete geodesics of the rank-two free subgroup, straightness and spacing
reports, singular-value-gap growth scans, peripheral growth classification,
and distance-to-flat checks.

Everything here is a deterministic function of (coordinates, window or
seed, budget).  Orbit geometry runs on factored points, so the reports
stay meaningful at coordinate scales far beyond what explicit SPD
matrices can hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .charvar import (
    ABAB,
    BABA,
    Coordinates,
    Representation,
    f2_fisometry,
    matrix_of,
    rep_from_coords,
)
from .errors import (
    DegenerateTriangleError,
    DomainError,
    PreconditionError,
    RegularityError,
)
from .factored import (
    FIsometry,
    FPoint,
    _rescaled,
    chart_point,
    fact,
    fangle,
    fcompose,
    fdistance,
    fflag_of_sector,
    fflag_of_sector_opposite,
    fflat_project,
    finverse,
    fmidpoint,
    fzeta_angle,
    seg_lambdas,
)
from .flats import Flat, ModelInterval, chamber_angle, flat_from_flags
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


# -- orbit triangle ----------------------------------------------------------


@dataclass(frozen=True)
class TriangleReport:
    """Angles and side lengths of the orbit triangle (x, bx, b^2 x)."""

    sides: tuple[float, float, float]     # (xy, yz, zx)
    angles: tuple[float, float, float]    # at x, y, z


def triangle_report(rep: Representation) -> TriangleReport:
    x = rep.fx
    b = rep.letter("b")
    y = fact(b, x)
    z = fact(b, y)
    d_xy = fdistance(x, y)
    d_yz = fdistance(y, z)
    d_zx = fdistance(z, x)
    if min(d_xy, d_yz, d_zx) < 1e-8:
        raise DegenerateTriangleError(
            "orbit triangle collapses: the rotation fixes the inversion center"
        )
    return TriangleReport(
        sides=(d_xy, d_yz, d_zx),
        angles=(fangle(x, y, z), fangle(y, z, x), fangle(z, x, y)),
    )


# -- midpoint sequences ------------------------------------------------------


@dataclass(frozen=True)
class MidpointSequence:
    """Midpoints m_n = mid(x_n, x_{n+1}) of the orbit points x_n = rho(g_n) x.

    The midpoints are stored in local form: ``local_mids[k]`` is
    mid(x, rho(step_k) x), so that m_n = rho(g_n) local_mids[n + 1];
    ``midpoints`` builds the global ones on first read.  Everything
    measured between nearby midpoints is computed in the chart of the
    common orbit prefix: a product mat @ matinv of one large word never
    appears, which keeps the small relative eigenvalues meaningful at any
    scale.
    """

    rep: Representation
    words: tuple[F2Word, ...]
    steps: tuple[FIsometry, ...]        # steps[k] = rho(g_{k-1}^{-1} g_k)
    local_mids: tuple[FPoint, ...]      # local_mids[k] = mid(x, steps[k] x)
    equidistance_defect: float

    @cached_property
    def midpoints(self) -> tuple[FPoint, ...]:
        return tuple(
            fact(f2_fisometry(self.rep, w), self.local_mids[n + 1])
            for n, w in enumerate(self.words[:-1])
        )


def midpoint_sequence(rep: Representation, window: Sequence[F2Word]) -> MidpointSequence:
    words = tuple(window)
    if len(words) < 3:
        raise ValueError("geodesic window must contain at least 3 words")
    steps = [FIsometry.identity()]
    for w_prev, w_next in zip(words, words[1:]):
        steps.append(f2_fisometry(rep, f2_mul(f2_inverse(w_prev), w_next)))
    local_mids = [rep.fx]
    defect = 0.0
    for step in steps[1:]:
        y = fact(step, rep.fx)
        local_mids.append(fmidpoint(rep.fx, y))
        dp = fdistance(local_mids[-1], rep.fx)
        dq = fdistance(local_mids[-1], y)
        defect = max(defect, abs(dp - dq) / max(1.0, dp))
    return MidpointSequence(
        rep=rep,
        words=words,
        steps=tuple(steps),
        local_mids=tuple(local_mids),
        equidistance_defect=defect,
    )


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


def straightness_report(seq: MidpointSequence, theta: ModelInterval) -> StraightnessReport:
    n_mid = len(seq.words) - 1
    if n_mid < 3:
        raise ValueError("straightness needs at least 3 midpoints")
    # segment n runs from m_n to m_{n+1}, both in the chart of g_n
    nxts = []
    spacings = []
    types = []
    for n in range(n_mid - 1):
        nxt = fact(seq.steps[n + 1], seq.local_mids[n + 2])
        lam = seg_lambdas(seq.local_mids[n + 1], nxt)
        spacing = float(np.linalg.norm(lam))
        if spacing < 1e-12:
            raise RegularityError(
                f"midpoint segment {n}: segment type undefined for coincident points")
        nxts.append(nxt)
        spacings.append(spacing)
        types.append(chamber_angle(lam))
    zeta_angles = []
    for n in range(1, n_mid - 1):
        prev = fact(finverse(seq.steps[n]), seq.local_mids[n])
        try:
            zeta_angles.append(fzeta_angle(seq.local_mids[n + 1], prev, nxts[n]))
        except (RegularityError, DomainError) as exc:
            raise RegularityError(f"midpoint vertex {n}: {exc}") from exc
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


# -- Cartan gap scan ---------------------------------------------------------


@dataclass(frozen=True)
class GapReport:
    """Per-word singular-value gaps and the fitted linear lower bound
    gap >= c n - C (lower convex minorant of the per-length minima).

    ``letters[i]`` holds the words of the i-th length scanned as an
    integer letter array of shape (m, n); the rows of all lengths, in
    order, line up with ``lengths``, ``gap12`` and ``gap23``.  ``words``
    spells them as strings, built on first read.
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
    """log of the top singular value of each matrix of a (..., 3, 3)
    stack, as half the log of the top eigenvalue of G G^T.  The entries
    must be rescaled to max |entry| 1, so that G G^T cannot overflow.

    The eigenvalue is the closed form q + 2 p cos(arccos(r) / 3) of a
    symmetric 3x3 matrix (O. K. Smith, CACM 4(4), 1961), from the six
    distinct entries of G G^T; rows near a top tie or a scalar Gram take
    ``eigvalsh`` instead (see _TIE_MARGIN)."""
    m = mats.reshape(-1, 3, 3)
    r0, r1, r2 = m[:, 0], m[:, 1], m[:, 2]
    a, d, f, b, c, e = (np.einsum("ij,ij->i", u, v) for u, v in (
        (r0, r0), (r1, r1), (r2, r2), (r0, r1), (r0, r2), (r1, r2)))
    q = (a + d + f) / 3
    a, d, f = a - q, d - q, f - q
    p = np.sqrt((a * a + d * d + f * f + 2 * (b * b + c * c + e * e)) / 6)
    det = a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)
    scalar = p <= _SCALAR_SPREAD * q
    r = det / (2 * np.where(scalar, 1.0, p) ** 3)
    lam = q + 2 * p * np.cos(np.arccos(np.clip(r, -1.0, 1.0)) / 3)
    fallback = scalar | (1 + r < _TIE_MARGIN)
    if fallback.any():
        g = m[fallback]
        lam[fallback] = np.linalg.eigvalsh(g @ np.swapaxes(g, -1, -2))[:, -1]
    return 0.5 * np.log(lam).reshape(mats.shape[:-2])


def _rescale_batch(mats: np.ndarray, logs: np.ndarray):
    s = np.max(np.abs(mats), axis=(1, 2))
    return mats / s[:, None, None], logs + np.log(s)


def _cartan_pair(mats, invs, lm, lmi):
    """(log sigma_1, log sigma_3) of each word, from the normalized
    matrices of the words and of their inverses with their log-scales:
    sigma_3(g) = 1 / sigma_1(g^-1)."""
    return _log_sigma1(mats) + lm, -(_log_sigma1(invs) + lmi)


def _batch_gaps(mats, invs, lm, lmi):
    l1, l3 = _cartan_pair(mats, invs, lm, lmi)
    l2 = -l1 - l3
    return l1 - l2, l2 - l3


def cartan_gap_scan(
    rep: Representation,
    max_len: int,
    sample_budget: int | None = None,
    seed: int = 0,
) -> GapReport:
    """Gap growth over reduced words of the free subgroup up to max_len.

    Enumerates exhaustively when the full count of words fits in the
    budget (50 000 when None), otherwise draws a seeded uniform sample per
    length.  The linear lower bound is fitted to the per-length minima of
    min(gap12, gap23).  The generator matrices stay normalized and their
    log-scales are summed apart, so the scan works at any scale.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if sample_budget is not None and sample_budget < 1:
        raise ValueError("sample_budget must be >= 1")
    budget = sample_budget if sample_budget is not None else 50_000
    total = sum(f2_count(n) for n in range(1, max_len + 1))
    enumerate_all = total <= budget

    gens = [rep.f2_generators()[k] for k in range(4)]  # letters 0..3
    gmat = np.stack([g.mat for g in gens])
    gmatinv = np.stack([g.matinv for g in gens])
    glm = np.array([g.lm for g in gens])
    glmi = np.array([g.lmi for g in gens])

    letters: list[np.ndarray] = []
    gap12: list[np.ndarray] = []
    gap23: list[np.ndarray] = []

    if enumerate_all:
        mats, invs, lm, lmi = gmat, gmatinv, glm, glmi
        for level in f2_levels(max_len):
            if level.shape[1] > 1:
                # row i extends row i // 3 of the previous level
                child = level[:, -1]
                mats = np.repeat(mats, 3, axis=0) @ gmat[child]
                invs = gmatinv[child] @ np.repeat(invs, 3, axis=0)
                lm = np.repeat(lm, 3) + glm[child]
                lmi = np.repeat(lmi, 3) + glmi[child]
            mats, lm = _rescale_batch(mats, lm)
            invs, lmi = _rescale_batch(invs, lmi)
            g12, g23 = _batch_gaps(mats, invs, lm, lmi)
            letters.append(level)
            gap12.append(g12)
            gap23.append(g23)
    else:
        rng = f2_rng(seed)
        per_length = max(1, budget // max_len)
        for n in range(1, max_len + 1):
            level = f2_sample(rng, min(per_length, f2_count(n)), n)
            mats = gmat[level[:, 0]]
            invs = gmatinv[level[:, 0]]
            lm = glm[level].sum(axis=1)
            lmi = glmi[level].sum(axis=1)
            for col in range(1, n):
                mats = mats @ gmat[level[:, col]]
                invs = gmatinv[level[:, col]] @ invs
                mats, lm = _rescale_batch(mats, lm)
                invs, lmi = _rescale_batch(invs, lmi)
            g12, g23 = _batch_gaps(mats, invs, lm, lmi)
            letters.append(level)
            gap12.append(g12)
            gap23.append(g23)

    per_len = [
        (level.shape[1], float(np.minimum(g12, g23).min()))
        for level, g12, g23 in zip(letters, gap12, gap23)
    ]
    # the last edge of the lower convex minorant is the steepest secant
    # into the last per-length minimum
    n_last, y_last = per_len[-1]
    c = max(((y_last - y) / (n_last - n) for n, y in per_len[:-1]), default=0.0)
    return GapReport(
        letters=tuple(letters),
        lengths=np.concatenate([np.full(len(level), level.shape[1]) for level in letters]),
        gap12=np.concatenate(gap12),
        gap23=np.concatenate(gap23),
        per_length_min=tuple(per_len),
        slope_c=float(c),
        intercept_C=float(c * n_last - y_last),
        enumerated=enumerate_all,
        seed=seed,
    )


def word_cartan(rep: Representation, w: F2Word) -> np.ndarray:
    """Cartan vector of one reduced word, by the forward/inverse duality
    (accurate for all three entries at any word length)."""
    g = f2_fisometry(rep, w)
    gi = f2_fisometry(rep, f2_inverse(w))
    l1, l3 = _cartan_pair(g.mat, gi.mat, g.lm, gi.lm)
    return np.array([l1, -l1 - l3, l3])


# -- peripheral growth -------------------------------------------------------


@dataclass(frozen=True)
class PeripheralGrowthReport:
    """Growth of the full Cartan spread of powers of the peripheral
    element, classified as logarithmic or linear by affine least squares."""

    ns: np.ndarray
    gaps: np.ndarray
    model: str            # "log" or "linear"
    kappa: float
    rss_log: float
    rss_linear: float


def _affine_fit(x: np.ndarray, y: np.ndarray):
    a = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    rss = float(np.sum((a @ coef - y) ** 2))
    return float(coef[0]), rss


# Largest binary exponent the float64 copy of a word matrix may reach:
# 2^1020 leaves room for the three-term sums of the power products.
_FLOAT_EXP_MAX = 1020


def _as_float(m: np.ndarray):
    """(m 2^-k as float64, k log 2) for an extended-precision matrix, with
    the least k >= 0 that keeps every entry below 2^_FLOAT_EXP_MAX; the
    scaling is exact, and k = 0 leaves m as a plain cast."""
    k = max(0, int(np.frexp(np.max(np.abs(m)))[1]) - _FLOAT_EXP_MAX)
    return np.ldexp(m, -k).astype(float), k * float(np.log(2.0))


def peripheral_growth(rep: Representation, n_max: int) -> PeripheralGrowthReport:
    """Cartan spread lambda_1 - lambda_3 of rho(baba)^n for n <= n_max.

    On the tr = -1 surface the peripheral powers grow polynomially and
    the spread is ~ 2 log n + const; at hyperbolic peripherals it is
    linear in n.
    """
    if n_max < 4:
        raise PreconditionError("peripheral growth needs n_max >= 4")
    p, lp = _as_float(matrix_of(rep, BABA))
    pinv, lpi = _as_float(matrix_of(rep, ABAB))
    mats = np.empty((n_max, 3, 3))
    invs = np.empty((n_max, 3, 3))
    lms = np.empty(n_max)
    lmis = np.empty(n_max)
    mat, inv = np.eye(3), np.eye(3)
    lm = lmi = 0.0
    for n in range(n_max):
        mat, lm = _rescaled(mat @ p, lm + lp)
        inv, lmi = _rescaled(pinv @ inv, lmi + lpi)
        mats[n], invs[n], lms[n], lmis[n] = mat, inv, lm, lmi
    l1, l3 = _cartan_pair(mats, invs, lms, lmis)
    gaps = l1 - l3
    ns = np.arange(1, n_max + 1, dtype=float)
    kappa_log, rss_log = _affine_fit(np.log(ns), gaps)
    kappa_lin, rss_lin = _affine_fit(ns, gaps)
    if rss_log <= rss_lin:
        model, kappa = "log", kappa_log
    else:
        model, kappa = "linear", kappa_lin
    return PeripheralGrowthReport(
        ns=ns, gaps=gaps, model=model, kappa=kappa,
        rss_log=rss_log, rss_linear=rss_lin,
    )


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
    the same for all forward pairs.  Raises OppositionError when flags
    fail to be in general position, and the flat projection's
    ConvergenceError or DomainError when a projection stalls above its
    noise floor or meets a degenerate relative matrix.
    """
    seq = midpoint_sequence(rep, window)
    n_mid = len(seq.words) - 1
    # forward[n] = rho(g_n^{-1} g_{last mid}): fold of steps n+1 .. n_mid-1
    forward = [FIsometry.identity() for _ in range(n_mid)]
    for n in range(n_mid - 2, -1, -1):
        forward[n] = fcompose(seq.steps[n + 1], forward[n + 1])
    # backward[n] = rho(g_n^{-1} g_0) = steps[n]^{-1} backward[n-1]
    backward = [FIsometry.identity() for _ in range(n_mid)]
    for n in range(1, n_mid):
        backward[n] = fcompose(finverse(seq.steps[n]), backward[n - 1])

    dists = []
    proj_pairs = []
    flat0 = None
    origin = FPoint.identity()
    for n in range(n_mid):
        center = seq.local_mids[n + 1]
        # everything is measured in the factor chart of the midpoint,
        # where the center is the identity and both flag directions stay
        # O(1)-separated no matter how deep in the orbit the window sits
        fwd = back = None
        if n < n_mid - 1:
            fwd = chart_point(center, fact(forward[n], seq.local_mids[n_mid]))
        if n > 0:
            back = chart_point(center, fact(backward[n], seq.local_mids[1]))
        if fwd is not None:
            f_plus = fflag_of_sector(origin, fwd)
        else:
            f_plus = fflag_of_sector_opposite(origin, back)
        if back is not None:
            f_minus = fflag_of_sector(origin, back)
        else:
            f_minus = fflag_of_sector_opposite(origin, fwd)
        flat = flat_from_flags(f_minus, f_plus)
        if flat0 is None:
            flat0 = flat
        a, b, d = fflat_project(origin, flat)
        dists.append(d)
        if n < n_mid - 1:
            # coordinate-grade projection of the next midpoint in this
            # chart: only the chart coordinates (order ~ spacing) matter
            nxt = chart_point(center, fact(seq.steps[n + 1], seq.local_mids[n + 2]))
            a2, b2, _ = fflat_project(nxt, flat, noise_cap=1.0)
            proj_pairs.append(((a, b), (a2, b2)))

    violations = 0
    deltas = []
    for (a, b), (a2, b2) in proj_pairs:
        da, db = a2 - a, b2 - b
        dc = -da - db
        deltas.append((da, db))
        slack = 1e-9 * max(1.0, abs(da) + abs(db))
        if not (da >= db - slack and db >= dc - slack):
            violations += 1
            continue
        phi = chamber_angle(np.sort([da, db, dc])[::-1])
        if not theta_prime.contains(phi):
            violations += 1
    proj = [(0.0, 0.0)]
    for da, db in deltas:
        proj.append((proj[-1][0] + da, proj[-1][1] + db))
    return MorseFlatReport(
        max_distance=max(dists),
        distances=tuple(dists),
        projections=tuple(proj),
        monotone=violations == 0,
        violations=violations,
        flat=flat0,
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


def anosov_verdict(c: Coordinates, config: VerdictConfig | None = None) -> AnosovVerdict:
    """Combine straightness, gap growth and peripheral growth into one of
    evidence-anosov / evidence-degenerate / inconclusive."""
    cfg = config or VerdictConfig()
    rep = rep_from_coords(c)
    stats: dict = {"seed": cfg.seed, "max_len": cfg.max_len, "window": cfg.window}

    peripheral = peripheral_growth(rep, cfg.peripheral_n)
    stats["peripheral_model"] = peripheral.model
    stats["peripheral_kappa"] = peripheral.kappa

    straight = None
    try:
        words = random_f2_geodesic(cfg.window, cfg.seed)
        seq = midpoint_sequence(rep, words)
        straight = straightness_report(seq, ModelInterval.symmetric(cfg.theta_halfwidth))
        stats["min_zeta_angle"] = straight.min_zeta_angle
        stats["min_spacing"] = straight.min_spacing
        stats["type_min"] = straight.type_min
        stats["type_max"] = straight.type_max
    except (RegularityError, DegenerateTriangleError, DomainError) as exc:
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

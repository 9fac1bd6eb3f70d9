"""Self-contained property suites behind the ``verify`` subcommand.

Each suite returns a list of CheckResult; a check passes when its
residual stays under the tolerance.  A global tolerance override
replaces every default (so an absurd override must fail the run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import anosov, charvar, flats, modgroup, symspace
from .errors import GeometryError
from .factored import fact, fdistance


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def random_tangent(rng, scale=0.7) -> np.ndarray:
    v = rng.normal(size=(3, 3), scale=scale)
    v = 0.5 * (v + v.T)
    return v - (np.trace(v) / 3.0) * np.eye(3)


def random_point(rng, scale=0.7) -> symspace.Point:
    return symspace.spd_exp(random_tangent(rng, scale))


def random_isometry(rng) -> symspace.Isometry:
    # moderate condition number so equality residuals stay near machine eps
    q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    mat = q1 @ np.diag(np.exp(rng.uniform(-1.0, 1.0, size=3))) @ q2
    return symspace.Isometry(mat, reversing=bool(rng.integers(2)))


def _result(suite, name, residual, tol) -> CheckResult:
    return CheckResult(suite, name, bool(residual <= tol),
                       f"residual {residual:.3e} vs tol {tol:.1e}")


def suite_symspace(tol: Callable[[float], float], seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    res = 0.0
    for _ in range(100):
        g, h = random_isometry(rng), random_isometry(rng)
        p = random_point(rng)
        lhs = symspace.act(symspace.compose(g, h), p)
        rhs = symspace.act(g, symspace.act(h, p))
        res = max(res, float(np.linalg.norm(lhs.mat - rhs.mat)))
    out.append(_result("symspace", "action-associativity", res, tol(1e-10)))

    res = 0.0
    for _ in range(50):
        x = random_point(rng)
        inv = symspace.inversion_at(x)
        res = max(res, float(np.linalg.norm(symspace.act(inv, x).mat - x.mat)))
        sq = symspace.compose(inv, inv)
        res = max(res, float(np.linalg.norm(sq.mat - np.eye(3))))
    out.append(_result("symspace", "inversion-involutivity", res, tol(1e-10)))

    res = 0.0
    for _ in range(60):
        p, q, r = (random_point(rng) for _ in range(3))
        res = max(res, abs(symspace.distance(p, q) - symspace.distance(q, p)))
        res = max(res, symspace.distance(p, p))
        excess = symspace.distance(p, r) - symspace.distance(p, q) - symspace.distance(q, r)
        res = max(res, excess)
    out.append(_result("symspace", "metric-axioms", res, tol(1e-9)))

    res = 0.0
    for _ in range(60):
        g = random_isometry(rng)
        p, q = random_point(rng), random_point(rng)
        res = max(res, abs(symspace.distance(symspace.act(g, p), symspace.act(g, q))
                           - symspace.distance(p, q)))
    out.append(_result("symspace", "isometry-invariance", res, tol(1e-9)))

    res = 0.0
    for _ in range(60):
        p, q, r = (random_point(rng) for _ in range(3))
        total = (symspace.angle_at(p, q, r) + symspace.angle_at(q, r, p)
                 + symspace.angle_at(r, p, q))
        res = max(res, total - np.pi)
    out.append(_result("symspace", "triangle-angle-sum", res, tol(1e-8)))

    res = 0.0
    for _ in range(60):
        p, q = random_point(rng), random_point(rng)
        m = symspace.midpoint(p, q)
        res = max(res, abs(symspace.distance(p, m) - symspace.distance(m, q)))
        res = max(res, abs(symspace.distance(p, m) - 0.5 * symspace.distance(p, q)))
        m2 = symspace.midpoint(q, p)
        res = max(res, float(np.linalg.norm(m.mat - m2.mat)))
    out.append(_result("symspace", "midpoint-equidistance", res, tol(1e-9)))

    res = 0.0
    for _ in range(60):
        v = random_tangent(rng, scale=1.2)
        p = symspace.spd_exp(v)
        res = max(res, float(np.linalg.norm(symspace.spd_log(p) - v)))
        p2, q2 = random_point(rng), random_point(rng)
        back = symspace.exp_map(p2, symspace.log_map(p2, q2))
        res = max(res, float(np.linalg.norm(back.mat - q2.mat)))
        res = max(res, abs(symspace.log_map(p2, q2).norm - symspace.distance(p2, q2)))
    out.append(_result("symspace", "exp-log-roundtrip", res, tol(1e-9)))

    skew = symspace.Isometry(np.eye(3) + 0.5 * np.triu(np.ones((3, 3)), 1), True)
    ok = (
        symspace.classify_involution(symspace.Isometry(np.eye(3), True)) == symspace.INVERSION
        and symspace.classify_involution(symspace.Isometry(np.diag([1.0, -1.0, -1.0]), True))
        == symspace.TYPEII_PLANE_FIX
        and symspace.classify_involution(skew) == symspace.NOT_INVOLUTION
    )
    out.append(CheckResult("symspace", "involution-classification", ok,
                           "anchor cases" if ok else "anchor case mismatch"))
    return out


def suite_flats(tol: Callable[[float], float], seed: int = 1) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    res = 0.0
    for _ in range(50):
        g = random_isometry(rng).mat
        q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        res = max(res, float(np.linalg.norm(
            flats.cartan_projection(q1 @ g @ q2) - flats.cartan_projection(g))))
        lam = flats.cartan_projection(g)
        lam_inv = flats.cartan_projection(np.linalg.inv(g))
        res = max(res, float(np.linalg.norm(lam_inv + lam[::-1])))
    out.append(_result("flats", "cartan-bi-invariance", res, tol(1e-10)))

    res = max(
        abs(flats.chamber_angle(np.array([1.0, 0.0, -1.0])) - np.pi / 6),
        abs(flats.chamber_angle(np.array([2.0, -1.0, -1.0])) - np.pi / 3),
        abs(flats.chamber_angle(np.array([1.0, 1.0, -2.0]))),
    )
    out.append(_result("flats", "chamber-angle-anchors", res, tol(1e-12)))

    res = 0.0
    for _ in range(40):
        p, q = random_point(rng), random_point(rng)
        res = max(res, abs(flats.segment_type(q, p)
                           - flats.iota(flats.segment_type(p, q))))
        inv = symspace.inversion_at(p)
        res = max(res, abs(flats.segment_type(p, symspace.act(inv, q))
                           - flats.iota(flats.segment_type(p, q))))
    out.append(_result("flats", "segment-type-reversal", res, tol(1e-9)))

    res = 0.0
    for _ in range(25):
        c = flats.ParallelCoords(
            s=rng.uniform(0.1, 2.0), alpha=rng.uniform(0, 2 * np.pi),
            r=rng.uniform(-1.0, 1.0), t=rng.uniform(0.1, 2.0),
            beta=rng.uniform(0, 2 * np.pi),
        )
        q = flats.point_from_coords(c)
        proj = flats.project_to_parallel_set(q)
        oracle = symspace.spd_exp(2.0 * flats.parallel_part(c))
        res = max(res, float(np.linalg.norm(proj.mat - oracle.mat)))
        again = flats.project_to_parallel_set(proj)
        res = max(res, float(np.linalg.norm(again.mat - proj.mat)))
    out.append(_result("flats", "projection-oracle", res, tol(1e-8)))

    res = 0.0
    for _ in range(25):
        c = flats.ParallelCoords(
            s=rng.uniform(0.1, 2.5), alpha=rng.uniform(0, 2 * np.pi),
            r=rng.uniform(-1.0, 1.0), t=rng.uniform(0.1, 2.5),
            beta=rng.uniform(0, 2 * np.pi),
        )
        back = flats.coords_from_point(flats.point_from_coords(c))
        res = max(res, abs(back.s - c.s), abs(back.t - c.t), abs(back.r - c.r))
        res = max(res, abs((back.alpha - c.alpha + np.pi) % (2 * np.pi) - np.pi))
        res = max(res, abs((back.beta - c.beta + np.pi) % (2 * np.pi) - np.pi))
    out.append(_result("flats", "coords-roundtrip", res, tol(1e-8)))

    res = 0.0
    for _ in range(30):
        p, q = random_point(rng), random_point(rng)
        try:
            res = max(res, flats.zeta_angle(p, q, q))
        except GeometryError:
            continue
    out.append(_result("flats", "zeta-angle-reflexive", res, tol(1e-9)))

    f_plus = flats.Flag(point=np.array([1.0, 0, 0]), line=np.array([0, 0, 1.0]))
    f_minus = flats.Flag(point=np.array([0, 0, 1.0]), line=np.array([1.0, 0, 0]))
    flat = flats.flat_from_flags(f_minus, f_plus)
    res = flats.distance_to_flat(symspace.identity_point(), flat)
    out.append(_result("flats", "diagonal-flat-through-identity", res, tol(1e-9)))
    return out


def suite_modgroup(tol: Callable[[float], float], seed: int = 2) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    ok = True
    for _ in range(200):
        raw = "".join(rng.choice(list("abB"), size=rng.integers(0, 12)))
        w = modgroup.normalize(raw)
        ok &= modgroup.normalize(w.syllables) == w
    out.append(CheckResult("modgroup", "normalize-idempotent", ok, "200 random words"))

    ok = True
    for _ in range(200):
        raw1 = "".join(rng.choice(list("abB"), size=rng.integers(0, 10)))
        raw2 = "".join(rng.choice(list("abB"), size=rng.integers(0, 10)))
        w1, w2 = modgroup.normalize(raw1), modgroup.normalize(raw2)
        p1 = modgroup.parity_abelianization(w1)
        p2 = modgroup.parity_abelianization(w2)
        p12 = modgroup.parity_abelianization(modgroup.mod_mul(w1, w2))
        ok &= p12 == ((p1[0] + p2[0]) % 2, (p1[1] + p2[1]) % 3)
    out.append(CheckResult("modgroup", "parity-homomorphism", ok, "200 random pairs"))

    ok = True
    count = 0
    for w in modgroup.enumerate_f2(5):
        ok &= modgroup.parity_abelianization(modgroup.f2_to_mod(w)) == (0, 0)
        count += 1
    ok &= count == sum(4 * 3 ** (k - 1) for k in range(1, 6))
    out.append(CheckResult("modgroup", "f2-subgroup-membership", ok, f"{count} words"))

    counts_ok = all(
        sum(1 for w in modgroup.enumerate_f2(k) if len(w) == k) == modgroup.f2_count(k)
        for k in range(1, 7)
    )
    out.append(CheckResult("modgroup", "f2-counts", counts_ok, "4*3^(k-1) for k<=6"))
    return out


def _longdouble_mantissa() -> int:
    return int(np.finfo(np.longdouble).nmant)


def suite_charvar(tol: Callable[[float], float], seed: int = 3) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    # the trace tolerances, and the peripheral type near tr rho(baba) = -1,
    # hold only with a longdouble of at least 63 mantissa bits (x86 80-bit)
    nmant = _longdouble_mantissa()
    out.append(CheckResult("charvar", "longdouble-extended", nmant >= 63,
                           f"longdouble mantissa {nmant} bits, need >= 63"))

    res = 0.0
    for _ in range(30):
        c = charvar.Coordinates(rng.uniform(0, 2.5), rng.uniform(0, 2.5),
                                rng.uniform(0, np.pi))
        rep = charvar.rep_from_coords(c)
        if not rep.validate(tol(1e-10)):
            res = 1.0
    out.append(_result("charvar", "relators", res, tol(1e-10)))

    res = 0.0
    for _ in range(200):
        c = charvar.Coordinates(rng.uniform(0, 3), rng.uniform(0, 3),
                                rng.uniform(0, np.pi))
        rep = charvar.rep_from_coords(c)
        tr = charvar.trace_of_word(rep, charvar.BABA)
        res = max(res, abs(tr - float(charvar.trace_baba_closed_form(c))))
    out.append(_result("charvar", "trace-closed-form", res, tol(1e-9)))

    cal = abs(float(charvar.trace_baba_closed_form(
        charvar.Coordinates(0.0, np.log(3.0) / 2.0, 0.0))) + 1.0)
    out.append(_result("charvar", "fuchsian-calibration", cal, tol(1e-12)))

    res = 0.0
    for _ in range(200):
        c = charvar.Coordinates(rng.uniform(0, 3), rng.uniform(0, 3),
                                rng.uniform(0, np.pi))
        rep = charvar.rep_from_coords(c)
        res = max(res, charvar.trace_symmetry_check(rep).residual)
    out.append(_result("charvar", "trace-symmetry", res, tol(1e-10)))

    res = 0.0
    for _ in range(100):
        s = rng.uniform(0, 3)
        theta = rng.uniform(0, np.pi)
        t = charvar.schwartz_t(s, theta)
        res = max(res, abs(float(charvar.trace_baba_closed_form(s=s, t=t, theta=theta)) + 1.0))
    out.append(_result("charvar", "surface-residual", res, tol(1e-12)))

    ok = (charvar.is_reducible(charvar.rep_from_coords(charvar.Coordinates(0.0, 1.0, 0.0)))
          and not charvar.is_reducible(charvar.rep_from_coords(charvar.Coordinates(1.0, 1.0, 0.7))))
    out.append(CheckResult("charvar", "reducibility-anchors", ok,
                           "s=0 reducible, interior irreducible"))

    # the twin theta -> pi - theta: x at pi - theta is Q x^{-1} Q^T at theta
    q = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
    s, t = rng.uniform(0, 3, (2, 200))
    theta = rng.uniform(0, np.pi, 200)
    x_twin = charvar.generators_at(s, t, np.pi - theta)[0]
    conj = q @ charvar.generators_at(s, t, theta)[1] @ q.T
    res = float((np.abs(x_twin - conj).max(axis=(-2, -1))
                 / np.abs(x_twin).max(axis=(-2, -1))).max())
    out.append(_result("charvar", "twin-generators", res, tol(1e-14)))
    return out


def suite_anosov(tol: Callable[[float], float], seed: int = 4) -> list[CheckResult]:
    out = []

    rep = charvar.rep_from_coords(charvar.Coordinates(0.8, 2.0, 0.9))
    # a sampled scan, so the seeded draws are what is checked: its tables
    # may come from the cache, the reference's are drawn afresh
    scan = anosov.cartan_gap_scan(rep, 8, 2000, seed=seed)
    fresh = anosov._gap_report(rep, anosov._scan_tables.__wrapped__(8, 2000, seed), False, seed)
    ok = (not scan.enumerated and len(scan.letters) == len(fresh.letters)
          and all(np.array_equal(a, b) for a, b in zip(scan.letters, fresh.letters))
          and np.array_equal(scan.gap12, fresh.gap12) and np.array_equal(scan.gap23, fresh.gap23)
          and scan.slope_c == fresh.slope_c and scan.products == fresh.products)
    out.append(CheckResult("anosov", "gap-scan-determinism", ok,
                           f"sampled scan (max-len 8, 2000 samples, seed {seed}) against one "
                           f"over tables from a fresh f2_rng({seed}) draw: letters, gaps, c, "
                           "products"))

    res = 0.0
    for w in modgroup.enumerate_f2(3):
        lam = anosov.word_cartan(rep, w)
        lam_inv = anosov.word_cartan(rep, modgroup.f2_inverse(w))
        res = max(res, abs((lam[0] - lam[1]) - (lam_inv[1] - lam_inv[2])))
    out.append(_result("anosov", "gap-mirror-duality", res, tol(1e-10)))

    # left translation leaves every sequence diagnostic invariant
    words = modgroup.random_f2_geodesic(6, seed=seed)
    seq = anosov.midpoint_sequence(rep, words)
    shift = modgroup.f2_from_string("xy")
    shifted = [modgroup.f2_mul(shift, w) for w in words]
    seq2 = anosov.midpoint_sequence(rep, shifted)
    interval = flats.ModelInterval.symmetric(np.pi / 7)
    sr1 = anosov.straightness_report(seq, interval)
    sr2 = anosov.straightness_report(seq2, interval)
    res = max(
        abs(sr1.min_zeta_angle - sr2.min_zeta_angle),
        abs(sr1.min_spacing - sr2.min_spacing),
        abs(sr1.type_min - sr2.type_min),
        abs(sr1.type_max - sr2.type_max),
    )
    # the translated midpoints against those of the translated words, by
    # their factored distance: the explicit matrices of these points reach
    # condition 3.7e11, and their entries then differ by up to 4.3e-6
    small = charvar.rep_from_coords(charvar.Coordinates(0.4, 0.6, 0.9))
    s_words = modgroup.random_f2_geodesic(3, seed=seed)
    s_shifted = [modgroup.f2_mul(shift, w) for w in s_words]
    sseq = anosov.midpoint_sequence(small, s_words)
    sseq2 = anosov.midpoint_sequence(small, s_shifted)
    g = charvar.f2_fisometry(small, shift)
    for m, m2 in zip(sseq.midpoints, sseq2.midpoints):
        res = max(res, float(fdistance(fact(g, m), m2)))
    out.append(_result("anosov", "midpoint-equivariance", res, tol(1e-8)))

    res = seq.equidistance_defect
    out.append(_result("anosov", "midpoint-equidistance", res, tol(1e-9)))

    # the twin theta -> pi - theta swaps the generators x and y (letter k
    # to k ^ 2) and the two gaps, and maps a segment type phi to pi/3 - phi
    rep_twin = charvar.rep_from_coords(charvar.Coordinates(0.8, 2.0, np.pi - 0.9))
    # complete max-len 6 scans over tables built here, which leave the
    # scan cache and the suite's one public scan call as they were
    tables = anosov._scan_tables.__wrapped__(6, None, None)
    gaps, twin_gaps = (anosov._gap_report(r, tables, True, seed) for r in (rep, rep_twin))
    res = max(np.abs(np.sort(gaps.gap12) - np.sort(twin_gaps.gap23)).max(),
              np.abs(np.sort(gaps.gap23) - np.sort(twin_gaps.gap12)).max())
    out.append(_result("anosov", "twin-gap-scan", float(res), tol(1e-10)))

    twin_words = [modgroup.F2Word(tuple(k ^ 2 for k in w.letters)) for w in words]
    sr_twin = anosov.straightness_report(anosov.midpoint_sequence(rep_twin, twin_words), interval)
    res = max(
        abs(sr1.min_zeta_angle - sr_twin.min_zeta_angle),
        abs(sr1.min_spacing - sr_twin.min_spacing),
        abs(sr1.type_min - (np.pi / 3 - sr_twin.type_max)),
    )
    out.append(_result("anosov", "twin-straightness", res, tol(1e-10)))
    return out


_SUITES = {
    "symspace": suite_symspace,
    "flats": suite_flats,
    "modgroup": suite_modgroup,
    "charvar": suite_charvar,
    "anosov": suite_anosov,
}


def run_suites(module_filter: str | None = None, tol_override: float | None = None,
               seed: int = 0) -> list[CheckResult]:
    def tol(default: float) -> float:
        return default if tol_override is None else tol_override

    results: list[CheckResult] = []
    for idx, (name, suite) in enumerate(_SUITES.items()):
        if module_filter is not None and name != module_filter:
            continue
        results.extend(suite(tol, seed=seed + idx))
    return results

import math
import warnings

import mpmath
import numpy as np
import pytest

from modsym import anosov, highprec
from modsym.anosov import (
    VerdictConfig,
    anosov_verdict,
    cartan_gap_scan,
    midpoint_sequence,
    morse_flat_check,
    peripheral_growth,
    straightness_report,
    triangle_report,
    word_cartan,
)
from modsym.charvar import BABA, Coordinates, f2_fisometry, rep_from_coords, schwartz_t
from modsym.errors import (
    DegenerateTriangleError,
    OppositionError,
    PreconditionError,
    RegularityError,
)
from modsym.factored import fact, fdistance
from modsym.flats import ModelInterval
from modsym.modgroup import (
    G1,
    constant_generator_geodesic,
    enumerate_f2,
    f2_from_string,
    f2_inverse,
    f2_levels,
    random_f2_geodesic,
)

THETA_INTERVAL = ModelInterval.symmetric(np.pi / 8)


def hyperbolic_equilateral_angle(t):
    """Vertex angle of the equilateral triangle with circumradius t and
    center angles 2 pi / 3 in the unit-curvature hyperbolic plane."""
    cosh_side = math.cosh(t) ** 2 + 0.5 * math.sinh(t) ** 2
    return math.acos(cosh_side / (1.0 + cosh_side))


def test_triangle_type_one_matches_hyperbolic_oracle():
    t = 2.0
    rep = rep_from_coords(Coordinates(0.0, t, 0.0))
    rpt = triangle_report(rep)
    oracle = hyperbolic_equilateral_angle(t)
    for ang in rpt.angles:
        assert ang < oracle + 1e-6
        assert ang > oracle - 1e-6
    assert max(rpt.sides) - min(rpt.sides) < 1e-9


def test_triangle_angle_decreases_in_t():
    angles = []
    for t in (2.0, 4.0, 8.0):
        rpt = triangle_report(rep_from_coords(Coordinates(1.0, t, 0.8)))
        angles.append(rpt.angles[0])
    assert angles[0] > angles[1] > angles[2]


def test_triangle_degenerate():
    with pytest.raises(DegenerateTriangleError):
        triangle_report(rep_from_coords(Coordinates(0.0, 0.0, 0.0)))


def test_midpoint_sequence_shapes_and_equidistance():
    rep = rep_from_coords(Coordinates(0.7, 2.0, 0.4))
    words = random_f2_geodesic(6, seed=3)
    seq = midpoint_sequence(rep, words)
    assert len(seq.midpoints) == 6
    assert seq.equidistance_defect < 1e-9
    short = midpoint_sequence(rep, words[:3])
    assert len(short.midpoints) == 2
    with pytest.raises(ValueError):
        midpoint_sequence(rep, words[:2])


def test_midpoints_are_global_translates_of_local_midpoints():
    rep = rep_from_coords(Coordinates(0.7, 2.0, 0.4))
    window = random_f2_geodesic(9, seed=2)[3:]
    assert window[0].letters
    seq = midpoint_sequence(rep, window)
    assert len(seq.midpoints) == len(window) - 1
    for n, m in enumerate(seq.midpoints):
        ref = fact(f2_fisometry(rep, window[n]), seq.local_mids[n + 1])
        assert np.array_equal(m.f, ref.f) and np.array_equal(m.finv, ref.finv)
        assert (m.lf, m.lfi) == (ref.lf, ref.lfi)


# Straightness figures at window 10, seed 0, pinned bit for bit: the
# orbit layer computes each quantity once, and must not change them.
PINNED_STRAIGHTNESS = {
    4.0: dict(
        zeta_angles=(3.1404666113174255, 3.141592653588358, 3.1415926535892207,
                     3.141592653588358, 3.1404666113174344, 3.1404666113174255,
                     3.0379721021741672, 3.1415926535886265),
        spacings=(25.879883573483664, 25.87137559227814, 25.871375592278323,
                  25.87137559227814, 25.871375592278323, 25.879883573483664,
                  25.87137559227814, 12.939941786742155, 12.939941786741278),
        type_min=0.5146055427580574,
        type_max=0.5231291318407504,
        equidistance_defect=1.0844885751835664e-14,
    ),
    12.0: dict(
        zeta_angles=(3.14157797732154, 3.141587001743411, 3.141577977325676,
                     3.141587001743411, 3.1415779772745944, 3.14157797732154,
                     3.14155536414096, 3.14151890270711),
        spacings=(71.12801052984561, 71.12801052896211, 71.12801003011626,
                  71.12801052896211, 71.12801003011626, 71.12801052984561,
                  71.12801052896211, 35.5640048304799, 35.56400222063595),
        type_min=0.5235976560980062,
        type_max=0.5235987878616346,
        equidistance_defect=1.8084818614834918e-07,
    ),
}


@pytest.mark.parametrize("t", sorted(PINNED_STRAIGHTNESS))
def test_straightness_pinned(t):
    pins = PINNED_STRAIGHTNESS[t]
    rep = rep_from_coords(Coordinates(1.0, t, 0.5))
    seq = midpoint_sequence(rep, random_f2_geodesic(10, seed=0))
    sr = straightness_report(seq, THETA_INTERVAL)
    assert sr.zeta_angles == pins["zeta_angles"]
    assert sr.spacings == pins["spacings"]
    assert (sr.type_min, sr.type_max) == (pins["type_min"], pins["type_max"])
    assert seq.equidistance_defect == pins["equidistance_defect"]


def test_morse_distances_pinned():
    rep = rep_from_coords(Coordinates(1.0, 4.0, 0.5))
    rpt = morse_flat_check(rep, random_f2_geodesic(10, seed=0), THETA_INTERVAL)
    assert rpt.distances == (
        6.2803698347351e-16, 0.0015924625544106257, 1.7090566682166165e-07,
        4.3146140764626847e-13, 1.7088471488111436e-07, 0.001592268170398986,
        0.0015921825437521008, 0.14474901598905313, 0.0013890312497956256,
        8.308148362110449e-16,
    )


def test_midpoint_sequence_cyclic_spacing_constant():
    rep = rep_from_coords(Coordinates(0.8, 2.5, 0.9))
    seq = midpoint_sequence(rep, constant_generator_geodesic(G1, 8))
    sr = straightness_report(seq, THETA_INTERVAL)
    assert max(sr.spacings) - min(sr.spacings) < 1e-8
    d01 = fdistance(seq.midpoints[0], seq.midpoints[1])
    assert sr.spacings[0] == pytest.approx(d01, abs=1e-8)


def test_straightness_far_from_fuchsian():
    rep = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    seq = midpoint_sequence(rep, random_f2_geodesic(10, seed=0))
    sr = straightness_report(seq, THETA_INTERVAL)
    assert np.pi - sr.min_zeta_angle < 0.2
    assert abs(sr.type_min - np.pi / 6) < 0.1
    assert abs(sr.type_max - np.pi / 6) < 0.1
    assert sr.all_types_within


def test_straightness_near_fuchsian_flags_drift():
    rep = rep_from_coords(Coordinates(1.0, 0.05, 0.4))
    seq = midpoint_sequence(rep, random_f2_geodesic(8, seed=1))
    try:
        sr = straightness_report(seq, THETA_INTERVAL)
    except RegularityError:
        return  # wall-adjacent segment is an acceptable flagged outcome
    flagged = (np.pi - sr.min_zeta_angle > 0.5 or sr.min_spacing < 2.0
               or not sr.all_types_within)
    assert flagged


def test_straightness_matches_highprec_oracle():
    words = random_f2_geodesic(8, seed=0)
    s, t, theta = 1.0, 2.0, 0.5
    rep = rep_from_coords(Coordinates(s, t, theta))
    sr = straightness_report(midpoint_sequence(rep, words), THETA_INTERVAL)
    hp = highprec.straightness_stats(s, t, theta, words)
    assert np.pi - sr.min_zeta_angle == pytest.approx(max(hp["deficits"]), rel=1e-6)
    assert sr.min_spacing == pytest.approx(min(hp["spacings"]), abs=1e-9)


def test_gap_scan_enumerated_counts_and_determinism():
    rep = rep_from_coords(Coordinates(0.8, 2.0, 0.9))
    r1 = cartan_gap_scan(rep, 5, None, seed=7)
    assert r1.enumerated
    assert len(r1.words) == 2 * (3**5 - 1)
    assert r1.words[:4] == ("x", "X", "y", "Y")
    r2 = cartan_gap_scan(rep, 5, None, seed=7)
    assert r1.words == r2.words
    assert np.array_equal(r1.gap12, r2.gap12)
    assert r1.slope_c == r2.slope_c


def test_gap_scan_sampled_mode():
    rep = rep_from_coords(Coordinates(0.8, 2.0, 0.9))
    r = cartan_gap_scan(rep, 9, 2000, seed=3)
    assert not r.enumerated
    r2 = cartan_gap_scan(rep, 9, 2000, seed=3)
    assert r.words == r2.words and r.slope_c == r2.slope_c
    r3 = cartan_gap_scan(rep, 9, 2000, seed=4)
    assert r.words != r3.words


@pytest.mark.parametrize("max_len, budget", [(6, None), (9, 2000)])
def test_gap_scan_bound_supports_per_length_minima(max_len, budget):
    """c n - C is the last edge of the lower convex minorant: it passes
    through the last per-length minimum and under all the others."""
    r = cartan_gap_scan(rep_from_coords(Coordinates(0.8, 2.0, 0.9)), max_len, budget, seed=3)
    below = [y - (r.slope_c * n - r.intercept_C) for n, y in r.per_length_min]
    assert below[-1] == pytest.approx(0.0, abs=1e-12)
    assert min(below) >= -1e-12
    assert sum(b < 1e-12 for b in below) >= 2


def test_gap_scan_single_length_has_zero_slope():
    r = cartan_gap_scan(rep_from_coords(Coordinates(0.8, 2.0, 0.9)), 1)
    assert r.slope_c == 0.0
    assert r.intercept_C == -r.per_length_min[0][1]


@pytest.mark.parametrize("budget", [0, -5])
def test_gap_scan_rejects_empty_budget(budget):
    with pytest.raises(ValueError, match="sample_budget"):
        cartan_gap_scan(rep_from_coords(Coordinates(0.8, 2.0, 0.9)), 3, budget)


# first, middle and last sampled word of several lengths for
# cartan_gap_scan(rep(0.8, 2, 0.9), 9, 2000, seed=3), as recorded from the
# string-building scan: the seeded draws must not change
SAMPLED_WORDS_SEED3 = {
    1: ("Y", "X", "x"),
    2: ("yx", "YY", "XX"),
    5: ("YYXXX", "yXXYX", "YxxyX"),
    9: ("xyXyyxYYX", "xYXXyXyxy", "xxxyyxYxy"),
}


def test_gap_scan_sampled_words_pinned():
    rep = rep_from_coords(Coordinates(0.8, 2.0, 0.9))
    r = cartan_gap_scan(rep, 9, 2000, seed=3)
    words = r.words
    for n, expected in SAMPLED_WORDS_SEED3.items():
        idx = np.flatnonzero(r.lengths == n)
        assert tuple(words[i] for i in (idx[0], idx[len(idx) // 2], idx[-1])) == expected


@pytest.mark.parametrize("max_len, budget", [(5, None), (9, 2000)])
def test_gap_report_letters_round_trip(max_len, budget):
    rep = rep_from_coords(Coordinates(0.8, 2.0, 0.9))
    r = cartan_gap_scan(rep, max_len, budget, seed=3)
    assert [level.shape[1] for level in r.letters] == list(range(1, max_len + 1))
    rows = [tuple(row) for level in r.letters for row in level.tolist()]
    assert len(rows) == len(r.words) == len(r.lengths) == len(r.gap12)
    for row, word, n in zip(rows, r.words, r.lengths):
        assert f2_from_string(word).letters == row and len(row) == n


def test_enumerated_gap_report_letters_are_f2_levels():
    rep = rep_from_coords(Coordinates(0.8, 2.0, 0.9))
    r = cartan_gap_scan(rep, 6, None, seed=3)
    assert r.enumerated
    levels = list(f2_levels(6))
    assert len(r.letters) == len(levels)
    assert all(np.array_equal(a, b) for a, b in zip(r.letters, levels))


@pytest.mark.parametrize("max_len, budget", [(5, None), (9, 2000)])
def test_gap_scan_finite_at_large_scale(max_len, budget):
    """At t=400 every generator has log-scale ~801: the scan must carry
    the scales as sums, never as exp(lm) inside a matrix."""
    rep = rep_from_coords(Coordinates(1.0, 400.0, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = cartan_gap_scan(rep, max_len, budget, seed=0)
    assert r.enumerated == (budget is None)
    assert np.isfinite(r.gap12).all() and np.isfinite(r.gap23).all()
    assert np.isfinite(r.slope_c) and np.isfinite(r.intercept_C)


def _rescaled_stack(mats):
    return mats / np.max(np.abs(mats), axis=(1, 2))[:, None, None]


def _sigma1_cases():
    rng = np.random.default_rng(12)
    q1 = np.linalg.qr(rng.normal(size=(200, 3, 3)))[0]
    q2 = np.linalg.qr(rng.normal(size=(200, 3, 3)))[0]
    spread = np.sort(rng.uniform(-30.0, 30.0, size=(200, 3)), axis=1)[:, ::-1]
    spectra = np.exp(spread - spread[:, :1])
    yield "spread", _rescaled_stack(q1 * spectra[:, None, :] @ q2)
    yield "rotation", q1 @ q2
    yield "tied-top", _rescaled_stack(q1 * np.array([1.0, 1.0, 1e-3]) @ q2)


@pytest.mark.parametrize("mats", [pytest.param(m, id=name) for name, m in _sigma1_cases()])
def test_log_sigma1_matches_svd(mats):
    ref = np.linalg.svd(mats, compute_uv=False)[:, 0]
    got = np.exp(anosov._log_sigma1(mats))
    assert np.max(np.abs(got - ref) / ref) < 1e-14


def _with_singular_values(values, n=200, seed=21):
    """n random matrices with the given singular values, rescaled to max
    |entry| 1."""
    rng = np.random.default_rng(seed)
    q1 = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
    q2 = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
    return _rescaled_stack(q1 * np.asarray(values) @ q2)


def _svd_log_sigma1(mats):
    return np.log(np.linalg.svd(mats, compute_uv=False)[..., 0])


@pytest.mark.parametrize("delta", [10.0**-k for k in range(1, 9)])
def test_log_sigma1_top_gap_sweep(delta):
    """Top singular values 1 and 1 - delta: the closed form before the tie
    margin and eigvalsh past it both stay within 1e-14 of the SVD."""
    mats = _with_singular_values([1.0, 1.0 - delta, 1e-3])
    ref = np.linalg.svd(mats, compute_uv=False)[:, 0]
    got = np.exp(anosov._log_sigma1(mats))
    assert np.max(np.abs(got - ref) / ref) < 1e-14


def test_log_sigma1_scalar_and_triple_ties():
    """p = 0 must not divide, and a near-scalar Gram must not warn."""
    identity = np.tile(np.eye(3), (4, 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(anosov._log_sigma1(identity), np.zeros(4))
        for spread in (1e-15, 1e-12, 1e-7):
            mats = _with_singular_values([1.0, 1.0 - spread, 1.0 - 2 * spread], n=50)
            got = anosov._log_sigma1(mats)
            assert np.max(np.abs(got - _svd_log_sigma1(mats))) < 1e-14


def test_log_sigma1_single_matrix():
    """One 3x3 matrix, as word_cartan passes it, gives a 0-d result."""
    for m in _with_singular_values([1.0, 0.3, 1e-4], n=5):
        got = anosov._log_sigma1(m)
        assert got.shape == ()
        assert abs(got - _svd_log_sigma1(m)) < 1e-14


def test_log_sigma1_fallback_rows_go_to_eigvalsh(monkeypatch):
    """Tied and scalar rows, and only they, take eigvalsh, whose value they
    keep bit for bit."""
    spread = _with_singular_values([1.0, 0.3, 1e-4], n=6)
    tied = _with_singular_values([1.0, 1.0, 0.2], n=3)
    mats = np.concatenate([spread[:3], tied, spread[3:], np.tile(np.eye(3), (2, 1, 1))])
    fallback = np.repeat([False, True, False, True], [3, 3, 3, 2])
    grams = mats @ np.swapaxes(mats, -1, -2)
    reference = 0.5 * np.log(np.linalg.eigvalsh(grams)[:, -1])
    sent = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        sent.append(a.copy())
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    got = anosov._log_sigma1(mats)
    assert len(sent) == 1 and np.array_equal(sent[0], grams[fallback])
    assert np.array_equal(got[fallback], reference[fallback])
    sent.clear()
    anosov._log_sigma1(spread)
    assert sent == []


def test_gap_scan_matches_per_word_svd():
    rep = rep_from_coords(Coordinates(1.0, 4.0, 0.5))
    r = cartan_gap_scan(rep, 6, None, seed=0)
    words = [f2_from_string(w) for w in r.words]
    fwd = [f2_fisometry(rep, w) for w in words]
    inv = [f2_fisometry(rep, f2_inverse(w)) for w in words]
    l1 = _svd_log_sigma1(np.stack([g.mat for g in fwd])) + [g.lm for g in fwd]
    l3 = -(_svd_log_sigma1(np.stack([g.mat for g in inv])) + [g.lm for g in inv])
    l2 = -l1 - l3
    np.testing.assert_allclose(r.gap12, l1 - l2, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(r.gap23, l2 - l3, rtol=1e-13, atol=1e-13)


def test_gap_scan_positive_slope_at_anosov_point():
    rep = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    r = cartan_gap_scan(rep, 6, None, seed=0)
    assert r.slope_c > 0.0
    assert all(g >= -1e-12 for g in r.gap12) and all(g >= -1e-12 for g in r.gap23)


def test_gap_scan_peripheral_drag_on_surface():
    """Near-peripheral words pull the fitted slope far below the slope at
    a strongly hyperbolic point."""
    surf = rep_from_coords(Coordinates(0.0, float(np.log(3.0) / 2.0), 0.0))
    hyp = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    c_surf = cartan_gap_scan(surf, 6, None, seed=0).slope_c
    c_hyp = cartan_gap_scan(hyp, 6, None, seed=0).slope_c
    assert 0.0 <= c_surf < 0.1 * c_hyp


def test_gap_scan_degenerate_at_fixed_point():
    rep = rep_from_coords(Coordinates(0.0, 0.0, 0.0))
    r = cartan_gap_scan(rep, 4, None, seed=0)
    assert r.slope_c == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(r.gap12, 0.0, atol=1e-12)


def test_gap_mirror_duality():
    rep = rep_from_coords(Coordinates(0.8, 2.0, 0.9))
    for w in enumerate_f2(3):
        lam = word_cartan(rep, w)
        lam_inv = word_cartan(rep, f2_inverse(w))
        assert abs((lam[0] - lam[1]) - (lam_inv[1] - lam_inv[2])) < 1e-10


def test_peripheral_growth_on_surface_log():
    t = float(schwartz_t(1.0, 0.5))
    rep = rep_from_coords(Coordinates(1.0, t, 0.5))
    rpt = peripheral_growth(rep, 200)
    assert rpt.model == "log"
    assert 1.5 <= rpt.kappa <= 2.5


def test_peripheral_growth_off_surface_linear():
    rep = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    rpt = peripheral_growth(rep, 64)
    assert rpt.model == "linear"
    assert rpt.kappa > 1.0


def test_peripheral_growth_finite_at_large_scale():
    """At t=400 the entries of rho(baba) pass the float64 range; the slope
    must still be log |mu_1 / mu_3| of its eigenvalues, here taken from a
    1000-digit matrix."""
    rep = rep_from_coords(Coordinates(1.0, 400.0, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rpt = peripheral_growth(rep, 64)
    assert np.isfinite(rpt.gaps).all()
    assert rpt.model == "linear"
    with mpmath.workdps(1000):
        x, xinv = highprec._x_pair(1.0, 400.0, 0.5)
        rot = highprec._rotation(2 * mpmath.pi / 3)
        eigs = sorted(abs(e) for e in mpmath.eig(
            highprec._word_matrix(BABA, x, xinv, rot, rot.T))[0])
        slope = float(mpmath.log(eigs[2] / eigs[0]))
    assert rpt.kappa == pytest.approx(slope, rel=1e-12)


def test_peripheral_growth_precondition():
    rep = rep_from_coords(Coordinates(1.0, 1.0, 0.5))
    with pytest.raises(PreconditionError):
        peripheral_growth(rep, 3)


def test_morse_flat_check_far_point():
    rep = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    rpt = morse_flat_check(rep, random_f2_geodesic(12, seed=0), THETA_INTERVAL)
    seq_spacing = straightness_report(
        midpoint_sequence(rep, random_f2_geodesic(12, seed=0)), THETA_INTERVAL
    ).min_spacing
    assert rpt.max_distance < 0.05 * seq_spacing
    assert rpt.monotone


def test_morse_flat_check_cyclic_constant_distances():
    rep = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    rpt = morse_flat_check(rep, constant_generator_geodesic(G1, 12), THETA_INTERVAL)
    interior = rpt.distances[1:-1]
    assert max(interior) - min(interior) < 1e-6


def test_morse_flat_check_near_fuchsian_flagged():
    rep = rep_from_coords(Coordinates(0.0, 0.4, 0.0))
    try:
        rpt = morse_flat_check(rep, random_f2_geodesic(8, seed=2), THETA_INTERVAL)
    except (OppositionError, RegularityError):
        return
    assert rpt.max_distance > 0.01 or not rpt.monotone


def test_verdict_anchors():
    assert anosov_verdict(Coordinates(1.0, 6.0, 0.5)).verdict == anosov.EVIDENCE_ANOSOV
    t = float(schwartz_t(1.0, 0.5))
    assert anosov_verdict(Coordinates(1.0, t, 0.5)).verdict == anosov.EVIDENCE_DEGENERATE
    low = anosov_verdict(Coordinates(0.5, 0.2, 0.4))
    assert low.verdict in (anosov.EVIDENCE_DEGENERATE, anosov.INCONCLUSIVE)


def test_verdict_deterministic():
    cfg = VerdictConfig(max_len=8, samples=5000, window=8, peripheral_n=32, seed=9)
    v1 = anosov_verdict(Coordinates(1.0, 5.0, 0.8), cfg)
    v2 = anosov_verdict(Coordinates(1.0, 5.0, 0.8), cfg)
    assert v1.verdict == v2.verdict
    assert v1.stats == v2.stats

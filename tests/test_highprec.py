import random

import numpy as np
import pytest
from mpmath import mp
from mpmath.libmp import (ComplexResult, fone, from_float, from_man_exp, fzero, mpf_neg, mpf_pow,
                          mpf_sqrt)
from mpmath.matrices import eigen_symmetric

from modsym import anosov, highprec
from modsym.charvar import Coordinates, rep_from_coords
from modsym.errors import DegenerateTriangleError, DomainError
from modsym.flats import ModelInterval
from modsym.modgroup import f2_inverse, f2_mul, f2_to_mod, random_f2_geodesic

import mp_matrix_route as route


def test_cross_validates_fast_path_moderate():
    words = random_f2_geodesic(8, seed=2)
    s, t, theta = 0.8, 1.6, 0.9
    rep = rep_from_coords(Coordinates(s, t, theta))
    seq = anosov.midpoint_sequence(rep, words)
    sr = anosov.straightness_report(seq, ModelInterval.symmetric(np.pi / 7))
    hp = highprec.straightness_stats(s, t, theta, words)
    assert np.pi - sr.min_zeta_angle == pytest.approx(max(hp["deficits"]), rel=1e-6, abs=1e-12)
    assert sorted(sr.spacings) == pytest.approx(sorted(hp["spacings"]), abs=1e-9)
    assert sorted((sr.type_min, sr.type_max)) == pytest.approx(
        [min(hp["types"]), max(hp["types"])], abs=1e-9)


def test_triangle_angle_matches_fast_path():
    rep = rep_from_coords(Coordinates(0.5, 2.0, 0.7))
    fast = anosov.triangle_report(rep).angles[0]
    assert highprec.triangle_angle(0.5, 2.0, 0.7) == pytest.approx(fast, abs=1e-10)


def test_deficit_resolves_below_double_precision():
    words = random_f2_geodesic(6, seed=0)
    d = max(highprec.straightness_stats(0.5, 16.0, 0.5, words)["deficits"])
    assert 0.0 < d < 1e-10


def test_dps_scales_with_coordinates():
    assert highprec.default_dps(0.0, 2.0) < highprec.default_dps(2.0, 16.0)


# full output of straightness_stats with seeded windows, as recorded from
# the oracle that decomposed each matrix anew: sharing the
# eigendecompositions must not move a single bit
STATS_T4 = {
    "deficits": [
        0.001126042272364273,
        0.0,
        0.0,
        0.0,
        0.001126042272364273,
        0.001126042272364273,
    ],
    "spacings": [
        25.87988357348373,
        25.871375592278213,
        25.871375592278213,
        25.871375592278213,
        25.871375592278213,
        25.87988357348373,
        25.871375592278213,
    ],
    "types": [
        0.5146055427580681,
        0.5231291318407453,
        0.5231291318407453,
        0.5231291318407453,
        0.5231291318407453,
        0.5146055427580681,
        0.5231291318407453,
    ],
}
STATS_T12 = {
    "deficits": [
        1.1807084128428287e-10,
        1.1806541725532964e-10,
        1.1806541725532964e-10,
        1.1807084128428287e-10,
        3.4803343425690296e-05,
        3.480334342749909e-05,
    ],
    "spacings": [
        71.12801040241021,
        71.12801040152759,
        71.12801040241021,
        71.12801040152759,
        71.12801040241021,
        35.564005201205106,
        71.12801040152759,
    ],
    "types": [
        0.5235998760262415,
        0.5235987756174981,
        0.5235976751703563,
        0.5235987756174981,
        0.5235998760262415,
        0.5235976751703563,
        0.5235987755790996,
    ],
}


@pytest.mark.parametrize("t, seed, expected", [
    (4.0, 0, STATS_T4),
    (12.0, 1, STATS_T12),
])
def test_straightness_stats_pinned(t, seed, expected):
    assert highprec.straightness_stats(1.0, t, 0.5, random_f2_geodesic(8, seed)) == expected


# -- reference for straightness_stats: the per-vertex loop it replaced,
# which forms every step, midpoint and segment frame anew at each position
# of the window, on mp.matrix with mp.eigsy.


def _reference_straightness_stats(s, t, theta, window):
    with mp.workdps(highprec.default_dps(s, t)):
        x, xinv = route.x_pair(s, t, theta)
        rot = route.rotation(2 * mp.pi / 3)

        def rho(w):
            return route.word_matrix(f2_to_mod(w), x, xinv, rot, rot.T)

        steps = [None]
        for w_prev, w_next in zip(window, window[1:]):
            steps.append(rho(f2_mul(f2_inverse(w_prev), w_next)))
        half = mp.mpf(0.5)
        xis, xs = route.spd_pows(x, -half, half)
        mids = [None]
        for k in range(1, len(window)):
            (root,) = route.spd_pows(xis * (steps[k] * x * steps[k].T) * xis, half)
            mids.append(xs * root * xs)

        n_mid = len(window) - 1
        pis = [None] + [route.spd_pows(m, -half)[0] for m in mids[1:n_mid]]
        forward = [
            route.rel_frame(pis[n + 1], steps[n + 1] * mids[n + 2] * steps[n + 1].T)
            for n in range(n_mid - 1)
        ]
        spacings = [float(mp.sqrt(sum(v**2 for v in lam))) for lam, _ in forward]
        types = [float(highprec._chamber_angle(lam)) for lam, _ in forward]
        deficits = []
        for n in range(1, n_mid - 1):
            inv_step = steps[n] ** -1
            _, back = route.rel_frame(pis[n + 1], inv_step * mids[n] * inv_step.T)
            ang = route.angle_between(route.zeta_dir(back), route.zeta_dir(forward[n][1]))
            deficits.append(float(mp.pi - ang))
    return {"deficits": deficits, "spacings": spacings, "types": types}


@pytest.mark.parametrize("s, t, theta, window", [
    (1.0, 2.0, 0.5, random_f2_geodesic(10, 0)),
    (1.0, 8.0, 0.5, random_f2_geodesic(10, 1)),
    (1.0, 16.0, 0.5, random_f2_geodesic(10, 2)),
    # 2-letter steps
    (1.0, 4.0, 0.5, random_f2_geodesic(20, 3)[::2]),
    (0.8, 1.6, 0.9, random_f2_geodesic(40, 4)),
], ids=["t2", "t8", "t16", "two-letter-steps", "41-words"])
def test_straightness_stats_matches_reference(s, t, theta, window):
    assert highprec.straightness_stats(s, t, theta, window) == \
        _reference_straightness_stats(s, t, theta, window)


@pytest.mark.parametrize("window", [
    *(random_f2_geodesic(10, seed) for seed in range(4)),
    random_f2_geodesic(20, 3)[::2],
    random_f2_geodesic(40, 5),
    # its last step occurs nowhere else, so that step has no chart
    random_f2_geodesic(10, 11),
])
def test_eigsy_once_per_step_and_step_pair(monkeypatch, window):
    """One decomposition for x, one per distinct step (its midpoint), one
    per distinct step but the last (that midpoint's m^{-1/2}, the chart
    of the segments that start there: every step but the last starts
    one), one forward frame per distinct step pair and one back frame per
    distinct pair other than the last."""
    steps = [f2_mul(f2_inverse(a), b) for a, b in zip(window, window[1:])]
    pairs = list(zip(steps, steps[1:]))
    expected = (1 + len(set(steps)) + len(set(steps[:-1]))
                + len(set(pairs)) + len(set(pairs[:-1])))
    calls = []
    decompose = highprec._sym_eig_desc
    monkeypatch.setattr(highprec, "_sym_eig_desc",
                        lambda m: calls.append(m) or decompose(m))
    highprec.straightness_stats(1.0, 4.0, 0.5, window)
    count = len(calls)
    assert count == expected
    if all(len(w) == 1 for w in steps):
        # 4 letters, 12 reduced letter pairs
        assert count <= 33


def _bits(values):
    return [v._mpf_ for v in values]


def _random_spd(rng, grades):
    """a diag(e^grades) a^T for a random a, as nested lists of mpf."""
    a = mp.matrix(rng.standard_normal((3, 3)).tolist())
    m = a * mp.diag([mp.e ** g for g in grades]) * a.T
    return m.tolist()


def _test_matrices(rng):
    return {
        "random": _random_spd(rng, [0, 0, 0]),
        "graded": _random_spd(rng, [40, 0, -40]),
        # tred2 finds a zero scale in every column and reduces nothing
        "diagonal": mp.diag([3, 1, 2]).tolist(),
        "identity": mp.eye(3).tolist(),
        "repeated": mp.diag([2, 2, 1]).tolist(),
        # a tie below dps 50, two close eigenvalues above
        "near-tie": mp.diag([2, 2 + mp.mpf(10) ** -50, 1]).tolist(),
        "graded-200": _random_spd(rng, [200, 0, -200]),
    }


@pytest.mark.parametrize("dps", [30, 100, 200])
def test_decomposition_matches_eigsy_bit_for_bit(dps):
    rng = np.random.default_rng(dps)
    with mp.workdps(dps):
        for name, m in _test_matrices(rng).items():
            vals, q = highprec._sym_eig_desc(m)
            ref_vals, ref_q = route.sym_eig_desc(mp.matrix(m))
            assert _bits(vals) == _bits(ref_vals), name
            assert [_bits(row) for row in q] == [_bits(row) for row in ref_q.tolist()], name


@pytest.mark.parametrize("k, t", enumerate([1.0, 8.0, 14.0, 20.0]))
def test_decomposition_matches_eigsy_on_the_oracle_matrices(monkeypatch, k, t):
    """Every matrix straightness_stats decomposes on a window at (1, t,
    0.5), at its dps (92 to 206), decomposes as mp.eigsy does it."""
    captured = []
    decompose = highprec._sym_eig_desc
    monkeypatch.setattr(highprec, "_sym_eig_desc",
                        lambda m: captured.append((mp.dps, m)) or decompose(m))
    highprec.straightness_stats(1.0, t, 0.5, random_f2_geodesic(10, k))
    assert captured
    for dps, m in captured:
        with mp.workdps(dps):
            vals, q = decompose(m)
            ref_vals, ref_q = route.sym_eig_desc(mp.matrix(m))
        assert _bits(vals) == _bits(ref_vals)
        assert [_bits(row) for row in q] == [_bits(row) for row in ref_q.tolist()]


def _random_raw(rng, prec):
    """A random nonnegative raw mpf of up to 2 prec + 16 bits: zero, a
    power of two or an odd mantissa, with an exponent of either parity."""
    exp = rng.randrange(-3 * prec, 3 * prec)
    kind = rng.random()
    if kind < 0.02:
        return fzero
    if kind < 0.1:
        return from_man_exp(1, exp)
    return from_man_exp(rng.getrandbits(rng.randrange(1, 2 * prec + 17)) | 1, exp)


def test_sqrt_equals_mpf_sqrt_bit_for_bit():
    """The oracle's square root, with math.isqrt, against libmp's, with
    sqrtrem, on 12,000 inputs at precisions 53 to 2000 and three rounding
    modes."""
    rng = random.Random(34)
    kinds = set()
    for rnd in ("n", "f", "c"):
        for _ in range(4000):
            prec = rng.randrange(53, 2001)
            v = _random_raw(rng, prec)
            kinds.add(("zero" if not v[1] else "one" if v[1] == 1 else "odd", v[2] & 1))
            assert highprec._sqrt(v, prec, rnd) == mpf_sqrt(v, prec, rnd), (v, prec, rnd)
    assert kinds == {("zero", 0), ("one", 0), ("one", 1), ("odd", 0), ("odd", 1)}
    with pytest.raises(ComplexResult):
        highprec._sqrt(mpf_neg(fone), 53, "n")


def test_half_powers_equal_mpf_pow_bit_for_bit():
    """m^(1/2) and m^(-1/2) of _spd_pows, whose root at prec + 10 takes
    the reciprocal rounding mode, against mpf_pow."""
    rng = random.Random(35)
    for rnd in ("n", "f", "c"):
        for _ in range(400):
            prec = rng.randrange(53, 2001)
            v = _random_raw(rng, prec)
            for e in (0.5, -0.5) if v[1] else (0.5,):
                assert highprec._HALF_POWERS[e](v, prec, rnd) == \
                    mpf_pow(v, from_float(e), prec, rnd), (v, prec, rnd, e)


def test_triangle_angle_matches_matrix_route():
    s, t, theta = 0.5, 2.0, 0.7
    with mp.workdps(highprec.default_dps(s, t)):
        x, _ = route.x_pair(s, t, theta)
        rot = route.rotation(2 * mp.pi / 3)
        y = rot * x * rot.T
        (xis,) = route.spd_pows(x, mp.mpf(-0.5))
        (lam_y, uy), (lam_z, uz) = route.rel_frame(xis, y), route.rel_frame(xis, rot * y * rot.T)
        vy, vz = uy * mp.diag(lam_y) * uy.T, uz * mp.diag(lam_z) * uz.T
        entries = [(i, j) for i in range(3) for j in range(3)]
        ny = mp.sqrt(sum(vy[k] ** 2 for k in entries))
        nz = mp.sqrt(sum(vz[k] ** 2 for k in entries))
        c = sum(vy[k] * vz[k] for k in entries) / (ny * nz)
        angle = float(mp.acos(max(min(c, mp.mpf(1)), mp.mpf(-1))))
    assert highprec.triangle_angle(s, t, theta) == angle


def test_no_mp_matrix_product_or_eigsy(monkeypatch):
    """The oracle forms its products and decompositions on raw libmp
    values, and meets mp.matrix only inside mp.inverse: no mp.fdot, and
    none of the EISPACK routines of mp.eigsy."""
    calls = []
    monkeypatch.setattr(mp, "fdot", lambda *args, **kwargs: calls.append("fdot"))
    for name in ("r_sy_tridiag", "tridiag_eigen"):
        monkeypatch.setattr(eigen_symmetric, name,
                            lambda *args, name=name, **kwargs: calls.append(name))
    matrix = type(mp.matrix(1, 1))
    for name in ("__mul__", "__rmul__", "__add__"):
        method = getattr(matrix, name)
        monkeypatch.setattr(matrix, name,
                            lambda *args, name=name, method=method: calls.append(name)
                            or method(*args))
    monkeypatch.setattr(mp, "eigsy", lambda *args: calls.append("eigsy"))
    highprec.straightness_stats(1.0, 4.0, 0.5, random_f2_geodesic(10, 0))
    highprec.triangle_angle(0.5, 2.0, 0.7)
    assert calls == []


@pytest.mark.parametrize("n_words", [2, 3])
def test_short_window_raises(n_words):
    with pytest.raises(ValueError, match="at least 3 midpoints"):
        highprec.straightness_stats(1.0, 4.0, 0.5, random_f2_geodesic(10, 0)[:n_words])


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_fixed_point_raises_as_the_fast_path_does(theta):
    window = random_f2_geodesic(10, 0)
    rep = rep_from_coords(Coordinates(0.0, 0.0, theta))
    with pytest.raises(DomainError, match="coincident points"):
        anosov.midpoint_sequence(rep, window)
    with pytest.raises(DomainError, match="coincident points"):
        highprec.straightness_stats(0.0, 0.0, theta, window)
    with pytest.raises(DegenerateTriangleError):
        anosov.triangle_report(rep)
    with pytest.raises(DegenerateTriangleError):
        highprec.triangle_angle(0.0, 0.0, theta)


def test_near_fixed_point_still_returns_values():
    hp = highprec.straightness_stats(1e-9, 0.0, 0.3, random_f2_geodesic(10, 0))
    assert 0.0 < min(hp["spacings"]) < 1e-7
    assert len(hp["deficits"]) == 8
    assert 0.0 < highprec.triangle_angle(1e-9, 0.0, 0.3) < np.pi

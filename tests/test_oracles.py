"""Cross-validation of independent computation routes.

Every load-bearing quantity is computed here by a second, structurally
different path: arbitrary-precision word matrices for the trace identity,
per-word duality evaluation against the vectorized scan, and the
explicit kernel against the factored machinery (see test_factored).
"""

import numpy as np
import pytest
from mpmath import mp

from modsym import anosov, charvar, highprec
from modsym.charvar import BABA, Coordinates, matrix_of, rep_from_coords
from modsym.modgroup import f2_from_string, normalize

import mp_matrix_route as route


def mp_trace_baba(s, t, theta, dps=60):
    with mp.workdps(dps):
        x, xinv = route.x_pair(s, t, theta)
        rot = route.rotation(2 * mp.pi / 3)
        m = route.word_matrix(normalize("baba"), x, xinv, rot, rot.T)
        return m[0, 0] + m[1, 1] + m[2, 2]


CORNERS = [
    (3.0, 3.0, 1.5),
    (3.0, 3.0, 3.0),
    (3.0, 0.0, 0.5),
    (0.0, 3.0, 2.0),
    (2.842105263157894, 3.0, 2.984513020910303),
]


@pytest.mark.parametrize("s,t,theta", CORNERS)
def test_trace_identity_against_mp_oracle(s, t, theta):
    """The extended-precision word-matrix trace and the closed form both
    agree with a 60-digit evaluation, even at the worst grid corners."""
    ref = mp_trace_baba(s, t, theta)
    rep = rep_from_coords(Coordinates(s, t, theta))
    tr = np.trace(matrix_of(rep, BABA))
    closed = charvar.trace_baba_closed_form(s=s, t=t, theta=theta)
    with mp.workdps(60):
        assert abs(float(mp.mpf(repr(float(tr))) - ref)) < 1e-9
        assert abs(float(mp.mpf(repr(float(closed))) - ref)) < 1e-9


def test_scan_gaps_match_per_word_duality():
    """The vectorized level products agree with folding each word alone."""
    rep = rep_from_coords(Coordinates(0.9, 2.2, 0.8))
    report = anosov.cartan_gap_scan(rep, 5, None, seed=0)
    rng = np.random.default_rng(0)
    idx = rng.choice(len(report.words), size=60, replace=False)
    for i in idx:
        w = f2_from_string(report.words[i])
        lam = anosov.word_cartan(rep, w)
        assert report.gap12[i] == pytest.approx(lam[0] - lam[1], abs=1e-9)
        assert report.gap23[i] == pytest.approx(lam[1] - lam[2], abs=1e-9)


def test_scan_matches_matrix_of_route():
    """Scan gaps also agree with the extended-precision word matrices put
    through the plain Cartan projection (feasible at short lengths)."""
    from modsym.flats import cartan_projection
    from modsym.modgroup import f2_to_mod

    rep = rep_from_coords(Coordinates(0.6, 1.1, 0.4))
    report = anosov.cartan_gap_scan(rep, 3, None, seed=0)
    for i, word in enumerate(report.words):
        m = np.asarray(matrix_of(rep, f2_to_mod(f2_from_string(word))), dtype=float)
        lam = cartan_projection(m)
        assert report.gap12[i] == pytest.approx(lam[0] - lam[1], abs=1e-8)
        assert report.gap23[i] == pytest.approx(lam[1] - lam[2], abs=1e-8)


def test_evaluate_matches_matrix_of(rng):
    """The float64 isometry fold and the extended-precision word fold give
    the same even-word matrices at moderate coordinates."""
    rep = rep_from_coords(Coordinates(0.7, 0.9, 1.1))
    count = 0
    while count < 25:
        raw = "".join(rng.choice(list("abB"), size=rng.integers(0, 8)))
        w = normalize(raw)
        from modsym.modgroup import parity_abelianization

        if parity_abelianization(w)[0] != 0:
            continue
        count += 1
        iso = charvar.evaluate(rep, w)
        m = np.asarray(matrix_of(rep, w), dtype=float)
        assert not iso.reversing
        assert np.linalg.norm(iso.mat - m) < 1e-10


def test_far_straightness_matches_mp_oracle():
    """Fast factored diagnostics vs the mpmath pipeline at t = 6, where
    explicit double-precision matrices are long since unusable."""
    from modsym.flats import ModelInterval
    from modsym.modgroup import random_f2_geodesic

    words = random_f2_geodesic(8, seed=0)
    s, t, theta = 1.0, 6.0, 0.5
    rep = rep_from_coords(Coordinates(s, t, theta))
    seq = anosov.midpoint_sequence(rep, words)
    sr = anosov.straightness_report(seq, ModelInterval.symmetric(np.pi / 8))
    hp = highprec.straightness_stats(s, t, theta, words)
    assert np.pi - sr.min_zeta_angle == pytest.approx(max(hp["deficits"]), rel=1e-4)
    assert sr.min_spacing == pytest.approx(min(hp["spacings"]), rel=1e-12)
    assert sorted((sr.type_min, sr.type_max)) == pytest.approx(
        [min(hp["types"]), max(hp["types"])], abs=1e-9)

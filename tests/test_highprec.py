import numpy as np
import pytest

from modsym import anosov, highprec
from modsym.charvar import Coordinates, rep_from_coords
from modsym.flats import ModelInterval
from modsym.modgroup import random_f2_geodesic


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

"""The twin symmetry theta -> pi - theta.

With the signed permutation Q below, x at pi - theta is Q x^{-1} Q^T at
theta, and Q R Q^T = R^{-1}.  So rho at pi - theta is conjugate, through
the duality p -> p^{-1} of SL3(R)/SO(3), to rho at theta composed with
the outer automorphism a -> a, b -> b^{-1} of PSL2(Z).  On the free
subgroup that automorphism swaps the generators x = baBa and y = Baba,
letter k to k ^ 2.  Every trace, gap and straightness figure therefore
agrees at twins, up to rounding: the folds sum in another order there,
so the checks hold to stated bounds, not bit for bit.
"""

import numpy as np
import pytest

from modsym.anosov import anosov_verdict, cartan_gap_scan, midpoint_sequence, straightness_report
from modsym.charvar import _R, _R_LD, Coordinates, generators_at, rep_from_coords, trace_of_word
from modsym.flats import ModelInterval
from modsym.modgroup import F2Word, random_f2_geodesic

Q = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
THETA_INTERVAL = ModelInterval.symmetric(np.pi / 8)
SCAN_POINTS = [(1.0, 4.0, 0.5), (2.0, 1.0, 0.5), (0.5, 2.0, 1.2), (1.5, 3.33, 0.3)]


def twin(point):
    s, t, theta = point
    return s, t, np.pi - theta


def sigma(w: F2Word) -> F2Word:
    return F2Word(tuple(k ^ 2 for k in w.letters))


def test_twin_generator_is_the_conjugated_inverse():
    """Measured worst case 3.6e-15 of the largest entry."""
    rng = np.random.default_rng(0)
    s, t = rng.uniform(0.0, 6.0, (2, 2000))
    theta = rng.uniform(0.0, np.pi, 2000)
    x_twin = generators_at(s, t, np.pi - theta)[0]
    conj = Q @ generators_at(s, t, theta)[1] @ Q.T
    scale = np.abs(x_twin).max(axis=(-2, -1))
    assert (np.abs(x_twin - conj).max(axis=(-2, -1)) <= 1e-14 * scale).all()


def test_q_inverts_the_rotation_exactly():
    assert np.array_equal(Q @ _R @ Q.T, _R.T)
    assert np.array_equal(Q.astype(np.longdouble) @ _R_LD @ Q.T.astype(np.longdouble), _R_LD.T)


@pytest.mark.parametrize("point", [(1.0, 4.0, 0.5), (2.0, 1.0, 0.5), (0.3, 1.2, 1.1)])
def test_twin_traces_are_the_reversed_words(point):
    """Measured worst case 2.9e-16 relative."""
    rep = rep_from_coords(Coordinates(*point))
    rep_twin = rep_from_coords(Coordinates(*twin(point)))
    for word in ("baba", "aBaB", "abab", "babaBaba", "baBabaBa", "BabaBaba", "baBaBaba",
                 "babababa", "babaBabaBaba"):
        ref = trace_of_word(rep, word[::-1])
        assert trace_of_word(rep_twin, word) == pytest.approx(ref, rel=1e-14, abs=0)


@pytest.mark.parametrize("point", SCAN_POINTS)
def test_twin_gap_scans_swap_the_gaps(point):
    """Complete max-len 8 scans, a level set closed under the swap: the
    minima, the fitted slope and the sorted gaps, with gap12 and gap23
    trading places.  Measured worst case 4.3e-12."""
    gaps = cartan_gap_scan(rep_from_coords(Coordinates(*point)), 8, None)
    twin_gaps = cartan_gap_scan(rep_from_coords(Coordinates(*twin(point))), 8, None)
    assert gaps.enumerated and twin_gaps.enumerated
    assert [n for n, _ in gaps.per_length_min] == [n for n, _ in twin_gaps.per_length_min]
    np.testing.assert_allclose([y for _, y in gaps.per_length_min],
                               [y for _, y in twin_gaps.per_length_min], rtol=0, atol=1e-10)
    assert gaps.slope_c == pytest.approx(twin_gaps.slope_c, rel=0, abs=1e-10)
    np.testing.assert_allclose(np.sort(gaps.gap12), np.sort(twin_gaps.gap23), rtol=0, atol=1e-10)
    np.testing.assert_allclose(np.sort(gaps.gap23), np.sort(twin_gaps.gap12), rtol=0, atol=1e-10)


@pytest.mark.parametrize("point", [*SCAN_POINTS, (0.8, 2.0, 0.9)])
def test_twin_straightness_on_the_swapped_window(point):
    """The window at theta and its sigma-image at pi - theta: equal
    zeta-angles and spacings, and segment types mapped phi -> pi/3 - phi.
    Measured worst cases: 8.8e-12 in angle, 9.7e-13 relative in spacing,
    5.4e-13 in type."""
    rep = rep_from_coords(Coordinates(*point))
    rep_twin = rep_from_coords(Coordinates(*twin(point)))
    for seed in range(10):
        window = random_f2_geodesic(10, seed)
        rpt = straightness_report(midpoint_sequence(rep, window), THETA_INTERVAL)
        twin_rpt = straightness_report(midpoint_sequence(rep_twin, [sigma(w) for w in window]),
                                       THETA_INTERVAL)
        np.testing.assert_allclose(rpt.zeta_angles, twin_rpt.zeta_angles, rtol=0, atol=1e-10)
        np.testing.assert_allclose(rpt.spacings, twin_rpt.spacings, rtol=1e-11, atol=0)
        assert rpt.type_min == pytest.approx(np.pi / 3 - twin_rpt.type_max, rel=0, abs=1e-11)
        assert twin_rpt.type_min == pytest.approx(np.pi / 3 - rpt.type_max, rel=0, abs=1e-11)


@pytest.mark.xfail(strict=True, reason=(
    "the verdict reads a sampled scan and a window that the twin map does not carry "
    "over, so min zeta reads 2.64171 and 2.63171 at these twins, either side of the "
    "gate pi - 0.5 (ROADMAP items 5 and 8)"))
def test_verdict_is_equal_at_twins():
    point = (1.1097, 2.1255, 1.0763)
    assert (anosov_verdict(Coordinates(*point)).verdict
            == anosov_verdict(Coordinates(*twin(point))).verdict)

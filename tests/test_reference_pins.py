"""Pins of the two reference layers: the explicit SPD kernel (``symspace``,
``flats``), which the factored primitives are held to, and the
extended-precision word matrices (``charvar.matrix_of``).  The digests
were recorded before the kernel decomposed each relative segment once
and before a representation kept its extended-precision letter table,
so they show that neither change moved a bit."""

import hashlib

import numpy as np
import pytest

from modsym import cli
from modsym.charvar import Coordinates, matrices_at, matrix_of, rep_from_coords
from modsym.errors import GeometryError
from modsym.flats import flag_of_sector, flat_from_flags, segment_type, zeta_direction
from modsym.symspace import distance, log_map, midpoint
from modsym.verify import random_point

N_PAIRS = 500


def _pairs():
    rng = np.random.default_rng(7)
    return [(random_point(rng, 1.5), random_point(rng, 1.5)) for _ in range(N_PAIRS)]


KERNEL_VALUES = {
    "midpoint": lambda p, q: midpoint(p, q).mat,
    "log_map": lambda p, q: log_map(p, q).vec,
    "segment_type": segment_type,
    "zeta_direction": zeta_direction,
    "flag_point": lambda p, q: flag_of_sector(p, q).point,
    "flag_line": lambda p, q: flag_of_sector(p, q).line,
    "flat_frame": lambda p, q: flat_from_flags(flag_of_sector(q, p), flag_of_sector(p, q)).frame,
}

# sha256 over the 500 pairs of each value's float64 bytes, or of
# "<error type>: <message>" for a pair that raises (none does).  193 of
# the 500 flat frames come out of the flags with a negative determinant.
KERNEL_SHA256 = {
    "midpoint": "55ca548c12b573dbf3277b35748ce603415bbe88c7efe17d3c93fc8648fb1d4c",
    "log_map": "ba683bd744e8ce44210f37d0a3f1b1de4fa62afc5719e16984f07e49e863a2f2",
    "segment_type": "eaf15ead7fe70a9b3836ded033cd8902083ae5400c065dfb3e9fc45d65047a8a",
    "zeta_direction": "3b39e19141e8f6d8a2520fdf443f00dbec3397fc99e7472173fd8a08bd0d2d9b",
    "flag_point": "182bb05f573722027dd3c1cbb8edcbe8357737bb307e1782a5d3d0fb96d47297",
    "flag_line": "46a2ae16988c74a913baf19c55c44b776ecc628f89e2c8d80ee56cb5d5ae73aa",
    "flat_frame": "862361b89c8731fcd5c089cb27f42201b9cab0396a5d16730b9d72062f8d0e8d",
}


@pytest.mark.parametrize("name", sorted(KERNEL_VALUES))
def test_explicit_kernel_is_pinned(name):
    digest = hashlib.sha256()
    for p, q in _pairs():
        try:
            digest.update(np.asarray(KERNEL_VALUES[name](p, q), dtype=np.float64).tobytes())
        except GeometryError as exc:
            digest.update(f"{type(exc).__name__}: {exc}".encode())
    assert digest.hexdigest() == KERNEL_SHA256[name]


def _reference_evals(p, q):
    """Eigenvalues of p^{-1/2} q p^{-1/2} from eigvalsh, the form the
    kernel's distance had before its relative segments shared one eigh."""
    m = p.inv_sqrt() @ q.mat @ p.inv_sqrt()
    return np.linalg.eigvalsh(0.5 * (m + m.T))


def test_distance_matches_its_eigvalsh_reference():
    """eigh and eigvalsh round the smallest relative eigenvalue apart by
    up to eps times the condition kappa of the relative matrix: on these
    pairs the two distances differ by up to 1.07 eps kappa (1.2e-12
    relative at kappa = 3e5), and each is that far from a 40-digit mpmath
    distance."""
    eps = np.finfo(float).eps
    for p, q in _pairs():
        w = _reference_evals(p, q)
        ref = float(np.linalg.norm(np.log(w)))
        assert abs(distance(p, q) - ref) <= 1e-14 * ref + 4 * eps * w[-1] / w[0]


@pytest.mark.parametrize("word", ["baba", "aBaB", "b", "aba", "Baba", "babaBaba"])
def test_matrix_of_equals_the_batched_fold(word):
    """Compared by value: the padding bytes of longdouble are undefined."""
    rng = np.random.default_rng(11)
    for s, t, theta in zip(rng.uniform(0, 4, 50), rng.uniform(0, 6, 50),
                           rng.uniform(0, np.pi, 50)):
        c = Coordinates(s, t, theta)
        assert np.array_equal(matrix_of(rep_from_coords(c), word),
                              matrices_at(c.s, c.t, c.theta, word))


# sha256 of the stdout of ``rep-info --word baBa`` at each point
REP_INFO_SHA256 = {
    "1,4,0.5": "b1483167af9e89e41ddf89a9194c8d2afe62eddfa62409a9b6268b56ed0c59dc",
    "0,0,0": "ac196205578071e0c7f2f090f6ece26d6315da822711394c1be6a4b7c1daa16d",
    "2,1,0.5": "7ef3be4f85b5c318f1224304b16eaa9e6e8dd4205a22d65705910398c910ab99",
    "1,6,0.5": "0f3c2ef41b12d084b27f338b921ccaa8e1b4569841550b3fd55970e8c6c4c522",
}


@pytest.mark.parametrize("coords", sorted(REP_INFO_SHA256))
def test_rep_info_word_is_pinned(coords, capsys):
    assert cli.main(["rep-info", "--coords", coords, "--word", "baBa"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REP_INFO_SHA256[coords]

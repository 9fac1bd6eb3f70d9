"""Pins of the two reference layers: the explicit SPD kernel (``symspace``,
``flats``), which the factored primitives are held to, and the
extended-precision word matrices (``charvar.matrix_of``).  The digests
were recorded before the kernel decomposed each relative segment once
and before a representation kept its extended-precision letter table,
so they show that neither change moved a bit.  The grid commands and
the gap table are pinned by the bytes they write, and the gap scan's
word tables by their arrays, both recorded before the prefix tree
numbered its nodes with ``np.unique``.  The batched word fold
(``tests/word_matrices.py``) is pinned by its values, and the trace
table by its bytes, both recorded while x = S W S was a dense product
against S and the trace table formed every entry of the last product."""

import hashlib

import numpy as np
import pytest

from modsym import anosov, cli
from modsym.charvar import Coordinates, matrix_of, rep_from_coords
from modsym.errors import GeometryError
from modsym.flats import flag_of_sector, flat_from_flags, segment_type, zeta_direction
from modsym.symspace import distance, log_map, midpoint
from modsym.verify import random_point
from word_matrices import matrices_at

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


# sha256 over the 400 seeded points of each word's extended-precision
# matrices, each entry as the float64 bytes of its high part and of the
# exact remainder, recorded while x = S W S was formed with a dense S
MATRICES_AT_SHA256 = {
    "baba": "cea7d60d2aa43c70d5a5474b2d375e578d4c14945d8652e85a8a77682a5354a4",
    "aBaB": "d13854193d443a7f9b0288ea2674b779e2ae60edd25d7b8a95cc4e2186df3593",
    "b": "e22db3bc1dc564ac510010cfab8ba056a9bd2559cb4890e76011faddd8f8d7d3",
    "aba": "ee714757db460f7c3084c0975408374511e81bce03025c4080d8b136aa8c383a",
    "Baba": "65562f62e9bc02713c4163c2e1df424ed80c919feb9ce8b07c1adb5cc0f7de5e",
    "babaBaba": "bb52b5806a9671d509db012ad2b562cebcf8f9ba3033bbee4e3f2bc141121e01",
}


@pytest.mark.parametrize("word", sorted(MATRICES_AT_SHA256))
def test_batched_fold_is_pinned(word):
    """Points with s = 0, t = 0 and theta = 0 among them; every entry is
    finite, so the split into two float64 parts is exact."""
    rng = np.random.default_rng(5)
    s, t, theta = rng.uniform(0, 6, 400), rng.uniform(0, 30, 400), rng.uniform(0, 2 * np.pi, 400)
    s[:40] = 0.0
    t[40:80] = 0.0
    theta[80:160] = 0.0
    m = np.broadcast_to(matrices_at(s, t, theta, word), (400, 3, 3))
    hi = m.astype(np.float64)
    lo = (m - hi).astype(np.float64)
    assert np.isfinite(hi).all() and np.isfinite(lo).all()
    assert hashlib.sha256(hi.tobytes() + lo.tobytes()).hexdigest() == MATRICES_AT_SHA256[word]


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


# sha256 of stdout plus stderr of the grid commands, recorded before they
# evaluated each block as an open grid.  The grids cover theta >= pi
# (reduced for the computation, printed as given), -0.0 axes, traces that
# overflow to inf and nan, surface rows flagged "error:" past s of about
# 6.2 and rows whose t or residual is not finite.
GRID_SHA256 = {
    "trace-table": "5f522a72b514d66b6ab1f04d56f07e3128ae1e90ee3b482bd16093ebb5bed978",
    "trace-table --grid 0:3:20,0:3:20,0:3.1:20":
        "2729850ca8a978a02bd6621bd61233ed47ccf69c579bfd2efc0dadc8959e609c",
    "trace-table --grid 0:2.5:3,0:3:4,0:4.2:4":
        "c162b8f1198a02ceb95b9ab6a8be2e89e91667ee49b20f7d4c24024dd0de26ef",
    "trace-table --grid=-0:1:3,-0:2:3,-0:7:4":
        "85640e00d3091d85e64188876cda15e11518e0892af923543fd9fcd9b8774296",
    "trace-table --grid 0:9000:7,0:12000:5,0:6:3":
        "70effe48f17d1b91d5cee6a95aa3ec1cc723bae91bc9af031a0be8319ebb443d",
    "trace-table --coords 0.3,2.1,4.5":
        "b11bb5157a62c8757dc597be44175c84158ef37c43691413136bd417856d00d3",
    "trace-table --format json": "2f40d31b0ade72f9bd8bfa4a47e0a684905a09ced5905ec4ac45cdb3725c762a",
    "surface": "1109b43bfa398064228ee004ddc51813d7256b236a9b22bcabe2d2d3f0f77d2c",
    "surface --s-grid 5:7:21 --theta-grid 0:3.1:32":
        "9e122500f5848bf5274a009db45e1e4fe99c8d10acd55a3560abb531322cabe3",
    "surface --s-grid 0:3000:50 --theta-grid=-0:6:40":
        "2b554b5f0996e357993279e00bc0b2fb96b20b39bf3ea1eb65f007eec7a2a3f8",
    "surface --format json": "bae6b446cc985040e83614227c2b7dbc8a7d61c6eb7613793b21311e4d5786b7",
}


@pytest.mark.parametrize("command", sorted(GRID_SHA256))
def test_grid_command_is_pinned(command, capsys):
    assert cli.main(command.split()) == 0
    captured = capsys.readouterr()
    digest = hashlib.sha256((captured.out + captured.err).encode()).hexdigest()
    assert digest == GRID_SHA256[command]


# sha256 over the dtype, shape and bytes of each array of a gap scan's word
# tables, levels first, then the prefix tree depth by depth: complete
# levels and sampled ones, down to a budget that draws fewer words per
# length than the short lengths hold and up to a max-len of 40
SCAN_TABLES_SHA256 = {
    (3, None, None): "2ab2afcb6f1eaf56181d628f88dce89411f3d947a2a0cc9d26862a09782fa3fc",
    (8, None, None): "240bc006efb1df4edb3e6d0e2505ec6bf0d9adff705d3af5a1fa8371bf0e1490",
    (10, 50000, 0): "118181e40b2df39969cac2cee2c61861555f880460242f31776b1324fdfb3f11",
    (9, 30000, 3): "87a6188a449fe9f5bd7f4f95c229b5ac1d20a2d31a274fffd2b642135c9621f9",
    (6, 300, 5): "dc15097f36279f63890e57cff1795efe5b14e51f3f1dccfb1d738b2f441234c9",
    (40, 4000, 1): "3ad2bc45cdc0874aefb7b0a913e1cb35ccc0be3a5857f3c43128e505d106fc52",
}


@pytest.mark.parametrize("key", list(SCAN_TABLES_SHA256), ids=str)
def test_scan_tables_are_pinned(key):
    levels, tree = anosov._scan_tables.__wrapped__(*key)
    digest = hashlib.sha256()
    for a in (*levels, *(a for depth in tree for a in depth)):
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())
    assert digest.hexdigest() == SCAN_TABLES_SHA256[key]


# sha256 of the whole gap table at (0.8, 2, 0.5), the footer with its
# configuration hash and fitted line included
GAP_TABLE_SHA256 = {
    "--max-len 6": "716929ad9b1578bcded2953896f2959690adf1e84a55d02d2c0ae40fadfe5cec",
    "--max-len 8 --samples 2000 --seed 3":
        "033cce5b99702cfe931936b003087e68105208453659bf499e1353e95767d2c4",
}


@pytest.mark.parametrize("options", sorted(GAP_TABLE_SHA256))
def test_gap_table_bytes_are_pinned(options, tmp_path):
    gaps = tmp_path / "gaps.csv"
    assert cli.main(["anosov-scan", "--grid", "0.8:0.8:1,2:2:1,0.5:0.5:1", *options.split(),
                     "--gap-table", str(gaps), "--out", str(tmp_path / "scan.csv")]) == 0
    assert hashlib.sha256(gaps.read_bytes()).hexdigest() == GAP_TABLE_SHA256[options]

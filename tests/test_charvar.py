import warnings
from functools import reduce

import numpy as np
import pytest

from modsym import charvar
from modsym.charvar import (
    BABA,
    Coordinates,
    TraceReport,
    coords_from_rep,
    evaluate,
    f2_fisometries,
    f2_fisometry,
    fuchsian_classify,
    is_reducible,
    matrix_of,
    rep_from_coords,
    rep_from_point,
    schwartz_t,
    trace_b2aba_bound_check,
    trace_baba_closed_form,
    trace_of_word,
    trace_symmetry_check,
)
from modsym.errors import ConditioningError, DomainError, ParityError, PreconditionError
from modsym.factored import FIsometry, fcompose
from modsym.modgroup import (
    _F2_SUBSTITUTION,
    F2Word,
    f2_from_string,
    f2_to_mod,
    normalize,
    parity_abelianization,
)
from modsym.symspace import Isometry, compose, rotation
from modsym.verify import random_point

LOG3_HALF = float(np.log(3.0) / 2.0)


def random_coordinates(rng, smax=3.0, tmax=3.0):
    return Coordinates(rng.uniform(0, smax), rng.uniform(0, tmax),
                       rng.uniform(0, np.pi))


def test_coordinates_normalization():
    c = Coordinates(1.0, 2.0, np.pi + 0.3)
    assert c.theta == pytest.approx(0.3)
    with pytest.raises(ValueError):
        Coordinates(-0.1, 0.0, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_coordinates_reject_non_finite(slot, bad):
    coords = [1.0, 1.0, 0.5]
    coords[slot] = bad
    with pytest.raises(ValueError):
        Coordinates(*coords)


def test_rep_from_coords_rejects_nan_before_factoring():
    # the check must fire before factored._rescaled, whose DomainError
    # is not a ValueError
    with pytest.raises(ValueError, match="finite"):
        rep_from_coords(Coordinates(np.nan, 1.0, 0.0))


def test_rep_fixed_point_examples():
    rep = rep_from_coords(Coordinates(0.0, 0.0, 0.4))
    assert np.allclose(rep.x.mat, np.eye(3), atol=1e-14)
    t = 1.1
    rep = rep_from_coords(Coordinates(0.0, t, 0.9))
    assert np.allclose(rep.x.mat, np.diag([1.0, np.exp(t), np.exp(-t)]), rtol=1e-13)


def test_rep_relators(rng):
    for _ in range(20):
        rep = rep_from_coords(random_coordinates(rng, 2.5, 2.5))
        assert rep.validate(1e-10)


def test_coords_roundtrip(rng):
    for _ in range(20):
        c = Coordinates(rng.uniform(0.1, 2.5), rng.uniform(0.1, 2.5),
                        rng.uniform(0.05, np.pi - 0.05))
        back = coords_from_rep(rep_from_coords(c))
        assert back.s == pytest.approx(c.s, abs=1e-8)
        assert back.t == pytest.approx(c.t, abs=1e-8)
        assert abs((back.theta - c.theta + np.pi / 2) % np.pi - np.pi / 2) < 1e-8


@pytest.mark.parametrize("s, t, theta", [(4.5, 2.0, 0.5), (5.0, 0.5, 0.5), (5.0, 1.0, 1.0)])
def test_coords_roundtrip_far_from_the_parallel_set(s, t, theta):
    """Points where the iterative parallel-set projection used to stall."""
    back = coords_from_rep(rep_from_coords(Coordinates(s, t, theta)))
    assert back.s == pytest.approx(s, abs=1e-6)
    assert back.t == pytest.approx(t, abs=1e-6)
    assert back.theta == pytest.approx(theta, abs=1e-6)


def test_coords_from_rep_block_diagonal_is_type_one():
    rep = rep_from_coords(Coordinates(0.0, 1.7, 0.0))
    back = coords_from_rep(rep)
    assert back.s <= 1e-10


def test_evaluate_identity_and_relator(rng):
    rep = rep_from_coords(random_coordinates(rng))
    assert evaluate(rep, normalize("")).is_identity(1e-12)
    assert evaluate(rep, normalize("aa")).is_identity(1e-12)


def test_evaluate_homomorphism(rng):
    rep = rep_from_coords(Coordinates(0.8, 1.2, 0.6))
    for _ in range(30):
        raw1 = "".join(rng.choice(list("abB"), size=rng.integers(0, 6)))
        raw2 = "".join(rng.choice(list("abB"), size=rng.integers(0, 6)))
        w1, w2 = normalize(raw1), normalize(raw2)
        lhs = evaluate(rep, charvar.normalize(raw1 + raw2))
        rhs = compose(evaluate(rep, w1), evaluate(rep, w2))
        assert np.linalg.norm(lhs.mat - rhs.mat) < 1e-10
        assert lhs.reversing == rhs.reversing


@pytest.mark.parametrize("raw", ["a", "ba", "aB", "bab", "abaBa", "BabaBab", "aBabaBaba"])
def test_evaluate_odd_words_fold_left_to_right(raw):
    rep = rep_from_coords(Coordinates(0.8, 1.2, 0.6))
    gens = {"a": rep.rho_a, "b": rep.rot, "B": compose(rep.rot, rep.rot)}
    w = normalize(raw)
    assert str(w) == raw and parity_abelianization(w)[0] == 1
    expected = Isometry.identity()
    for syll in w.syllables:
        expected = compose(expected, gens[syll])
    got = evaluate(rep, w)
    assert got.reversing and expected.reversing
    assert np.array_equal(got.mat, expected.mat)


def _fcompose_chain(isometries):
    out = FIsometry.identity()
    for g in isometries:
        out = fcompose(out, g)
    return out


def _same_fisometry(g, h):
    return (np.array_equal(g.mat, h.mat) and np.array_equal(g.matinv, h.matinv)
            and (g.lm, g.lmi) == (h.lm, h.lmi))


def _reference_f2_generators(x_mat, x_inv):
    """The four F2 generators by the parity fold over factored letters that
    ``charvar._fold`` replaced: rho(a) is the reversing isometry (x, -),
    each letter carries its parity, and a reversing left factor g composes
    with the transposed inverse factors of the right one,
    g h = (G H^{-T}, H^T G^{-1})."""
    rot = rotation(2.0 * np.pi / 3.0)
    letters = {"a": (FIsometry.from_pair(x_mat, x_inv), True),
               "b": (FIsometry.from_pair(rot, rot.T), False),
               "B": (FIsometry.from_pair(rot.T, rot), False)}
    gens = []
    for k in range(4):
        g, reversing = FIsometry.identity(), False
        for syll in _F2_SUBSTITUTION[k]:
            h, h_reversing = letters[syll]
            if reversing:
                pair = (g.mat @ h.matinv.swapaxes(-1, -2), h.mat.swapaxes(-1, -2) @ g.matinv,
                        g.lm + h.lmi, h.lm + g.lmi)
            else:
                pair = (g.mat @ h.mat, h.matinv @ g.matinv, g.lm + h.lm, h.lmi + g.lmi)
            g, reversing = FIsometry.from_pair(*pair), reversing != h_reversing
        assert not reversing
        gens.append(g)
    return gens


def _reference_word_folds(rep):
    """The four F2 generators as four unstacked ``fcompose`` folds of the
    factored letters' ``charvar._letter_picks``, one word at a time, which
    the stacked position-by-position fold replaced."""
    return [reduce(fcompose, charvar._letter_picks(rep._letters, _F2_SUBSTITUTION[k]),
                   FIsometry.identity()) for k in range(4)]


@pytest.mark.parametrize("t", [1.0, 6.0, 16.0, 100.0, 300.0])
@pytest.mark.parametrize("s", [0.0, 0.4, 2.0])
def test_f2_generators_are_the_parity_fold(s, t):
    for theta in (0.0, 0.5, 1.3, 2.9):
        c = Coordinates(s, t, theta)
        S, Si, expw = charvar._halfangle_blocks(c.s, c.t, c.theta / 2.0, np.float64)
        ref = _reference_f2_generators(S @ expw(2.0) @ S, Si @ expw(-2.0) @ Si)
        rep = rep_from_coords(c)
        gens = rep.f2_generators()
        words = _reference_word_folds(rep)
        for k in range(4):
            assert _same_fisometry(gens[k], ref[k]), (theta, k)
            assert _same_fisometry(gens[k], words[k]), (theta, k)


def test_f2_generators_from_a_point_are_the_parity_fold(rng):
    for _ in range(10):
        x = random_point(rng, 1.5)
        rep = rep_from_point(x)
        gens = rep.f2_generators()
        ref = _reference_f2_generators(x.mat, x.inv())
        words = _reference_word_folds(rep)
        assert all(_same_fisometry(gens[k], ref[k]) for k in range(4))
        assert all(_same_fisometry(gens[k], words[k]) for k in range(4))


def test_f2_fisometry_is_the_fcompose_loop():
    rep = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    gens = rep.f2_generators()
    assert gens is rep.f2_generators()
    assert gens.mat.shape == (4, 3, 3) and gens.lm.shape == (4,)
    assert not any(a.flags.writeable for a in (gens.mat, gens.matinv, gens.lm, gens.lmi))
    for name in ("x", "Y", "xyXY", "yyxYxxyX"):
        w = f2_from_string(name)
        assert _same_fisometry(f2_fisometry(rep, w), _fcompose_chain(gens[k] for k in w.letters))
    # one ragged call: the shorter words are padded with the identity letter
    words = [f2_from_string(name) for name in ("e", "x", "Y", "xyXY", "yyxYxxyX")]
    ragged = f2_fisometries(rep, words)
    for k, w in enumerate(words):
        assert _same_fisometry(ragged[k], _fcompose_chain(gens[j] for j in w.letters)), w
    empty = f2_fisometries(rep, [])
    assert empty.mat.shape == (0, 3, 3) and empty.lm.shape == (0,)
    for stack in (ragged, empty, f2_fisometries(rep, words[:1] * 2), f2_fisometry(rep, words[1])):
        assert not (stack.mat.flags.writeable or stack.matinv.flags.writeable)


def test_explicit_fixed_point_is_formed_once_where_it_fits():
    """``x`` and ``rho_a`` are formed on first read and kept; where the
    explicit point does not fit, every read raises again."""
    far = rep_from_coords(Coordinates(1.0, 20.0, 0.5))
    for _ in range(2):
        with pytest.raises(ConditioningError):
            far.x
    rep = rep_from_coords(Coordinates(1.0, 4.0, 0.5))
    assert rep.rho_a is rep.rho_a and rep.x is rep.x


def test_block_tables_are_each_representation_s_own():
    """One (5, P) table stack for a block: each representation keeps its
    column, the table it builds alone bit for bit, and a ragged fold over
    the stack gives each column the representation's own fold."""
    coords = [Coordinates(1.0, 6.0, 0.5), Coordinates(0.3, 0.2, 2.9), Coordinates(2.0, 40.0, 1.3)]
    reps = [rep_from_coords(c) for c in coords]
    table = charvar._f2_tables(reps)
    assert table.mat.shape == (5, 3, 3, 3) and table.lm.shape == (5, 3)
    assert not any(a.flags.writeable for a in (table.mat, table.matinv, table.lm, table.lmi))
    words = [f2_from_string(name) for name in ("e", "x", "Y", "xyXY", "yyxYxxyX")]
    folded = charvar._f2_fold(table, words)
    assert folded.mat.shape == (5, 3, 3, 3)
    def same(g, h):
        return all(np.array_equal(a, b) for a, b in zip(
            (g.mat, g.matinv, g.lm, g.lmi), (h.mat, h.matinv, h.lm, h.lmi)))

    for j, (c, rep) in enumerate(zip(coords, reps)):
        alone = rep_from_coords(c)
        alone.f2_generators()
        assert same(rep._f2_table, table[:, j]) and same(rep._f2_table, alone._f2_table)
        assert same(rep.f2_generators(), alone.f2_generators())
        assert same(folded[:, j], f2_fisometries(alone, words))


@pytest.mark.parametrize("s", [0.0, 0.7, 2.0])
@pytest.mark.parametrize("t", [0.5, 3.0, 8.0, 20.0])
def test_f2_generators_are_the_matrices_of_their_words(s, t):
    """The one word fold in its two number types: the factored generators
    and the extended-precision matrices of the same words."""
    for theta in (0.0, 0.8, 2.2):
        rep = rep_from_coords(Coordinates(s, t, theta))
        gens = rep.f2_generators()
        for k in range(4):
            want = np.asarray(matrix_of(rep, f2_to_mod(F2Word((k,)))), dtype=float)
            got = gens.mat[k] * np.exp(gens.lm[k])
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), (theta, k)


def test_matrix_of_b_is_rotation(rng):
    rep = rep_from_coords(random_coordinates(rng))
    assert np.allclose(np.asarray(matrix_of(rep, "b"), dtype=float),
                       rotation(2 * np.pi / 3), atol=1e-15)


def test_matrix_of_baba_type_one_trace():
    t = 0.9
    rep = rep_from_coords(Coordinates(0.0, t, 0.3))
    tr = trace_of_word(rep, BABA)
    assert tr == pytest.approx(1.5 - 1.5 * np.cosh(2 * t), abs=1e-12)


def test_matrix_of_rejects_odd_words(rng):
    rep = rep_from_coords(random_coordinates(rng))
    with pytest.raises(ParityError):
        matrix_of(rep, "a")


def test_trace_closed_form_calibration():
    assert float(trace_baba_closed_form(Coordinates(0.0, LOG3_HALF, 0.7))) == pytest.approx(
        -1.0, abs=1e-12)
    assert float(trace_baba_closed_form(Coordinates(0.0, 0.0, 0.0))) == pytest.approx(
        0.0, abs=1e-14)


def test_trace_closed_form_matches_matrix(rng):
    for _ in range(150):
        c = random_coordinates(rng)
        rep = rep_from_coords(c)
        assert abs(trace_of_word(rep, BABA) - float(trace_baba_closed_form(c))) < 1e-9


def test_trace_symmetry(rng):
    for _ in range(100):
        rep = rep_from_coords(random_coordinates(rng))
        report = trace_symmetry_check(rep)
        assert report.residual < 1e-10
    rep = rep_from_coords(Coordinates(0.0, LOG3_HALF, 0.0))
    report = trace_symmetry_check(rep)
    assert report.numeric_trace == pytest.approx(-1.0, abs=1e-12)
    assert report.closed_form == pytest.approx(-1.0, abs=1e-12)


def test_schwartz_t_fuchsian_anchor():
    assert float(schwartz_t(0.0, 0.3)) == pytest.approx(LOG3_HALF, abs=1e-15)


def test_schwartz_t_self_consistency(rng):
    for _ in range(200):
        s = rng.uniform(0, 3)
        theta = rng.uniform(0, np.pi)
        t = schwartz_t(s, theta)
        assert abs(float(trace_baba_closed_form(s=s, t=t, theta=theta)) + 1.0) < 1e-12


def test_schwartz_t_large_s_limit():
    # t approaches arccosh(1 + 6 / sin^2(theta)) / 2 as s grows
    theta = 1.0
    values = [float(schwartz_t(s, theta)) for s in (5.0, 10.0, 20.0, 40.0)]
    limit = float(np.arccosh(1.0 + 6.0 / np.sin(theta) ** 2) / 2.0)
    assert all(np.isfinite(v) and v > 0 for v in values)
    assert abs(values[-1] - values[-2]) < 1e-6
    assert values[-1] == pytest.approx(limit, abs=1e-6)


def test_fuchsian_classify():
    assert fuchsian_classify(Coordinates(0.0, 1.0, 0.0)) == charvar.TYPE_I
    assert fuchsian_classify(Coordinates(1.0, 0.0, 0.0)) == charvar.TYPE_II
    assert fuchsian_classify(Coordinates(0.0, 0.0, 0.0)) == charvar.BOTH_FIXED_POINT
    assert fuchsian_classify(Coordinates(1.0, 1.0, 0.7)) == charvar.NON_FUCHSIAN


def test_is_reducible_anchor_cases():
    assert is_reducible(rep_from_coords(Coordinates(0.0, 1.0, 0.0)))
    assert not is_reducible(rep_from_coords(Coordinates(1.0, 1.0, 0.7)))
    # type II (t = 0) does not make the even subgroup reducible
    assert not is_reducible(rep_from_coords(Coordinates(1.0, 0.0, 0.0)))


def _reference_is_reducible(rep, tol=1e-7):
    """The numerical reducibility test: a common complex eigenvector of
    rho(b) and rho(aba) (an invariant line) or of their inverse transposes
    (an invariant plane), from ``np.linalg.eig`` and ``np.linalg.inv``.
    Raises LinAlgError where rho(aba) is numerically singular."""
    mb = np.asarray(matrix_of(rep, "b"), dtype=float)
    maba = np.asarray(matrix_of(rep, "aba"), dtype=float)

    def common_eigenvector(m1, m2):
        v1, v2 = np.linalg.eig(m1)[1].T, np.linalg.eig(m2)[1].T
        return any(np.linalg.norm(np.cross(u, v)) <= tol * np.linalg.norm(u) * np.linalg.norm(v)
                   for u in v1 for v in v2)

    return (common_eigenvector(mb, maba)
            or common_eigenvector(np.linalg.inv(mb).T, np.linalg.inv(maba).T))


def test_is_reducible_equals_its_eig_reference():
    """Where the eig/inv reference returns, is_reducible gives its answer:
    on the type-I locus, off it down to s = 1e-3 (no nearer, where the two
    tolerance bands differ), and at points outside the coordinate gauge."""
    reps = [rep_from_coords(Coordinates(float(s), float(t), theta))
            for s in np.r_[0.0, np.geomspace(1e-3, 3.0, 8)]
            for t in np.linspace(0.0, 8.0, 9)
            for theta in (0.0, 0.7, 1.6, 2.9)]
    reps += [rep_from_point(random_point(np.random.default_rng(k), 1.5)) for k in range(60)]
    for rep in reps:
        assert is_reducible(rep) == _reference_is_reducible(rep)


def test_is_reducible_returns_or_raises_domain_error():
    """On a grid out to s = 5, t = 30, where rho(aba) is numerically
    singular for the eig/inv test at many points, and on t from 180 to
    380, where |rho(aba) v|^2 overflows float64, is_reducible answers
    reducible exactly at s = 0 or raises DomainError."""
    answers = 0
    for s in np.arange(0.0, 5.0 + 1e-9, 0.25):
        for t in np.r_[np.arange(0.0, 30.0 + 1e-9, 0.5), np.arange(180.0, 400.0, 20.0)]:
            for theta in (0.3, 1.0, 1.7, 2.4, 2.65, 3.0):
                rep = rep_from_coords(Coordinates(float(s), float(t), theta))
                try:
                    assert is_reducible(rep) is bool(s == 0)
                except DomainError:
                    continue
                answers += 1
    assert answers > 0


@pytest.mark.parametrize("coords, expected", [((1.0, 200.0, 0.5), False),
                                              ((0.0, 200.0, 0.0), True)])
def test_is_reducible_where_image_norms_overflow(coords, expected):
    """At t = 200 the matrices fit float64 but |rho(aba) v|^2 does not:
    the answer is still right, without an overflow warning (RuntimeWarnings
    are errors in this suite)."""
    assert is_reducible(rep_from_coords(Coordinates(*coords))) is expected


def test_trace_b2aba_bound_on_surface(rng):
    for s, theta in [(0.0, 0.0), (0.5, 0.9), (1.5, 2.0)]:
        t = float(schwartz_t(s, theta))
        rep = rep_from_coords(Coordinates(s, t, theta))
        report = trace_b2aba_bound_check(rep)
        assert abs(report.numeric_trace) >= 4.0 - 1e-6
    # the bound is attained at the Fuchsian point
    rep = rep_from_coords(Coordinates(0.0, LOG3_HALF, 0.0))
    report = trace_b2aba_bound_check(rep)
    assert abs(report.numeric_trace) == pytest.approx(4.0, abs=1e-10)


def test_trace_b2aba_off_surface_rejected():
    rep = rep_from_coords(Coordinates(1.0, 2.5, 0.5))
    with pytest.raises(PreconditionError):
        trace_b2aba_bound_check(rep)


def test_peripheral_spectrum_on_surface(rng, char_poly_coeffs):
    """tr = tr^{-1} = -1 forces eigenvalues (1, -1, -1); the square is
    unipotent with a nontrivial Jordan block."""
    for _ in range(20):
        s = rng.uniform(0, 2)
        theta = rng.uniform(0, np.pi)
        rep = rep_from_coords(Coordinates(s, float(schwartz_t(s, theta)), theta))
        m_ld = matrix_of(rep, BABA)  # extended precision
        coeffs = np.asarray(char_poly_coeffs(m_ld), dtype=float)
        assert np.allclose(coeffs, [1.0, 1.0, -1.0, -1.0], atol=1e-6)
        eigs = np.linalg.eigvals(np.asarray(m_ld, dtype=float))
        # the double eigenvalue is defective, so numerical eigenvalues
        # split like sqrt(eps); the char-poly check above is the sharp one
        assert np.allclose(np.abs(eigs), 1.0, atol=5e-3)
        m2 = np.asarray(char_poly_coeffs(m_ld @ m_ld), dtype=float)
        assert np.allclose(m2, [1.0, -3.0, 3.0, -1.0], atol=1e-6)
        # genuinely unipotent, not the identity
        assert np.linalg.norm(np.asarray(m_ld @ m_ld, dtype=float) - np.eye(3)) > 1e-3


def test_peripheral_spectrum_off_surface():
    rep = rep_from_coords(Coordinates(1.0, 2.5, 0.5))
    eigs = np.linalg.eigvals(np.asarray(matrix_of(rep, BABA), dtype=float))
    mags = np.sort(np.abs(eigs))
    assert mags[-1] > 1.0 + 1e-6 and mags[0] < 1.0 - 1e-6


def test_trace_report_residual():
    r = TraceReport(word=BABA, numeric_trace=2.0, closed_form=1.5)
    assert r.residual == pytest.approx(0.5)


def test_rep_matches_general_coordinate_construction(rng):
    """The gauge-fixed fixed point equals the general cylindrical
    construction at (s, alpha = theta/2, r = 0, t, beta = 0)."""
    from modsym import flats

    for _ in range(25):
        s, t = rng.uniform(0, 3, 2)
        theta = rng.uniform(0, np.pi)
        rep = rep_from_coords(Coordinates(s, t, theta))
        pc = flats.ParallelCoords(s=s, alpha=theta / 2, r=0.0, t=t, beta=0.0)
        q = flats.point_from_coords(pc)
        assert np.linalg.norm(rep.x.mat - q.mat) < 1e-9 * np.linalg.norm(q.mat)


def test_rep_from_point_matches_coordinate_route(rng):
    from modsym.charvar import rep_from_point

    c = Coordinates(0.9, 1.4, 0.6)
    via_coords = rep_from_coords(c)
    via_point = rep_from_point(via_coords.x)
    assert via_point.coords is None
    assert np.allclose(via_point.x.mat, via_coords.x.mat, atol=1e-12)
    for word in ("baba", "Baba", "baBa"):
        m1 = np.asarray(matrix_of(via_coords, word), dtype=float)
        m2 = np.asarray(matrix_of(via_point, word), dtype=float)
        assert np.linalg.norm(m1 - m2) < 1e-9 * max(1.0, np.linalg.norm(m1))
    assert via_point.validate(1e-10)


def test_matrices_at_matches_matrix_of_bitwise():
    # grid with s = 0, t = 0 and theta beyond pi, which Coordinates reduces
    s, t, theta = (g.ravel() for g in np.meshgrid([0.0, 0.7, 2.9], [0.0, 1.3, 3.0],
                                                  [0.0, 1.1, np.pi, 4.0], indexing="ij"))
    for word in ("baba", "aBaB", "b", "baBaBaba"):
        stack = np.broadcast_to(charvar.matrices_at(s, t, theta, word), (s.size, 3, 3))
        assert stack.dtype == np.longdouble
        for k in range(s.size):
            ref = matrix_of(rep_from_coords(Coordinates(s[k], t[k], theta[k])), word)
            assert np.array_equal(stack[k], ref)
    with pytest.raises(ParityError):
        charvar.matrices_at(s, t, theta, "a")


def test_closed_forms_broadcast_elementwise():
    s = np.array([0.0, 0.4, 1.7, 2.9])
    t = np.array([0.0, 2.2, 0.3, 3.0])
    theta = np.array([0.0, 0.5, 2.0, 3.1])
    closed = trace_baba_closed_form(s=s, t=t, theta=theta)
    surf = schwartz_t(s, theta)
    assert closed.dtype == surf.dtype == np.longdouble
    for k in range(s.size):
        one = trace_baba_closed_form(Coordinates(s[k], t[k], theta[k]))
        assert type(one) is np.longdouble and closed[k] == one
        assert type(schwartz_t(s[k], theta[k])) is np.longdouble
        assert surf[k] == schwartz_t(s[k], theta[k])


def test_halfangle_blocks_keep_each_factor_on_its_axes():
    s, t, alpha = np.ix_([0.0, 1.0], [0.0, 2.0, 3.0], [0.0, 0.5, 1.0, 2.0])
    S, Si, expw = charvar._halfangle_blocks(s, t, alpha, np.longdouble)
    assert S.shape == Si.shape == (1, 3, 1, 3, 3)
    assert expw(2.0).shape == expw(-2.0).shape == (2, 1, 4, 3, 3)


def _same_values(a, b):
    """Equal by value, with NaN in the same places: the padding bytes of
    longdouble are undefined, so bytes are not compared."""
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(np.isnan(a), np.isnan(b))
    assert np.array_equal(a, b, equal_nan=True)


def test_open_grid_equals_the_dense_grid():
    """Evaluated on an open grid, each term depends on one axis, and every
    entry matches the dense evaluation, inf and NaN included."""
    axes = ([0.0, -0.0, 0.7, 6000.0], [0.0, -0.0, 1.3, 6000.0], [0.0, -0.0, np.pi, 4.2])
    open_grid = np.ix_(*(np.array(a) for a in axes))
    dense = np.meshgrid(*axes, indexing="ij")
    with np.errstate(all="ignore"):
        mats = charvar.matrices_at(*open_grid, BABA)
        _same_values(mats, charvar.matrices_at(*dense, BABA))
        closed = trace_baba_closed_form(s=open_grid[0], t=open_grid[1], theta=open_grid[2])
        _same_values(closed, trace_baba_closed_form(s=dense[0], t=dense[1], theta=dense[2]))
        s, theta = np.ix_(np.array(axes[0]), np.array(axes[2]))
        dense_s, dense_theta = np.meshgrid(axes[0], axes[2], indexing="ij")
        surf = schwartz_t(s, theta)
        _same_values(surf, schwartz_t(dense_s, dense_theta))
    assert np.isnan(mats).any() and np.isinf(mats).any()
    assert np.isnan(closed).any() and np.isinf(closed).any() and np.isnan(surf).any()


def test_float64_overflow_raises_domain_error():
    """At t=400 the extended-precision matrices pass the float64 range:
    the float copies must raise, not return -inf or reach LAPACK."""
    rep = rep_from_coords(Coordinates(1.0, 400.0, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="trace of baba is outside the float64 range"):
            trace_of_word(rep, BABA)
        with pytest.raises(DomainError, match="outside the float64 range"):
            is_reducible(rep)


@pytest.mark.parametrize("t", [800.0, 1e5])
def test_rep_from_coords_out_of_float_range_raises_without_warning(t):
    """Past t + 2s of about 710 the inversion (and then the fixed point)
    overflows float64: a DomainError, with no RuntimeWarning first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="outside the float64 range"):
            rep_from_coords(Coordinates(1.0, t, 0.5))


def test_longdouble_is_extended_precision():
    assert np.finfo(np.longdouble).nmant >= 63, (
        "numpy.longdouble has no 64-bit mantissa on this platform: the trace "
        "tolerances do not hold (see README, Numerical design notes, on extended "
        "precision)")


def test_trace_of_word_is_the_float_of_the_trace():
    rep = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    assert trace_of_word(rep, BABA) == float(np.trace(matrix_of(rep, BABA)))

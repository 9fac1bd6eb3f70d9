import numpy as np
import pytest

from modsym import charvar
from modsym.charvar import (
    BABA,
    Coordinates,
    TraceReport,
    char_poly_coeffs,
    coords_from_rep,
    evaluate,
    f2_fisometry,
    fuchsian_classify,
    is_reducible,
    matrix_of,
    rep_from_coords,
    schwartz_t,
    trace_b2aba_bound_check,
    trace_baba_closed_form,
    trace_of_word,
    trace_symmetry_check,
)
from modsym.errors import ParityError, PreconditionError
from modsym.factored import FIsometry, fcompose
from modsym.modgroup import _F2_SUBSTITUTION, f2_from_string, normalize, parity_abelianization
from modsym.symspace import Isometry, compose, rotation

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
            and (g.lm, g.lmi, g.reversing) == (h.lm, h.lmi, h.reversing))


def test_f2_fisometry_is_the_fcompose_loop():
    rep = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    gens = rep.f2_generators()
    for k, sylls in _F2_SUBSTITUTION.items():
        assert _same_fisometry(gens[k], _fcompose_chain(rep.letter(s) for s in sylls))
    for name in ("x", "Y", "xyXY", "yyxYxxyX"):
        w = f2_from_string(name)
        assert _same_fisometry(f2_fisometry(rep, w), _fcompose_chain(gens[k] for k in w.letters))


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


def test_peripheral_spectrum_on_surface(rng):
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

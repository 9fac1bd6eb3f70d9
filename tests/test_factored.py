import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym import symspace
from modsym.charvar import Coordinates, f2_fisometry, rep_from_coords
from modsym.factored import (
    FIsometry,
    fact,
    fangle,
    fcompose,
    fdistance,
    finverse,
    fmidpoint,
    fzeta_angle,
    seg_lambdas,
    seg_log_vector,
)
from modsym.flats import chamber_angle, segment_type, zeta_angle
from modsym.modgroup import f2_from_string
from modsym.verify import random_isometry, random_point


def _factored(g: symspace.Isometry) -> FIsometry:
    return FIsometry.from_pair(g.mat, np.linalg.inv(g.mat), g.reversing)


def _bits(g: FIsometry) -> tuple:
    return g.mat.tobytes(), g.matinv.tobytes(), g.lm, g.lmi


def test_matches_explicit_kernel(rand_point):
    for _ in range(25):
        p, q = rand_point(), rand_point()
        fp, fq = FIsometry.from_point(p), FIsometry.from_point(q)
        assert fdistance(fp, fq) == pytest.approx(symspace.distance(p, q), abs=1e-11)
        m = fmidpoint(fp, fq)
        assert np.linalg.norm(m.to_point().mat - symspace.midpoint(p, q).mat) < 1e-11
        lam = seg_lambdas(fp, fq)
        assert chamber_angle(lam) == pytest.approx(segment_type(p, q), abs=1e-10)
        v = seg_log_vector(fp, fq)
        assert np.linalg.norm(v - symspace.log_map(p, q).vec) < 1e-10


def test_zeta_matches_explicit(rand_point):
    for _ in range(15):
        p, q, r = rand_point(), rand_point(), rand_point()
        fp, fq, fr = (FIsometry.from_point(x) for x in (p, q, r))
        assert fzeta_angle(fp, fq, fr) == pytest.approx(zeta_angle(p, q, r), abs=1e-9)
        assert fangle(fp, fq, fr) == pytest.approx(symspace.angle_at(p, q, r), abs=1e-9)


def test_fcompose_matches_compose(rand_isometry, rand_point):
    for _ in range(25):
        g, h = rand_isometry(), rand_isometry()
        fg, fh = _factored(g), _factored(h)
        comp = symspace.compose(g, h)
        fcomp = fcompose(fg, fh)
        assert np.allclose(fcomp.mat * np.exp(fcomp.lm), comp.mat, atol=1e-10)
        assert fcomp.reversing == comp.reversing
        p = rand_point()
        lhs = fact(fcomp, FIsometry.from_point(p)).to_point().mat
        rhs = symspace.act(comp, p).mat
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_finverse(rand_isometry, rand_point):
    for _ in range(20):
        g = rand_isometry()
        fg = _factored(g)
        ident = fcompose(fg, finverse(fg))
        assert not ident.reversing
        assert np.allclose(ident.mat * np.exp(ident.lm), np.eye(3), atol=1e-10)


def test_far_range_midpoint_equidistance():
    rep = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    g = f2_fisometry(rep, f2_from_string("x"))
    p = rep.fx
    q = fact(g, p)
    m = fmidpoint(p, q)
    dp, dq = fdistance(m, p), fdistance(m, q)
    assert dp > 15.0
    assert abs(dp - dq) < 1e-9 * dp


def test_far_range_lambda_duality():
    rep = rep_from_coords(Coordinates(2.0, 16.0, 0.5))
    g = f2_fisometry(rep, f2_from_string("y"))
    lam = seg_lambdas(rep.fx, fact(g, rep.fx))
    assert abs(lam.sum()) < 1e-9
    assert lam[0] > 40.0
    lam_rev = seg_lambdas(fact(g, rep.fx), rep.fx)
    assert np.allclose(lam_rev, -lam[::-1], atol=1e-8)


def test_chart_point_is_isometric(rand_point):
    for _ in range(15):
        c, p, q = rand_point(), rand_point(), rand_point()
        fc, fp, fq = (FIsometry.from_point(x) for x in (c, p, q))
        to_chart = finverse(fc)
        assert fdistance(fact(to_chart, fp), fact(to_chart, fq)) == pytest.approx(
            fdistance(fp, fq), abs=1e-10)
        assert fdistance(fact(to_chart, fc), FIsometry.identity()) < 1e-10


def test_translation_invariance_of_segment_data(rand_isometry, rand_point):
    for _ in range(15):
        g = rand_isometry()
        fg = _factored(g)
        p, q = rand_point(), rand_point()
        fp, fq = FIsometry.from_point(p), FIsometry.from_point(q)
        d0 = fdistance(fp, fq)
        d1 = fdistance(fact(fg, fp), fact(fg, fq))
        assert d1 == pytest.approx(d0, abs=1e-9)


def test_fact_is_fcompose_with_the_orientation_dropped(rand_isometry, rand_point):
    rep = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    far = fact(f2_fisometry(rep, f2_from_string("xyX")), rep.fx)
    parities = set()
    for _ in range(20):
        g = _factored(rand_isometry())
        parities.add(g.reversing)
        for p in (FIsometry.from_point(rand_point()), far):
            moved, composed = fact(g, p), fcompose(g, p)
            assert _bits(moved) == _bits(composed)
            assert moved.reversing is False and composed.reversing == g.reversing
    assert parities == {False, True}
    assert _bits(fact(rep.letter("a"), far)) == _bits(fcompose(rep.letter("a"), far))


def test_chart_by_the_inverse_is_the_chart_point_formula(rand_point):
    rep = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    far = [fact(f2_fisometry(rep, f2_from_string(w)), rep.fx) for w in ("x", "xyX")]
    for _ in range(10):
        near = FIsometry.from_point(rand_point()), FIsometry.from_point(rand_point())
        for c, q in (near, (far[0], near[1]), (near[0], far[1]), far):
            chart = FIsometry.from_pair(c.matinv @ q.mat, q.matinv @ c.mat, False,
                                        c.lmi + q.lm, q.lmi + c.lm)
            assert _bits(fact(finverse(c), q)) == _bits(chart)


def test_finverse_is_an_involution(rand_isometry):
    rep = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    far = [rep.letter("a"), *rep.f2_generators().values()]
    for g in [_factored(rand_isometry()) for _ in range(20)] + far:
        back = finverse(finverse(g))
        assert _bits(back) == _bits(g) and back.reversing == g.reversing


@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_factored_operations_property_equivariance(seed):
    rng = np.random.default_rng(seed)
    g, h = _factored(random_isometry(rng)), _factored(random_isometry(rng))
    p, q = FIsometry.from_point(random_point(rng)), FIsometry.from_point(random_point(rng))
    d = fdistance(p, q)
    assert abs(fdistance(fact(g, p), fact(g, q)) - d) <= 1e-9 * max(1.0, d)
    assert fdistance(fact(fcompose(g, h), p), fact(g, fact(h, p))) <= 1e-9

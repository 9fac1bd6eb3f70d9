import numpy as np
import pytest

from modsym import symspace
from modsym.charvar import Coordinates, f2_fisometry, rep_from_coords
from modsym.factored import (
    FIsometry,
    FPoint,
    chart_point,
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


def test_matches_explicit_kernel(rand_point):
    for _ in range(25):
        p, q = rand_point(), rand_point()
        fp, fq = FPoint.from_point(p), FPoint.from_point(q)
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
        fp, fq, fr = (FPoint.from_point(x) for x in (p, q, r))
        assert fzeta_angle(fp, fq, fr) == pytest.approx(zeta_angle(p, q, r), abs=1e-9)
        assert fangle(fp, fq, fr) == pytest.approx(symspace.angle_at(p, q, r), abs=1e-9)


def test_fcompose_matches_compose(rand_isometry, rand_point):
    for _ in range(25):
        g, h = rand_isometry(), rand_isometry()
        fg = FIsometry.from_pair(g.mat, np.linalg.inv(g.mat), g.reversing)
        fh = FIsometry.from_pair(h.mat, np.linalg.inv(h.mat), h.reversing)
        comp = symspace.compose(g, h)
        fcomp = fcompose(fg, fh)
        assert np.allclose(fcomp.mat * np.exp(fcomp.lm), comp.mat, atol=1e-10)
        assert fcomp.reversing == comp.reversing
        p = rand_point()
        lhs = fact(fcomp, FPoint.from_point(p)).to_point().mat
        rhs = symspace.act(comp, p).mat
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_finverse(rand_isometry, rand_point):
    for _ in range(20):
        g = rand_isometry()
        fg = FIsometry.from_pair(g.mat, np.linalg.inv(g.mat), g.reversing)
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
        fc, fp, fq = (FPoint.from_point(x) for x in (c, p, q))
        assert fdistance(chart_point(fc, fp), chart_point(fc, fq)) == pytest.approx(
            fdistance(fp, fq), abs=1e-10)
        assert fdistance(chart_point(fc, fc), FPoint.identity()) < 1e-10


def test_translation_invariance_of_segment_data(rand_isometry, rand_point):
    for _ in range(15):
        g = rand_isometry()
        fg = FIsometry.from_pair(g.mat, np.linalg.inv(g.mat), g.reversing)
        p, q = rand_point(), rand_point()
        fp, fq = FPoint.from_point(p), FPoint.from_point(q)
        d0 = fdistance(fp, fq)
        d1 = fdistance(fact(fg, fp), fact(fg, fq))
        assert d1 == pytest.approx(d0, abs=1e-9)

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym import factored, symspace
from modsym.charvar import Coordinates, f2_fisometry, rep_from_coords
from modsym.errors import DomainError, GeometryError, RegularityError
from modsym.factored import (
    FIsometry,
    _rescaled,
    fact,
    fcompose,
    fdistance,
    finverse,
    fmidpoint,
    fstack,
    fzeta_direction,
    seg_frame,
    seg_lambdas,
    seg_log_vector,
)
from modsym.flats import chamber_angle, segment_type, zeta_angle
from modsym.modgroup import f2_from_string
from modsym.symspace import _cross, _dot, _frobenius, _norm, matrix_angle
from modsym.verify import random_isometry, random_point


def _random_preserving(rng) -> symspace.Isometry:
    """A random isometry as the verify suite draws it, orientation-preserving:
    the factored type has no reversing case."""
    return symspace.Isometry(random_isometry(rng).mat)


@pytest.fixture
def rand_preserving(rng):
    return lambda: _random_preserving(rng)


def _factored(g: symspace.Isometry) -> FIsometry:
    assert not g.reversing
    return FIsometry.from_pair(g.mat, np.linalg.inv(g.mat))


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
        angle = matrix_angle(fzeta_direction(fp, fq), fzeta_direction(fp, fr))
        assert angle == pytest.approx(zeta_angle(p, q, r), abs=1e-9)


def test_fcompose_matches_compose(rand_preserving, rand_point):
    for _ in range(25):
        g, h = rand_preserving(), rand_preserving()
        fg, fh = _factored(g), _factored(h)
        comp = symspace.compose(g, h)
        fcomp = fcompose(fg, fh)
        assert np.allclose(fcomp.mat * np.exp(fcomp.lm), comp.mat, atol=1e-10)
        p = rand_point()
        lhs = fact(fcomp, FIsometry.from_point(p)).to_point().mat
        rhs = symspace.act(comp, p).mat
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_finverse(rand_preserving):
    for _ in range(20):
        fg = _factored(rand_preserving())
        ident = fcompose(fg, finverse(fg))
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


def test_translation_invariance_of_segment_data(rand_preserving, rand_point):
    for _ in range(15):
        fg = _factored(rand_preserving())
        p, q = rand_point(), rand_point()
        fp, fq = FIsometry.from_point(p), FIsometry.from_point(q)
        d0 = fdistance(fp, fq)
        d1 = fdistance(fact(fg, fp), fact(fg, fq))
        assert d1 == pytest.approx(d0, abs=1e-9)


def test_fact_is_fcompose():
    """Points and isometries are one type, so the action is the product."""
    assert fact is fcompose


def test_identity_is_one_shared_read_only_instance():
    identity = FIsometry.identity()
    assert FIsometry.identity() is identity
    assert _bits(identity) == _bits(FIsometry.from_pair(np.eye(3), np.eye(3)))
    assert type(identity.lm) is float and type(identity.lmi) is float
    assert not identity.mat.flags.writeable and not identity.matinv.flags.writeable


def test_chart_by_the_inverse_is_the_chart_point_formula(rand_point):
    rep = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    far = [fact(f2_fisometry(rep, f2_from_string(w)), rep.fx) for w in ("x", "xyX")]
    for _ in range(10):
        near = FIsometry.from_point(rand_point()), FIsometry.from_point(rand_point())
        for c, q in (near, (far[0], near[1]), (near[0], far[1]), far):
            chart = FIsometry.from_pair(c.matinv @ q.mat, q.matinv @ c.mat,
                                        c.lmi + q.lm, q.lmi + c.lm)
            assert _bits(fact(finverse(c), q)) == _bits(chart)


def test_finverse_is_an_involution(rand_preserving):
    rep = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    far = [rep.fx, *rep.f2_generators()]
    for g in [_factored(rand_preserving()) for _ in range(20)] + far:
        assert _bits(finverse(finverse(g))) == _bits(g)


@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_factored_operations_property_equivariance(seed):
    rng = np.random.default_rng(seed)
    g, h = _factored(_random_preserving(rng)), _factored(_random_preserving(rng))
    p, q = FIsometry.from_point(random_point(rng)), FIsometry.from_point(random_point(rng))
    d = fdistance(p, q)
    assert abs(fdistance(fact(g, p), fact(g, q)) - d) <= 1e-9 * max(1.0, d)
    assert fdistance(fact(fcompose(g, h), p), fact(g, fact(h, p))) <= 1e-9


# -- stacks: every entry of a stacked call equals the unstacked call --------


def _stack_points(rng, n, scale=0.7):
    return fstack(FIsometry.from_point(random_point(rng, scale)) for _ in range(n))


def _assert_rows_match(stacked_call, scalar_call, n):
    """stacked_call() row by row equals scalar_call(k); where a scalar call
    raises, the stacked call raises that of the first failing row."""
    expected, first_error = [], None
    for k in range(n):
        try:
            expected.append(scalar_call(k))
        except GeometryError as exc:
            first_error = (k, exc)
            break
    if first_error is not None:
        k, exc = first_error
        with pytest.raises(type(exc)) as info:
            stacked_call()
        assert str(info.value) == str(exc) and info.value.row == k
        return
    got = stacked_call()
    for k, want in enumerate(expected):
        row = tuple(part[k] for part in got) if isinstance(got, tuple) else got[k]
        if isinstance(want, FIsometry):
            assert _bits(row) == _bits(want)
        elif isinstance(want, tuple):
            assert all(np.array_equal(a, b) for a, b in zip(row, want))
        else:
            assert np.array_equal(row, want)


_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(derandomize=True, deadline=None)
@given(_SEEDS, st.integers(min_value=1, max_value=6))
def test_rescaled_stack_property(seed, n):
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(n, 3, 3)) * np.exp(rng.uniform(-30, 30, size=(n, 1, 1)))
    logs = rng.uniform(-5, 5, size=n)
    _assert_rows_match(lambda: _rescaled(mats, logs),
                       lambda k: _rescaled(mats[k], float(logs[k])), n)
    # an unstacked log-scale broadcasts over the stack
    _assert_rows_match(lambda: _rescaled(mats, 0.5), lambda k: _rescaled(mats[k], 0.5), n)


@settings(derandomize=True, deadline=None)
@given(_SEEDS, st.integers(min_value=1, max_value=6))
def test_segment_primitives_stack_property(seed, n):
    rng = np.random.default_rng(seed)
    p, q, q2 = (_stack_points(rng, n) for _ in range(3))
    _assert_rows_match(lambda: seg_lambdas(p, q), lambda k: seg_lambdas(p[k], q[k]), n)
    _assert_rows_match(lambda: seg_frame(p, q), lambda k: seg_frame(p[k], q[k]), n)
    _assert_rows_match(lambda: fmidpoint(p, q), lambda k: fmidpoint(p[k], q[k]), n)
    _assert_rows_match(lambda: matrix_angle(fzeta_direction(p, q), fzeta_direction(p, q2)),
                       lambda k: matrix_angle(fzeta_direction(p[k], q[k]),
                                              fzeta_direction(p[k], q2[k])), n)
    # one unstacked end broadcasts against a stack, as the orbit window uses it
    _assert_rows_match(lambda: fmidpoint(p[0], q), lambda k: fmidpoint(p[0], q[k]), n)


@settings(derandomize=True, deadline=None)
@given(_SEEDS, st.integers(min_value=1, max_value=4))
def test_paired_stack_axes_property(seed, n):
    """A (n, 2) stack against a (n, 1) one: the window's backward and
    forward frames of one vertex, in C order."""
    rng = np.random.default_rng(seed)
    centre = _stack_points(rng, n)
    ends = fstack([_stack_points(rng, n), _stack_points(rng, n)], axis=1)
    _assert_rows_match(lambda: fzeta_direction(centre[:, None], ends),
                       lambda k: np.stack([fzeta_direction(centre[k], ends[k, j])
                                           for j in range(2)]), n)


@settings(derandomize=True, deadline=None)
@given(_SEEDS, st.integers(min_value=1, max_value=6))
def test_products_stack_property(seed, n):
    rng = np.random.default_rng(seed)
    gs = [_factored(_random_preserving(rng)) for _ in range(n)]
    g = fstack(gs)
    p = _stack_points(rng, n)
    _assert_rows_match(lambda: fcompose(g, p), lambda k: fcompose(g[k], p[k]), n)
    _assert_rows_match(lambda: fact(g, p), lambda k: fact(g[k], p[k]), n)
    _assert_rows_match(lambda: finverse(g), lambda k: finverse(g[k]), n)
    _assert_rows_match(lambda: fdistance(g, p), lambda k: fdistance(g[k], p[k]), n)
    rows = tuple(g)
    assert [_bits(row) for row in rows] == [_bits(h) for h in gs]
    assert all(type(row.lm) is float for row in rows)


@settings(derandomize=True, deadline=None)
@given(_SEEDS, st.integers(min_value=1, max_value=6))
def test_chamber_and_matrix_angle_stack_property(seed, n):
    rng = np.random.default_rng(seed)
    v = np.sort(rng.normal(size=(n, 3)), axis=1)[:, ::-1]
    v = v - v.mean(axis=1, keepdims=True)
    _assert_rows_match(lambda: chamber_angle(v), lambda k: chamber_angle(v[k]), n)
    a, b = rng.normal(size=(2, n, 3, 3)) * np.exp(rng.uniform(-5, 5, size=(2, n, 1, 1)))
    _assert_rows_match(lambda: matrix_angle(a, b), lambda k: matrix_angle(a[k], b[k]), n)


@settings(derandomize=True, deadline=None)
@given(_SEEDS)
def test_stacked_norm_and_dot_are_the_unstacked_ones(seed):
    """The matmul form of the inner product sums in ndarray.dot's order,
    which np.linalg.norm(x, axis=-1) does not."""
    rng = np.random.default_rng(seed)
    scale = np.exp(rng.uniform(-20, 20, size=(50, 1)))
    x, y = rng.normal(size=(2, 50, 3)) * scale
    m = rng.normal(size=(50, 3, 3)) * scale[:, :, None]
    for k in range(50):
        assert _dot(x, y)[k] == x[k].dot(y[k]) == _dot(x[k], y[k])
        assert _norm(x)[k] == np.linalg.norm(x[k]) == _norm(x[k])
        assert _frobenius(m)[k] == np.linalg.norm(m[k]) == _frobenius(m[k])
        assert np.array_equal(_cross(x, y)[k], np.cross(x[k], y[k]))


def test_underflowed_relative_product_raises_with_its_row():
    """A relative factor product whose entries all underflowed to 0 has no
    log-eigenvalues: the stack names its row instead of taking log(0)."""
    p = FIsometry.from_pair(np.diag([0.0, 1.0, 1.0]), np.diag([1.0, 0.0, 0.0]))
    assert not (finverse(p).mat @ p.mat).any()
    origin = fstack([FIsometry.identity(), p])
    regular = FIsometry.from_point(symspace.Point(np.diag(np.exp([1.0, 0.2, -1.2]))))
    with pytest.raises(DomainError, match="relative factor product underflows") as info:
        seg_lambdas(origin, fstack([regular, p]))
    assert info.value.row == 1


def test_stacked_check_raises_for_the_first_failing_entry():
    """Each entry meets the checks in the unstacked order (coincident, wall,
    tie); the stack raises the first failing entry's error, with its row."""
    def at(*logs):
        return FIsometry.from_point(symspace.Point(np.diag(np.exp(logs))))

    origin = fstack([FIsometry.identity()] * 3)
    regular, wall, same = at(1.0, 0.2, -1.2), at(1.0, 1.0, -2.0), FIsometry.identity()
    with pytest.raises(RegularityError, match="too close to a wall") as info:
        seg_frame(origin, fstack([regular, wall, same]))
    assert info.value.row == 1
    with pytest.raises(DomainError, match="coincident points") as info:
        seg_frame(origin, fstack([regular, same, wall]))
    assert info.value.row == 1
    with pytest.raises(DomainError, match="coincident points") as info:
        seg_frame(FIsometry.identity(), same)
    assert info.value.row is None


@pytest.mark.parametrize("module, later", [(factored, "flats"), (symspace, "factored"),
                                           (symspace, "flats")])
def test_module_imports_nothing_later_in_the_chain(module, later):
    """The modules form one chain, symspace -> factored -> flats: factored
    reads the regularity policy from symspace, so flats can build on
    factored, and the explicit kernel stays independent of both."""
    names = []
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert not [name for name in names if later in name.split(".")]

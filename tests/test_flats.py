import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym import flats, symspace
from modsym.errors import (
    ConvergenceError,
    DomainError,
    GeometryError,
    OppositionError,
    PreconditionError,
    RegularityError,
    raise_first,
)
from modsym.factored import FIsometry, fdistance, fstack
from modsym.flats import (
    Flag,
    ModelInterval,
    ParallelCoords,
    cartan_projection,
    chamber_angle,
    coords_from_point,
    distance_to_flat,
    flag_of_sector,
    flat_from_flags,
    iota,
    point_from_coords,
    project_to_parallel_set,
    segment_type,
    zeta_angle,
    zeta_direction,
)
from modsym.symspace import Isometry, Point, act, identity_point, inversion_at, spd_exp
from modsym.verify import random_isometry, random_point


def random_coords(rng, smin=0.1, smax=3.0):
    return ParallelCoords(
        s=rng.uniform(smin, smax), alpha=rng.uniform(0, 2 * np.pi),
        r=rng.uniform(-1.5, 1.5), t=rng.uniform(smin, smax),
        beta=rng.uniform(0, 2 * np.pi),
    )


def test_cartan_examples():
    lam = cartan_projection(np.diag([3.0, 1.0, 1.0 / 3.0]))
    assert np.allclose(lam, [np.log(3), 0.0, -np.log(3)], atol=1e-14)
    rot = symspace.rotation(1.234)
    assert np.allclose(cartan_projection(rot), 0.0, atol=1e-14)


def test_cartan_inverse_duality(rng, rand_isometry):
    for _ in range(50):
        g = rand_isometry().mat
        lam = cartan_projection(g)
        lam_inv = cartan_projection(np.linalg.inv(g))
        assert np.linalg.norm(lam_inv + lam[::-1]) < 1e-10


def test_cartan_rejects_singular():
    with pytest.raises(DomainError):
        cartan_projection(np.diag([1.0, 1.0, 0.0]))


def test_chamber_angle_anchors():
    assert chamber_angle(np.array([1.0, 0.0, -1.0])) == pytest.approx(np.pi / 6, abs=1e-14)
    assert chamber_angle(np.array([2.0, -1.0, -1.0])) == pytest.approx(np.pi / 3, abs=1e-14)
    assert chamber_angle(np.array([1.0, 1.0, -2.0])) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(DomainError):
        chamber_angle(np.zeros(3))


def test_iota():
    assert iota(np.pi / 6) == pytest.approx(np.pi / 6)
    assert iota(0.0) == pytest.approx(np.pi / 3)
    phi = 0.21
    assert iota(iota(phi)) == pytest.approx(phi, abs=1e-15)


def test_segment_type_examples():
    base = identity_point()
    q = spd_exp(np.diag([1.0, 0.0, -1.0]))
    assert segment_type(base, q) == pytest.approx(np.pi / 6, abs=1e-12)
    q2 = spd_exp(symspace.P0)
    assert segment_type(base, q2) == pytest.approx(np.pi / 3, abs=1e-12)
    with pytest.raises(DomainError):
        segment_type(base, base)


def test_segment_type_reversal(rand_point):
    for _ in range(30):
        p, q = rand_point(), rand_point()
        assert segment_type(q, p) == pytest.approx(iota(segment_type(p, q)), abs=1e-9)


def test_segment_type_preserving_invariance(rand_isometry, rand_point):
    for _ in range(20):
        g = rand_isometry()
        if g.reversing:
            continue
        p, q = rand_point(), rand_point()
        assert segment_type(act(g, p), act(g, q)) == pytest.approx(
            segment_type(p, q), abs=1e-9)


def test_segment_type_inversion_conjugation(rand_point):
    for _ in range(20):
        p, q = rand_point(), rand_point()
        inv = inversion_at(p)
        assert segment_type(p, act(inv, q)) == pytest.approx(
            iota(segment_type(p, q)), abs=1e-9)


def test_model_interval_validation():
    ModelInterval.symmetric(0.3)
    with pytest.raises(ValueError):
        ModelInterval(0.1, 0.2)
    with pytest.raises(ValueError):
        ModelInterval(-0.1, np.pi / 3 + 0.1)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: cartan_projection(np.diag([1.0, np.nan, 1.0])), DomainError,
                 "finite 3x3 matrix", id="cartan-nan"),
    pytest.param(lambda: ModelInterval(0.3, 0.8), ValueError, "symmetric",
                 id="asymmetric-interval"),
    pytest.param(lambda: ParallelCoords(s=-0.1, alpha=0.0, r=0.0, t=0.5, beta=0.0), ValueError,
                 "nonnegative", id="negative-s"),
])
def test_flats_input_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_projection_fixed_on_parallel_set():
    q = Point(np.diag([2.0, 1.0, 0.5]))
    proj = project_to_parallel_set(q)
    assert np.linalg.norm(proj.mat - q.mat) < 1e-12


def test_projection_forward_oracle(rng):
    for _ in range(30):
        c = random_coords(rng)
        q = point_from_coords(c)
        proj = project_to_parallel_set(q)
        oracle = spd_exp(2.0 * flats.parallel_part(c))
        assert np.linalg.norm(proj.mat - oracle.mat) < 1e-8
        again = project_to_parallel_set(proj)
        assert np.linalg.norm(again.mat - proj.mat) < 1e-10


# the domain of test_criterion_06_projection_oracle
_ANGLE = st.floats(0.0, 2 * np.pi)
_PARALLEL_COORDS = st.builds(
    ParallelCoords, s=st.floats(0.1, 3.0), alpha=_ANGLE, r=st.floats(-1.5, 1.5),
    t=st.floats(0.1, 3.0), beta=_ANGLE,
)


@settings(derandomize=True, deadline=None)
@given(_PARALLEL_COORDS)
def test_projection_property_oracle_and_idempotence(c):
    proj = project_to_parallel_set(point_from_coords(c))
    oracle = spd_exp(2.0 * flats.parallel_part(c))
    assert np.linalg.norm(proj.mat - oracle.mat) < 1e-8
    again = project_to_parallel_set(proj)
    assert np.linalg.norm(again.mat - proj.mat) < 1e-10


@settings(derandomize=True, deadline=None)
@given(_PARALLEL_COORDS, _ANGLE)
def test_projection_property_rotation_equivariance(c, phi):
    """Rotations about the first axis preserve the parallel set, so they
    commute with the projection."""
    rot = symspace.rotation(phi)
    q = point_from_coords(c)
    lhs = project_to_parallel_set(Point(rot @ q.mat @ rot.T))
    rhs = rot @ project_to_parallel_set(q).mat @ rot.T
    assert np.linalg.norm(lhs.mat - rhs) < 1e-8


def test_projection_beats_competitors(rng):
    c = random_coords(rng)
    q = point_from_coords(c)
    proj = project_to_parallel_set(q)
    d0 = symspace.distance(q, proj)
    for _ in range(300):
        v = rng.normal(size=3)
        n = spd_exp(v[0] * symspace.P0 / 3 + v[1] * symspace.P1 + v[2] * symspace.P2)
        assert symspace.distance(q, n) >= d0 - 1e-12


def test_point_from_coords_examples():
    c = ParallelCoords(s=0.0, alpha=0.0, r=0.0, t=0.0, beta=0.0)
    assert np.allclose(point_from_coords(c).mat, np.eye(3), atol=1e-14)
    t = 1.3
    c = ParallelCoords(s=0.0, alpha=0.0, r=0.0, t=t, beta=0.0)
    assert np.allclose(point_from_coords(c).mat,
                       np.diag([1.0, np.exp(t), np.exp(-t)]), rtol=1e-13)


def test_coords_roundtrip(rng):
    for _ in range(25):
        c = random_coords(rng)
        back = coords_from_point(point_from_coords(c))
        assert back.s == pytest.approx(c.s, abs=1e-8)
        assert back.t == pytest.approx(c.t, abs=1e-8)
        assert back.r == pytest.approx(c.r, abs=1e-8)
        assert abs((back.alpha - c.alpha + np.pi) % (2 * np.pi) - np.pi) < 1e-8
        assert abs((back.beta - c.beta + np.pi) % (2 * np.pi) - np.pi) < 1e-8


def test_zeta_angle_ray_and_opposite(rand_point, rand_tangent):
    p = rand_point()
    v = rand_tangent(1.0)
    q = symspace.exp_map(p, symspace.TangentVector(p, v))
    q_half = symspace.exp_map(p, symspace.TangentVector(p, 0.5 * v))
    assert zeta_angle(p, q, q_half) < 1e-9
    q_opp = symspace.exp_map(p, symspace.TangentVector(p, -v))
    assert zeta_angle(p, q, q_opp) == pytest.approx(np.pi, abs=1e-9)


def test_zeta_angle_symmetric_in_last_args(rand_point):
    p, q, q2 = rand_point(), rand_point(), rand_point()
    assert zeta_angle(p, q, q2) == pytest.approx(zeta_angle(p, q2, q), abs=1e-12)


def test_zeta_angle_reflexive(rand_point):
    p, q = rand_point(), rand_point()
    assert zeta_angle(p, q, q) == 0.0


def test_zeta_equals_angle_for_bisector_segments(rng, rand_point):
    p = rand_point()
    for _ in range(10):
        q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        v1 = q1 @ np.diag([1.0, 0.0, -1.0]) @ q1.T
        v2 = q2 @ np.diag([1.0, 0.0, -1.0]) @ q2.T
        a = symspace.exp_map(p, symspace.TangentVector(p, v1))
        b = symspace.exp_map(p, symspace.TangentVector(p, v2))
        assert zeta_angle(p, a, b) == pytest.approx(
            symspace.angle_at(p, a, b), abs=1e-9)


def test_zeta_rejects_wall_segments():
    p = identity_point()
    q = spd_exp(symspace.P0)  # type pi/3, on a wall
    with pytest.raises(RegularityError):
        zeta_direction(p, q)


def test_flag_incidence_and_sector(rand_point, rand_tangent):
    for _ in range(20):
        p = rand_point()
        q = rand_point()
        try:
            f = flag_of_sector(p, q)
        except RegularityError:
            continue
        assert abs(f.line @ f.point) < 1e-10


def test_flag_validation():
    with pytest.raises(DomainError):
        Flag(point=np.array([1.0, 0, 0]), line=np.array([1.0, 0, 0]))


def test_diagonal_flat_through_identity():
    f_plus = Flag(point=np.array([1.0, 0, 0]), line=np.array([0, 0, 1.0]))
    f_minus = Flag(point=np.array([0, 0, 1.0]), line=np.array([1.0, 0, 0]))
    flat = flat_from_flags(f_minus, f_plus)
    assert distance_to_flat(identity_point(), flat) < 1e-9
    # the frame reproduces diagonal points
    p = flat.point_at(0.7, -0.2)
    assert np.linalg.norm(p.mat - np.diag(np.exp([0.7, -0.2, -0.5]))) < 1e-12


def test_flat_from_flags_rejects_incident_pairs():
    f_plus = Flag(point=np.array([1.0, 0, 0]), line=np.array([0, 0, 1.0]))
    f_bad = Flag(point=np.array([0, 1.0, 0]), line=np.array([1.0, 0, 0.0]))
    # point of f_plus lies on the line of f_bad
    with pytest.raises(OppositionError):
        flat_from_flags(f_bad, f_plus)


def test_flat_endpoint_flags_recover_flat(rand_point):
    p = identity_point()
    q_plus = spd_exp(np.diag([1.1, 0.1, -1.2]))
    q_minus = spd_exp(np.diag([-1.1, -0.1, 1.2]))
    flat = flat_from_flags(flag_of_sector(p, q_minus), flag_of_sector(p, q_plus))
    assert distance_to_flat(p, flat) < 1e-9
    assert distance_to_flat(q_plus, flat) < 1e-9


def test_distance_to_flat_at_a_stalling_point():
    p = random_point(np.random.default_rng(8), 1.5)
    flat = flats.Flat(frame=np.eye(3))
    a, b, d = flats.flat_project(p, flat)
    assert d == pytest.approx(symspace.distance(p, flat.point_at(a, b)), abs=1e-9)


def test_flat_newton_converges_on_random_points():
    """Newton steps on the closed-form Hessian reach the foot of the
    perpendicular in a few steps: the log vector from the foot to p has
    no component along the diagonal flat."""
    flat = flats.Flat(frame=np.eye(3))
    for k in range(400):
        p = random_point(np.random.default_rng(k), 1.5)
        a, b, d, steps = flats._flat_minimize(flat.frame, FIsometry(p.sqrt(), p.inv_sqrt()))
        assert steps <= 6
        y = flat.point_at(a, b)
        assert np.max(np.abs(np.diag(symspace.log_map(y, p).vec))) <= 1e-6
        assert d == pytest.approx(symspace.distance(p, y), abs=1e-9)


def test_flat_minimize_distance_is_fdistance():
    """The solver's distance is ``factored.fdistance`` from the target to
    the flat point at (a, b), g diag(e^{a/2}, e^{b/2}, e^{-(a+b)/2}) with
    its inverse, built as the solver builds it, on random flats."""
    for k in range(400):
        rng = np.random.default_rng(k)
        p = random_point(rng, 1.5)
        frame = flats.Flat(frame=rng.normal(size=(3, 3))).frame
        target = FIsometry(p.sqrt(), p.inv_sqrt())
        a, b, d, _ = flats._flat_minimize(frame, target)
        half = np.exp([-a / 2.0, -b / 2.0, (a + b) / 2.0])
        point = FIsometry(frame * (1.0 / half), np.linalg.inv(frame) * half[:, None])
        assert d == fdistance(point, target), k


def test_flat_minimize_rejects_a_frame_off_determinant_one():
    """Raw normal frames, on which the steps stalled on 294 of 400 targets,
    raise ``PreconditionError``; the same frames scaled to determinant one
    by ``Flat`` all return.  The tolerance admits the rounding of a
    normalised frame."""
    for k in range(400):
        rng = np.random.default_rng(k)
        p = random_point(rng, 1.5)
        frame = rng.normal(size=(3, 3))
        target = FIsometry(p.sqrt(), p.inv_sqrt())
        with pytest.raises(PreconditionError, match="^flat frame has determinant ") as info:
            flats._flat_minimize(frame, target)
        assert info.value.row is None
        flats._flat_minimize(flats.Flat(frame=frame).frame, target)
    scale = 1.0 + flats.FRAME_DET_TOL / 2.0
    flats._flat_minimize(np.diag([scale, 1.0, 1.0]), FIsometry.identity())


def _far_projections(count, seed):
    """Frames of determinant one and factored points up to distance 40
    from the identity, in pairs with noise caps 1e-6 and 1.0: over half
    return, the rest stall after 1 to 3 steps or meet a degenerate
    relative matrix."""
    rng = np.random.default_rng(seed)

    def rotation_matrix():
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        return q * np.sign(np.diag(r))

    entries = []
    for _ in range(count):
        frame = flats.Flat(frame=rng.normal(size=(3, 3))).frame
        v = np.array([1.0, rng.uniform(-1.0, 1.0), 0.0]) * rng.uniform(0.5, 40.0)
        v -= v.mean()
        r1, r2 = rotation_matrix(), rotation_matrix()
        mat = r1 @ np.diag(np.exp(v - v.max())) @ r2
        matinv = r2.T @ np.diag(np.exp(-v - (-v).max())) @ r1.T
        for cap in (1e-6, 1.0):
            entries.append((frame, mat, matinv, v.max(), (-v).max(), cap))
    return entries


def _solve(frame, mat, matinv, lp, lpi, cap):
    """``_flat_minimize`` on one ``_far_projections`` entry, or a stack of them."""
    return flats._flat_minimize(frame, FIsometry(mat, matinv, lp, lpi), cap)


def _error_outcome(exc):
    return type(exc), str(exc), getattr(exc, "iterations", None), getattr(exc, "grad_norm", None)


def _bits(a, b, d, steps):
    return float(a).hex(), float(b).hex(), float(d).hex(), int(steps)


def _projection_outcome(call):
    """A solve's (a, b, distance, steps) as exact bits, or its error with
    the solver diagnostics."""
    try:
        return _bits(*call())
    except GeometryError as exc:
        return _error_outcome(exc)


def _stacked_projections(entries):
    """One stacked solve over the entries: the outcome of each, or the
    error it raises with its row."""
    frame, mat, matinv, lp, lpi, cap = (np.array(x) for x in zip(*entries))
    try:
        out = _solve(frame, mat, matinv, lp, lpi, cap)
    except GeometryError as exc:
        return _error_outcome(exc), exc.row
    return [_bits(*entry) for entry in zip(*out)]


def _zero_target(entry):
    """A ``_far_projections`` entry with its target's factor zeroed, which
    fails ``factored._rescaled``'s check before the first step."""
    frame, mat, matinv, lp, lpi, cap = entry
    return frame, np.zeros_like(mat), matinv, lp, lpi, cap


def _first_failure(outcomes):
    """What a loop over the entries gives: every outcome, or the first
    error with its index."""
    first = next((i for i, o in enumerate(outcomes) if isinstance(o[0], type)), None)
    return outcomes if first is None else (outcomes[first], first)


def test_stacked_flat_minimize_equals_unstacked_calls():
    """A stack of solves with mixed noise caps gives each entry's
    unstacked result bit for bit; the first entry in stack order that
    fails raises its unstacked error (message, iterations and gradient),
    even where a later entry fails at an earlier step.  So do stacks that
    mix in targets failing the range check before any step."""
    entries = _far_projections(60, 21)
    single = [_projection_outcome(lambda: _solve(*e)) for e in entries]
    kinds = {o[1] if isinstance(o[0], type) else "ok" for o in single}
    assert kinds == {"ok", "flat projection stalled",
                     "degenerate relative matrix in flat projection"}
    ok = [e for e, o in zip(entries, single) if not isinstance(o[0], type)]
    assert _stacked_projections(ok) == [o for o in single if not isinstance(o[0], type)]
    assert [type(x) for x in _solve(*ok[0])] == [float, float, float, int]
    rng = np.random.default_rng(4)
    for _ in range(40):
        pick = rng.choice(len(entries), size=7, replace=False)
        expected = _first_failure([single[k] for k in pick])
        assert _stacked_projections([entries[k] for k in pick]) == expected
    # a stall at step 3 ahead of a stall at step 1: the loop meets the
    # first entry's error, though the stack meets the second's first
    late, early = (next(k for k, o in enumerate(single)
                        if o[0] is ConvergenceError and o[2] == n) for n in (3, 1))
    assert _stacked_projections([entries[k] for k in (late, early)]) == (single[late], 0)
    entries += [_zero_target(e) for e in entries[:20]]
    single += [_projection_outcome(lambda: _solve(*e)) for e in entries[120:]]
    assert {o[1] for o in single[120:]} == {"degenerate factor matrix"}
    rng = np.random.default_rng(9)
    for _ in range(400):
        pick = rng.choice(len(entries), size=7, replace=False)
        expected = _first_failure([single[k] for k in pick])
        assert _stacked_projections([entries[k] for k in pick]) == expected


def test_flat_minimize_range_check_raises_with_its_row():
    """A target whose relative factor product degenerates fails
    ``factored._rescaled``'s check before the first step.  A stack raises
    the error a loop over its entries meets first, with ``row`` its stack
    index: an earlier entry's error after a later range check, the range
    check's after earlier entries that return.  Unstacked, the error has
    no ``row``."""
    entries = _far_projections(3, 5)
    entries[4] = _zero_target(entries[4])
    single = [_projection_outcome(lambda: _solve(*e)) for e in entries]
    assert single[0][:2] == (DomainError, "degenerate relative matrix in flat projection")
    assert _stacked_projections(entries) == (single[0], 0)
    assert not any(isinstance(single[k][0], type) for k in (1, 3, 5))
    assert single[4] == (DomainError, "degenerate factor matrix", None, None)
    assert _stacked_projections([entries[k] for k in (1, 3, 5, 4)]) == (single[4], 3)
    with pytest.raises(DomainError, match="degenerate factor matrix") as info:
        _solve(*entries[4])
    assert info.value.row is None


def test_stacked_flat_minimize_raises_the_precondition_in_loop_order():
    """Doubled frames (determinant 8) mixed into stacks of solves: a stack
    raises the error a loop over its entries meets first, the precondition
    of an entry after earlier entries' step failures, with ``row`` its
    stack index."""
    entries = _far_projections(30, 21)
    entries += [(2.0 * frame, *rest) for frame, *rest in entries[:30]]
    single = [_projection_outcome(lambda: _solve(*e)) for e in entries]
    assert {o[0] for o in single[60:]} == {PreconditionError}
    rng = np.random.default_rng(12)
    for _ in range(100):
        pick = rng.choice(len(entries), size=7, replace=False)
        expected = _first_failure([single[k] for k in pick])
        assert _stacked_projections([entries[k] for k in pick]) == expected


def test_flat_minimize_iteration_cap_raises_did_not_converge(monkeypatch):
    """With the cap at one Newton step, targets that need two or three
    fail with ``did not converge``: a stack raises its first entry's
    unstacked error, with ``row`` 0."""
    frame = np.eye(3)
    targets = []
    for k in range(100):
        p = random_point(np.random.default_rng(k), 1.5)
        target = FIsometry(p.sqrt(), p.inv_sqrt())
        if flats._flat_minimize(frame, target)[3] in (2, 3):
            targets.append(target)
    targets = targets[:8]
    assert len(targets) == 8
    monkeypatch.setattr(flats, "PROJECTION_MAX_ITER", 1)
    single = [_projection_outcome(lambda: flats._flat_minimize(frame, t)) for t in targets]
    assert all(o[:3] == (ConvergenceError, "flat projection did not converge", 1)
               for o in single)
    with pytest.raises(ConvergenceError) as info:
        flats._flat_minimize(np.broadcast_to(frame, (8, 3, 3)), fstack(targets))
    assert (_error_outcome(info.value), info.value.row) == (single[0], 0)
    with pytest.raises(ConvergenceError) as info:
        flats._flat_minimize(frame, targets[0])
    assert info.value.row is None


def _flag_pairs(count, seed):
    """(f_plus, f_minus) points and lines from random orthonormal frames,
    with rows that fail each check of Flag and flat_from_flags."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(count, 2, 3, 3)))[0]
    points, lines = u[..., 0] * rng.uniform(0.5, 2.0, (count, 2, 1)), u[..., 2]
    points[3, 0] = 0.0
    lines[5, 1] = 0.0
    lines[7, 0] = points[7, 0]
    # f_minus's point on f_plus's line, and the converse
    points[9, 1] = np.cross(lines[9, 0], rng.normal(size=3))
    lines[9, 1] = np.cross(points[9, 1], rng.normal(size=3))
    points[11, 0] = np.cross(lines[11, 1], rng.normal(size=3))
    lines[11, 0] = np.cross(points[11, 0], rng.normal(size=3))
    return points, lines


def _pair_outcome(points, lines):
    try:
        f_plus = Flag(point=points[0], line=lines[0])
        flat = flat_from_flags(Flag(point=points[1], line=lines[1]), f_plus)
    except GeometryError as exc:
        return type(exc), str(exc)
    return flat.frame.tobytes()


def test_stacked_flat_frames_equal_per_pair_flats():
    """One stacked frame build gives each pair's ``flat_from_flags`` frame
    bit for bit, where numpy's array power would not (the cube root of the
    determinant), and the checks name the first failing pair's error."""
    points, lines = _flag_pairs(400, 3)
    g, frames, checks = flats._flat_frames(points, lines)
    expected = [_pair_outcome(p, line) for p, line in zip(points, lines)]
    assert {e[0] for e in expected if isinstance(e, tuple)} == {DomainError, OppositionError}
    failed = np.any([f for f, _ in checks], axis=0)
    assert [isinstance(e, tuple) for e in expected] == failed.tolist()
    assert [f.tobytes() for f in frames[~failed]] == [
        e for e in expected if not isinstance(e, tuple)]
    d = np.abs(np.linalg.det(g[~failed]))
    assert (d ** (1.0 / 3.0) != [x ** (1.0 / 3.0) for x in d.tolist()]).any()
    for k in np.flatnonzero(failed):
        with pytest.raises(GeometryError) as info:
            raise_first([(f[k:], error) for f, error in checks])
        assert (type(info.value), str(info.value), info.value.row) == (*expected[k], 0)


@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_distance_to_flat_property_isometry_invariance(seed):
    rng = np.random.default_rng(seed)
    p = random_point(rng, 1.5)
    frame = rng.normal(size=(3, 3))
    while abs(np.linalg.det(frame)) < 0.3:
        frame = rng.normal(size=(3, 3))
    g = Isometry(random_isometry(rng).mat)
    d = distance_to_flat(p, flats.Flat(frame=frame))
    d_moved = distance_to_flat(act(g, p), flats.Flat(frame=g.mat @ frame))
    assert d_moved == pytest.approx(d, abs=1e-8)


def test_distance_to_flat_grid_oracle(rng, rand_point):
    for _ in range(5):
        mat = rng.normal(size=(3, 3))
        while abs(np.linalg.det(mat)) < 0.3:
            mat = rng.normal(size=(3, 3))
        flat = flats.Flat(frame=mat)
        p = rand_point()
        a, b, d = flats.flat_project(p, flat)
        # local grid around the reported minimizer
        grid = np.linspace(-0.1, 0.1, 21)
        best = min(
            symspace.distance(p, flat.point_at(a + da, b + db))
            for da in grid for db in grid
        )
        assert d <= best + 1e-4
        assert d >= best - 1e-4

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym import flats, symspace
from modsym.errors import DomainError, OppositionError, RegularityError
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
        a, b, d, steps = flats._flat_minimize(flat, p.sqrt(), p.inv_sqrt(), 0.0, 0.0)
        assert steps <= 6
        y = flat.point_at(a, b)
        assert np.max(np.abs(np.diag(symspace.log_map(y, p).vec))) <= 1e-6
        assert d == pytest.approx(symspace.distance(p, y), abs=1e-9)


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

import numpy as np
import pytest

from modsym import symspace
from modsym.errors import ConditioningError, DomainError
from modsym.symspace import (
    Isometry,
    P0,
    P1,
    Point,
    TangentVector,
    act,
    angle_at,
    classify_involution,
    compose,
    distance,
    exp_map,
    identity_point,
    inversion_at,
    log_map,
    midpoint,
    spd_exp,
    spd_log,
)


def test_spd_exp_zero_is_identity():
    p = spd_exp(np.zeros((3, 3)))
    assert np.allclose(p.mat, np.eye(3), atol=1e-15)


def test_spd_exp_diagonal():
    p = spd_exp(np.diag([2.0, -1.0, -1.0]))
    assert np.allclose(p.mat, np.diag([np.e**2, np.e**-1, np.e**-1]), rtol=1e-14)


def test_spd_exp_p1_direction():
    t = 0.8
    p = spd_exp(2 * t * P1)
    assert np.allclose(p.mat, np.diag([1.0, np.exp(t), np.exp(-t)]), rtol=1e-14)


def test_spd_exp_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        spd_exp(np.array([[0.0, 1.0, 0.0], [0, 0, 0], [0, 0, 0]]))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: symspace.check_symmetric(np.eye(2)), id="check-symmetric"),
    pytest.param(lambda: Isometry(np.eye(2)), id="isometry"),
])
def test_symspace_rejects_non_3x3(call):
    with pytest.raises(ValueError, match="expected a 3x3 matrix"):
        call()


def test_spd_exp_rejects_trace():
    with pytest.raises(ValueError):
        spd_exp(np.eye(3))


def test_spd_log_examples():
    assert np.allclose(spd_log(identity_point()), 0.0, atol=1e-14)
    p = Point(np.diag([np.e, 1.0, 1.0 / np.e]))
    assert np.allclose(spd_log(p), np.diag([1.0, 0.0, -1.0]), atol=1e-14)


def test_spd_exp_log_roundtrip(rand_tangent):
    for _ in range(50):
        v = rand_tangent(1.5)
        assert np.linalg.norm(spd_log(spd_exp(v)) - v) < 1e-10


def test_point_requires_positive_definite():
    with pytest.raises(DomainError):
        Point(np.diag([1.0, 1.0, -1.0]))


def test_point_conditioning_guard():
    with pytest.raises(ConditioningError):
        Point(np.diag([1e13, 1.0, 1.0]))


def test_point_renormalizes_det():
    p = Point(5.0 * np.eye(3))
    assert abs(np.linalg.det(p.mat) - 1.0) < 1e-12


def test_isometry_rejects_singular():
    with pytest.raises(DomainError):
        Isometry(np.zeros((3, 3)))


def test_isometry_sign_normalization():
    mat = -2.0 * np.eye(3)
    iso = Isometry(mat)
    assert np.linalg.det(iso.mat) == pytest.approx(1.0, abs=1e-12)


def test_act_identity_preserving(rand_point):
    p = rand_point()
    q = act(Isometry.identity(), p)
    assert np.allclose(q.mat, p.mat, atol=1e-14)


def test_act_identity_reversing_is_inversion(rand_point):
    p = rand_point()
    q = act(Isometry(np.eye(3), reversing=True), p)
    assert np.allclose(q.mat, p.inv(), atol=1e-12)


def test_compose_identity(rand_isometry):
    g = rand_isometry()
    gi = compose(g, Isometry.identity())
    assert np.allclose(gi.mat, g.mat, atol=1e-12) and gi.reversing == g.reversing


def test_compose_inversion_squares_to_identity():
    inv = Isometry(np.eye(3), reversing=True)
    assert compose(inv, inv).is_identity(1e-14)


def test_compose_act_equivariance(rand_isometry, rand_point):
    for _ in range(100):
        g, h = rand_isometry(), rand_isometry()
        p = rand_point()
        lhs = act(compose(g, h), p)
        rhs = act(g, act(h, p))
        assert np.linalg.norm(lhs.mat - rhs.mat) < 1e-10


def test_inversion_fixes_center_and_involutive(rand_point):
    for _ in range(30):
        x = rand_point()
        inv = inversion_at(x)
        assert np.linalg.norm(act(inv, x).mat - x.mat) < 1e-12
        assert compose(inv, inv).is_identity(1e-10)


def test_distance_zero_and_anchor(rand_point):
    p = rand_point()
    assert distance(p, p) < 1e-12
    assert distance(identity_point(), spd_exp(P0)) == pytest.approx(np.sqrt(6.0), abs=1e-13)


def test_distance_metric_properties(rand_point):
    for _ in range(40):
        p, q, r = rand_point(), rand_point(), rand_point()
        assert abs(distance(p, q) - distance(q, p)) < 1e-9
        assert distance(p, r) <= distance(p, q) + distance(q, r) + 1e-9


def test_distance_isometry_invariance(rand_isometry, rand_point):
    for _ in range(40):
        g = rand_isometry()
        p, q = rand_point(), rand_point()
        assert abs(distance(act(g, p), act(g, q)) - distance(p, q)) < 1e-9


def test_midpoint_diagonal_example():
    q = Point(np.diag([np.e**2, np.e**-1, np.e**-1]))
    m = midpoint(identity_point(), q)
    assert np.allclose(m.mat, np.diag([np.e, np.e**-0.5, np.e**-0.5]), rtol=1e-12)


def test_midpoint_properties(rand_point):
    for _ in range(40):
        p, q = rand_point(), rand_point()
        m = midpoint(p, q)
        assert abs(distance(p, m) - distance(m, q)) < 1e-9
        assert abs(distance(p, m) - distance(p, q) / 2) < 1e-9
        assert np.linalg.norm(m.mat - midpoint(q, p).mat) < 1e-10
    p = rand_point()
    assert np.linalg.norm(midpoint(p, p).mat - p.mat) < 1e-12


def test_midpoint_equivariance(rand_isometry, rand_point):
    for _ in range(20):
        g, p, q = rand_isometry(), rand_point(), rand_point()
        lhs = act(g, midpoint(p, q))
        rhs = midpoint(act(g, p), act(g, q))
        assert np.linalg.norm(lhs.mat - rhs.mat) < 1e-9


def test_log_exp_map_examples(rand_tangent):
    v = rand_tangent()
    p = spd_exp(v)
    assert np.linalg.norm(log_map(identity_point(), p).vec - v) < 1e-11
    q = identity_point()
    assert log_map(q, q).norm < 1e-13


def test_log_exp_map_roundtrip(rand_point):
    for _ in range(40):
        p, q = rand_point(), rand_point()
        back = exp_map(p, log_map(p, q))
        assert np.linalg.norm(back.mat - q.mat) < 1e-9
        assert abs(log_map(p, q).norm - distance(p, q)) < 1e-10


def test_exp_map_base_check(rand_point):
    p, q = rand_point(), rand_point()
    v = log_map(p, q)
    with pytest.raises(ValueError):
        exp_map(q, v)


def test_angle_reflexive_and_midpoint(rand_point):
    p, q = rand_point(), rand_point()
    assert angle_at(p, q, q) == 0.0
    m = midpoint(p, q)
    assert angle_at(m, p, q) == pytest.approx(np.pi, abs=1e-9)


def test_angle_degenerate(rand_point):
    p = rand_point()
    with pytest.raises(DomainError):
        angle_at(p, p, rand_point())


def test_triangle_angle_sum(rand_point):
    for _ in range(40):
        p, q, r = rand_point(), rand_point(), rand_point()
        total = angle_at(p, q, r) + angle_at(q, r, p) + angle_at(r, p, q)
        assert total <= np.pi + 1e-8


def test_classify_involution_cases():
    assert classify_involution(Isometry(np.eye(3), True)) == symspace.INVERSION
    assert (classify_involution(Isometry(np.diag([1.0, -1.0, -1.0]), True))
            == symspace.TYPEII_PLANE_FIX)
    skew = Isometry(np.eye(3) + 0.3 * np.triu(np.ones((3, 3)), 1), True)
    assert classify_involution(skew) == symspace.NOT_INVOLUTION
    with pytest.raises(ValueError):
        classify_involution(Isometry(np.eye(3), False))


def test_tangent_vector_validation(rand_point):
    p = rand_point()
    with pytest.raises(ValueError):
        TangentVector(p, np.eye(3))


def test_roundtrips_at_stated_conditioning_range(rng):
    """Round trips hold at 1e-9 for eigenvalue ratios up to 1e6."""
    for _ in range(30):
        v = rng.normal(size=(3, 3))
        v = 0.5 * (v + v.T)
        v -= (np.trace(v) / 3.0) * np.eye(3)
        w = np.linalg.eigvalsh(v)
        v *= np.log(1e6) / (w[-1] - w[0])  # log spread 13.8: ratio exactly 1e6
        p = spd_exp(v)
        assert np.linalg.norm(spd_log(p) - v) < 1e-9
        q = spd_exp(0.3 * v)
        back = exp_map(q, log_map(q, p))
        assert np.linalg.norm(back.mat - p.mat) < 1e-9 * max(1.0, np.linalg.norm(p.mat))

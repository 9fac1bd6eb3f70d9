import dataclasses
import gc
import itertools
import math
import os
import subprocess
import sys
import warnings
import weakref
from functools import reduce

import mpmath
import numpy as np
import pytest

from modsym import anosov, cli, flats, highprec, symspace
from modsym.anosov import (
    MidpointSequence,
    MorseFlatReport,
    StraightnessReport,
    VerdictConfig,
    anosov_verdict,
    cartan_gap_scan,
    midpoint_sequence,
    morse_flat_check,
    peripheral_growth,
    straightness_report,
    triangle_report,
    word_cartan,
)
from modsym.charvar import (
    BABA,
    SURFACE_TOL,
    Coordinates,
    f2_fisometry,
    rep_from_coords,
    schwartz_t,
    trace_baba_closed_form,
)
from modsym.errors import (
    ConvergenceError,
    DegenerateTriangleError,
    DomainError,
    GeometryError,
    OppositionError,
    PreconditionError,
    RegularityError,
    _row_major,
    raise_first,
)
from modsym.factored import (
    FIsometry,
    _rescaled,
    fact,
    fcompose,
    fdistance,
    finverse,
    fmidpoint,
    fzeta_direction,
    seg_frame,
    seg_lambdas,
    seg_log_vector,
)
from modsym.flats import Flag, ModelInterval, _flat_minimize, chamber_angle, flat_from_flags
from modsym.modgroup import (
    G1,
    G2_INV,
    F2Word,
    enumerate_f2,
    f2_count,
    f2_from_string,
    f2_inverse,
    f2_levels,
    f2_mul,
    f2_rng,
    f2_sample,
    random_f2_geodesic,
)
from modsym.symspace import matrix_angle, rotation

import mp_matrix_route as route

THETA_INTERVAL = ModelInterval.symmetric(np.pi / 8)


def hyperbolic_equilateral_angle(t):
    """Vertex angle of the equilateral triangle with circumradius t and
    center angles 2 pi / 3 in the unit-curvature hyperbolic plane."""
    cosh_side = math.cosh(t) ** 2 + 0.5 * math.sinh(t) ** 2
    return math.acos(cosh_side / (1.0 + cosh_side))


def test_triangle_type_one_matches_hyperbolic_oracle():
    t = 2.0
    rep = rep_from_coords(Coordinates(0.0, t, 0.0))
    rpt = triangle_report(rep)
    oracle = hyperbolic_equilateral_angle(t)
    for ang in rpt.angles:
        assert ang < oracle + 1e-6
        assert ang > oracle - 1e-6
    assert max(rpt.sides) - min(rpt.sides) < 1e-9


def test_triangle_angle_decreases_in_t():
    angles = []
    for t in (2.0, 4.0, 8.0):
        rpt = triangle_report(rep_from_coords(Coordinates(1.0, t, 0.8)))
        angles.append(rpt.angles[0])
    assert angles[0] > angles[1] > angles[2]


@pytest.mark.parametrize("point", [(0.5, 2.0, 0.7), (1.0, 1.0, 0.3)])
def test_triangle_angles_match_explicit_points(point):
    """The stacked segment logs against the explicit kernel's angle at x,
    bx and b^2 x, at scales where explicit points hold."""
    rep = rep_from_coords(Coordinates(*point))
    x = rep.x
    y = symspace.act(rep.rot, x)
    z = symspace.act(rep.rot, y)
    explicit = (symspace.angle_at(x, y, z), symspace.angle_at(y, z, x), symspace.angle_at(z, x, y))
    assert triangle_report(rep).angles == pytest.approx(explicit, abs=1e-9)


def test_triangle_degenerate():
    with pytest.raises(DegenerateTriangleError):
        triangle_report(rep_from_coords(Coordinates(0.0, 0.0, 0.0)))


def test_midpoint_sequence_shapes_and_equidistance():
    rep = rep_from_coords(Coordinates(0.7, 2.0, 0.4))
    words = random_f2_geodesic(6, seed=3)
    seq = midpoint_sequence(rep, words)
    assert len(seq.midpoints) == 6
    assert seq.equidistance_defect < 1e-9
    short = midpoint_sequence(rep, words[:3])
    assert len(short.midpoints) == 2
    with pytest.raises(ValueError):
        midpoint_sequence(rep, words[:2])


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda rep: straightness_report(
        midpoint_sequence(rep, random_f2_geodesic(2, 0)), THETA_INTERVAL),
        "at least 3 midpoints", id="straightness-3-words"),
    pytest.param(lambda rep: cartan_gap_scan(rep, 0), "max_len must be >= 1",
                 id="gap-scan-max-len-0"),
])
def test_anosov_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call(rep_from_coords(Coordinates(0.7, 2.0, 0.4)))


def test_midpoints_are_global_translates_of_local_midpoints():
    rep = rep_from_coords(Coordinates(0.7, 2.0, 0.4))
    window = random_f2_geodesic(9, seed=2)[3:]
    assert window[0].letters
    seq = midpoint_sequence(rep, window)
    assert len(seq.midpoints) == len(window) - 1
    for n, m in enumerate(seq.midpoints):
        ref = fact(f2_fisometry(rep, window[n]), seq.local_mids[n])
        assert np.array_equal(m.mat, ref.mat) and np.array_equal(m.matinv, ref.matinv)
        assert (m.lm, m.lmi) == (ref.lm, ref.lmi)


# Straightness figures at window 10, seed 0, pinned bit for bit: the
# orbit layer computes each quantity once, and must not change them.
PINNED_STRAIGHTNESS = {
    4.0: dict(
        zeta_angles=(3.1404666113174255, 3.141592653588358, 3.1415926535892207,
                     3.141592653588358, 3.1404666113174344, 3.1404666113174255,
                     3.0379721021741672, 3.1415926535886265),
        spacings=(25.879883573483664, 25.87137559227814, 25.871375592278323,
                  25.87137559227814, 25.871375592278323, 25.879883573483664,
                  25.87137559227814, 12.939941786742155, 12.939941786741278),
        type_min=0.5146055427580574,
        type_max=0.5231291318407504,
        equidistance_defect=1.0844885751835664e-14,
    ),
    12.0: dict(
        zeta_angles=(3.14157797732154, 3.141587001743411, 3.141577977325676,
                     3.141587001743411, 3.1415779772745944, 3.14157797732154,
                     3.14155536414096, 3.14151890270711),
        spacings=(71.12801052984561, 71.12801052896211, 71.12801003011626,
                  71.12801052896211, 71.12801003011626, 71.12801052984561,
                  71.12801052896211, 35.5640048304799, 35.56400222063595),
        type_min=0.5235976560980062,
        type_max=0.5235987878616346,
        equidistance_defect=1.8084818614834918e-07,
    ),
}


@pytest.mark.parametrize("t", sorted(PINNED_STRAIGHTNESS))
def test_straightness_pinned(t):
    pins = PINNED_STRAIGHTNESS[t]
    rep = rep_from_coords(Coordinates(1.0, t, 0.5))
    seq = midpoint_sequence(rep, random_f2_geodesic(10, seed=0))
    sr = straightness_report(seq, THETA_INTERVAL)
    assert sr.zeta_angles == pins["zeta_angles"]
    assert sr.spacings == pins["spacings"]
    assert (sr.type_min, sr.type_max) == (pins["type_min"], pins["type_max"])
    assert seq.equidistance_defect == pins["equidistance_defect"]


def test_morse_distances_pinned():
    rep = rep_from_coords(Coordinates(1.0, 4.0, 0.5))
    rpt = morse_flat_check(rep, random_f2_geodesic(10, seed=0), THETA_INTERVAL)
    assert rpt.distances == (
        6.2803698347351e-16, 0.0015924625544106257, 1.7090566682166165e-07,
        4.3146140764626847e-13, 1.7088471488111436e-07, 0.001592268170398986,
        0.0015921825437521008, 0.14474901598905313, 0.0013890312497956256,
        8.308148362110449e-16,
    )


# -- references for the stacked window: the per-step loops it replaced.
# Each step, midpoint, segment and vertex is formed on its own, in the
# order the stacked stages must keep for their errors.


def _reference_midpoint_sequence(rep, window):
    words = tuple(window)
    gens = rep.f2_generators()
    steps = []
    for w_prev, w_next in zip(words, words[1:]):
        step = f2_mul(f2_inverse(w_prev), w_next)
        steps.append(reduce(fcompose, (gens[k] for k in step.letters), FIsometry.identity()))
    local_mids = []
    defect = 0.0
    for step in steps:
        y = fact(step, rep.fx)
        local_mids.append(fmidpoint(rep.fx, y))
        dp = fdistance(local_mids[-1], rep.fx)
        dq = fdistance(local_mids[-1], y)
        defect = max(defect, abs(dp - dq) / max(1.0, dp))
    return MidpointSequence(rep=rep, words=words, steps=tuple(steps),
                            local_mids=tuple(local_mids), equidistance_defect=defect)


def _reference_straightness_report(seq, theta):
    n_mid = len(seq.words) - 1
    nxts, spacings, types = [], [], []
    for n in range(n_mid - 1):
        nxt = fact(seq.steps[n], seq.local_mids[n + 1])
        lam = seg_lambdas(seq.local_mids[n], nxt)
        spacing = float(np.linalg.norm(lam))
        if spacing < 1e-12:
            raise RegularityError(
                f"midpoint segment {n}: segment type undefined for coincident points")
        nxts.append(nxt)
        spacings.append(spacing)
        types.append(chamber_angle(lam))
    zeta_angles = []
    for n in range(1, n_mid - 1):
        prev = fact(finverse(seq.steps[n - 1]), seq.local_mids[n - 1])
        try:
            zeta_angles.append(matrix_angle(fzeta_direction(seq.local_mids[n], prev),
                                            fzeta_direction(seq.local_mids[n], nxts[n])))
        except (RegularityError, DomainError) as exc:
            raise RegularityError(f"midpoint vertex {n}: {exc}") from exc
    return StraightnessReport(
        min_zeta_angle=min(zeta_angles), min_spacing=min(spacings),
        type_min=min(types), type_max=max(types), theta_interval=theta,
        all_types_within=all(theta.contains(t) for t in types),
        zeta_angles=tuple(zeta_angles), spacings=tuple(spacings),
    )


def _at_row(n, call):
    """``call()``, with an error it raises set to ``row`` n, as a stage of
    the stacked pass sets it."""
    try:
        return call()
    except GeometryError as exc:
        exc.row = n
        raise


def _reference_sector_flag(n, p, q, opposite=False):
    """Flag of the sector at p toward q, or of the sector opposite to it
    (the chamber of the reversed geodesic)."""
    _, u = _at_row(n, lambda: seg_frame(p, q))
    top, bottom = (u[:, 2], u[:, 0]) if opposite else (u[:, 0], u[:, 2])
    point = p.mat @ top
    point = point / np.linalg.norm(point)
    line = p.matinv.T @ bottom
    line = line - (line @ point) * point
    return Flag(point=point, line=line)


def _reference_morse_flat_check(rep, window, theta_prime, caps=(1e-6, 1.0), kinds=None):
    """The per-midpoint loop, projecting each centre and each next
    midpoint with ``_flat_minimize`` at the noise caps ``caps``;
    ``kinds``, if given, collects the kind of each violating step:
    "unordered", or "type" for an ordered step whose type leaves
    ``theta_prime``."""
    seq = midpoint_sequence(rep, window)
    n_mid = len(seq.words) - 1
    forward = [FIsometry.identity() for _ in range(n_mid)]
    for n in range(n_mid - 2, -1, -1):
        forward[n] = fcompose(seq.steps[n], forward[n + 1])
    backward = [FIsometry.identity() for _ in range(n_mid)]
    for n in range(1, n_mid):
        backward[n] = fcompose(finverse(seq.steps[n - 1]), backward[n - 1])
    dists, proj_pairs, iterations, flat0 = [], [], [], None
    origin = FIsometry.identity()
    for n in range(n_mid):
        to_chart = finverse(seq.local_mids[n])
        fwd = back = None
        if n < n_mid - 1:
            fwd = _at_row(n, lambda: fact(to_chart, fact(forward[n], seq.local_mids[n_mid - 1])))
        if n > 0:
            back = _at_row(n, lambda: fact(to_chart, fact(backward[n], seq.local_mids[0])))
        if fwd is not None:
            f_plus = _reference_sector_flag(n, origin, fwd)
        else:
            f_plus = _reference_sector_flag(n, origin, back, opposite=True)
        if back is not None:
            f_minus = _reference_sector_flag(n, origin, back)
        else:
            f_minus = _reference_sector_flag(n, origin, fwd, opposite=True)
        flat = flat_from_flags(f_minus, f_plus)
        if flat0 is None:
            flat0 = flat
        a, b, d, steps = _flat_minimize(flat.frame, origin, caps[0])
        dists.append(d)
        next_steps = None
        if n < n_mid - 1:
            nxt = _at_row(n, lambda: fact(to_chart, fact(seq.steps[n], seq.local_mids[n + 1])))
            a2, b2, _, next_steps = _flat_minimize(flat.frame, nxt, caps[1])
            proj_pairs.append(((a, b), (a2, b2)))
        iterations.append((steps, next_steps))
    violations = []
    proj = [(0.0, 0.0)]
    for (a, b), (a2, b2) in proj_pairs:
        da, db = a2 - a, b2 - b
        dc = -da - db
        proj.append((proj[-1][0] + da, proj[-1][1] + db))
        slack = 1e-9 * max(1.0, abs(da) + abs(db))
        if not (da >= db - slack and db >= dc - slack):
            violations.append("unordered")
        elif not theta_prime.contains(chamber_angle(np.sort([da, db, dc])[::-1])):
            violations.append("type")
    if kinds is not None:
        kinds.update(violations)
    return MorseFlatReport(
        max_distance=max(dists), distances=tuple(dists), projections=tuple(proj),
        monotone=not violations, violations=len(violations), flat=flat0,
        iterations=tuple(iterations),
    )


def _reference_triangle_report(rep):
    x = rep.fx
    rot = rotation(2.0 * np.pi / 3.0)
    b = FIsometry.from_pair(rot, rot.T)
    y = fact(b, x)
    z = fact(b, y)
    sides = (fdistance(x, y), fdistance(y, z), fdistance(z, x))
    if min(sides) < 1e-8:
        raise DegenerateTriangleError(
            "orbit triangle collapses: the rotation fixes the inversion center")
    angles = []
    for p, q, r in [(x, y, z), (y, z, x), (z, x, y)]:
        angles.append(matrix_angle(seg_log_vector(p, q), seg_log_vector(p, r)))
    return anosov.TriangleReport(sides=sides, angles=tuple(angles))


def _outcome(call):
    try:
        return call()
    except GeometryError as exc:
        return type(exc), str(exc)


def _fields(g):
    return g.mat.tobytes(), g.matinv.tobytes(), g.lm, g.lmi


def _assert_window_matches_reference(rep, window):
    seq = _outcome(lambda: midpoint_sequence(rep, window))
    ref = _outcome(lambda: _reference_midpoint_sequence(rep, window))
    if isinstance(ref, tuple):
        assert seq == ref
        return
    assert seq.words == ref.words and seq.rep is ref.rep
    assert [_fields(g) for g in seq.steps] == [_fields(g) for g in ref.steps]
    assert [_fields(g) for g in seq.local_mids] == [_fields(g) for g in ref.local_mids]
    assert all(type(g.lm) is float for g in (*seq.steps, *seq.local_mids))
    assert seq.equidistance_defect == ref.equidistance_defect
    assert (_outcome(lambda: straightness_report(seq, THETA_INTERVAL))
            == _outcome(lambda: _reference_straightness_report(ref, THETA_INTERVAL)))


def _geodesic_windows(count, seed):
    """Seeded windows of 3 to 12 letters, a third of them starting past e."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        s, t, theta = rng.uniform(0.3, 2.5), rng.uniform(0.5, 14.0), rng.uniform(0.0, 3.0)
        length, start = int(rng.integers(3, 13)), int(rng.integers(0, 3))
        words = random_f2_geodesic(length + start, int(rng.integers(2**31)))[start:]
        yield (s, t, theta), words


def _walk_windows(count, seed):
    """Windows that stall or backtrack: equal neighbours and cancelling
    letters make coincident midpoints and wall-type vertices, so errors
    meet at different rows and stages."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        s, t, theta = rng.uniform(0.3, 2.5), rng.uniform(0.5, 14.0), rng.uniform(0.0, 3.0)
        w = F2Word(())
        words = [w]
        for _ in range(int(rng.integers(3, 10))):
            if rng.uniform() >= 0.15:
                w = f2_mul(w, F2Word((int(rng.integers(4)),)))
            words.append(w)
        yield (s, t, theta), words


def _far_walk_windows():
    """The walks on the type-I locus far out in t, where relative factor
    products underflow: the stages fail at different rows, and only the
    rerun of ``_row_major`` gives the loop's error."""
    for t in (280.0, 400.0, 600.0):
        for _, window in _walk_windows(120, 9):
            yield (0.0, t, 0.7), window


def _constant_windows():
    for point in [(0.8, 2.5, 0.9), (1.0, 6.0, 0.5), (0.5, 1.0, 2.0)]:
        for letter, n in [(G1, 4), (G1, 9), (G2_INV, 13)]:
            yield point, [F2Word((letter,) * k) for k in range(n)]


@pytest.mark.parametrize("windows", [
    pytest.param(lambda: _geodesic_windows(220, 12), id="geodesic"),
    pytest.param(lambda: _walk_windows(120, 9), id="walks"),
    pytest.param(_far_walk_windows, id="far-walks"),
    pytest.param(_constant_windows, id="constant"),
])
def test_stacked_window_equals_per_step_loops(windows):
    for point, window in windows():
        _assert_window_matches_reference(rep_from_coords(Coordinates(*point)), window)


def _stratified_windows(count, seed):
    """Geodesic windows of 10 words with t stratified over [1, 20]: the
    far ones stall the flat projection or lose the flags' opposition."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        s, theta = rng.uniform(0.6, 1.6), rng.uniform(0.3, 1.3)
        t = 1.0 + 19.0 * (i + rng.uniform()) / count
        yield (s, t, theta), random_f2_geodesic(10, int(rng.integers(2**31)))


def _morse_outcome(call):
    try:
        rpt = call()
    except GeometryError as exc:
        return (type(exc), str(exc), exc.row,
                getattr(exc, "iterations", None), getattr(exc, "grad_norm", None))
    return (rpt.max_distance, rpt.distances, rpt.projections, rpt.monotone, rpt.violations,
            rpt.flat.frame.tobytes(), rpt.iterations)


@pytest.mark.parametrize("windows, errors, violations", [
    pytest.param(lambda: _walk_windows(120, 9), {DomainError, RegularityError},
                 {"unordered", "type"}, id="walks"),
    pytest.param(_far_walk_windows, {DomainError, OppositionError}, {"unordered"},
                 id="far-walks"),
    pytest.param(lambda: _stratified_windows(60, 8), {ConvergenceError, OppositionError},
                 {"unordered", "type"}, id="stratified"),
])
def test_stacked_morse_and_triangle_equal_loops(windows, errors, violations):
    """Morse's stacked stages and the stacked triangle give the reports and
    the first errors of the per-midpoint and per-vertex loops.  The
    returned reports hold the kinds of violating step listed, both kinds
    over the three sets, so the stacked tally meets both branches of the
    loop's."""
    met, kinds = set(), set()
    for point, window in windows():
        rep = rep_from_coords(Coordinates(*point))
        out = _morse_outcome(lambda: morse_flat_check(rep, window, THETA_INTERVAL))
        assert out == _morse_outcome(
            lambda: _reference_morse_flat_check(rep, window, THETA_INTERVAL, kinds=kinds))
        if isinstance(out[0], type):
            met.add(out[0])
        assert _outcome(lambda: triangle_report(rep)) == _outcome(
            lambda: _reference_triangle_report(rep))
    assert errors <= met
    assert violations <= kinds


@pytest.mark.parametrize("point, word", [
    ((0.8846661689645557, 625.8745277722776, 2.9988258718075684), "XyxyXYxxy"),
    ((0.21083963361318847, 671.9353446455827, 0.531996219024501), "XYxxYx"),
    ((2.7374371777393236, 377.4725096830284, 2.9518474565402952), "YxxYxYXYX"),
    ((2.498068890828778, 589.4874548279116, 1.2218851915261864), "YXyXXYXXXYx"),
])
def test_morse_window_end_fold_errors_carry_no_row(point, word):
    """Far out in t a product of the window-end fold, ahead and behind,
    degenerates.  The loop folds each end unstacked before any midpoint,
    so its error carries no ``row``, and neither may the stacked fold's."""
    rep = rep_from_coords(Coordinates(*point))
    window = [f2_from_string(word[:k] or "e") for k in range(len(word) + 1)]
    out = _morse_outcome(lambda: morse_flat_check(rep, window, THETA_INTERVAL))
    assert out[:3] == (DomainError, "degenerate factor matrix", None)
    assert out == _morse_outcome(
        lambda: _reference_morse_flat_check(rep, window, THETA_INTERVAL))


def test_stratified_windows_stall_before_a_later_opposition():
    """Among the stratified windows are some where a flat projection
    stalls at one midpoint and the flags of a later midpoint are not
    opposite: the loop meets the stall first, and so must the stacked
    stages, which make every flat before they project."""
    found = 0
    for point, window in _stratified_windows(60, 8):
        rep = rep_from_coords(Coordinates(*point))
        out = _morse_outcome(lambda: morse_flat_check(rep, window, THETA_INTERVAL))
        if out[0] is not ConvergenceError:
            continue
        later = _morse_outcome(lambda: _reference_morse_flat_check(
            rep, window, THETA_INTERVAL, caps=(np.inf, np.inf)))
        if later[0] is OppositionError:
            found += 1
            assert out == _morse_outcome(
                lambda: _reference_morse_flat_check(rep, window, THETA_INTERVAL))
    assert found >= 1


def test_walk_windows_meet_errors_at_every_stage():
    """The walks exercise the error order: coincident midpoints, coincident
    segments and wall-type vertices past the first row."""
    messages = set()
    for point, window in _walk_windows(120, 9):
        rep = rep_from_coords(Coordinates(*point))
        seq = _outcome(lambda: midpoint_sequence(rep, window))
        out = seq if isinstance(seq, tuple) else _outcome(
            lambda: straightness_report(seq, THETA_INTERVAL))
        if isinstance(out, tuple):
            messages.add(out[1].split(":")[0])
    assert {"segment undefined for coincident points", "midpoint segment 1",
            "midpoint vertex 2"} <= messages


@pytest.mark.parametrize("point, length, seed", [((0.0, 0.0, 0.0), 8, 0), ((1.0, 0.05, 0.4), 8, 1)])
def test_stacked_window_errors_match_reference(point, length, seed):
    rep = rep_from_coords(Coordinates(*point))
    window = random_f2_geodesic(length, seed)
    _assert_window_matches_reference(rep, window)
    if point == (0.0, 0.0, 0.0):
        with pytest.raises(DomainError, match="segment undefined for coincident points"):
            midpoint_sequence(rep, window)


def test_window_underflow_raises_without_warnings():
    """On the type-I locus far out in t a segment's relative factor
    product underflows; the window says so instead of taking log(0)."""
    rep = rep_from_coords(Coordinates(0.0, 300.0, 0.7))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seq = midpoint_sequence(rep, random_f2_geodesic(10, seed=0))
        with pytest.raises(DomainError, match="relative factor product underflows"):
            straightness_report(seq, THETA_INTERVAL)


def test_row_major_meets_errors_in_loop_order():
    """A stacked pass meets one stage on every row before the next stage;
    the loop it replaces meets every stage of a row before the next row,
    so a later stage failing at an earlier row must win."""
    def stage(name, failing_row, n):
        failed = np.arange(n) == failing_row
        if failed.any():
            raise_first([(failed, lambda i: DomainError(f"{name} at row {i[0]}"))])

    def run(first_bad, second_bad):
        def rows(n):
            stage("first stage", first_bad, n)
            stage("second stage", second_bad, n)
            return n
        return rows

    with pytest.raises(DomainError, match="second stage at row 1"):
        anosov._row_major(run(3, 1), 5)
    with pytest.raises(DomainError, match="first stage at row 1"):
        anosov._row_major(run(1, 3), 5)
    with pytest.raises(DomainError, match="first stage at row 3"):
        anosov._row_major(run(3, 4), 5)
    assert anosov._row_major(run(3, 1), 1) == 1


def test_row_major_is_defined_once():
    """The stacked passes of the orbit layer and of the flat solver
    share ``errors._row_major``."""
    assert anosov._row_major is _row_major
    assert flats._row_major is _row_major


@pytest.mark.parametrize("shape", [(), (5,), (5, 2)])
def test_raise_first_returns_or_raises_the_first_failing_entry(shape):
    """No failing entry: ``raise_first`` returns None, for an unstacked
    (0-d) check as for stacked ones.  Otherwise the first entry in C order
    that fails raises the error of the first check it fails, with ``row``
    its index along the first stack axis."""
    def checks(first, second):
        return [(first, lambda i: DomainError(f"first check at {i}")),
                (second, lambda i: RegularityError(f"second check at {i}"))]

    def mask(*entries):
        failed = np.zeros(shape, dtype=bool)
        for entry in entries:
            failed[entry] = True
        return failed

    clear = mask()
    assert raise_first(checks(clear, clear)) is None
    if not shape:
        assert raise_first(checks(np.False_, np.float64(1.0) == 0.0)) is None
        cases = [((mask(), mask(())), (RegularityError, "second check at ()", None)),
                 ((mask(()), mask(())), (DomainError, "first check at ()", None))]
    elif len(shape) == 1:
        cases = [((mask(3), mask(1, 4)), (RegularityError, "second check at (1,)", 1)),
                 ((mask(1), mask(1)), (DomainError, "first check at (1,)", 1)),
                 ((mask(0), mask()), (DomainError, "first check at (0,)", 0))]
    else:
        cases = [((mask((2, 1)), mask((2, 0), (4, 1))),
                  (RegularityError, "second check at (2, 0)", 2)),
                 ((mask((3, 1), (4, 0)), mask((3, 1))), (DomainError, "first check at (3, 1)", 3))]
    for masks, expected in cases:
        with pytest.raises(GeometryError) as info:
            raise_first(checks(*masks))
        assert (type(info.value), str(info.value), info.value.row) == expected


def test_verdict_stats_carry_the_equidistance_defect():
    cfg = VerdictConfig()
    for point in [(1.0, 4.0, 0.5), (1.2, 12.0, 0.55)]:
        v = anosov_verdict(Coordinates(*point), cfg)
        seq = midpoint_sequence(rep_from_coords(Coordinates(*point)),
                                random_f2_geodesic(cfg.window, cfg.seed))
        assert v.stats["equidistance_defect"] == seq.equidistance_defect


def test_verdict_stats_echo_the_config():
    """Every config field, thresholds included, under its own name."""
    cfg = VerdictConfig(max_len=6, samples=700, window=6, peripheral_n=32, seed=3,
                        theta_halfwidth=0.3, zeta_slack=0.6, spacing_factor=0.04)
    stats = anosov_verdict(Coordinates(1.0, 4.0, 0.5), cfg).stats
    assert {f.name: stats[f.name] for f in dataclasses.fields(VerdictConfig)} == {
        "max_len": 6, "samples": 700, "window": 6, "peripheral_n": 32, "seed": 3,
        "theta_halfwidth": 0.3, "zeta_slack": 0.6, "spacing_factor": 0.04}


def test_verdict_stats_keep_their_key_order():
    """The config fields, then the peripheral, window and gap stats, in the
    order the verdict records them; a window error takes the window's
    place after its equidistance defect, if it has one."""
    cfg = VerdictConfig(max_len=3, samples=100)
    config = [f.name for f in dataclasses.fields(VerdictConfig)]
    window = ["equidistance_defect", "min_zeta_angle", "min_spacing", "type_min", "type_max"]
    assert list(anosov_verdict(Coordinates(1.0, 4.0, 0.5), cfg).stats) == [
        *config, "peripheral_model", "peripheral_kappa", *window, "slope_c", "intercept_C"]
    assert list(anosov_verdict(Coordinates(0.0, 0.0, 0.5), cfg).stats) == [
        *config, "peripheral_model", "peripheral_kappa", "straightness_error", "slope_c",
        "intercept_C"]


def _verdict_fields(v):
    return v.coordinates, v.verdict, list(v.stats), v.stats


@pytest.mark.parametrize("grid, cfg, chunk, looped", [
    ("0.5:2:4,1:8:4,0.5:0.5:1", VerdictConfig(max_len=8, samples=20_000), 64, []),
    ("0.5:2:4,1:8:4,0.5:0.5:1", VerdictConfig(), 64, []),
    ("0.5:2:4,1:8:4,0.5:0.5:1", VerdictConfig(max_len=8, samples=20_000), 5, []),
    ("1:1:1,4:4:1,0.5:0.5:1", VerdictConfig(max_len=8, samples=20_000), 64, [0]),
    ("0:1:2,0:2:2,0.5:4:2", VerdictConfig(max_len=3), 64, list(range(8))),
    ("0:1:2,0:2:2,0.5:4:2", VerdictConfig(max_len=3), 4, [0, 1, 2, 3]),
])
def test_block_verdicts_equal_the_loop_bit_for_bit(grid, cfg, chunk, looped, monkeypatch):
    """anosov_verdicts gives each point of a block the loop's verdict and
    stats, key order included.  The README grid takes stacked window
    passes, in one chunk or in even chunks of at most ``chunk`` points;
    a one-point block runs the loop, and so do the points of a chunk
    whose stacked pass raises, here at the fixed points (0, 0, theta),
    rows 0 and 1."""
    coords = [Coordinates(*p) for p in cli._grid_points(cli._coordinate_axes(grid)).tolist()]
    loop = [anosov_verdict(c, cfg) for c in coords]
    calls, verdict = [], anosov.anosov_verdict

    def counted(c, config=None):
        calls.append(c)
        return verdict(c, config)

    monkeypatch.setattr(anosov, "anosov_verdict", counted)
    monkeypatch.setattr(anosov, "_WINDOW_POINTS", chunk)
    block = anosov.anosov_verdicts(coords, cfg)
    assert [_verdict_fields(v) for v in block] == [_verdict_fields(v) for v in loop]
    assert calls == [coords[row] for row in looped]
    if grid.startswith("0:1:2"):
        fixed = [v.stats.get("straightness_error") for v in loop[:2]]
        assert fixed == ["segment undefined for coincident points"] * 2
        with pytest.raises(DomainError, match="coincident points"):
            anosov._window_block([rep_from_coords(c) for c in coords], cfg)


@pytest.mark.parametrize("chunk", [64, 1])
def test_block_verdicts_raise_the_point_error_with_its_row(chunk, monkeypatch):
    """(0, 400, 0.7) raises from its gap scan, after (0, 4, 0.7) passed,
    whether the two points share a chunk or not."""
    monkeypatch.setattr(anosov, "_WINDOW_POINTS", chunk)
    coords = [Coordinates(0.0, 4.0, 0.7), Coordinates(0.0, 400.0, 0.7)]
    with pytest.raises(DomainError, match="^word product underflows the float64 range$") as info:
        anosov.anosov_verdicts(coords, VerdictConfig(max_len=8, samples=20_000))
    assert info.value.row == 1


def test_morse_reports_newton_iterations():
    rep = rep_from_coords(Coordinates(1.0, 4.0, 0.5))
    rpt = morse_flat_check(rep, random_f2_geodesic(10, seed=0), THETA_INTERVAL)
    assert len(rpt.iterations) == len(rpt.distances)
    assert all(isinstance(c, int) and c >= 0 for c, _ in rpt.iterations)
    assert all(isinstance(n, int) and n >= 0 for _, n in rpt.iterations[:-1])
    assert rpt.iterations[-1][1] is None


def test_midpoint_sequence_cyclic_spacing_constant():
    rep = rep_from_coords(Coordinates(0.8, 2.5, 0.9))
    seq = midpoint_sequence(rep, [F2Word((G1,) * n) for n in range(9)])
    sr = straightness_report(seq, THETA_INTERVAL)
    assert max(sr.spacings) - min(sr.spacings) < 1e-8
    d01 = fdistance(seq.midpoints[0], seq.midpoints[1])
    assert sr.spacings[0] == pytest.approx(d01, abs=1e-8)


def test_straightness_far_from_fuchsian():
    rep = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    seq = midpoint_sequence(rep, random_f2_geodesic(10, seed=0))
    sr = straightness_report(seq, THETA_INTERVAL)
    assert np.pi - sr.min_zeta_angle < 0.2
    assert abs(sr.type_min - np.pi / 6) < 0.1
    assert abs(sr.type_max - np.pi / 6) < 0.1
    assert sr.all_types_within


def test_straightness_near_fuchsian_flags_drift():
    rep = rep_from_coords(Coordinates(1.0, 0.05, 0.4))
    seq = midpoint_sequence(rep, random_f2_geodesic(8, seed=1))
    try:
        sr = straightness_report(seq, THETA_INTERVAL)
    except RegularityError:
        return  # wall-adjacent segment is an acceptable flagged outcome
    flagged = (np.pi - sr.min_zeta_angle > 0.5 or sr.min_spacing < 2.0
               or not sr.all_types_within)
    assert flagged


def test_straightness_matches_highprec_oracle():
    words = random_f2_geodesic(8, seed=0)
    s, t, theta = 1.0, 2.0, 0.5
    rep = rep_from_coords(Coordinates(s, t, theta))
    sr = straightness_report(midpoint_sequence(rep, words), THETA_INTERVAL)
    hp = highprec.straightness_stats(s, t, theta, words)
    assert np.pi - sr.min_zeta_angle == pytest.approx(max(hp["deficits"]), rel=1e-6)
    assert sr.min_spacing == pytest.approx(min(hp["spacings"]), abs=1e-9)


def test_gap_scan_enumerated_counts_and_determinism():
    rep = rep_from_coords(Coordinates(0.8, 2.0, 0.9))
    r1 = cartan_gap_scan(rep, 5, None, seed=7)
    assert r1.enumerated
    assert len(r1.words) == 2 * (3**5 - 1)
    assert r1.words[:4] == ("x", "X", "y", "Y")
    r2 = cartan_gap_scan(rep, 5, None, seed=7)
    assert r1.words == r2.words
    assert np.array_equal(r1.gap12, r2.gap12)
    assert r1.slope_c == r2.slope_c


def test_gap_scan_sampled_mode():
    rep = rep_from_coords(Coordinates(0.8, 2.0, 0.9))
    r = cartan_gap_scan(rep, 9, 2000, seed=3)
    assert not r.enumerated
    r2 = cartan_gap_scan(rep, 9, 2000, seed=3)
    assert r.words == r2.words and r.slope_c == r2.slope_c
    r3 = cartan_gap_scan(rep, 9, 2000, seed=4)
    assert r.words != r3.words


@pytest.mark.parametrize("max_len, budget", [(6, None), (9, 2000)])
def test_gap_scan_bound_supports_per_length_minima(max_len, budget):
    """c n - C is the last edge of the lower convex minorant: it passes
    through the last per-length minimum and under all the others."""
    r = cartan_gap_scan(rep_from_coords(Coordinates(0.8, 2.0, 0.9)), max_len, budget, seed=3)
    below = [y - (r.slope_c * n - r.intercept_C) for n, y in r.per_length_min]
    assert below[-1] == pytest.approx(0.0, abs=1e-12)
    assert min(below) >= -1e-12
    assert sum(b < 1e-12 for b in below) >= 2


def test_gap_scan_single_length_has_zero_slope():
    r = cartan_gap_scan(rep_from_coords(Coordinates(0.8, 2.0, 0.9)), 1)
    assert r.slope_c == 0.0
    assert r.intercept_C == -r.per_length_min[0][1]


@pytest.mark.parametrize("budget", [0, -5])
def test_gap_scan_rejects_empty_budget(budget):
    with pytest.raises(ValueError, match="sample_budget"):
        cartan_gap_scan(rep_from_coords(Coordinates(0.8, 2.0, 0.9)), 3, budget)


# first, middle and last sampled word of several lengths for
# cartan_gap_scan(rep(0.8, 2, 0.9), 9, 2000, seed=3), as recorded from the
# string-building scan: the seeded draws must not change
SAMPLED_WORDS_SEED3 = {
    1: ("Y", "X", "x"),
    2: ("yx", "YY", "XX"),
    5: ("YYXXX", "yXXYX", "YxxyX"),
    9: ("xyXyyxYYX", "xYXXyXyxy", "xxxyyxYxy"),
}


def test_gap_scan_sampled_words_pinned():
    rep = rep_from_coords(Coordinates(0.8, 2.0, 0.9))
    r = cartan_gap_scan(rep, 9, 2000, seed=3)
    words = r.words
    for n, expected in SAMPLED_WORDS_SEED3.items():
        idx = np.flatnonzero(r.lengths == n)
        assert tuple(words[i] for i in (idx[0], idx[len(idx) // 2], idx[-1])) == expected


@pytest.mark.parametrize("max_len, budget", [(5, None), (9, 2000)])
def test_gap_report_letters_round_trip(max_len, budget):
    rep = rep_from_coords(Coordinates(0.8, 2.0, 0.9))
    r = cartan_gap_scan(rep, max_len, budget, seed=3)
    assert [level.shape[1] for level in r.letters] == list(range(1, max_len + 1))
    rows = [tuple(row) for level in r.letters for row in level.tolist()]
    assert len(rows) == len(r.words) == len(r.lengths) == len(r.gap12)
    for row, word, n in zip(rows, r.words, r.lengths):
        assert f2_from_string(word).letters == row and len(row) == n


def test_enumerated_gap_report_letters_are_f2_levels():
    rep = rep_from_coords(Coordinates(0.8, 2.0, 0.9))
    r = cartan_gap_scan(rep, 6, None, seed=3)
    assert r.enumerated
    levels = list(f2_levels(6))
    assert len(r.letters) == len(levels)
    assert all(np.array_equal(a, b) for a, b in zip(r.letters, levels))


@pytest.mark.parametrize("max_len, budget", [(5, None), (9, 2000)])
def test_gap_scan_finite_at_large_scale(max_len, budget):
    """At t=400 every generator has log-scale ~801: the scan must carry
    the scales as sums, never as exp(lm) inside a matrix."""
    rep = rep_from_coords(Coordinates(1.0, 400.0, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = cartan_gap_scan(rep, max_len, budget, seed=0)
    assert r.enumerated == (budget is None)
    assert np.isfinite(r.gap12).all() and np.isfinite(r.gap23).all()
    assert np.isfinite(r.slope_c) and np.isfinite(r.intercept_C)


@pytest.mark.parametrize("max_len, budget", [(4, None), (6, 200)])
def test_gap_scan_underflow_raises_without_warnings(max_len, budget):
    """At s = 0, t = 400 a word product underflows to 0 in both modes; the
    scan raises rather than divide by its zero scale and report c = nan."""
    rep = rep_from_coords(Coordinates(0.0, 400.0, 0.7))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="word product underflows the float64 range"):
            cartan_gap_scan(rep, max_len, budget)


# -- references for the prefix-tree fold: the two batched folds it replaced.
# Enumerated, each level extends the previous one with the inverses folded
# beside it; sampled, each row is folded on its own, letter by letter.


def _reference_rescale(mats, logs):
    """Each matrix of an (m, 3, 3) stack divided by its max |entry|; the
    logs gain its log."""
    s = np.max(np.abs(mats), axis=(1, 2), keepdims=True)
    return mats / s, logs + np.log(s).reshape(-1)


def _planar(mats):
    """The planar (3, 3, m) view of an (m, 3, 3) stack."""
    return np.moveaxis(mats, 0, -1)


def _reference_gap_scan(rep, max_len, budget, seed):
    """The fields of cartan_gap_scan's report, and the number of 3x3
    products the reference formed, by matmul: the per-level fold on the
    levels and their inverses, the per-row fold on each row and its
    inverse on (m, 3, 3) stacks."""
    gens = [rep.f2_generators()[k] for k in range(4)]
    gmat = np.stack([g.mat for g in gens])
    gmatinv = np.stack([g.matinv for g in gens])
    glm = np.array([g.lm for g in gens])
    glmi = np.array([g.lmi for g in gens])
    enumerated = sum(f2_count(n) for n in range(1, max_len + 1)) <= budget
    folds = []
    products = 0
    if enumerated:
        mats, invs, lm, lmi = gmat, gmatinv, glm, glmi
        for level in f2_levels(max_len):
            if level.shape[1] > 1:
                child = level[:, -1]
                mats = np.repeat(mats, 3, axis=0) @ gmat[child]
                invs = gmatinv[child] @ np.repeat(invs, 3, axis=0)
                lm = np.repeat(lm, 3) + glm[child]
                lmi = np.repeat(lmi, 3) + glmi[child]
                products += 2 * len(level)
            mats, lm = _reference_rescale(mats, lm)
            invs, lmi = _reference_rescale(invs, lmi)
            folds.append((level, _planar(mats), _planar(invs), lm, lmi))
    else:
        rng = f2_rng(seed)
        per_length = max(1, budget // max_len)
        for n in range(1, max_len + 1):
            level = f2_sample(rng, min(per_length, f2_count(n)), n)
            mats, invs = gmat[level[:, 0]], gmatinv[level[:, 0]]
            lm, lmi = glm[level].sum(axis=1), glmi[level].sum(axis=1)
            for col in range(1, n):
                letter = level[:, col]
                mats, lm = _reference_rescale(mats @ gmat[letter], lm)
                invs, lmi = _reference_rescale(gmatinv[letter] @ invs, lmi)
                products += 2 * len(level)
            folds.append((level, _planar(mats), _planar(invs), lm, lmi))
    letters, gap12, gap23 = [], [], []
    for level, mats, invs, lm, lmi in folds:
        l1 = anosov._log_sigma1(mats) + lm
        l3 = -(anosov._log_sigma1(invs) + lmi)
        l2 = -l1 - l3
        letters.append(level)
        gap12.append(l1 - l2)
        gap23.append(l2 - l3)
    per_len = tuple((level.shape[1], float(np.minimum(g12, g23).min()))
                    for level, g12, g23 in zip(letters, gap12, gap23))
    n_last, y_last = per_len[-1]
    c = max(((y_last - y) / (n_last - n) for n, y in per_len[:-1]), default=0.0)
    return {
        "letters": letters, "gap12": np.concatenate(gap12), "gap23": np.concatenate(gap23),
        "per_length_min": per_len, "slope_c": float(c),
        "intercept_C": float(c * n_last - y_last), "products": products,
    }


REFERENCE_POINTS = [(0, 0, 0), (0.5, 1, 0.5), (1, 4, 0.5), (1, 12, 0.5), (1, 400, 0.5)]


@pytest.mark.parametrize("max_len, budget, seed", [(9, 2000, 3), (10, 50_000, 0)])
@pytest.mark.parametrize("point", REFERENCE_POINTS)
def test_sampled_rows_equal_enumerated_rows(point, max_len, budget, seed, f2_index):
    """A sampled word is folded through the same prefix products and
    log-scale sums as its row in the complete enumeration, and reads
    sigma_3 off its inverse's row likewise: its gaps are that row's bit
    for bit, at every point, t = 400 included."""
    rep = rep_from_coords(Coordinates(*point))
    r = cartan_gap_scan(rep, max_len, budget, seed)
    full = cartan_gap_scan(rep, max_len, sum(f2_count(n) for n in range(1, max_len + 1)))
    assert not r.enumerated and full.enumerated
    start = np.cumsum([0] + [len(level) for level in full.letters])
    rows = np.concatenate([start[level.shape[1] - 1] + f2_index(level) for level in r.letters])
    assert np.array_equal(r.lengths, full.lengths[rows])
    assert np.array_equal(r.gap12, full.gap12[rows]) and np.array_equal(r.gap23, full.gap23[rows])


@pytest.mark.parametrize("max_len, budget, seed", [(9, 2000, 3), (10, 50_000, 0), (45, 900, 1)])
@pytest.mark.parametrize("point", REFERENCE_POINTS)
def test_sampled_gap_scan_near_matmul_fold(point, max_len, budget, seed):
    """The planar products differ from matmul's by a few ulp: up to t = 12
    the gaps move by at most 1e-10 max(1, |gap|) and c by 1e-10 relative,
    the bound of the enumerated scan against its per-level fold.  At
    t = 400 cancelling words lose most digits in either association, so
    both folds need only be finite there."""
    rep = rep_from_coords(Coordinates(*point))
    r = cartan_gap_scan(rep, max_len, budget, seed)
    ref = _reference_gap_scan(rep, max_len, budget, seed)
    assert all(np.array_equal(a, b) for a, b in zip(r.letters, ref["letters"]))
    if point[1] > 12:
        for values in (r.gap12, r.gap23, ref["gap12"], ref["gap23"]):
            assert np.isfinite(values).all()
        assert np.isfinite([r.slope_c, ref["slope_c"]]).all()
        return
    for got, want in ((r.gap12, ref["gap12"]), (r.gap23, ref["gap23"])):
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-10
    assert r.slope_c == pytest.approx(ref["slope_c"], rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("point", [p for p in REFERENCE_POINTS if p[1] <= 12])
def test_enumerated_gap_scan_near_per_level_fold(point):
    """sigma_3 read off the inverse's row folds the letters in another
    association: up to t = 12 the gaps and c move by at most 1e-10
    relative (1.8e-11 measured at (1, 12, 0.5))."""
    rep = rep_from_coords(Coordinates(*point))
    r = cartan_gap_scan(rep, 8, 20_000, 0)
    ref = _reference_gap_scan(rep, 8, 20_000, 0)
    assert r.enumerated
    assert all(np.array_equal(a, b) for a, b in zip(r.letters, ref["letters"]))
    for got, want in ((r.gap12, ref["gap12"]), (r.gap23, ref["gap23"])):
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-10
    assert r.slope_c == pytest.approx(ref["slope_c"], rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("point", REFERENCE_POINTS)
def test_enumerated_gap23_is_gap12_of_inverse(point, f2_index):
    r = cartan_gap_scan(rep_from_coords(Coordinates(*point)), 6, None, 0)
    start = 0
    for level in r.letters:
        rows = slice(start, start + len(level))
        inverse_gap12 = r.gap12[start + f2_index(level[:, ::-1] ^ 1)]
        tol = 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(r.gap23[rows]))
        assert np.all(np.abs(r.gap23[rows] - inverse_gap12) <= tol)
        start += len(level)


def test_gap_scan_counts_its_products():
    """Enumerated, one product per word of length >= 2; sampled, one per
    distinct prefix of length >= 2 of the words and their inverses, an
    eighth of the per-row fold's 2 (n - 1) per word."""
    rep = rep_from_coords(Coordinates(1.0, 4.0, 0.5))
    assert cartan_gap_scan(rep, 8, 20_000, 0).products == 13_116
    assert _reference_gap_scan(rep, 8, 20_000, 0)["products"] == 2 * 13_116
    assert cartan_gap_scan(rep, 10, 50_000, 0).products == 36_299
    assert _reference_gap_scan(rep, 10, 50_000, 0)["products"] == 288_120


def _letter_stacks(m, seed):
    """m rescaled N(0, 1) matrices, the (4, 3, 3) letter table of a
    rescaled N(0, 1) draw and m letters."""
    rng = np.random.default_rng(seed)
    return (_rescaled_stack(rng.normal(size=(m, 3, 3))),
            _rescaled_stack(rng.normal(size=(4, 3, 3))), rng.integers(4, size=m))


@pytest.mark.parametrize("m, seed", [(1, 0), (7, 1), (5000, 2)])
def test_times_letters_is_the_ordered_product(m, seed):
    """The planar product sums each entry's three terms in index order with
    no fused multiply-add, bit for bit, in place; against matmul it stays
    within 4 eps of sum_k |a_ik| |b_kj|, twice the rounding bound of a
    three-term dot product."""
    mats, table, letter = _letter_stacks(m, seed)
    b = table[letter]
    ordered = sum(mats[:, :, k, None] * b[:, None, k, :] for k in range(3))
    planar = _planar(mats).copy()
    got = anosov._times_letters(planar, letter, table)
    assert got is planar
    assert np.array_equal(got, _planar(ordered))
    bound = 4 * np.finfo(float).eps * (np.abs(mats) @ np.abs(b))
    assert np.all(np.abs(_planar(mats @ b) - got) <= _planar(bound))


def test_rescale_batch_is_the_max_entry_division():
    rng = np.random.default_rng(4)
    mats = rng.normal(size=(300, 3, 3)) * 10.0 ** rng.uniform(-200, 200, size=(300, 1, 1))
    planar = _planar(mats).copy()
    got, logs = anosov._rescale_batch(planar)
    scale = np.max(np.abs(mats), axis=(1, 2))
    assert got is planar
    assert np.array_equal(got, _planar(mats / scale[:, None, None]))
    assert np.array_equal(logs, np.log(scale))


def test_enumerated_tables_are_shared_read_only_levels(f2_index):
    """The complete levels and their prefix tree, read-only: the tree's
    numbering is the levels' row order, so row i of a level is node i,
    node i extends node i // 3, and the inverse of row i is row m + i."""
    levels, tree = anosov._scan_tables(6, None, None)
    assert anosov._scan_tables(6, None, None)[0] is levels
    assert len(levels) == len(tree) == 6
    fresh_tree = anosov._prefix_tree(list(f2_levels(6)))
    for level, depth, fresh, want in zip(levels, tree, fresh_tree, f2_levels(6)):
        parent, letter, rows = depth
        assert level.dtype == np.int64 and np.array_equal(level, want)
        assert [a.dtype for a in depth] == [np.int32, np.int8, np.int32]
        assert all(np.array_equal(a, b) for a, b in zip(depth, fresh))
        if want.shape[1] > 1:
            assert np.array_equal(parent, np.arange(len(want)) // 3)
        assert np.array_equal(letter, want[:, -1])
        assert np.array_equal(rows, np.concatenate([np.arange(len(want)),
                                                    f2_index(want[:, ::-1] ^ 1)]))
        for table in (level, *depth):
            assert not table.flags.writeable
    r = cartan_gap_scan(rep_from_coords(Coordinates(0.8, 2.0, 0.9)), 6, None, seed=3)
    assert r.letters is levels
    # the complete levels are one entry per max-len, whatever the budget or seed
    assert cartan_gap_scan(rep_from_coords(Coordinates(0.8, 2.0, 0.9)), 6, 5000, seed=8).letters \
        is levels
    with pytest.raises(ValueError, match="read-only"):
        r.letters[2][0, 0] = 1


def test_enumerated_tables_are_built_on_first_scan():
    """Importing modsym builds no tables; the first enumerated and the
    first sampled scan each build one entry."""
    out = subprocess.run(
        [sys.executable, "-c", "import modsym; from modsym import anosov, charvar; "
         "size = anosov._scan_tables.cache_info; print(size().currsize); "
         "rep = charvar.rep_from_coords(charvar.Coordinates(1.0, 4.0, 0.5)); "
         "anosov.cartan_gap_scan(rep, 4, None); print(size().currsize); "
         "anosov.cartan_gap_scan(rep, 6, 300); print(size().currsize)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.split() == ["0", "1", "2"]


def _fresh_sampled_tables(max_len, budget, seed):
    """A sampled scan's tables as they were built before they were cached:
    a fresh draw and a fresh prefix tree."""
    rng = f2_rng(seed)
    per_length = max(1, budget // max_len)
    levels = [f2_sample(rng, min(per_length, f2_count(n)), n) for n in range(1, max_len + 1)]
    return levels, list(anosov._prefix_tree(levels))


@pytest.mark.parametrize("max_len, budget, seed", [(10, 50_000, 0), (9, 2000, 7)])
def test_sampled_tables_are_shared_read_only_draws(max_len, budget, seed):
    """The cached tables of a sampled configuration are its seeded draw
    and the prefix tree of that draw, bit for bit, read-only, with int32
    parents and rows and int8 letters; a second scan reads the same
    objects, and another seed or budget has its own entry."""
    levels, tree = anosov._scan_tables(max_len, budget, seed)
    assert anosov._scan_tables(max_len, budget, seed)[1] is tree
    want_levels, want_tree = _fresh_sampled_tables(max_len, budget, seed)
    assert len(levels) == len(tree) == max_len
    for got, want in zip(levels, want_levels):
        assert got.dtype == np.int64 and np.array_equal(got, want)
    for got, want in zip(tree, want_tree):
        assert [a.dtype for a in got] == [np.int32, np.int8, np.int32]
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))
    for table in (*levels, *(a for depth in tree for a in depth)):
        assert not table.flags.writeable
    assert anosov._scan_tables(max_len, budget, seed + 1)[0] is not levels
    assert anosov._scan_tables(max_len, budget + 1, seed)[0] is not levels
    r = cartan_gap_scan(rep_from_coords(Coordinates(0.8, 2.0, 0.9)), max_len, budget, seed)
    assert not r.enumerated and r.letters is levels
    with pytest.raises(ValueError, match="read-only"):
        r.letters[-1][0, 0] = 1


SAMPLED_CACHE_POINTS = [(0, 0, 0), (0.5, 1, 0.5), (1, 4, 0.5), (1, 12, 0.5), (1, 400, 0.5),
                        (0, 257, 1.3), (0.5, 0.75, 0.5)] + [
    tuple(p) for p in np.random.default_rng(19).uniform([0, 0, 0], [3, 20, np.pi],
                                                       size=(43, 3)).tolist()]


@pytest.mark.parametrize("seed", [0, 7])
def test_cached_sampled_scan_equals_uncached_tables(seed):
    """On 50 points, the scan over the cached tables (the first scan
    builds them, the rest reuse them) equals one over freshly built
    tables bit for bit."""
    fresh = _fresh_sampled_tables(10, 50_000, seed)
    for point in SAMPLED_CACHE_POINTS:
        rep = rep_from_coords(Coordinates(*point))
        r = cartan_gap_scan(rep, 10, 50_000, seed)
        ref = anosov._gap_report(rep, fresh, False, seed)
        assert np.array_equal(r.gap12, ref.gap12) and np.array_equal(r.gap23, ref.gap23), point
        assert (r.slope_c, r.products) == (ref.slope_c, ref.products), point


def _rescaled_stack(mats):
    return mats / np.max(np.abs(mats), axis=(1, 2))[:, None, None]


def _sigma1_cases():
    rng = np.random.default_rng(12)
    q1 = np.linalg.qr(rng.normal(size=(200, 3, 3)))[0]
    q2 = np.linalg.qr(rng.normal(size=(200, 3, 3)))[0]
    spread = np.sort(rng.uniform(-30.0, 30.0, size=(200, 3)), axis=1)[:, ::-1]
    spectra = np.exp(spread - spread[:, :1])
    yield "spread", _rescaled_stack(q1 * spectra[:, None, :] @ q2)
    yield "rotation", q1 @ q2
    yield "tied-top", _rescaled_stack(q1 * np.array([1.0, 1.0, 1e-3]) @ q2)


@pytest.mark.parametrize("mats", [pytest.param(m, id=name) for name, m in _sigma1_cases()])
def test_log_sigma1_matches_svd(mats):
    ref = np.linalg.svd(mats, compute_uv=False)[:, 0]
    got = np.exp(anosov._log_sigma1(_planar(mats)))
    assert np.max(np.abs(got - ref) / ref) < 1e-14


def _with_singular_values(values, n=200, seed=21):
    """n random matrices with the given singular values, rescaled to max
    |entry| 1."""
    rng = np.random.default_rng(seed)
    q1 = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
    q2 = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
    return _rescaled_stack(q1 * np.asarray(values) @ q2)


def _svd_log_sigma1(mats):
    return np.log(np.linalg.svd(mats, compute_uv=False)[..., 0])


@pytest.mark.parametrize("delta", [10.0**-k for k in range(1, 9)])
def test_log_sigma1_top_gap_sweep(delta):
    """Top singular values 1 and 1 - delta: the closed form before the tie
    margin and eigvalsh past it both stay within 1e-14 of the SVD."""
    mats = _with_singular_values([1.0, 1.0 - delta, 1e-3])
    ref = np.linalg.svd(mats, compute_uv=False)[:, 0]
    got = np.exp(anosov._log_sigma1(_planar(mats)))
    assert np.max(np.abs(got - ref) / ref) < 1e-14


def test_log_sigma1_scalar_and_triple_ties():
    """p = 0 must not divide, and a near-scalar Gram must not warn."""
    identity = np.tile(np.eye(3), (4, 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(anosov._log_sigma1(_planar(identity)), np.zeros(4))
        for spread in (1e-15, 1e-12, 1e-7):
            mats = _with_singular_values([1.0, 1.0 - spread, 1.0 - 2 * spread], n=50)
            got = anosov._log_sigma1(_planar(mats))
            assert np.max(np.abs(got - _svd_log_sigma1(mats))) < 1e-14


def test_log_sigma1_single_matrix():
    """One 3x3 matrix, as word_cartan passes it, gives a 0-d result."""
    for m in _with_singular_values([1.0, 0.3, 1e-4], n=5):
        got = anosov._log_sigma1(m)
        assert got.shape == ()
        assert abs(got - _svd_log_sigma1(m)) < 1e-14


def test_log_sigma1_fallback_rows_go_to_eigvalsh(monkeypatch):
    """Tied and scalar rows, and only they, take eigvalsh, whose value they
    keep bit for bit."""
    spread = _with_singular_values([1.0, 0.3, 1e-4], n=6)
    tied = _with_singular_values([1.0, 1.0, 0.2], n=3)
    mats = np.concatenate([spread[:3], tied, spread[3:], np.tile(np.eye(3), (2, 1, 1))])
    fallback = np.repeat([False, True, False, True], [3, 3, 3, 2])
    grams = mats @ np.swapaxes(mats, -1, -2)
    reference = 0.5 * np.log(np.linalg.eigvalsh(grams)[:, -1])
    sent = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        sent.append(a.copy())
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    got = anosov._log_sigma1(_planar(mats))
    assert len(sent) == 1 and np.array_equal(sent[0], grams[fallback])
    assert np.array_equal(got[fallback], reference[fallback])
    sent.clear()
    anosov._log_sigma1(_planar(spread))
    assert sent == []


def test_gap_scan_matches_per_word_svd():
    rep = rep_from_coords(Coordinates(1.0, 4.0, 0.5))
    r = cartan_gap_scan(rep, 6, None, seed=0)
    words = [f2_from_string(w) for w in r.words]
    fwd = [f2_fisometry(rep, w) for w in words]
    inv = [f2_fisometry(rep, f2_inverse(w)) for w in words]
    l1 = _svd_log_sigma1(np.stack([g.mat for g in fwd])) + [g.lm for g in fwd]
    l3 = -(_svd_log_sigma1(np.stack([g.mat for g in inv])) + [g.lm for g in inv])
    l2 = -l1 - l3
    np.testing.assert_allclose(r.gap12, l1 - l2, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(r.gap23, l2 - l3, rtol=1e-13, atol=1e-13)


def test_gap_scan_positive_slope_at_anosov_point():
    rep = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    r = cartan_gap_scan(rep, 6, None, seed=0)
    assert r.slope_c > 0.0
    assert all(g >= -1e-12 for g in r.gap12) and all(g >= -1e-12 for g in r.gap23)


def test_gap_scan_peripheral_drag_on_surface():
    """Near-peripheral words pull the fitted slope far below the slope at
    a strongly hyperbolic point."""
    surf = rep_from_coords(Coordinates(0.0, float(np.log(3.0) / 2.0), 0.0))
    hyp = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    c_surf = cartan_gap_scan(surf, 6, None, seed=0).slope_c
    c_hyp = cartan_gap_scan(hyp, 6, None, seed=0).slope_c
    assert 0.0 <= c_surf < 0.1 * c_hyp


def test_gap_scan_degenerate_at_fixed_point():
    rep = rep_from_coords(Coordinates(0.0, 0.0, 0.0))
    r = cartan_gap_scan(rep, 4, None, seed=0)
    assert r.slope_c == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(r.gap12, 0.0, atol=1e-12)


def test_gap_mirror_duality():
    rep = rep_from_coords(Coordinates(0.8, 2.0, 0.9))
    for w in enumerate_f2(3):
        lam = word_cartan(rep, w)
        lam_inv = word_cartan(rep, f2_inverse(w))
        assert abs((lam[0] - lam[1]) - (lam_inv[1] - lam_inv[2])) < 1e-10


def test_peripheral_growth_on_surface_log():
    t = float(schwartz_t(1.0, 0.5))
    rep = rep_from_coords(Coordinates(1.0, t, 0.5))
    rpt = peripheral_growth(rep, 200)
    assert rpt.model == "log"
    assert 1.5 <= rpt.kappa <= 2.5


def test_peripheral_growth_off_surface_linear():
    rep = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    rpt = peripheral_growth(rep, 64)
    assert rpt.model == "linear"
    assert rpt.kappa > 1.0


def _mp_peripheral_slope(c: Coordinates, dps: int) -> float:
    """log |mu_1 / mu_3| of the eigenvalues of rho(baba), from a dps-digit
    matrix."""
    with mpmath.workdps(dps):
        x, xinv = route.x_pair(c.s, c.t, c.theta)
        rot = route.rotation(2 * mpmath.pi / 3)
        eigs = sorted(abs(e) for e in mpmath.eig(
            route.word_matrix(BABA, x, xinv, rot, rot.T))[0])
        return float(mpmath.log(eigs[2] / eigs[0]))


def test_peripheral_growth_finite_at_large_scale():
    """At t=400 the entries of rho(baba) pass the float64 range; the slope
    must still be log |mu_1 / mu_3| of its eigenvalues, here taken from a
    1000-digit matrix."""
    c = Coordinates(1.0, 400.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rpt = peripheral_growth(rep_from_coords(c), 64)
    assert np.isfinite(rpt.gaps).all()
    assert rpt.model == "linear"
    assert rpt.kappa == pytest.approx(_mp_peripheral_slope(c, 1000), rel=1e-12)


# tau = tr rho(baba) lies in (-1, 3) here, so rho(baba) is elliptic
ELLIPTIC_GRID_POINTS = [
    (0.5, 0.25, 0.5), (0.5, 0.25, 1.5), (0.5, 0.5, 0.0), (0.5, 0.5, 0.5),
    (0.5, 0.5, 1.5), (0.5, 0.5, 3.0), (0.5, 0.75, 0.0), (0.5, 0.75, 0.5),
    (0.5, 0.75, 1.5), (1.0, 1.0, 1.5),
]


@pytest.mark.parametrize("point", ELLIPTIC_GRID_POINTS)
def test_elliptic_peripheral_reads_log_and_degenerate(point):
    """An elliptic rho(baba) is not proximal, so rho is not Anosov, however
    close to linear the spread of its 64 powers looks."""
    c = Coordinates(*point)
    assert -1.0 < float(trace_baba_closed_form(c)) < 3.0
    assert peripheral_growth(rep_from_coords(c), 64).model == "log"
    assert anosov_verdict(c).verdict == anosov.EVIDENCE_DEGENERATE


@pytest.mark.parametrize("point", [
    (1.0, 6.0, 0.5), (2.0, 1.0, 0.5),
    (0.5, float(schwartz_t(0.5, 0.5)) + 1e-6, 0.5),   # tau = -1 - 1.0e-5
])
def test_loxodromic_kappa_is_the_eigenvalue_ratio(point):
    c = Coordinates(*point)
    rpt = peripheral_growth(rep_from_coords(c), 64)
    assert rpt.model == "linear"
    assert rpt.kappa == pytest.approx(_mp_peripheral_slope(c, 60), rel=1e-9)


def test_peripheral_type_is_the_trace_test_on_the_grid():
    """model is linear exactly off [-1, 3] (widened by SURFACE_TOL), and on
    the loxodromic points the affine least-squares slope of the spread
    against n stays within 1.5% of kappa."""
    linear = 0
    for s, t, theta in itertools.product(np.arange(13) * 0.25, np.arange(13) * 0.25,
                                         (0.0, 0.5, 1.5, 3.0)):
        c = Coordinates(float(s), float(t), theta)
        rpt = peripheral_growth(rep_from_coords(c), 64)
        tau = float(trace_baba_closed_form(c))
        loxodromic = tau < -1.0 - SURFACE_TOL or tau > 3.0 + SURFACE_TOL
        assert (rpt.model == "linear") == loxodromic, (s, t, theta, tau)
        if loxodromic:
            linear += 1
            fit = np.column_stack([rpt.ns, np.ones_like(rpt.ns)])
            slope = np.linalg.lstsq(fit, rpt.gaps, rcond=None)[0][0]
            assert slope == pytest.approx(rpt.kappa, rel=0.015), (s, t, theta)
    assert linear == 633


def test_surface_reads_log():
    """On tr = -1 the numeric trace stays within a few 1e-9 of -1 for
    s <= 4, inside the SURFACE_TOL widening."""
    for s, theta in itertools.product(np.linspace(0.0, 4.0, 10), np.linspace(0.0, np.pi, 10)):
        c = Coordinates(float(s), float(schwartz_t(s, theta)), float(theta))
        assert peripheral_growth(rep_from_coords(c), 16).model == "log", (s, theta)


def test_unipotent_peripheral_reads_log():
    """At tau = 3 rho(baba) is unipotent, and the spread grows like
    4 log n."""
    c = Coordinates(1.0, 1.1440460924196174, 0.0)
    assert float(trace_baba_closed_form(c)) == pytest.approx(3.0, abs=1e-12)
    rpt = peripheral_growth(rep_from_coords(c), 64)
    assert rpt.model == "log"
    assert 3.5 <= rpt.kappa <= 4.5


def test_peripheral_growth_precondition():
    rep = rep_from_coords(Coordinates(1.0, 1.0, 0.5))
    with pytest.raises(PreconditionError):
        peripheral_growth(rep, 3)


def _reference_peripheral_powers(p, lp, pinv, lpi, n_max):
    """The power fold as a plain loop: per step, two 3x3 products, each
    rescaled and checked at once by factored._rescaled."""
    powers = np.empty((n_max, 2, 3, 3))
    logs = np.empty((n_max, 2))
    mat, inv = np.eye(3), np.eye(3)
    lm = lmi = 0.0
    for n in range(n_max):
        mat, lm = _rescaled(mat @ p, lm + lp)
        inv, lmi = _rescaled(pinv @ inv, lmi + lpi)
        powers[n], logs[n] = (mat, inv), (lm, lmi)
    return powers, logs


PERIPHERAL_POINTS = [(1, 400, 0.5), (0, 257, 1.3), (1, 1.1440460924196174, 0), (0.5, 0.75, 0.5),
                     (1, 4, 0.5), (0, 0, 0), (0.5, float(schwartz_t(0.5, 0.5)), 0.5)] + [
    tuple(p) for p in np.random.default_rng(23).uniform([0, 0, 0], [3, 30, np.pi],
                                                       size=(43, 3)).tolist()]


def test_peripheral_powers_equal_unstacked_loop():
    """The fcompose power fold forms each power by the same product and
    division as the per-step loop, and sums the log-scales in the same
    order: powers, log-scales, spread (whenever the report forms it),
    model and kappa are the same bit for bit."""
    for point in PERIPHERAL_POINTS:
        rep = rep_from_coords(Coordinates(*point))
        (p, lp), (pinv, lpi) = (anosov._as_float(anosov.matrix_of(rep, BABA)),
                                anosov._as_float(anosov.matrix_of(rep, anosov.ABAB)))
        powers = anosov._peripheral_powers(FIsometry(p, pinv, lp, lpi), 64)
        want_powers, want_logs = _reference_peripheral_powers(p, lp, pinv, lpi, 64)
        assert powers.mat.shape == (64, 3, 3) and powers.lm.shape == (64,), point
        for got, want in ((powers.mat, want_powers[:, 0]), (powers.matinv, want_powers[:, 1]),
                          (powers.lm, want_logs[:, 0]), (powers.lmi, want_logs[:, 1])):
            assert np.array_equal(got, want), point
        l1, l3 = anosov._cartan_pair(want_powers[:, 0], want_powers[:, 1],
                                     want_logs[:, 0], want_logs[:, 1])
        rpt = peripheral_growth(rep, 64)
        # a loxodromic report forms its spread on first read, here
        assert ("gaps" in vars(rpt)) == (rpt.model == "log"), point
        assert np.array_equal(rpt.gaps, l1 - l3), point
        if rpt.model == "log":
            fit = np.column_stack([np.log(rpt.ns), np.ones_like(rpt.ns)])
            assert rpt.kappa == float(np.linalg.lstsq(fit, l1 - l3, rcond=None)[0][0]), point


def _count_power_folds(monkeypatch):
    """Patch ``_peripheral_powers`` to record the n_max of each call."""
    calls = []
    fold = anosov._peripheral_powers

    def counted(element, n_max):
        calls.append(n_max)
        return fold(element, n_max)

    monkeypatch.setattr(anosov, "_peripheral_powers", counted)
    return calls


SURFACE_POINT = (1.0, float(schwartz_t(1.0, 0.5)), 0.5)


@pytest.mark.parametrize("point, folds", [
    ((1.0, 4.0, 0.5), 0), ((0.0, 0.0, 0.0), 1), (SURFACE_POINT, 1),
], ids=["loxodromic", "fixed-point", "surface"])
def test_verdict_and_rep_info_fold_powers_only_on_the_log_side(point, folds, monkeypatch):
    """Neither reads the spread: on the loxodromic side no power fold
    runs, and on the log side the one that kappa needs."""
    calls = _count_power_folds(monkeypatch)
    assert peripheral_growth(rep_from_coords(Coordinates(*point)), 64).model == (
        "linear" if folds == 0 else "log")
    assert len(calls) == folds
    calls.clear()
    anosov_verdict(Coordinates(*point), VerdictConfig(max_len=4, samples=500))
    assert len(calls) == folds
    calls.clear()
    assert cli.main(["rep-info", "--coords", ",".join(map(repr, point)),
                     "--out", os.devnull]) == 0
    assert len(calls) == folds


def test_loxodromic_spread_folds_once_on_first_read(monkeypatch):
    calls = _count_power_folds(monkeypatch)
    rpt = peripheral_growth(rep_from_coords(Coordinates(1.0, 4.0, 0.5)), 32)
    assert calls == []
    first = rpt.gaps
    assert calls == [32]
    assert rpt.gaps is first and calls == [32]


def test_loxodromic_fold_error_raises_on_first_read(monkeypatch):
    """On the loxodromic side the fold's DomainError raises where the
    spread is read, not in peripheral_growth."""
    def failing(element, n_max):
        raise DomainError("factor matrix is outside the float64 range")

    monkeypatch.setattr(anosov, "_peripheral_powers", failing)
    rpt = peripheral_growth(rep_from_coords(Coordinates(1.0, 4.0, 0.5)), 64)
    assert rpt.model == "linear"
    with pytest.raises(DomainError, match="outside the float64 range"):
        rpt.gaps
    with pytest.raises(DomainError):
        peripheral_growth(rep_from_coords(Coordinates(*SURFACE_POINT)), 64)


def test_verdict_window_leaves_the_geodesic_draw_fresh():
    """The verdict reads its window from a cache of tuples, and
    random_f2_geodesic still returns a new list on every call."""
    anosov_verdict(Coordinates(1.0, 4.0, 0.5), VerdictConfig(max_len=4, samples=500))
    cached = anosov._verdict_window(10, 0)
    assert cached is anosov._verdict_window(10, 0)
    assert isinstance(cached, tuple)
    first, second = random_f2_geodesic(10, 0), random_f2_geodesic(10, 0)
    assert isinstance(first, list) and first is not second
    assert first == list(cached)
    first.pop()
    assert random_f2_geodesic(10, 0) == list(cached)
    assert len(anosov._verdict_window(10, 0)) == 11


_HUGE = np.full((3, 3), 1e308)
_NILPOTENT = np.diag([1.0, 1.0], k=1)


@pytest.mark.parametrize("p, pinv, message", [
    (np.diag([np.inf, 1.0, 1.0]), np.eye(3), "outside the float64 range"),   # forward, step 1
    (np.eye(3), np.zeros((3, 3)), "degenerate"),                             # inverse, step 1
    (np.zeros((3, 3)), np.diag([np.inf, 1.0, 1.0]), "degenerate"),  # both, step 1: forward
    (_NILPOTENT, _HUGE, "outside the float64 range"),          # inverse at step 2, forward at 3
    (_NILPOTENT, np.eye(3), "degenerate"),                                    # forward, step 3
], ids=["forward-inf", "inverse-zero", "both-forward-first", "inverse-before-forward",
        "forward-step-3"])
def test_peripheral_powers_errors_match_unstacked_loop(p, pinv, message):
    """The first failure in (step, forward/inverse) order raises the
    loop's error, with no row and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message) as got:
            anosov._peripheral_powers(FIsometry(p, pinv), 8)
    with np.errstate(all="ignore"), pytest.raises(DomainError) as want:
        _reference_peripheral_powers(p, 0.0, pinv, 0.0, 8)
    assert str(got.value) == str(want.value)
    assert got.value.row is None and want.value.row is None


def _count_sequences(monkeypatch):
    """The number of midpoint sequences formed since the call, as a list
    whose length grows by one with each."""
    calls = []
    local = anosov._local_midpoints
    monkeypatch.setattr(anosov, "_local_midpoints",
                        lambda *args: calls.append(args) or local(*args))
    return calls


def test_morse_reuses_the_callers_midpoint_sequence(monkeypatch):
    """Morse after midpoint_sequence on the same representation and window
    forms no second sequence, and reports what it reports on a fresh
    representation; another window forms its own."""
    point, window = (1.0, 4.0, 0.5), random_f2_geodesic(10, seed=0)
    fresh = _morse_outcome(
        lambda: morse_flat_check(rep_from_coords(Coordinates(*point)), window, THETA_INTERVAL))
    rep = rep_from_coords(Coordinates(*point))
    calls = _count_sequences(monkeypatch)
    seq = midpoint_sequence(rep, window)
    assert len(calls) == 1
    assert _morse_outcome(lambda: morse_flat_check(rep, window, THETA_INTERVAL)) == fresh
    assert len(calls) == 1
    again = midpoint_sequence(rep, window)
    assert again is not seq and again.steps is seq.steps and again.rep is rep
    other = midpoint_sequence(rep, random_f2_geodesic(10, seed=1))
    assert len(calls) == 2 and other.words != seq.words


def test_raising_window_is_not_memoized(monkeypatch):
    """A window whose sequence raises leaves the last good one memoized,
    and raises the same error, at the same row, when asked again."""
    rep = rep_from_coords(Coordinates(1.0, 4.0, 0.5))
    good = random_f2_geodesic(10, seed=0)
    # equal neighbours: step 1 is the identity, its midpoint coincides with x
    bad = [F2Word(()), F2Word((0,)), F2Word((0,)), F2Word((0, 0))]
    midpoint_sequence(rep, good)
    calls = _count_sequences(monkeypatch)
    errors = []
    for _ in range(2):
        with pytest.raises(DomainError, match="coincident points") as exc:
            midpoint_sequence(rep, bad)
        errors.append((str(exc.value), exc.value.row))
    assert errors == [("segment undefined for coincident points", 1)] * 2
    ran = len(calls)
    assert ran >= 2
    midpoint_sequence(rep, good)
    assert len(calls) == ran


def test_representation_holds_no_window():
    rep = rep_from_coords(Coordinates(1.0, 4.0, 0.5))
    midpoint_sequence(rep, random_f2_geodesic(10, seed=0))
    assert not hasattr(rep, "_last_window")


def test_window_memo_lets_a_dropped_representation_go():
    """The memo holds one window: a representation its caller dropped is
    collected once a window is built on another."""
    window = random_f2_geodesic(10, seed=0)
    rep = rep_from_coords(Coordinates(1.0, 4.0, 0.5))
    midpoint_sequence(rep, window)
    dropped = weakref.ref(rep)
    del rep
    midpoint_sequence(rep_from_coords(Coordinates(2.0, 1.0, 0.5)), window)
    gc.collect()
    assert dropped() is None


def test_morse_flat_check_far_point():
    rep = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    rpt = morse_flat_check(rep, random_f2_geodesic(12, seed=0), THETA_INTERVAL)
    seq_spacing = straightness_report(
        midpoint_sequence(rep, random_f2_geodesic(12, seed=0)), THETA_INTERVAL
    ).min_spacing
    assert rpt.max_distance < 0.05 * seq_spacing
    assert rpt.monotone


def test_morse_flat_check_cyclic_constant_distances():
    rep = rep_from_coords(Coordinates(1.0, 6.0, 0.5))
    rpt = morse_flat_check(rep, [F2Word((G1,) * n) for n in range(13)], THETA_INTERVAL)
    interior = rpt.distances[1:-1]
    assert max(interior) - min(interior) < 1e-6


def test_morse_flat_check_near_fuchsian_flagged():
    rep = rep_from_coords(Coordinates(0.0, 0.4, 0.0))
    try:
        rpt = morse_flat_check(rep, random_f2_geodesic(8, seed=2), THETA_INTERVAL)
    except (OppositionError, RegularityError):
        return
    assert rpt.max_distance > 0.01 or not rpt.monotone


def test_verdict_anchors():
    assert anosov_verdict(Coordinates(1.0, 6.0, 0.5)).verdict == anosov.EVIDENCE_ANOSOV
    t = float(schwartz_t(1.0, 0.5))
    assert anosov_verdict(Coordinates(1.0, t, 0.5)).verdict == anosov.EVIDENCE_DEGENERATE
    low = anosov_verdict(Coordinates(0.5, 0.2, 0.4))
    assert low.verdict in (anosov.EVIDENCE_DEGENERATE, anosov.INCONCLUSIVE)


def test_verdict_deterministic():
    cfg = VerdictConfig(max_len=8, samples=5000, window=8, peripheral_n=32, seed=9)
    v1 = anosov_verdict(Coordinates(1.0, 5.0, 0.8), cfg)
    v2 = anosov_verdict(Coordinates(1.0, 5.0, 0.8), cfg)
    assert v1.verdict == v2.verdict
    assert v1.stats == v2.stats

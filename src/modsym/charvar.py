"""Representations of <a, b | a^2 = b^3 = 1> into the isometry group,
built from character coordinates; trace identities; the tr = -1 surface;
Fuchsian classification and reducibility.

A representation sends ``a`` to the inversion fixing a point ``x`` and
``b`` to the rotation of angle 2 pi / 3 about the first axis.  The
character is determined by the coordinates (s, t, theta): ``s`` and ``t``
are the fiber and base exponent parameters of ``x`` in the cylindrical
chart (gauge-fixed to r = 0, beta = 0, alpha = theta / 2), and theta
lives in [0, pi).

Word matrices are evaluated in extended precision from closed-form
generator matrices (no runtime inversion), so the trace identities hold
to ~1e-10 absolute even where the entries reach 1e10.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .errors import DomainError, ParityError, PreconditionError
from .factored import FIsometry, fcompose, fstack
from .flats import ParallelCoords, coords_from_point
from .modgroup import _F2_SUBSTITUTION, F2Word, ModWord, normalize, parity_abelianization
from .symspace import Isometry, Point, compose, inversion_at, rotation

BABA = normalize("baba")
ABAB = normalize("aBaB")  # (baba)^{-1}
B2ABA = normalize("Baba")
WORD_ABA = normalize("aba")
WORD_ABA_INV = normalize("aBa")

# rho(b), the rotation by 2 pi / 3 about the first axis: its float64 and
# extended-precision matrices, its isometry and its factored letters
_R = rotation(2.0 * np.pi / 3.0)
_R_LD = rotation(2.0 * np.pi / 3.0, dtype=np.longdouble)
_R.flags.writeable = _R_LD.flags.writeable = False
_ROT = Isometry(_R)
_FR, _FR2 = FIsometry.from_pair(_R, _R.T), FIsometry.from_pair(_R.T, _R)

TYPE_I = "typeI"
TYPE_II = "typeII"
BOTH_FIXED_POINT = "both"
NON_FUCHSIAN = "non-fuchsian"


@dataclass(frozen=True)
class Coordinates:
    """Character coordinates (s, t, theta): finite, with s, t >= 0; theta
    is reduced to [0, pi)."""

    s: float
    t: float
    theta: float

    def __post_init__(self):
        if not np.isfinite([self.s, self.t, self.theta]).all():
            raise ValueError("s, t and theta must be finite")
        if not (self.s >= 0.0 and self.t >= 0.0):
            raise ValueError("s and t must be nonnegative")
        object.__setattr__(self, "theta", float(self.theta) % float(np.pi))


def _halfangle_blocks(s, t, alpha, dtype):
    """Closed-form pieces of x = S W S: S = exp(t p1) diagonal and
    W = exp(2 s R_alpha f1 R_{-alpha}) by the rank-two power identity.

    Broadcasts over coordinate arrays (a scalar is shape ()), each factor
    on the axes of the coordinate it depends on: S and S^{-1} are
    (..., 3, 3) stacks on t's shape, ``expw(factor)`` on the broadcast
    shape of s and alpha.  Each entry is computed by the same operations,
    in the same order, as for one point, so on an open grid
    (``np.ix_``) every transcendental runs once per axis value.
    """
    s, t, alpha = dtype(s), dtype(t), dtype(alpha)
    one = dtype(1.0)
    S = np.zeros(t.shape + (3, 3), dtype=dtype)
    Si = np.zeros(t.shape + (3, 3), dtype=dtype)
    S[..., 0, 0] = Si[..., 0, 0] = one
    S[..., 1, 1] = Si[..., 2, 2] = np.exp(t / 2)
    S[..., 2, 2] = Si[..., 1, 1] = np.exp(-t / 2)
    wt = np.zeros(alpha.shape + (3, 3), dtype=dtype)
    wt[..., 0, 1] = wt[..., 1, 0] = np.cos(alpha)
    wt[..., 0, 2] = wt[..., 2, 0] = np.sin(alpha)
    wt2 = wt @ wt
    eye = np.eye(3, dtype=dtype)

    def expw(factor):
        sh = np.sinh(factor * s)[..., None, None]
        ch = (np.cosh(factor * s) - one)[..., None, None]
        return eye + sh * wt + ch * wt2

    return S, Si, expw


def generators_at(s, t, theta):
    """Extended-precision x and x^{-1} at coordinates (s, t, theta), both
    in closed form: no matrix is inverted at runtime.

    Broadcasts over coordinate arrays into (..., 3, 3) stacks.  theta is
    reduced mod pi as :class:`Coordinates` reduces it.
    """
    alpha = np.remainder(theta, np.pi) / 2.0
    S, Si, expw = _halfangle_blocks(s, t, alpha, np.longdouble)
    return S @ expw(2.0) @ S, Si @ expw(-2.0) @ Si


class Representation:
    """a -> inversion at x, b -> rotation by 2 pi / 3.

    The fixed point is kept in factored form so that orbit computations
    remain meaningful at any coordinate scale; the explicit ``x`` Point
    (and the inversion ``rho_a``) are available whenever the eigenvalue
    range of ``x`` fits in double precision.  ``x_ld`` is the pair
    (x, x^{-1}) in extended precision, which ``matrix_of`` folds.
    """

    def __init__(self, coords: Coordinates | None, fx: FIsometry, x_pair: FIsometry,
                 x_ld: tuple[np.ndarray, np.ndarray]):
        self.coords = coords
        self.fx = fx
        self.rot = _ROT
        # the letter tables, factored and in extended precision: "a"
        # holds x as a linear map and its contragredient; _letter_picks
        # carries rho(a)'s orientation
        self._letters = _letter_table(
            x_pair, FIsometry(x_pair.matinv.T, x_pair.mat.T, x_pair.lmi, x_pair.lm), _FR, _FR2)
        self._letters_ld = _letter_table(*x_ld, _R_LD, _R_LD.T)
        self._f2_table: FIsometry | None = None
        self._f2_gens: FIsometry | None = None

    @cached_property
    def x(self) -> Point:
        return self.fx.to_point()

    @cached_property
    def rho_a(self) -> Isometry:
        return inversion_at(self.x)

    def f2_generators(self) -> FIsometry:
        """Factored isometries of the four free generators of the
        index-six subgroup, as one read-only stack in letter order: the
        first four rows of ``_f2_table``, whose fifth row is the identity
        letter that ``_f2_fold`` pads shorter words with.  ``_f2_tables``
        builds both, for one representation or a block of them."""
        if self._f2_gens is None:
            _f2_tables([self])
        return self._f2_gens

    def validate(self, tol: float = 1e-10) -> bool:
        """Relator check: rho(a)^2 = rho(b)^3 = identity."""
        a2 = compose(self.rho_a, self.rho_a)
        b3 = compose(self.rot, compose(self.rot, self.rot))
        return a2.is_identity(tol) and b3.is_identity(tol)


def rep_from_coords(c: Coordinates) -> Representation:
    """Build the gauge-fixed representation: r = 0, beta = 0,
    alpha = theta / 2, so that 2 alpha - beta = theta.

    Raises DomainError when the fixed point or the inversion leaves the
    float64 range, from t + 2s of about 710 on."""
    with np.errstate(over="ignore", invalid="ignore"):
        S, Si, expw = _halfangle_blocks(c.s, c.t, c.theta / 2.0, np.float64)
        f, finv = S @ expw(1.0), expw(-1.0) @ Si
        x_mat, x_inv = S @ expw(2.0) @ S, Si @ expw(-2.0) @ Si
    # _rescaled rejects the overflowed (inf or NaN) factors
    fx = FIsometry.from_pair(f, finv)
    return Representation(c, fx, FIsometry.from_pair(x_mat, x_inv),
                          generators_at(c.s, c.t, c.theta))


def rep_from_point(x: Point) -> Representation:
    """Representation with inversion center at an explicit point."""
    xinv = x.inv()
    return Representation(None, FIsometry.from_point(x), FIsometry.from_pair(x.mat, xinv),
                          (x.mat.astype(np.longdouble), xinv.astype(np.longdouble)))


def coords_from_rep(rep: Representation) -> Coordinates:
    """Extract (s, t, theta = 2 alpha - beta mod pi) from the fixed point.

    Requires the gauge-fixed rotation (which every Representation built
    here carries) and a fixed point within double-precision range.
    """
    if not np.allclose(rep.rot.mat, _R, atol=1e-12):
        raise ValueError("representation is not gauge fixed")
    pc: ParallelCoords = coords_from_point(rep.x)
    theta = (2.0 * pc.alpha - pc.beta) % np.pi
    if pc.s <= 1e-12 or pc.t <= 1e-12:
        theta = 0.0
    return Coordinates(s=pc.s, t=pc.t, theta=theta)


def evaluate(rep: Representation, w: ModWord) -> Isometry:
    """Homomorphic extension to normal-form words, as an Isometry."""
    table = {"b": rep.rot, "B": compose(rep.rot, rep.rot)}
    if "a" in w.syllables:
        # the explicit inversion exists only at moderate scales
        table["a"] = rep.rho_a
    return reduce(compose, (table[syll] for syll in w.syllables), Isometry.identity())


def _f2_tables(reps: Sequence[Representation]) -> FIsometry:
    """The F2 tables of ``reps`` as one read-only (5, P) stack, letter
    axis first: row k < 4 holds each rep's k-th free generator, row 4 the
    identity letter that ``_f2_fold`` pads shorter words with.  Each rep
    keeps its column as its table, bit for bit the table it would build
    alone.  The four generator words have four letters each: they fold
    position by position, each position's letters of every word and rep
    as one stack."""
    columns = zip(*(_letter_picks(rep._letters, _F2_SUBSTITUTION[k])
                    for k in range(4) for rep in reps))
    gens = reduce(fcompose, map(fstack, columns), FIsometry.identity())
    flat = fstack([*gens, *[FIsometry.identity()] * len(reps)])
    table = FIsometry(*(a.reshape((5, len(reps)) + a.shape[1:])
                        for a in (flat.mat, flat.matinv, flat.lm, flat.lmi)))
    for a in (table.mat, table.matinv, table.lm, table.lmi):
        a.flags.writeable = False
    for j, rep in enumerate(reps):
        rep._f2_table, rep._f2_gens = table[:, j], table[:4, j]
    return table


def f2_fisometries(rep: Representation, words: Sequence[F2Word]) -> FIsometry:
    """The factored isometries of the words, as one stack with read-only
    factors (``_f2_fold`` over the representation's table)."""
    rep.f2_generators()  # builds the table once per representation
    return _f2_fold(rep._f2_table, words)


def _f2_fold(table: FIsometry, words: Sequence[F2Word]) -> FIsometry:
    """The words folded over an F2 table of ``_f2_tables``, one stack entry
    per word, each followed by the table's trailing stack axes.  The words
    are folded together letter by letter from the left, starting at the
    identity, one ``fcompose`` per letter column; a shorter word is padded
    with the identity letter (index 4 of the table), which changes
    nothing: I M is M, and its max |entry| is 1.  So each entry is its own
    fold by ``fcompose`` bit for bit."""
    letters = np.full((len(words), max(map(len, words), default=0)), 4)
    for row, w in zip(letters, words):
        row[:len(w)] = w.letters
    out = reduce(fcompose, map(table.__getitem__, letters.T), table[np.full(len(words), 4)])
    out.mat.flags.writeable = out.matinv.flags.writeable = False
    return out


def f2_fisometry(rep: Representation, w: F2Word) -> FIsometry:
    return f2_fisometries(rep, [w])[0]


def _letter_picks(table, syllables):
    """The generator each syllable of a word contributes, in order.  The
    table maps each syllable to its (plain, starred) generators, the
    starred one being the closed-form contragredient; a pending
    orientation reversal (an odd number of ``a`` so far) picks the
    contragredient.  Outside the explicit reference ``evaluate``, the
    orientation of rho(a) lives only here."""
    reversed_state = False
    for syll in syllables:
        plain, starred = table[syll]
        yield starred if reversed_state else plain
        reversed_state ^= syll == "a"


def _fold(table, syllables, one):
    """Fold ``syllables`` left to right over ``table`` with ``@``, starting
    at ``one``: the reduce of their ``_letter_picks``.

    ``matrix_of`` and ``matrices_at`` fold extended-precision matrices,
    any leading stack axes being the table's.
    ``_f2_tables`` reduces the same picks of the four generator words
    with ``fcompose``, side by side as one stack per letter position."""
    return reduce(operator.matmul, _letter_picks(table, syllables), one)


def _letter_table(x, xstar, r, r2) -> dict:
    """(plain, starred) generators; a rotation is its own contragredient."""
    return {"a": (x, xstar), "b": (r, r), "B": (r2, r2)}


def _even_word(w) -> ModWord:
    if isinstance(w, str):
        w = normalize(w)
    if parity_abelianization(w)[0] != 0:
        raise ParityError(f"word {w} is orientation reversing; no matrix in the group")
    return w


def matrix_of(rep: Representation, w) -> np.ndarray:
    """Matrix of an even word (an element of the index-two subgroup),
    folded from closed-form generator matrices.  Returned in extended
    precision.

    Raises ParityError on words with odd inversion count.
    """
    return _fold(rep._letters_ld, _even_word(w).syllables, np.eye(3, dtype=np.longdouble))


def matrices_at(s, t, theta, w) -> np.ndarray:
    """:func:`matrix_of` at every point of coordinate arrays, as a
    (..., 3, 3) extended-precision stack; each matrix is bit for bit the
    one ``matrix_of(rep_from_coords(Coordinates(s, t, theta)), w)`` gives.
    A word without ``a`` does not depend on the point and gives one 3x3
    matrix.

    Raises ParityError on words with odd inversion count.
    """
    return _fold(_letter_table(*generators_at(s, t, theta), _R_LD, _R_LD.T),
                 _even_word(w).syllables, np.eye(3, dtype=np.longdouble))


def _as_double(x, what: str) -> np.ndarray:
    """float64 copy of an extended-precision value or matrix.  Raises
    DomainError when it does not fit the float64 range."""
    with np.errstate(over="ignore"):
        out = np.asarray(x, dtype=float)
    if not np.isfinite(out).all():
        raise DomainError(f"{what} is outside the float64 range")
    return out


def trace_of_word(rep: Representation, w) -> float:
    """Trace of an even word's matrix as a float.  Raises DomainError when
    it does not fit the float64 range."""
    return float(_as_double(np.trace(matrix_of(rep, w)), f"trace of {w}"))


def trace_baba_closed_form(c: Coordinates | None = None, s=None, t=None, theta=None):
    """Closed-form trace of the peripheral element baba:

        -(3/2) cosh(2s) cosh(2t) + (9/4) cosh^2(2s) - 3/4
            - 3 sin^2(theta) sinh^4(s) sinh^2(t)

    Evaluated in extended precision (the terms cancel heavily at large
    s, t).  Accepts a Coordinates or the three values; the values may be
    arrays, evaluated elementwise, and scalars give a scalar.
    """
    if c is not None:
        s, t, theta = c.s, c.t, c.theta
    ld = np.longdouble
    s, t, theta = ld(s), ld(t), ld(theta)
    return (
        -ld(1.5) * np.cosh(2 * s) * np.cosh(2 * t)
        + ld(2.25) * np.cosh(2 * s) ** 2
        - ld(0.75)
        - 3 * np.sin(theta) ** 2 * np.sinh(s) ** 4 * np.sinh(t) ** 2
    )


def schwartz_t(s, theta):
    """The unique t >= 0 with trace(baba) = -1 at given (s, theta):

        cosh(2t) = (9 cosh^2(2s) + 1 + 6 sin^2(theta) sinh^4(s))
                   / (6 (cosh(2s) + sin^2(theta) sinh^4(s)))

    The right side minus one is (3 cosh(2s) - 1)^2 / (6 (cosh(2s) + sin^2(theta)
    sinh^4(s))) >= 2/3, so t exists everywhere and is at least log(3) / 2.

    Returns extended precision so the defining identity holds to ~1e-14
    when fed back into the closed form.  Arrays are evaluated elementwise;
    scalars give a scalar.  Where the entries overflow the result is NaN
    or inf, which callers check.
    """
    ld = np.longdouble
    s, theta = ld(s), ld(theta)
    q = np.sin(theta) ** 2 * np.sinh(s) ** 4
    rhs = (9 * np.cosh(2 * s) ** 2 + 1 + 6 * q) / (6 * (np.cosh(2 * s) + q))
    return np.arccosh(rhs) / 2


@dataclass(frozen=True)
class TraceReport:
    word: ModWord
    numeric_trace: float
    closed_form: float | None = None
    residual: float | None = None

    def __post_init__(self):
        if self.closed_form is not None:
            object.__setattr__(
                self, "residual", abs(self.numeric_trace - self.closed_form)
            )


def trace_symmetry_check(rep: Representation) -> TraceReport:
    """tr(rho(baba)) versus tr(rho(baba)^{-1}); the two agree for every
    representation in this family."""
    tr = trace_of_word(rep, BABA)
    tr_inv = trace_of_word(rep, ABAB)
    return TraceReport(word=BABA, numeric_trace=tr, closed_form=tr_inv)


def fuchsian_classify(c: Coordinates, tol: float = 1e-9) -> str:
    """s = 0 detects type I, t = 0 type II, both the global fixed point."""
    s_zero = c.s <= tol
    t_zero = c.t <= tol
    if s_zero and t_zero:
        return BOTH_FIXED_POINT
    if s_zero:
        return TYPE_I
    if t_zero:
        return TYPE_II
    return NON_FUCHSIAN


# Unit eigenvectors of rho(b), the rotation by 2 pi / 3 about e1: e1, and
# (0, 1, i) / sqrt(2) for exp(-2 pi i / 3).  A real matrix fixes the line of
# (0, 1, i) exactly when it fixes the conjugate line, of exp(2 pi i / 3).
_B_EIGENVECTORS = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0j]]) / np.sqrt([[1.0], [2.0]])


def is_reducible(rep: Representation, tol: float = 1e-7) -> bool:
    """True when the even subgroup has an invariant line or plane.

    The even subgroup is generated by b and aba.  The eigenvalues of
    rho(b) are distinct, so an invariant line is an eigenline of rho(b)
    that rho(aba) fixes, and an invariant plane is the kernel of one that
    the contragredient rho(aba)^{-T} = rho(aBa)^T fixes (rho(b) is its own
    contragredient).  A line counts as fixed when |m v x v| <= tol |m v|
    for its unit vector v; that does not change when m v is scaled, so
    each matrix and image is first scaled to largest entry 1 and no norm
    overflows.  Raises DomainError when the matrices leave float64.
    """
    aba = _as_double(matrix_of(rep, WORD_ABA), "matrix of aba")
    aba_inv = _as_double(matrix_of(rep, WORD_ABA_INV), "matrix of aBa")
    mats = np.stack([aba.T, aba_inv])
    images = _B_EIGENVECTORS @ (mats / np.abs(mats).max(axis=(1, 2), keepdims=True))
    images /= np.abs(images).max(axis=-1, keepdims=True)  # rho(aba) v, rho(aba)^{-T} v
    cross = np.linalg.norm(np.cross(images, _B_EIGENVECTORS), axis=-1)
    return bool((cross <= tol * np.linalg.norm(images, axis=-1)).any())


# Observed one-sided bound for tr(rho(b^2 a b a)) on the tr(baba) = -1
# surface in this determinant-one convention: |trace| >= 4, with equality
# exactly at the Fuchsian point s = 0.
B2ABA_TRACE_BOUND = 4.0
SURFACE_TOL = 1e-8


def trace_b2aba_bound_check(rep: Representation) -> TraceReport:
    """Properness check on the surface: |tr(rho(b^2 a b a))| >= 4 - 1e-6.

    Precondition: the representation lies on the tr(baba) = -1 surface
    within 1e-8.  Raises DomainError if the bound fails (it cannot, for
    surface representations).
    """
    tr_baba = trace_of_word(rep, BABA)
    if abs(tr_baba + 1.0) > SURFACE_TOL:
        raise PreconditionError(
            f"representation is off the surface: tr(baba) = {tr_baba!r}"
        )
    tr = trace_of_word(rep, B2ABA)
    if abs(tr) < B2ABA_TRACE_BOUND - 1e-6:
        raise DomainError(f"surface trace bound violated: tr(b2aba) = {tr!r}")
    return TraceReport(word=B2ABA, numeric_trace=tr)

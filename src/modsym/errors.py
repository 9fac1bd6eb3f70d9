"""Exception types shared across the package."""

import numpy as np


class GeometryError(Exception):
    """Base class for all numerical-geometry errors raised by modsym.

    ``row`` is set by a call on stacked inputs: the index, along the first
    stack axis, of the entry whose error a loop would meet first, found by
    ``raise_first`` within a check and by ``_row_major`` across checks."""

    row: int | None = None


class DomainError(GeometryError):
    """Input lies outside the mathematical domain of the operation
    (non positive definite matrix, singular matrix, zero vector, ...)."""


class ConditioningError(GeometryError):
    """Input is too ill-conditioned to be processed reliably
    (eigenvalue ratio beyond the supported range)."""


class RegularityError(GeometryError):
    """A segment or direction is too close to a singular direction
    (chamber-angle wall or eigenvalue tie) for the requested operation."""


class OppositionError(GeometryError):
    """Two flags are not in general position, so no joining flat exists."""


class ParityError(GeometryError):
    """A word with odd inversion count was passed where an
    orientation-preserving element is required."""


class PreconditionError(GeometryError):
    """A documented precondition of the operation does not hold."""


class DegenerateTriangleError(GeometryError):
    """The orbit triangle collapses to a point (global fixed point)."""


class ConvergenceError(GeometryError):
    """An iterative solver failed to reach its tolerance.

    Carries diagnostics: number of iterations and the final gradient norm.
    """

    def __init__(self, message, iterations=None, grad_norm=None):
        super().__init__(message)
        self.iterations = iterations
        self.grad_norm = grad_norm


def raise_first(checks) -> None:
    """Raise the error of the first entry of a stack that fails a check;
    return if no entry fails one.

    ``checks`` lists ``(failed, error)`` pairs in the order an unstacked
    call makes them: ``failed`` is a boolean array over the leading stack
    axes (0-d for an unstacked call, read without a numpy reduction), and
    ``error(index)`` builds the exception of the entry at ``index``.  The
    first entry in C order that fails any check raises the error of the
    first check it fails, with ``row`` set to the entry's index along the
    first stack axis.
    """
    if not any(np.count_nonzero(f) if f.ndim else f for f, _ in checks):
        return
    failed = np.stack([f for f, _ in checks], axis=-1)
    flat = failed.reshape(-1, len(checks))
    entry = int(np.flatnonzero(flat.any(axis=1))[0])
    index = tuple(int(k) for k in np.unravel_index(entry, failed.shape[:-1]))
    exc = checks[int(np.flatnonzero(flat[entry])[0])][1](index)
    if index:
        exc.row = index[0]
    raise exc


def _row_major(run, rows: int):
    """``run(rows)``, where ``run(n)`` makes one stacked pass over the first
    n rows of a loop whose rows are independent.  The pass meets its stages
    in turn, where the loop would meet its rows in turn: when a stage fails
    at row r, the rows before r may fail a later stage, and the loop would
    raise that first.  So they run again, and the row-r error stands only
    if they pass."""
    try:
        return run(rows)
    except GeometryError as exc:
        error = exc
    if error.row:
        _row_major(run, error.row)
    raise error

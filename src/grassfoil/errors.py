"""Exception hierarchy shared across the package.

Everything raised deliberately by this package derives from
:class:`GrassfoilError`, so callers (and the CLI) can catch one type.
:func:`integer_argument` and :func:`array_argument` turn a bad argument
into such an error; :func:`in_order` finds the first faulty item of a stack
and sets the error's ``shape_index`` to the item's position.
"""
from __future__ import annotations

import operator

import numpy as np


class GrassfoilError(Exception):
    """Base class for all errors raised by this package; ``shape_index`` is
    the position of the faulty item in the stack the caller passed."""

    def __init__(self, message: str, *, shape_index: int | None = None):
        super().__init__(message)
        self.shape_index = shape_index


class ParameterError(GrassfoilError):
    """An argument value violates an operation's contract."""


class SamplingError(GrassfoilError):
    """Invalid landmark sampling request (e.g. even or too-small count)."""


class DomainError(GrassfoilError):
    """A scalar parameter lies outside its admissible open interval."""


class Gl2ViolationError(GrassfoilError):
    """A 2x2 linear factor is (numerically) rank deficient."""


class DegenerateShapeError(GrassfoilError):
    """Landmarks admit no stable decomposition: numerically collinear, or
    too large to factor without overflow."""


class DimensionError(GrassfoilError):
    """Mismatched or unsupported array dimensions."""


class TangencyError(GrassfoilError):
    """A purported tangent vector is not horizontal at its base point."""


class CutLocusError(GrassfoilError):
    """Endpoint at or beyond the cut locus; the geodesic is not unique.

    Recoverable: distances remain well defined, only Log is refused.
    """

    def __init__(self, message: str, *, max_angle: float | None = None):
        super().__init__(message)
        self.max_angle = max_angle


class IterationLimitError(GrassfoilError):
    """A fixed-point iteration hit its iteration cap before converging;
    ``ratio`` is the last residual over the one before, if there was one."""

    def __init__(self, message: str, *, residual: float, iterations: int,
                 ratio: float | None = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.ratio = ratio


class ConsistencyError(GrassfoilError):
    """Transported quantities failed their invariance check."""


class GenerationError(GrassfoilError):
    """Dataset generation could not produce a valid shape."""


class SpanRangeError(GrassfoilError):
    """Requested span position lies outside the defined blade span."""


class BladeDefinitionError(GrassfoilError):
    """A blade definition is structurally invalid."""


class FileFormatError(GrassfoilError):
    """Base class for file reading/writing failures.

    Carries the offending file when known, and for malformed text the
    1-based line and column; the string form leads with the known parts of
    ``path:line:column``.
    """

    def __init__(self, message: str, *, path=None, line: int | None = None,
                 column: int | None = None):
        super().__init__(message)
        self.path, self.line, self.column = path, line, column

    def __str__(self) -> str:
        where = ":".join(str(part) for part in (self.path, self.line, self.column)
                         if part is not None)
        message = super().__str__()
        return f"{where}: {message}" if where else message


class FileParseError(FileFormatError):
    """Malformed text input at a known line and, when known, column."""


class SchemaError(FileFormatError):
    """Structured file misses a key or holds a malformed value."""


class VersionError(FileFormatError):
    """Structured file declares an unsupported format version."""


class TooFewPointsError(FileFormatError):
    """Coordinate input holds fewer landmarks than the minimum of 3."""


def integer_argument(value, name: str, error: type = ParameterError) -> int:
    """``value`` as an ``int`` through ``operator.index``; a bool, a float
    or any other non-integer raises ``error`` naming the argument."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


def array_argument(value, name: str, error: type = ParameterError):
    """``value`` as a float ``ndarray``, the very object when it is one
    already; a ragged or non-numeric value raises ``error`` naming the
    argument."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged
        arr = None
    if arr is None or arr.dtype.kind not in "biuf":
        raise error(f"{name} must be a rectangular numeric array, got a "
                    f"ragged or non-numeric {type(value).__name__}")
    return arr.astype(float, copy=False)


def in_order(run, count: int, chunk: int) -> None:
    """``run(rows)`` on consecutive ranges of at most ``chunk`` of ``count``
    positions. A range that raises a :class:`GrassfoilError` runs again one
    position at a time, so the first faulty position raises its own error,
    with that position as ``shape_index``; an outer call sets it last."""
    for start in range(0, count, chunk):
        rows = range(start, min(start + chunk, count))
        try:
            run(rows)
            continue
        except GrassfoilError as err:
            fault = err
        for i in rows:
            try:
                run(range(i, i + 1))
            except GrassfoilError as err:
                err.shape_index = i
                raise
        raise fault

"""Exception hierarchy.

Every error raised by this package derives from :class:`PairmixError`, so
callers can catch one base class at API boundaries.  The subclasses split
into two broad families: *input* errors (malformed files, invalid pairs,
shape mismatches) and *numerical* errors (degenerate normalizers, failed
convergence).  The CLI maps the two families onto distinct exit codes.
"""

from __future__ import annotations


class PairmixError(Exception):
    """Base class for all errors raised by pairmix."""


# ---------------------------------------------------------------------------
# input / validation errors


class InvariantViolationError(PairmixError):
    """A value object was constructed or loaded with invalid contents."""


class DimensionMismatchError(PairmixError):
    """A point or matrix has the wrong dimensionality for the model."""


class LengthMismatchError(PairmixError):
    """Two aligned sequences have different lengths."""


class IndexOutOfRangeError(PairmixError):
    """A relation references a point index outside ``[0, n_points)``."""


class SelfPairError(PairmixError):
    """A relation links a point with itself."""


class ConflictingPairError(PairmixError):
    """The same pair appears as both a must-link and a cannot-link."""


class KTooLargeError(PairmixError):
    """More seeds/components requested than the data can support."""


class ExhaustedPairsError(PairmixError):
    """More pairs requested than exist for the requested relation mode."""


class ParseError(PairmixError):
    """A data, relation, or model file could not be parsed."""


class RaggedRowsError(ParseError):
    """Rows of a CSV file have inconsistent column counts."""


class NonNumericFeatureError(ParseError):
    """A feature cell could not be parsed as a number."""


class SchemaMismatchError(ParseError):
    """A document has the wrong structure or an unsupported version."""


# ---------------------------------------------------------------------------
# numerical errors


class NotFiniteError(PairmixError):
    """An input or intermediate value is NaN or infinite."""


class DegenerateNormalizerError(PairmixError):
    """A probability normalizer is zero, so posteriors are undefined."""


class EmptyInputError(PairmixError):
    """An operation that needs at least one element received none."""


class NoConvergenceError(PairmixError):
    """An iterative solver exhausted its step budget without converging."""

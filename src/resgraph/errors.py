"""Exception hierarchy for the resgraph package.

Every domain failure raises a subclass of :class:`ResgraphError`, so callers
(and the CLI) can separate domain errors from genuine bugs or I/O problems.
"""


class ResgraphError(Exception):
    """Base class for all domain errors raised by this package."""


class NonSquareError(ResgraphError):
    """A square matrix was required."""


class NonSymmetricError(ResgraphError):
    """A symmetric matrix was required."""


class UnsupportedIndexError(ResgraphError):
    """Requested family/index outside the generated range (e.g. E5, D3)."""


class NotCoprimeError(ResgraphError):
    """Continued fraction parameters must be coprime."""


class GraphFormatError(ResgraphError):
    """Graph (or surface/strata) data violates the JSON contract."""


class NotAForestError(ResgraphError):
    """The configuration graph has a cycle or a multiple edge, so the
    vanishing of the curve's first coherent cohomology cannot be certified
    from its shape."""


class EmptyInputError(ResgraphError):
    """A nonempty collection was required."""


class DivisibilityViolationError(ResgraphError):
    """Some degree gcd d_j does not divide an intersection number in its
    column, so the rescaled lattice map is not integral."""


class NotNegativeDefiniteError(ResgraphError):
    """The intersection matrix is not negative definite; finiteness of the
    class group is not certified."""


class NotConnectedError(ResgraphError):
    """A connected (nonempty) exceptional configuration was required."""


class EllNotCoprimeError(ResgraphError):
    """The coefficient prime divides a degree gcd or a residue degree, so
    the unit argument identifying the two cokernels fails."""


class ValidationFailedError(ResgraphError):
    """A graph failed validation.  Carries the full report, and the point id
    when raised while assembling a surface-level verdict."""

    def __init__(self, report, point_id: str | None = None):
        self.report = report
        self.point_id = point_id
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        where = f" at point {point_id!r}" if point_id is not None else ""
        super().__init__(f"validation failed{where}: {failed or 'unknown check'}")

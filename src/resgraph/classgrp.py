"""Divisor class groups of rational surface singularities from their
resolution dual graphs.

The divisor lattice spanned by the exceptional components maps to its dual
by pairing against each component and rescaling the j-th dual coordinate by
the degree gcd d_j.  The cokernel of that map is finite exactly when the
intersection matrix is negative definite, which the computation insists on.
It is the class group of the singularity only when the singularity is
rational (Lipman 1969), and ``validate`` checks only necessary conditions
for that: the minimal good resolution of x^2 + y^3 + z^7 (centre -1; arms
-2, -3, -7) passes them, yet its cokernel 0 is not its class group.

Every cokernel a route reads, of theta or of the intersection matrix A,
comes gated and order-checked from ``_cokernel``, every l-part from ``_ell_part``.
"""

from __future__ import annotations

from math import prod

from .dualgraph import DualGraph, _analyse, _dense, _ell_failures, _indivisible, _rows
from .errors import (
    DivisibilityViolationError,
    EllNotCoprimeError,
    NotNegativeDefiniteError,
)
from .exactlat import (
    FgAbGroup,
    IntMatrix,
    LModule,
    Value,
    _require_prime,
    cokernel,
    ell_primary,
)


class ThetaMatrix(Value):
    """Matrix of the rescaled pairing map from the divisor lattice to its
    dual: entry (j, i) is (E_i, E_j) / d_j, an exact integer (row j is row j
    of the intersection matrix divided by d_j).  Kept with the graph it
    came from."""

    def __init__(self, matrix: IntMatrix, graph: DualGraph):
        super().__init__(matrix=matrix, graph=graph)


def theta_matrix(g: DualGraph) -> ThetaMatrix:
    """Build the rescaled pairing matrix, verifying integrality but not definiteness: raises
    DivisibilityViolationError if some d_j fails to divide an intersection number in its column."""
    rows = _rows(g)
    _require_divisible(g, _indivisible(g, rows))
    return ThetaMatrix(matrix=_dense(rows, [v.d for v in g.vertices]), graph=g)


def _require_divisible(g: DualGraph, indivisible: list[tuple[int, int, int]]) -> None:
    if indivisible:
        j, i, x = indivisible[0]
        v = g.vertices[j]
        raise DivisibilityViolationError(
            f"d={v.d} of vertex {v.id!r} does not divide "
            f"({g.vertices[i].id!r},{v.id!r}) = {x}")


def class_group(g: DualGraph) -> FgAbGroup:
    """Divisor class group of the singularity with exceptional graph ``g``, if
    it is rational (see above): the dual lattice modulo the image of the
    rescaled pairing map.

    Finiteness is gated on negative definiteness of the intersection matrix
    (which also implies the map is injective), so the result never has free
    rank.  Raises DivisibilityViolationError, then NotNegativeDefiniteError.
    """
    _require_divisible(g, _analyse(g).indivisible)
    return _cokernel(g, [v.d for v in g.vertices])


def _cokernel(g: DualGraph, divisors: list[int]) -> FgAbGroup:
    """Cokernel of A, the intersection matrix of ``g``, with row j divided by ``divisors[j]``.
    Raises NotNegativeDefiniteError unless A is negative definite, and RuntimeError (a bug, not
    a domain error) unless the order is |det A| / prod(divisors), as the pivots of A predict."""
    det = _analyse(g).det
    if det is None:
        raise NotNegativeDefiniteError(
            f"intersection matrix of {g.name!r} is not negative definite")
    group = cokernel(_dense(_rows(g), divisors))
    order = det // prod(divisors)
    if group.order() != order:
        raise RuntimeError(f"cokernel for {g.name!r} has order {group.order()}, but the pivots give {order}")
    return group


def _ell_part(group: FgAbGroup, ell: int) -> LModule:
    """The l-primary part of ``group`` twisted by +1: how every route reads
    a class group (or the cokernel of the intersection matrix) as degree-2
    homology."""
    return ell_primary(group, ell).twisted(1)


def class_group_ell(g: DualGraph, ell: int) -> LModule:
    """l-adic realization of the class group: its l-primary part, twisted
    by +1 so the value reads as the degree-2 homology of the singularity.

    Raises ValueError unless ell is prime, then EllNotCoprimeError when ell
    divides a degree gcd or a residue degree, since then the unit argument
    behind the identification fails.
    """
    _require_prime(ell)
    failures = _ell_failures(g, ell)
    if failures:
        text, v = failures[0]
        raise EllNotCoprimeError(f"{text} of vertex {v.id!r}")
    return _ell_part(class_group(g), ell)

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
"""

from __future__ import annotations

from math import prod

from .dualgraph import DualGraph, _Analysis, _analyse, _dense, _ell_failures, _indivisible, _rows
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
    return ThetaMatrix(matrix=_theta(g, _rows(g)), graph=g)


def _theta(g: DualGraph, rows: list[dict[int, int]]) -> IntMatrix:
    """theta filled straight from ``rows``, the rows of the intersection matrix of ``g``."""
    indivisible = _indivisible(g, rows)
    if indivisible:
        j, i, x = indivisible[0]
        v = g.vertices[j]
        raise DivisibilityViolationError(
            f"d={v.d} of vertex {v.id!r} does not divide "
            f"({g.vertices[i].id!r},{v.id!r}) = {x}")
    return _dense(rows, [v.d for v in g.vertices])


def class_group(g: DualGraph) -> FgAbGroup:
    """Divisor class group of the singularity with exceptional graph ``g``, if
    it is rational (see above): the dual lattice modulo the image of the
    rescaled pairing map.

    Finiteness is gated on negative definiteness of the intersection matrix
    (which also implies the map is injective), so the result never has free
    rank.  Raises NotNegativeDefiniteError otherwise.
    """
    return _class_group(g, _analyse(g))


def _class_group(g: DualGraph, a: _Analysis) -> FgAbGroup:
    if not a.indivisible:  # else _theta raises: divisibility is the first gate
        _require_definite(g, a)
    return _checked_order(cokernel(_theta(g, _rows(g))), a.det // prod(v.d for v in g.vertices), g)


def _checked_order(group: FgAbGroup, order: int, g: DualGraph) -> FgAbGroup:
    """``group``, once its order is seen to be ``order``, as the pivots of ``g`` predict."""
    if group.order() != order:  # a bug, not a domain error
        raise RuntimeError(f"cokernel for {g.name!r} has order {group.order()}, but the pivots give {order}")
    return group


def _require_definite(g: DualGraph, a: _Analysis) -> None:
    if a.det is None:
        raise NotNegativeDefiniteError(
            f"intersection matrix of {g.name!r} is not negative definite")


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
    return _ell_part(_class_group(g, _analyse(g)), ell)

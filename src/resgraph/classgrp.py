"""Divisor class groups of rational surface singularities from their
resolution dual graphs.

The divisor lattice spanned by the exceptional components maps to its dual
by pairing against each component and rescaling the j-th dual coordinate by
the degree gcd d_j.  The class group of the singularity is the cokernel of
that map; it is finite exactly when the intersection matrix is negative
definite, which the computation insists on.  The l-adic realization keeps
the l-primary part and tags it with a Tate twist of +1, so downstream
profiles can list the degree-2 homology of the singularity directly.
"""

from __future__ import annotations

import operator

from .dualgraph import DualGraph, intersection_matrix
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
    cokernel,
    ell_primary,
    is_negative_definite,
)


class ThetaMatrix(Value):
    """Matrix of the rescaled pairing map from the divisor lattice to its
    dual: entry (j, i) is (E_i, E_j) / d_j, an exact integer (row j is row j
    of the intersection matrix divided by d_j).  Kept with the graph it
    came from."""

    def __init__(self, matrix: IntMatrix, graph: DualGraph):
        super().__init__(matrix=matrix, graph=graph)


def theta_matrix(g: DualGraph) -> ThetaMatrix:
    """Build the rescaled pairing matrix, verifying integrality.

    Raises DivisibilityViolationError if some d_j fails to divide an
    intersection number in its column.
    """
    return _theta_from(g, intersection_matrix(g))


def _theta_from(g: DualGraph, inter: IntMatrix) -> ThetaMatrix:
    # theta equals the symmetric inter in the rows where d_j = 1 and shares them; a float d fails operator.index
    scaled = [(j, v) for j, v in enumerate(g.vertices) if type(v.d) is not int or v.d != 1]
    for j, v in scaled:
        for i, pairing in enumerate(inter.entries[j]):
            if pairing % v.d != 0:
                raise DivisibilityViolationError(
                    f"d={v.d} of vertex {v.id!r} does not divide "
                    f"({g.vertices[i].id!r},{v.id!r}) = {pairing}")
    rows = list(inter.entries)
    for j, v in scaled:
        rows[j] = tuple(map(operator.index, (x // v.d for x in rows[j])))
    return ThetaMatrix(matrix=IntMatrix(g.n, g.n, tuple(rows)), graph=g)


def class_group(g: DualGraph) -> FgAbGroup:
    """Divisor class group of the singularity with exceptional graph ``g``:
    the dual lattice modulo the image of the rescaled pairing map.

    Finiteness is gated on negative definiteness of the intersection matrix
    (which also implies the map is injective), so the result never has free
    rank.  Raises NotNegativeDefiniteError otherwise.
    """
    inter = intersection_matrix(g)
    theta = _theta_from(g, inter)
    if not is_negative_definite(inter):
        raise NotNegativeDefiniteError(
            f"intersection matrix of {g.name!r} is not negative definite")
    return cokernel(theta.matrix)


def class_group_ell(g: DualGraph, ell: int) -> LModule:
    """l-adic realization of the class group: its l-primary part, twisted
    by +1 so the value reads as the degree-2 homology of the singularity.

    Raises EllNotCoprimeError when ell divides a degree gcd or a residue
    degree, since then the unit argument behind the identification fails.
    """
    for v in g.vertices:
        if v.d % ell == 0:
            raise EllNotCoprimeError(f"{ell} divides d={v.d} of vertex {v.id!r}")
        if v.residue_degree % ell == 0:
            raise EllNotCoprimeError(
                f"{ell} divides residue degree {v.residue_degree} of vertex {v.id!r}")
    return ell_primary(class_group(g), ell).twisted(1)

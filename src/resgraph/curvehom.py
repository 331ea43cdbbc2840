"""Homology and cohomology of proper one-dimensional exceptional
configurations whose structure sheaf has vanishing first cohomology.

That vanishing is certified combinatorially: the configuration graph must
be a forest (every component a tree of rational curves meeting in normal
crossings).  Inputs with cycles or multiple intersections are rejected
rather than guessed.  Alongside the closed-form profile there is an
independent cut-and-paste oracle that recomputes the same ranks by peeling
one leaf component at a time.
"""

from __future__ import annotations

from typing import Sequence

from .dualgraph import DualGraph, _is_forest, connected_components, is_forest
from .errors import EmptyInputError, NotAForestError
from .exactlat import LModule, Value, _require_prime


class CurveProfile(Value):
    """Graded homology/cohomology of a curve configuration.

    ``homology[q]`` and ``cohomology[q]`` for q = 0, 1, 2; degree-2 pieces
    are free of rank n (one basis element per irreducible component, labels
    in ``basis_labels``) with twist tags +1 and -1 respectively.
    """

    def __init__(self, r: int, n: int, ell: int, homology: tuple[LModule, LModule, LModule],
                 cohomology: tuple[LModule, LModule, LModule], basis_labels: tuple[str, ...]):
        super().__init__(r=r, n=n, ell=ell, homology=homology, cohomology=cohomology, basis_labels=basis_labels)


def _profile(r: int, n: int, ell: int, labels: tuple[str, ...]) -> CurveProfile:
    zero = LModule.zero(ell)
    return CurveProfile(
        r=r,
        n=n,
        ell=ell,
        homology=(LModule.free(ell, r, 0), zero, LModule.free(ell, n, 1)),
        cohomology=(LModule.free(ell, r, 0), zero, LModule.free(ell, n, -1)),
        basis_labels=labels,
    )


def curve_profile(g: DualGraph, ell: int = 2) -> CurveProfile:
    """Closed-form profile: degree 0 free of rank r (one per connected
    component), degree 1 zero, degree 2 free of rank n (one per irreducible
    component).  Raises ValueError unless ell is prime, then NotAForestError
    when the shape cannot certify the structure-sheaf vanishing needed."""
    _require_prime(ell)
    components = connected_components(g)
    if not _is_forest(g, components):
        raise NotAForestError(f"configuration {g.name!r} is not a forest")
    return _profile(
        r=len(components),
        n=g.n,
        ell=ell,
        labels=tuple(v.id for v in g.vertices),
    )


def mv_profile(g: DualGraph, ell: int = 2) -> CurveProfile:
    """Cut-and-paste oracle for :func:`curve_profile`.

    Peels leaf components one at a time: each C' is incident to at most
    one edge of what remains, the rest C''.  Degree-2 ranks add; degree 0 is
    governed by the split sequence

        0 -> H_1 -> H_0(C' ∩ C'') -> H_0(C') ⊕ H_0(C'') -> H_0 -> 0

    whose first map is split injective, so H_1 stays zero and the rank of
    H_0 is 1 + r(C'') - #(C' ∩ C'').  Must agree with curve_profile.
    """
    _require_prime(ell)
    if not is_forest(g):
        raise NotAForestError(f"configuration {g.name!r} is not a forest")
    adj = g.adjacency()
    live_deg = [len(nbrs) for nbrs in adj]
    alive = [True] * g.n
    leaves = [i for i in range(g.n) if live_deg[i] <= 1]
    r = n = 0
    while leaves:
        # each vertex enters ``leaves`` once: at the start, or when its
        # live degree falls to 1
        leaf = leaves.pop()
        # r(C) = 1 + r(C'') - #(C' ∩ C''), unrolled over the peels
        r += 1 - live_deg[leaf]
        n += 1
        alive[leaf] = False
        for j in adj[leaf]:
            if alive[j]:
                live_deg[j] -= 1
                if live_deg[j] == 1:
                    leaves.append(j)

    return _profile(r=r, n=n, ell=ell, labels=tuple(v.id for v in g.vertices))


def deg_surjectivity(residue_degrees: Sequence[int], ell: int) -> bool:
    """Whether the total-degree map out of degree-0 homology hits a unit.

    True iff some listed residue degree is prime to ell, hence invertible
    in the l-adic coefficient ring.  Checks first that ell is prime.
    """
    _require_prime(ell)
    if not residue_degrees:
        raise EmptyInputError("need at least one residue degree")
    for d in residue_degrees:
        if d < 1:
            raise ValueError(f"residue degrees must be >= 1, got {d}")
    return any(d % ell != 0 for d in residue_degrees)

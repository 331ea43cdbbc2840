"""Etale homology profiles of a strictly henselian local surface, assembled
from its exceptional configuration.

Two assembly routes are provided.  The rational-singularity route requires
the full validation battery and produces the sharp answer: degree 4 free of
rank 1 (twist 2), degree 2 the l-primary class group (twist 1), everything
else zero; in rational-coefficients mode the torsion is dropped after the
integral computation, leaving only degree 4.  The general route drops the
forest hypothesis and instead takes user-supplied curve cohomology ranks,
reporting degree 2 as an unresolved extension: torsion from the cokernel of
the intersection matrix, free part from the supplied degree-1 curve
homology rank.
"""

from __future__ import annotations

from typing import Literal

from .classgrp import _checked_order, _class_group, _ell_part, _require_definite
from .curvehom import deg_surjectivity
from .dualgraph import DualGraph, _analyse, _checked, intersection_matrix
from .errors import NotConnectedError, ValidationFailedError
from .exactlat import LModule, LSummand, Value, _require_prime, cokernel

MAX_DEGREE = 5

Mode = Literal["integral", "rational"]


class GeneralCurveInput(Value):
    """User-supplied curve data for configurations whose shape cannot
    certify the vanishing the closed-form route needs: the rank of the
    degree-1 cohomology of the exceptional curve, and the free rank of its
    degree-1 homology (which becomes the free part of the surface's
    degree-2 homology)."""

    def __init__(self, h1_rank: int = 0, h1_homology_free_rank: int = 0):
        for key, val in (("h1_rank", h1_rank), ("h1_homology_free_rank", h1_homology_free_rank)):
            if type(val) is not int or val < 0:
                raise ValueError(f"{key} must be a nonnegative integer, got {val!r}")
        super().__init__(h1_rank=h1_rank, h1_homology_free_rank=h1_homology_free_rank)


class HomologyProfile(Value):
    """Graded homology record for degrees 0..5, with one provenance note
    per degree saying which sequence produced the entry.  Entries vanish
    outside degrees 1..4 (and outside twice the dimension).  The notes are
    left out of equality and hashing."""

    def __init__(self, ell: int, entries: tuple[LModule, ...], mode: Mode = "integral",
                 provenance: tuple[str, ...] = ("",) * (MAX_DEGREE + 1)):
        if len(entries) != MAX_DEGREE + 1:
            raise ValueError(f"expected {MAX_DEGREE + 1} graded entries")
        if len(provenance) != MAX_DEGREE + 1:
            raise ValueError(f"expected {MAX_DEGREE + 1} provenance notes")
        super().__init__(ell=ell, entries=entries, mode=mode, provenance=provenance)

    def _key(self) -> tuple:
        return self.ell, self.entries, self.mode

    def entry(self, q: int) -> LModule:
        if 0 <= q <= MAX_DEGREE:
            return self.entries[q]
        return LModule.zero(self.ell)

    def degrees(self) -> range:
        return range(MAX_DEGREE + 1)


def _assemble(ell: int, mode: Mode, pieces: dict[int, LModule], notes: dict[int, str]) -> HomologyProfile:
    zero = LModule.zero(ell)
    return HomologyProfile(
        ell=ell,
        entries=tuple(pieces.get(q, zero) for q in range(MAX_DEGREE + 1)),
        mode=mode,
        provenance=tuple(notes.get(q, "zero") for q in range(MAX_DEGREE + 1)),
    )


def local_homology_rational(g: DualGraph, ell: int, mode: Mode = "integral") -> HomologyProfile:
    """Homology profile of a strictly henselian local surface with a
    rational singularity (or a regular point, given the empty graph).

    Requires every validation check to pass; failures raise
    ValidationFailedError carrying the report.  Degree 4 is free of rank 1
    with twist 2; degree 2 is the l-primary class group with twist 1;
    everything else vanishes.  In rational-coefficients mode torsion is
    dropped after computing integrally, so only degree 4 survives.
    """
    if mode not in ("integral", "rational"):
        raise ValueError(f"mode must be 'integral' or 'rational', got {mode!r}")
    a, report = _checked(g, ell)
    if not report.overall:
        raise ValidationFailedError(report)
    # the report has already checked the gates of class_group_ell
    h2 = _ell_part(_class_group(g, a), ell)
    h2_note = "l-primary divisor class group, twist 1"
    if mode == "rational":
        h2 = h2.without_torsion()
        h2_note += " (torsion dropped: rational coefficients)"
    return _assemble(
        ell,
        mode,
        {4: LModule.free(ell, 1, 2), 2: h2},
        {
            4: "fundamental class: free of rank 1, twist 2",
            2: h2_note,
            3: "zero: degree-1 curve cohomology vanishes on a forest",
            1: "zero: kernel of the degree map on a connected configuration",
            0: "zero: degree map is onto",
            5: "zero: above twice the dimension",
        },
    )


def local_homology_general(g: DualGraph, ell: int, extra: GeneralCurveInput) -> HomologyProfile:
    """Homology profile without the rationality/forest hypotheses.

    Requires a prime ell, then a connected, nonempty configuration, then a
    negative-definite intersection matrix.  Degree 3 is free of the
    supplied curve-cohomology rank (twist 2).  Degree 2 is reported as an
    extension record at twist 1: its torsion is the l-primary cokernel of
    the intersection matrix, its free rank comes from the supplied degree-1
    curve homology; the extension class itself is not resolved.  Degrees 1
    and 0 vanish for the local case (the configuration is connected and the
    degree map is onto).
    """
    _require_prime(ell)
    a = _analyse(g)
    if len(a.components) != 1:
        raise NotConnectedError(
            f"configuration {g.name!r} must be nonempty and connected for the local case")
    _require_definite(g, a)
    torsion = _ell_part(_checked_order(cokernel(intersection_matrix(g)), a.det, g), ell)
    h2 = LModule(ell, (*torsion.summands, LSummand(1, extra.h1_homology_free_rank)))

    degrees = [v.residue_degree for v in g.vertices]
    deg_onto = deg_surjectivity(degrees, ell)
    deg_note = "degree map onto (some residue degree is a unit)" if deg_onto \
        else "degree map assumed onto (no listed residue degree is a unit; supply better points)"
    return _assemble(
        ell,
        "integral",
        {
            4: LModule.free(ell, 1, 2),
            3: LModule.free(ell, extra.h1_rank, 2),
            2: h2,
        },
        {
            4: "fundamental class: free of rank 1, twist 2",
            3: "user-supplied degree-1 curve cohomology rank, twist 2",
            2: "extension (unresolved): torsion from the intersection-matrix cokernel, "
               "free part from user-supplied degree-1 curve homology",
            1: f"zero: injective degree map; {deg_note}",
            0: f"zero: {deg_note}",
            5: "zero: above twice the dimension",
        },
    )

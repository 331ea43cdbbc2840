"""Global dualizing-complex verdicts for a surface with finitely many
rational singular points.

With rational coefficients the constant sheaf is always a dualizing
complex.  With integral l-adic coefficients the obstruction sits in the
l-primary parts of the divisor class groups at the singular points: the
shifted twisted constant sheaf is dualizing iff every such part vanishes.
Each point is treated through its strict henselization independently; the
report records support and stalks only (entry -4 is free of rank 1, twist
2, everywhere; entry -2 is supported exactly at the points with nontrivial
l-part, with that part as stalk).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .classgrp import class_group
from .dualgraph import (
    DualGraph,
    graph_from_obj,
    resolve_graph,
    validate,
)
from .errors import GraphFormatError, ValidationFailedError, WrongLengthError
from .exactlat import FgAbGroup, LModule, ell_primary


@dataclass(frozen=True)
class SingularPoint:
    id: str
    graph: DualGraph


@dataclass(frozen=True)
class SurfaceSpec:
    """A surface given by its name, coefficient prime, and the resolution
    graphs of its finitely many singular points."""

    name: str
    ell: int
    points: tuple[SingularPoint, ...]

    def __post_init__(self):
        ids = [p.id for p in self.points]
        if len(set(ids)) != len(ids):
            dup = next(x for i, x in enumerate(ids) if x in ids[:i])
            raise GraphFormatError(f"duplicate point id {dup!r}")


@dataclass(frozen=True)
class PointVerdict:
    id: str
    class_group: FgAbGroup
    ell_part: LModule
    factorial: bool


@dataclass(frozen=True)
class DualizingReport:
    name: str
    ell: int
    points: tuple[PointVerdict, ...]
    q_ell_dualizing: bool
    z_ell_dualizing: bool
    k_minus4: LModule
    k_minus2: tuple[tuple[str, LModule], ...]


def dualizing_report(spec: SurfaceSpec) -> DualizingReport:
    """Assemble per-point class-group data and the global verdicts.

    Every point's graph must pass validation for the spec's coefficient
    prime (ValidationFailedError carries the offending point id).  The
    rational-coefficients verdict is then unconditional; the integral one
    holds iff every point's l-part is trivial.  A point is factorial iff
    its class group is trivial.
    """
    verdicts = []
    for p in spec.points:
        report = validate(p.graph, spec.ell)
        if not report.overall:
            raise ValidationFailedError(report, point_id=p.id)
        cl = class_group(p.graph)
        # validate has already required ell to divide no d_j or residue
        # degree, the condition class_group_ell checks
        ell_part = ell_primary(cl, spec.ell).twisted(1)
        verdicts.append(PointVerdict(
            id=p.id,
            class_group=cl,
            ell_part=ell_part,
            factorial=cl.is_trivial,
        ))
    return DualizingReport(
        name=spec.name,
        ell=spec.ell,
        points=tuple(verdicts),
        q_ell_dualizing=True,
        z_ell_dualizing=all(v.ell_part.is_zero for v in verdicts),
        k_minus4=LModule.free(spec.ell, 1, 2),
        k_minus2=tuple((v.id, v.ell_part) for v in verdicts if not v.ell_part.is_zero),
    )


def duality_rank_check(betti_c: list[int] | tuple[int, ...]) -> bool:
    """Rank bookkeeping for the duality pairing on a surface: the list of
    five compactly supported Betti numbers, read right to left as ordinary
    Betti numbers, must pair up, i.e. be palindromic."""
    if len(betti_c) != 5:
        raise WrongLengthError(f"expected exactly 5 Betti numbers, got {len(betti_c)}")
    seq = list(betti_c)
    return seq == seq[::-1]


# ---------------------------------------------------------------------------
# Surface JSON

def surface_from_obj(obj) -> SurfaceSpec:
    if not isinstance(obj, dict):
        raise GraphFormatError("surface must be a JSON object")
    unknown = set(obj) - {"name", "ell", "points"}
    if unknown:
        raise GraphFormatError(f"surface: unknown keys {sorted(unknown)}")
    name = obj.get("name")
    if not isinstance(name, str):
        raise GraphFormatError("surface: 'name' must be a string")
    ell = obj.get("ell")
    if type(ell) is not int:
        raise GraphFormatError("surface: 'ell' must be an integer")
    pts = obj.get("points")
    if not isinstance(pts, list):
        raise GraphFormatError("surface: 'points' must be an array")
    points = []
    for i, pobj in enumerate(pts):
        where = f"points[{i}]"
        if not isinstance(pobj, dict):
            raise GraphFormatError(f"{where}: must be an object")
        unknown = set(pobj) - {"id", "graph"}
        if unknown:
            raise GraphFormatError(f"{where}: unknown keys {sorted(unknown)}")
        pid = pobj.get("id")
        if not isinstance(pid, str):
            raise GraphFormatError(f"{where}: 'id' must be a string")
        gval = pobj.get("graph")
        if isinstance(gval, str):
            graph = resolve_graph(gval)
        elif isinstance(gval, dict):
            graph = graph_from_obj(gval)
        else:
            raise GraphFormatError(f"{where}: 'graph' must be an object or a 'catalog:NAME' string")
        points.append(SingularPoint(id=pid, graph=graph))
    return SurfaceSpec(name=name, ell=ell, points=tuple(points))


def parse_surface(text: str) -> SurfaceSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    return surface_from_obj(obj)

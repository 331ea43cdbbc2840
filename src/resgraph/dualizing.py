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

from .classgrp import _ell_part, class_group
from .dualgraph import (
    DualGraph,
    _json_field,
    _json_loads,
    _json_object,
    _unique_ids,
    graph_from_obj,
    resolve_graph,
    validate,
)
from .errors import GraphFormatError, ValidationFailedError
from .exactlat import FgAbGroup, LModule, Value


class SingularPoint(Value):
    def __init__(self, id: str, graph: DualGraph):
        super().__init__(id=id, graph=graph)


class SurfaceSpec(Value):
    """A surface given by its name, coefficient prime, and the resolution
    graphs of its finitely many singular points."""

    def __init__(self, name: str, ell: int, points: tuple[SingularPoint, ...]):
        _unique_ids([p.id for p in points], "point")
        super().__init__(name=name, ell=ell, points=points)


class PointVerdict(Value):
    def __init__(self, id: str, class_group: FgAbGroup, ell_part: LModule, factorial: bool):
        super().__init__(id=id, class_group=class_group, ell_part=ell_part, factorial=factorial)


class DualizingReport(Value):
    def __init__(self, name: str, ell: int, points: tuple[PointVerdict, ...], q_ell_dualizing: bool,
                 z_ell_dualizing: bool, k_minus4: LModule, k_minus2: tuple[tuple[str, LModule], ...]):
        super().__init__(
            name=name, ell=ell, points=points, q_ell_dualizing=q_ell_dualizing,
            z_ell_dualizing=z_ell_dualizing, k_minus4=k_minus4, k_minus2=k_minus2)


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
        # the report has already checked the gates of class_group_ell
        cl = class_group(p.graph)
        ell_part = _ell_part(cl, spec.ell)
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


# ---------------------------------------------------------------------------
# Surface JSON

def surface_from_obj(obj) -> SurfaceSpec:
    _json_object(obj, {"name", "ell", "points"}, "surface", "surface must be a JSON object")
    name = _json_field(obj, "name", str, "surface")
    ell = _json_field(obj, "ell", int, "surface")
    pts = _json_field(obj, "points", list, "surface")
    points = []
    for i, pobj in enumerate(pts):
        where = f"points[{i}]"
        _json_object(pobj, {"id", "graph"}, where)
        pid = _json_field(pobj, "id", str, where)
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
    return surface_from_obj(_json_loads(text))

"""Weighted dual graphs of exceptional divisors.

One vertex per irreducible component, weighted by self-intersection; edges
record intersection numbers between distinct components.  This module
models the graphs, turns them into intersection matrices, validates the
hypotheses the rest of the package relies on, generates the standard ADE
and continued-fraction chain families, and reads/writes the JSON format.
"""

from __future__ import annotations

import json
import os
from math import gcd
from pathlib import Path
from typing import NamedTuple

from .errors import (
    GraphFormatError,
    NotCoprimeError,
    UnsupportedIndexError,
)
from .exactlat import IntMatrix, Value, _negative_det, _require_int, _require_prime


class Vertex(Value):
    """Irreducible component: self-intersection number, gcd ``d`` of the
    degrees of invertible sheaves on it, and the residue degree of a chosen
    regular closed point (1 over a separably closed base with rational
    points, which is the typical case)."""

    def __init__(self, id: str, self_intersection: int, d: int = 1, residue_degree: int = 1):
        if not isinstance(id, str) or not id:
            raise GraphFormatError("vertex id must be a nonempty string")
        for key, val in (("self_intersection", self_intersection), ("d", d), ("residue_degree", residue_degree)):
            if type(val) is not int:  # as in the JSON reader: True and 2.0 are refused
                raise GraphFormatError(f"vertex {id!r}: {key} must be an integer, got {val!r}")
        if d < 1:
            raise GraphFormatError(f"vertex {id!r}: d must be >= 1")
        if residue_degree < 1:
            raise GraphFormatError(f"vertex {id!r}: residue_degree must be >= 1")
        super().__init__(id=id, self_intersection=self_intersection, d=d, residue_degree=residue_degree)


class Edge(Value):
    """Unordered intersection record; multiplicity m is the intersection
    number (E_i, E_j) >= 1 between the two components."""

    def __init__(self, a: str, b: str, m: int = 1):
        if a == b:
            raise GraphFormatError(f"edge endpoints must differ: {a!r}")
        if type(m) is not int:
            raise GraphFormatError(f"edge {a!r}-{b!r}: m must be an integer, got {m!r}")
        if m < 1:
            raise GraphFormatError(f"edge {a!r}-{b!r}: multiplicity must be >= 1")
        super().__init__(a=a, b=b, m=m)


def _unique_ids(ids: list[str], what: str) -> set[str]:
    """The set of ``ids``; raises GraphFormatError at the first repeat."""
    seen = set()
    for x in ids:
        if x in seen:
            raise GraphFormatError(f"duplicate {what} id {x!r}")
        seen.add(x)
    return seen


class DualGraph(Value):
    __slots__ = ("_analysis",)  # the record of _analyse: outside vars(g), so outside equality, hashing and repr

    def __init__(self, name: str, vertices: tuple[Vertex, ...], edges: tuple[Edge, ...]):
        if not isinstance(name, str):  # as for vertex ids, so the JSON writer's output reads back
            raise GraphFormatError(f"graph name must be a string, got {name!r}")
        known = _unique_ids([v.id for v in vertices], "vertex")
        seen_pairs = set()
        for e in edges:
            if e.a not in known or e.b not in known:
                raise GraphFormatError(f"edge {e.a!r}-{e.b!r} references a missing vertex")
            pair = frozenset((e.a, e.b))
            if pair in seen_pairs:
                raise GraphFormatError(f"more than one edge record for pair {e.a!r}-{e.b!r}")
            seen_pairs.add(pair)
        super().__init__(name=name, vertices=vertices, edges=edges)

    def __reduce__(self):  # from the fields alone, so pickles and copies leave the record behind
        return DualGraph, (self.name, self.vertices, self.edges)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def adjacency(self) -> list[list[int]]:
        """Neighbor lists by vertex index, in edge order (multiplicities ignored)."""
        return [[j for j in row if j != i] for i, row in enumerate(_rows(self))]


def _rows(g: DualGraph) -> list[dict[int, int]]:
    """The nonzero entries of each row of the intersection matrix, keyed by column, the
    diagonal first and then edges in edge order: the one reader of ``g.edges`` in index form."""
    rows = [{i: v.self_intersection} if v.self_intersection else {} for i, v in enumerate(g.vertices)]
    idx = {v.id: i for i, v in enumerate(g.vertices)}
    for e in g.edges:
        i, j = idx[e.a], idx[e.b]
        rows[i][j] = rows[j][i] = e.m
    return rows


def intersection_matrix(g: DualGraph) -> IntMatrix:
    """Symmetric matrix of pairwise intersection numbers: self-intersections
    on the diagonal, edge multiplicities off it, 0 for non-adjacent pairs."""
    return _dense(_rows(g), [1] * g.n)


def _dense(rows: list[dict[int, int]], divisors: list[int]) -> IntMatrix:
    """The square matrix with nonzero entries ``rows``, row j divided exactly by ``divisors[j]``."""
    a = [[0] * len(rows) for _ in rows]
    for row, entries, d in zip(a, rows, divisors):
        for j, x in entries.items():
            row[j] = x // d
    return IntMatrix(len(rows), len(rows), tuple(map(tuple, a)))


def connected_components(g: DualGraph) -> list[list[int]]:
    return _components(_rows(g))


def _components(rows: list[dict[int, int]]) -> list[list[int]]:
    seen = [False] * len(rows)
    comps = []
    for start in range(len(rows)):
        if not seen[start]:
            seen[start] = True
            comp = [start]
            for cur in comp:  # the walk visits what it appends
                for nxt in rows[cur]:
                    if not seen[nxt]:
                        seen[nxt] = True
                        comp.append(nxt)
            comps.append(sorted(comp))
    return comps


def is_forest(g: DualGraph) -> bool:
    """Acyclic as a multigraph: an edge of multiplicity >= 2 is a cycle."""
    return _is_forest(g, connected_components(g))


def _is_forest(g: DualGraph, components: list[list[int]]) -> bool:
    return all(e.m == 1 for e in g.edges) and len(g.edges) == g.n - len(components)


class CheckResult(Value):
    def __init__(self, name: str, passed: bool, detail: str):
        super().__init__(name=name, passed=passed, detail=detail)


class ValidationReport(Value):
    def __init__(self, checks: tuple[CheckResult, ...]):
        super().__init__(checks=checks)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


class _Analysis(NamedTuple):
    indivisible: list[tuple[int, int, int]]  # as returned by _indivisible
    components: list[list[int]]
    det: int | None  # |det| of the intersection matrix when it is negative definite, else None


def _analyse(g: DualGraph) -> _Analysis:
    """The l-free gate verdicts of ``g``, read off :func:`_rows` once per
    graph object in O(n + e) space (n vertices, e edges) and kept in the
    graph's ``_analysis`` slot: the routes run on one graph share one
    definiteness pass, and equal but distinct graphs are analysed apart."""
    record = getattr(g, "_analysis", None)
    if record is None:
        rows = _rows(g)
        record = _Analysis(_indivisible(g, rows), _components(rows), _negative_det(rows))
        object.__setattr__(g, "_analysis", record)
    return record


def _indivisible(g: DualGraph, rows: list[dict[int, int]]) -> list[tuple[int, int, int]]:
    """(j, i, entry (j, i)) with d_j not dividing it, row by row (row j is column j)."""
    return [(j, i, rows[j][i]) for j, v in enumerate(g.vertices) if v.d != 1
            for i in sorted(rows[j]) if rows[j][i] % v.d]


def _ell_failures(g: DualGraph, ell: int) -> list[tuple[str, Vertex]]:
    """("l divides ...", vertex) in vertex order."""
    return [(f"{ell} divides {what}{x}", v) for v in g.vertices
            for what, x in (("d=", v.d), ("residue degree ", v.residue_degree)) if x % ell == 0]


def validate(g: DualGraph, ell: int) -> ValidationReport:
    """Run every hypothesis check the homology pipeline relies on, once ``ell``
    is seen to be prime (else ValueError).

    Failures are report entries, never exceptions: symmetry (holds by
    construction), negative definiteness of the intersection matrix,
    connectedness, each degree gcd dividing its column of the intersection
    matrix, the coefficient prime not dividing any degree gcd or residue
    degree, and the graph being a forest.
    """
    _require_prime(ell)
    a = _analyse(g)
    checks = [CheckResult("symmetric", True, "intersection matrix is symmetric by construction")]

    # definiteness ignores vertex order, so by Sylvester these hold of the minors in graph order too
    definite = a.det is not None
    checks.append(CheckResult(
        "negative_definite", definite,
        "all leading principal minors alternate in sign" if definite
        else "some leading principal minor violates the sign condition"))

    ncomp = len(a.components)
    detail = {0: "empty graph (vacuously connected)", 1: "single component"}.get(ncomp, f"{ncomp} components")
    checks.append(CheckResult("connected", ncomp <= 1, detail))

    vs = g.vertices
    bad_div = [f"d={vs[j].d} of {vs[j].id!r} does not divide ({vs[i].id!r},{vs[j].id!r})={x}"
               for j, i, x in a.indivisible]
    checks.append(CheckResult(
        "divisibility", not bad_div,
        "each d_j divides its column of the intersection matrix" if not bad_div else "; ".join(bad_div)))

    bad_unit = [f"{text} of {v.id!r}" for text, v in _ell_failures(g, ell)]
    checks.append(CheckResult(
        "ell_coprime", not bad_unit,
        f"{ell} is coprime to every d_j and residue degree" if not bad_unit else "; ".join(bad_unit)))

    forest = _is_forest(g, a.components)
    checks.append(CheckResult(
        "forest", forest,
        "no cycles or multiple intersections" if forest
        else "cycle found (an edge of multiplicity >= 2 counts as a cycle)"))

    return ValidationReport(tuple(checks))


# The most vertices a generated graph may have.
MAX_GENERATED_VERTICES = 10_000


def gen_ade(family: str, n: int) -> DualGraph:
    """Standard ADE test catalog: Dynkin-diagram adjacency, every
    self-intersection -2, every multiplicity and degree gcd 1."""
    _require_int("n", n)
    if n > MAX_GENERATED_VERTICES:
        raise UnsupportedIndexError(f"a generated graph has at most {MAX_GENERATED_VERTICES} vertices, {family}{n} has {n}")
    if family == "A":
        if n < 1:
            raise UnsupportedIndexError(f"A_n requires n >= 1, got {n}")
        edges = [(i, i + 1) for i in range(1, n)]
    elif family == "D":
        if n < 4:
            raise UnsupportedIndexError(f"D_n requires n >= 4, got {n}")
        edges = [(i, i + 1) for i in range(1, n - 2)] + [(n - 2, n - 1), (n - 2, n)]
    elif family == "E":
        if n not in (6, 7, 8):
            raise UnsupportedIndexError(f"E_n requires n in 6..8, got {n}")
        edges = [(i, i + 1) for i in range(1, n - 1)] + [(3, n)]
    else:
        raise UnsupportedIndexError(f"unknown family {family!r} (expected A, D or E)")
    return DualGraph(
        name=f"{family}{n}",
        vertices=tuple(Vertex(f"v{i}", -2) for i in range(1, n + 1)),
        edges=tuple(Edge(f"v{i}", f"v{j}") for i, j in edges),
    )


def hj_expansion(k: int, a: int) -> list[int]:
    """Continued-fraction expansion k/a = b1 - 1/(b2 - 1/(...)), all bi >= 2,
    of at most MAX_GENERATED_VERTICES terms."""
    _require_int("k", k)
    _require_int("a", a)
    if k < 2 or not 1 <= a < k:
        raise ValueError(f"need k >= 2 and 1 <= a < k, got k={k}, a={a}")
    if gcd(a, k) != 1:
        raise NotCoprimeError(f"gcd({a}, {k}) = {gcd(a, k)} != 1")
    bs = []
    num, den = k, a
    while den > 0:
        b = -(-num // den)
        bs.append(b)
        if len(bs) > MAX_GENERATED_VERTICES:
            raise UnsupportedIndexError(f"a generated graph has at most {MAX_GENERATED_VERTICES} vertices, HJ-{k}-{a} has more")
        num, den = den, b * den - num
    return bs


def gen_hj(k: int, a: int) -> DualGraph:
    """Chain of rational curves with self-intersections read off the
    continued-fraction expansion of k/a (the cyclic-quotient test family)."""
    bs = hj_expansion(k, a)
    return DualGraph(
        name=f"HJ-{k}-{a}",
        vertices=tuple(Vertex(f"v{i}", -b) for i, b in enumerate(bs, start=1)),
        edges=tuple(Edge(f"v{i}", f"v{i + 1}") for i in range(1, len(bs))),
    )


# ---------------------------------------------------------------------------
# JSON format (bit-exact contract; unknown keys rejected)

_VERTEX_KEYS = {"id", "self", "d", "residue_degree"}
_EDGE_KEYS = {"a", "b", "m"}


def _need(obj: dict, key: str, kind: type, where: str, default=None):
    """The value under ``key``, of type ``kind`` (``True`` is not an
    integer), or ``default`` when the key is missing and a default is given."""
    if key not in obj:
        if default is None:
            raise GraphFormatError(f"{where}: missing key {key!r}")
        return default
    val = obj[key]
    if not (type(val) is int if kind is int else isinstance(val, kind)):
        name = "an integer" if kind is int else "a string"
        raise GraphFormatError(f"{where}: key {key!r} must be {name}, got {val!r}")
    return val


def _json_object(obj, allowed: set[str], where: str, not_object: str | None = None) -> None:
    """Require a JSON object with no keys outside ``allowed``; a top-level
    reader passes its own ``not_object`` message."""
    if not isinstance(obj, dict):
        raise GraphFormatError(not_object or f"{where}: must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise GraphFormatError(f"{where}: unknown keys {sorted(unknown)}")


def _json_field(obj: dict, key: str, kind: type, where: str):
    """The value under ``key``, which must have type ``kind`` (a missing key
    fails the same way; ``True`` is not an integer)."""
    val = obj.get(key)
    if not (type(val) is int if kind is int else isinstance(val, kind)):
        names = {str: "a string", int: "an integer", list: "an array"}
        raise GraphFormatError(f"{where}: {key!r} must be {names[kind]}")
    return val


def _json_loads(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: arrays or objects nested too deep
        raise GraphFormatError(f"invalid JSON: {exc}") from exc


def graph_from_obj(obj) -> DualGraph:
    _json_object(obj, {"name", "vertices", "edges"}, "graph", "graph must be a JSON object")
    name = _need(obj, "name", str, "graph")
    vs = obj.get("vertices")
    es = obj.get("edges")
    if not isinstance(vs, list) or not isinstance(es, list):
        raise GraphFormatError("graph: 'vertices' and 'edges' must be arrays")
    vertices = []
    for i, vobj in enumerate(vs):
        where = f"vertices[{i}]"
        _json_object(vobj, _VERTEX_KEYS, where)
        vertices.append(Vertex(
            id=_need(vobj, "id", str, where),
            self_intersection=_need(vobj, "self", int, where),
            d=_need(vobj, "d", int, where, default=1),
            residue_degree=_need(vobj, "residue_degree", int, where, default=1),
        ))
    edges = []
    for i, eobj in enumerate(es):
        where = f"edges[{i}]"
        _json_object(eobj, _EDGE_KEYS, where)
        edges.append(Edge(
            a=_need(eobj, "a", str, where),
            b=_need(eobj, "b", str, where),
            m=_need(eobj, "m", int, where, default=1),
        ))
    return DualGraph(name=name, vertices=tuple(vertices), edges=tuple(edges))


def graph_to_obj(g: DualGraph) -> dict:
    """Explicit form with all keys present, in stable order."""
    return {
        "name": g.name,
        "vertices": [
            {"id": v.id, "self": v.self_intersection, "d": v.d, "residue_degree": v.residue_degree}
            for v in g.vertices
        ],
        "edges": [{"a": e.a, "b": e.b, "m": e.m} for e in g.edges],
    }


def parse_graph(text: str) -> DualGraph:
    return graph_from_obj(_json_loads(text))


def serialize_graph(g: DualGraph) -> str:
    return json.dumps(graph_to_obj(g), indent=2, ensure_ascii=False) + "\n"


def load_graph(path: str | Path) -> DualGraph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Shipped catalog

CATALOG_ENV = "RESGRAPH_CATALOG_DIR"


def _catalog_root():
    override = os.environ.get(CATALOG_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "catalog"


def catalog_names() -> list[str]:
    root = _catalog_root()
    if not root.is_dir():
        return []
    return sorted(entry.name[:-5] for entry in root.iterdir() if entry.name.endswith(".json"))


def load_catalog_graph(name: str) -> DualGraph:
    entry = _catalog_root() / f"{name}.json"
    if not entry.is_file():
        raise FileNotFoundError(f"no catalog graph named {name!r} (have: {', '.join(catalog_names())})")
    return parse_graph(entry.read_text(encoding="utf-8"))


def resolve_graph(spec: str) -> DualGraph:
    """Resolve ``catalog:NAME`` against the shipped catalog, anything else
    as a filesystem path."""
    if spec.startswith("catalog:"):
        return load_catalog_graph(spec[len("catalog:"):])
    return load_graph(spec)

"""Independent answers for the benchmark's outputs.

Nothing here imports ``resgraph``.  Class-group orders come from a sparse
Gaussian elimination over ``fractions.Fraction`` that removes the vertex of
least degree first (on a tree this is the leaf recursion); closed forms
cover the A, D, E and Hirzebruch-Jung families.  Every ``check_*``
function raises ``Mismatch`` on a wrong output: ``check_library`` takes a
plain summary of a library value, ``check_cli`` a CLI process's exit code
and output, whose JSON or text it parses back into the same summaries.

Summary shapes: a group is ``{"free_rank": r, "factors": [...]}``; an
l-adic module is ``{"ell": l, "summands": [[twist, free_rank, [exps]], ...]}``;
an exception is ``{"error": class name, "message": text}``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import prod

from gen import GraphSpec, cycle_rank


class Mismatch(Exception):
    """An output disagrees with the independent answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def det(rows: list[list[int]]) -> int:
    """Determinant of a symmetric integer matrix whose leading pivots in
    any order are nonzero (true for definite matrices), by elimination over
    the rationals in least-fill order."""
    n = len(rows)
    a = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in rows]
    alive = set(range(n))
    result = Fraction(1)
    while alive:
        k = min(alive, key=lambda i: (len(a[i]), i))
        pivot = a[k].pop(k, Fraction(0))
        if pivot == 0:
            raise ZeroDivisionError("zero pivot")
        result *= pivot
        alive.discard(k)
        row_k = a[k]
        for i in list(row_k):
            factor = a[i].pop(k) / pivot
            for j, x in row_k.items():
                value = a[i].get(j, 0) - factor * x
                if value:
                    a[i][j] = value
                else:
                    a[i].pop(j, None)
    expect(result.denominator == 1, "determinant is not an integer")
    return int(result)


def valuation(x: int, ell: int) -> int:
    e = 0
    while x and x % ell == 0:
        x //= ell
        e += 1
    return e


def closed_form(name: str) -> tuple[int, ...] | None:
    """Invariant factors of the class group of a named ADE or
    Hirzebruch-Jung graph, or None for other names."""
    if name[:1] in ("A", "D") and name[1:].isdigit():
        n = int(name[1:])
        if name[0] == "A":
            return (n + 1,)
        return (4,) if n % 2 else (2, 2)
    if name in ("E6", "E7", "E8"):
        return {"E6": (3,), "E7": (2,), "E8": ()}[name]
    if name.startswith("HJ-"):
        return (int(name.split("-")[1]),)
    return None


# ---------------------------------------------------------------------------
# Checks


class Oracle:
    """Checks outputs against independent answers.  Keeps one elimination
    per graph, so a graph queried many times is reduced once."""

    def __init__(self):
        self._dets: dict[GraphSpec, int] = {}

    def inter_order(self, g: GraphSpec) -> int:
        """|det| of the intersection matrix."""
        if g not in self._dets:
            self._dets[g] = abs(det(g.intersection_rows()))
        return self._dets[g]

    def order(self, g: GraphSpec) -> int:
        """|Cl| = |det theta| = |det of the intersection matrix| / prod d_j."""
        return self.inter_order(g) // prod(g.d)

    def ell_exponents(self, g: GraphSpec, ell: int) -> list[int] | None:
        """Exponents of the l-part when the group is known in closed form."""
        group = closed_form(g.name)
        if group is None:
            return None
        return sorted(e for e in (valuation(f, ell) for f in group) if e)

    def check_group(self, g: GraphSpec, group: dict) -> None:
        factors = group["factors"]
        expect(group["free_rank"] == 0, f"{g.name}: free rank {group['free_rank']}")
        expect(all(f >= 2 for f in factors), f"{g.name}: factor below 2 in {factors}")
        expect(all(b % a == 0 for a, b in zip(factors, factors[1:])), f"{g.name}: {factors} is not a divisibility chain")
        expect(prod(factors) == self.order(g), f"{g.name}: order {prod(factors)} != |det theta| = {self.order(g)}")
        group = closed_form(g.name)
        if group is not None:
            expect(tuple(factors) == group, f"{g.name}: {factors} != closed form {list(group)}")

    def check_ell_part(self, g: GraphSpec, ell: int, module: dict, twist: int = 1) -> None:
        expect(module["ell"] == ell, f"{g.name}: module over l={module['ell']}, asked {ell}")
        want = valuation(self.order(g), ell)
        summands = module["summands"]
        if not want:
            expect(summands == [], f"{g.name}: nonzero {ell}-part {summands} of a group of order prime to {ell}")
            return
        expect(len(summands) == 1 and summands[0][:2] == [twist, 0], f"{g.name}: {ell}-part {summands} is not torsion of twist {twist}")
        exps = summands[0][2]
        expect(sum(exps) == want, f"{g.name}: {ell}-part of order {ell}^{sum(exps)}, want {ell}^{want}")
        closed = self.ell_exponents(g, ell)
        if closed is not None:
            expect(exps == closed, f"{g.name}: {ell}-part exponents {exps} != {closed}")

    def check_profile(self, g: GraphSpec, ell: int, mode: str, entries: list[dict]) -> None:
        """Only H_4 = Z_l(2) and H_2 = the l-part (twist 1) survive; in
        rational mode H_2 vanishes too."""
        expect(len(entries) == 6, f"{g.name}: {len(entries)} graded entries")
        expect(entries[4] == {"ell": ell, "summands": [[2, 1, []]]}, f"{g.name}: H_4 = {entries[4]}")
        for q in (0, 1, 3, 5):
            expect(entries[q]["summands"] == [], f"{g.name}: H_{q} = {entries[q]}")
        if mode == "rational":
            expect(entries[2]["summands"] == [], f"{g.name}: rational H_2 = {entries[2]}")
        else:
            self.check_ell_part(g, ell, entries[2])

    def check_general_profile(self, g: GraphSpec, ell: int, h1_rank: int, entries: list[dict]) -> None:
        """General route: H_2 torsion is the l-part of the cokernel of the
        intersection matrix itself; H_3 is free of the supplied rank."""
        expect(entries[4]["summands"] == [[2, 1, []]], f"{g.name}: H_4 = {entries[4]}")
        expect(entries[3]["summands"] == ([[2, h1_rank, []]] if h1_rank else []), f"{g.name}: H_3 = {entries[3]}")
        for q in (0, 1, 5):
            expect(entries[q]["summands"] == [], f"{g.name}: H_{q} = {entries[q]}")
        want = valuation(self.inter_order(g), ell)
        h2 = entries[2]["summands"]
        if not want:
            expect(h2 == [], f"{g.name}: H_2 = {h2} for a cokernel prime to {ell}")
        else:
            expect(len(h2) == 1 and h2[0][:2] == [1, 0] and sum(h2[0][2]) == want,
                   f"{g.name}: H_2 = {h2}, want torsion of order {ell}^{want}")

    def check_validation(self, g: GraphSpec, ell: int, checks: dict) -> None:
        want = {
            "symmetric": True,
            "negative_definite": True,
            "connected": True,
            "divisibility": True,
            "ell_coprime": all(dj % ell for dj in g.d),
            "forest": g.is_forest(),
        }
        expect(checks == want, f"{g.name}: checks {checks} != {want}")

    def check_curve(self, g: GraphSpec, ell: int, curve: dict) -> None:
        if not g.is_forest():
            expect(curve.get("error") == "NotAForestError", f"{g.name}: curve profile of a non-forest gave {curve}")
            return
        n = g.n
        want = {
            "r": 1,
            "n": n,
            "homology": [[[0, 1, []]], [], [[1, n, []]]],
            "cohomology": [[[0, 1, []]], [], [[-1, n, []]]],
            "basis": [f"v{i + 1}" for i in range(n)],
        }
        expect(curve == want, f"{g.name}: curve profile {curve} != {want}")

    def check_report(self, points: tuple[GraphSpec, ...], ell: int, report: dict) -> None:
        """Per point: the class group, its l-part and factoriality; Z_l is
        dualizing iff l divides no point's class number."""
        expect(len(report["points"]) == len(points), "point count")
        stalks = []
        for i, (g, p) in enumerate(zip(points, report["points"])):
            expect(p["id"] == f"p{i}", f"point id {p['id']}")
            self.check_group(g, p["class_group"])
            self.check_ell_part(g, ell, p["ell_part"])
            expect(p["factorial"] == (self.order(g) == 1), f"{g.name}: factorial = {p['factorial']}")
            if self.order(g) % ell == 0:
                stalks.append([p["id"], p["ell_part"]])
        expect(report["q_ell_dualizing"] is True, "Q_l verdict")
        expect(report["z_ell_dualizing"] == (not stalks), f"Z_l verdict {report['z_ell_dualizing']} with l = {ell}")
        expect(report["k_minus4"] == {"ell": ell, "summands": [[2, 1, []]]}, f"K[-4] = {report['k_minus4']}")
        expect(report["k_minus2"] == stalks, f"K[-2] = {report['k_minus2']}, want {stalks}")


# ---------------------------------------------------------------------------
# Text forms, written out here from the documented CLI format


def render_group(factors) -> str:
    return " ⊕ ".join(f"Z/{f}" for f in factors) or "0"


def render_module(module: dict, rational: bool = False) -> str:
    ell = module["ell"]
    ring = f"Q_{ell}" if rational else f"Z_{ell}"
    parts = []
    for twist, free, exps in module["summands"]:
        suffix = f"({twist})" if twist else ""
        if free:
            parts.append((ring if free == 1 else f"{ring}^{free}") + suffix)
        parts += [f"Z/{ell ** e}{suffix}" for e in exps]
    return " ⊕ ".join(parts) or "0"


def perversity_verdict(strata: list[dict]) -> tuple[bool, bool]:
    """Support: stalk degrees <= -delta; cosupport: costalk degrees >= -delta."""
    left = all(x <= -s["delta"] for s in strata for x in s["stalk"])
    right = all(x >= -s["delta"] for s in strata for x in s["costalk"])
    return left, right


# ---------------------------------------------------------------------------
# Operation outputs


def check_library(oracle: Oracle, op, out) -> None:
    """Check the summary of one in-process operation."""
    g = op.graphs[0]
    if isinstance(out, dict) and "error" in out and op.kind != "curve":
        raise Mismatch(f"{g.name}: {op.kind} raised {out['error']}: {out['message']}")
    if op.kind == "validate":
        oracle.check_validation(g, op.ell, out)
    elif op.kind == "class_group":
        oracle.check_group(g, out)
    elif op.kind == "class_group_ell":
        oracle.check_ell_part(g, op.ell, out)
    elif op.kind == "homology":
        oracle.check_profile(g, op.ell, op.mode, out)
    elif op.kind == "homology_general":
        oracle.check_general_profile(g, op.ell, cycle_rank(g), out)
    elif op.kind == "curve":
        oracle.check_curve(g, op.ell, out)
    elif op.kind == "dualizing":
        oracle.check_report(op.graphs, op.ell, out)
    else:
        raise ValueError(op.kind)


# ---------------------------------------------------------------------------
# CLI outputs, parsed back into summaries

_FREE = re.compile(r"^[ZQ]_(\d+)(?:\^(\d+))?(?:\((-?\d+)\))?$")
_TORSION = re.compile(r"^Z/(\d+)(?:\((-?\d+)\))?$")


def parse_group(text: str) -> dict:
    factors = [] if text == "0" else [int(part[2:]) for part in text.split(" ⊕ ")]
    expect(render_group(factors) == text, f"group text {text!r}")
    return {"free_rank": 0, "factors": factors}


def parse_module(text: str, ell: int, rational: bool = False) -> dict:
    pieces: dict[int, list] = {}
    for part in ([] if text == "0" else text.split(" ⊕ ")):
        free, torsion = _FREE.match(part), _TORSION.match(part)
        expect(bool(free or torsion), f"module text {text!r}")
        if free:
            pieces.setdefault(int(free[3] or 0), [0, []])[0] += int(free[2] or 1)
        else:
            e = valuation(int(torsion[1]), ell)
            expect(ell ** e == int(torsion[1]), f"{part} is not an {ell}-power")
            pieces.setdefault(int(torsion[2] or 0), [0, []])[1].append(e)
    module = {"ell": ell, "summands": [[t, free, sorted(exps)] for t, (free, exps) in sorted(pieces.items())]}
    expect(render_module(module, rational) == text, f"module text {text!r}")
    return module


def module_from_json(obj: dict, rational: bool = False) -> dict:
    module = {"ell": obj["ell"], "summands": [[s["twist"], s["free_rank"], s["torsion_exponents"]] for s in obj["summands"]]}
    expect(obj["rendered"] == render_module(module, rational), f"rendered module {obj['rendered']!r}")
    return module


def group_from_json(obj: dict) -> dict:
    expect(obj["order"] == prod(obj["invariant_factors"]), f"order field {obj['order']}")
    expect(obj["rendered"] == render_group(obj["invariant_factors"]), f"rendered group {obj['rendered']!r}")
    return {"free_rank": obj["free_rank"], "factors": obj["invariant_factors"]}


def _field(line: str, key: str) -> str:
    expect(line.startswith(key), f"expected {key!r}, got {line!r}")
    return line[len(key):]


def check_cli(oracle: Oracle, op, code: int, out: str, err: str, names: list[str]) -> None:
    """Check one CLI process: exit code, diagnostics, and its output parsed
    back into summaries."""
    e = op.expect
    command, fmt = e["command"], e.get("format", "text")
    if command == "hostile":
        expect(code == 1, f"{op.argv}: exit {code}, want 1")
        expect(e["message"] in err, f"{op.argv}: diagnostic {err.strip()!r}")
        return
    expect(code == 0, f"{op.argv}: exit {code}: {err.strip()}")
    if fmt == "json":
        obj = json.loads(out)
        expect(obj.pop("schema", None) == 1, "schema")
    lines = out.splitlines()
    g = op.graphs[0] if op.graphs else None
    ell, rational = op.ell, op.mode == "rational"
    if command == "classgroup":
        if fmt == "json":
            expect(obj["kind"] == "class_group" and obj["graph"] == g.name, "header")
            oracle.check_group(g, group_from_json(obj["group"]))
        else:
            expect(len(lines) == 1, "one line")
            oracle.check_group(g, parse_group(lines[0]))
    elif command == "check":
        if fmt == "json":
            expect(obj["kind"] == "validation" and obj["graph"] == g.name and obj["ell"] == ell, "header")
            checks = {c["name"]: c["passed"] for c in obj["checks"]}
            overall = obj["overall"]
        else:
            expect(lines[:2] == [f"graph: {g.name}", f"ell: {ell}"], "header")
            checks = {line.split()[0]: line.split()[1] == "pass" for line in lines[2:-1]}
            overall = lines[-1] == "overall: pass"
        oracle.check_validation(g, ell, checks)
        expect(overall is True, "overall verdict")
    elif command == "homology":
        if fmt == "json":
            expect(obj["kind"] == "homology" and obj["graph"] == g.name and obj["ell"] == ell and obj["mode"] == op.mode, "header")
            entries = [module_from_json(obj["entries"][str(q)], rational) for q in range(6)]
        else:
            expect(lines[:3] == [f"graph: {g.name}", f"ell: {ell}", f"mode: {op.mode}"], "header")
            entries = [parse_module(_field(lines[3 + q], f"H_{q} = "), ell, rational) for q in range(6)]
        oracle.check_profile(g, ell, op.mode, entries)
    elif command == "curve":
        if fmt == "json":
            expect(obj["kind"] == "curve" and obj["graph"] == g.name and obj["ell"] == ell, "header")
            curve = {
                "r": obj["r"], "n": obj["n"],
                "homology": [module_from_json(obj["homology"][str(q)])["summands"] for q in range(3)],
                "cohomology": [module_from_json(obj["cohomology"][str(q)])["summands"] for q in range(3)],
                "basis": obj["basis"],
            }
        else:
            expect(lines[:2] == [f"graph: {g.name}", f"ell: {ell}"], "header")
            curve = {
                "r": int(_field(lines[2], "r: ")), "n": int(_field(lines[3], "n: ")),
                "homology": [parse_module(_field(lines[4 + q], f"H_{q} = "), ell)["summands"] for q in range(3)],
                "cohomology": [parse_module(_field(lines[7 + q], f"H^{q} = "), ell)["summands"] for q in range(3)],
                "basis": _field(lines[10], "basis: ").split(" "),
            }
        oracle.check_curve(g, ell, curve)
    elif command == "dualizing":
        oracle.check_report(op.graphs, ell, parse_report(obj if fmt == "json" else lines, op))
    elif command == "perversity":
        strata = [dict(s, delta={"generic": 2, "curve": 1, "point": 0}[s["label"]]) for s in e["strata"]]
        left, right = perversity_verdict(strata)
        if fmt == "json":
            expect(obj == {"kind": "perversity", "strata": strata, "left_ok": left, "right_ok": right, "perverse": left and right},
                   f"perversity {obj}")
        else:
            yes = {True: "yes", False: "no"}
            want = [f"strata: {len(strata)}", f"left_ok: {yes[left]}", f"right_ok: {yes[right]}", f"perverse: {yes[left and right]}"]
            expect(lines == want, f"perversity {lines}")
    elif command == "gen":
        want = g.to_obj()
        for v in want["vertices"]:
            v["residue_degree"] = 1
        expect(json.loads(out) == want, f"gen output for {g.name}")
    elif command == "catalog":
        expect((obj == {"kind": "catalog", "names": names}) if fmt == "json" else lines == names, "catalog listing")
    else:
        raise ValueError(command)


def parse_report(source, op) -> dict:
    ell = op.ell
    if isinstance(source, dict):
        expect(source["kind"] == "dualizing" and source["ell"] == ell, "header")
        return {
            "points": [{"id": p["id"], "class_group": group_from_json(p["class_group"]), "ell_part": module_from_json(p["ell_part"]),
                        "factorial": p["factorial"]} for p in source["points"]],
            "q_ell_dualizing": source["q_ell_dualizing"],
            "z_ell_dualizing": source["z_ell_dualizing"],
            "k_minus4": module_from_json(source["k_minus_4"]),
            "k_minus2": [[s["id"], module_from_json(s["stalk"])] for s in source["k_minus_2"]],
        }
    lines = source
    npoints = len(op.graphs)
    expect(lines[1] == f"ell: {ell}", "header")
    yes = {"yes": True, "no": False}
    points = []
    for line in lines[2:2 + npoints]:
        m = re.fullmatch(r"point (\S+): Cl = (.+), l-part = (.+), factorial = (yes|no)", line)
        expect(m is not None, f"point line {line!r}")
        points.append({"id": m[1], "class_group": parse_group(m[2]), "ell_part": parse_module(m[3], ell), "factorial": yes[m[4]]})
    rest = lines[2 + npoints:]
    k_minus2 = []
    if rest[3] != "K[-2] = 0 (no support)":
        for line in rest[3:]:
            m = re.fullmatch(r"K\[-2\] = (.+) at (\S+)", line)
            expect(m is not None, f"K[-2] line {line!r}")
            k_minus2.append([m[2], parse_module(m[1], ell)])
    return {
        "points": points,
        "q_ell_dualizing": yes[_field(rest[0], "Q_l dualizing: ")],
        "z_ell_dualizing": yes[_field(rest[1], "Z_l dualizing: ")],
        "k_minus4": parse_module(_field(rest[2], "K[-4] = ").removesuffix(" (everywhere)"), ell),
        "k_minus2": k_minus2,
    }

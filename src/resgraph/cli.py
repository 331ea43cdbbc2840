"""Command-line front end.

One subcommand per operation family; inputs are JSON files or
``catalog:NAME`` references into the shipped graph catalog.  Exit codes:
0 success, 1 domain error (validation or computation failure), 2 usage
error, 3 file error.  Output is deterministic: identical inputs produce
byte-identical text and JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .classgrp import class_group
from .curvehom import curve_profile
from .dualgraph import (
    CATALOG_ENV,
    catalog_names,
    gen_ade,
    gen_hj,
    resolve_graph,
    serialize_graph,
    validate,
)
from .dualizing import DualizingReport, dualizing_report, parse_surface
from .errors import ResgraphError, ValidationFailedError
from .exactlat import FgAbGroup, LModule, is_prime
from .perversity import check_perverse, parse_strata
from .surfhom import HomologyProfile, local_homology_rational

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_FILE = 3


def _prime(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    try:
        prime = is_prime(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not prime:
        raise argparse.ArgumentTypeError(f"not a prime: {value}")
    return value


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj: dict) -> None:
    _emit(json.dumps(obj, indent=2, ensure_ascii=False))


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def group_to_obj(group: FgAbGroup) -> dict:
    return {
        "free_rank": group.free_rank,
        "invariant_factors": list(group.invariant_factors),
        "order": group.order(),
        "rendered": str(group),
    }


def lmodule_to_obj(mod: LModule, rational: bool = False) -> dict:
    return {
        "ell": mod.ell,
        "summands": [
            {"twist": s.twist, "free_rank": s.free_rank, "torsion_exponents": list(s.torsion_exponents)}
            for s in mod.summands
        ],
        "rendered": mod.render(rational=rational),
    }


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_check(args) -> int:
    g = resolve_graph(args.input)
    report = validate(g, args.ell)
    if args.format == "json":
        _emit_json({
            "schema": 1,
            "kind": "validation",
            "graph": g.name,
            "ell": args.ell,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks],
            "overall": report.overall,
        })
    else:
        lines = [f"graph: {g.name}", f"ell: {args.ell}"]
        for c in report.checks:
            lines.append(f"  {c.name:<18} {'pass' if c.passed else 'FAIL'}  {c.detail}")
        lines.append(f"overall: {'pass' if report.overall else 'FAIL'}")
        _emit("\n".join(lines))
    if not report.overall:
        print(f"validation failed for {g.name}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_classgroup(args) -> int:
    g = resolve_graph(args.input)
    group = class_group(g)
    if args.format == "json":
        _emit_json({
            "schema": 1,
            "kind": "class_group",
            "graph": g.name,
            "group": group_to_obj(group),
        })
    else:
        _emit(str(group))
    return EXIT_OK


def _homology_lines(g_name: str, profile: HomologyProfile) -> str:
    rational = profile.mode == "rational"
    lines = [f"graph: {g_name}", f"ell: {profile.ell}", f"mode: {profile.mode}"]
    for q in profile.degrees():
        lines.append(f"H_{q} = {profile.entry(q).render(rational=rational)}")
    return "\n".join(lines)


def cmd_homology(args) -> int:
    g = resolve_graph(args.input)
    profile = local_homology_rational(g, args.ell, args.mode)
    if args.format == "json":
        rational = profile.mode == "rational"
        _emit_json({
            "schema": 1,
            "kind": "homology",
            "graph": g.name,
            "ell": profile.ell,
            "mode": profile.mode,
            "entries": {str(q): lmodule_to_obj(profile.entry(q), rational) for q in profile.degrees()},
            "provenance": {str(q): profile.provenance[q] for q in profile.degrees()},
        })
    else:
        _emit(_homology_lines(g.name, profile))
    return EXIT_OK


def cmd_curve(args) -> int:
    g = resolve_graph(args.input)
    profile = curve_profile(g, args.ell)
    if args.format == "json":
        _emit_json({
            "schema": 1,
            "kind": "curve",
            "graph": g.name,
            "ell": profile.ell,
            "r": profile.r,
            "n": profile.n,
            "homology": {str(q): lmodule_to_obj(profile.homology[q]) for q in range(3)},
            "cohomology": {str(q): lmodule_to_obj(profile.cohomology[q]) for q in range(3)},
            "basis": list(profile.basis_labels),
        })
    else:
        lines = [f"graph: {g.name}", f"ell: {profile.ell}", f"r: {profile.r}", f"n: {profile.n}"]
        for q in range(3):
            lines.append(f"H_{q} = {profile.homology[q]}")
        for q in range(3):
            lines.append(f"H^{q} = {profile.cohomology[q]}")
        lines.append("basis: " + " ".join(profile.basis_labels))
        _emit("\n".join(lines))
    return EXIT_OK


def _dualizing_lines(report: DualizingReport) -> str:
    lines = [f"surface: {report.name}", f"ell: {report.ell}"]
    for v in report.points:
        lines.append(
            f"point {v.id}: Cl = {v.class_group}, l-part = {v.ell_part}, "
            f"factorial = {_yesno(v.factorial)}")
    lines.append(f"Q_l dualizing: {_yesno(report.q_ell_dualizing)}")
    lines.append(f"Z_l dualizing: {_yesno(report.z_ell_dualizing)}")
    lines.append(f"K[-4] = {report.k_minus4} (everywhere)")
    if report.k_minus2:
        for pid, stalk in report.k_minus2:
            lines.append(f"K[-2] = {stalk} at {pid}")
    else:
        lines.append("K[-2] = 0 (no support)")
    return "\n".join(lines)


def cmd_dualizing(args) -> int:
    spec = parse_surface(Path(args.input).read_text(encoding="utf-8"))
    report = dualizing_report(spec)
    if args.format == "json":
        _emit_json({
            "schema": 1,
            "kind": "dualizing",
            "surface": report.name,
            "ell": report.ell,
            "points": [
                {
                    "id": v.id,
                    "class_group": group_to_obj(v.class_group),
                    "ell_part": lmodule_to_obj(v.ell_part),
                    "factorial": v.factorial,
                }
                for v in report.points
            ],
            "q_ell_dualizing": report.q_ell_dualizing,
            "z_ell_dualizing": report.z_ell_dualizing,
            "k_minus_4": lmodule_to_obj(report.k_minus4),
            "k_minus_2": [{"id": pid, "stalk": lmodule_to_obj(stalk)} for pid, stalk in report.k_minus2],
        })
    else:
        _emit(_dualizing_lines(report))
    return EXIT_OK


def cmd_perversity(args) -> int:
    strata = parse_strata(Path(args.input).read_text(encoding="utf-8"))
    verdict = check_perverse(strata)
    if args.format == "json":
        _emit_json({
            "schema": 1,
            "kind": "perversity",
            "strata": [
                {
                    "label": s.label,
                    "delta": s.delta,
                    "stalk": sorted(s.stalk_degrees),
                    "costalk": sorted(s.costalk_degrees),
                }
                for s in strata
            ],
            "left_ok": verdict.left_ok,
            "right_ok": verdict.right_ok,
            "perverse": verdict.perverse,
        })
    else:
        lines = [
            f"strata: {len(strata)}",
            f"left_ok: {_yesno(verdict.left_ok)}",
            f"right_ok: {_yesno(verdict.right_ok)}",
            f"perverse: {_yesno(verdict.perverse)}",
        ]
        _emit("\n".join(lines))
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.family_kind == "ade":
        g = gen_ade(args.family, args.n)
    else:
        g = gen_hj(args.k, args.a)
    sys.stdout.write(serialize_graph(g))
    return EXIT_OK


def cmd_catalog(args) -> int:
    names = catalog_names()
    if args.format == "json":
        _emit_json({"schema": 1, "kind": "catalog", "names": names})
    else:
        _emit("\n".join(names))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resgraph",
        description="Divisor class groups, l-adic homology profiles and "
                    "dualizing-complex verdicts of resolution dual graphs.",
        epilog=f"Graph inputs are JSON files or catalog:NAME references; "
               f"set {CATALOG_ENV} to override the shipped catalog directory. "
               f"Exit codes: 0 ok, 1 domain error, 2 usage error, 3 file error.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, ell=False, mode=False):
        if ell:
            p.add_argument("--ell", type=_prime, default=2, metavar="P",
                           help="coefficient prime (default 2)")
        if mode:
            p.add_argument("--mode", choices=("integral", "rational"), default="integral",
                           help="coefficient ring: l-adic integers or l-adic rationals")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="run all validation checks on a graph")
    p.add_argument("input", help="graph JSON file or catalog:NAME")
    add_common(p, ell=True)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("classgroup", help="divisor class group of a graph")
    p.add_argument("input")
    add_common(p)
    p.set_defaults(handler=cmd_classgroup)

    p = sub.add_parser("homology", help="local homology profile of a graph")
    p.add_argument("input")
    add_common(p, ell=True, mode=True)
    p.set_defaults(handler=cmd_homology)

    p = sub.add_parser("curve", help="curve configuration homology profile")
    p.add_argument("input")
    add_common(p, ell=True)
    p.set_defaults(handler=cmd_curve)

    p = sub.add_parser("dualizing", help="dualizing-complex report for a surface spec")
    p.add_argument("input", help="surface JSON file")
    add_common(p)
    p.set_defaults(handler=cmd_dualizing)

    p = sub.add_parser("perversity", help="support/cosupport check on strata")
    p.add_argument("input", help="strata JSON file")
    add_common(p)
    p.set_defaults(handler=cmd_perversity)

    p = sub.add_parser("gen", help="generate a catalog-family graph as JSON")
    gensub = p.add_subparsers(dest="family_kind", required=True)
    pa = gensub.add_parser("ade", help="Dynkin-diagram graph")
    pa.add_argument("family", choices=("A", "D", "E"))
    pa.add_argument("n", type=int)
    pa.set_defaults(handler=cmd_gen)
    ph = gensub.add_parser("hj", help="continued-fraction chain for k/a")
    ph.add_argument("k", type=int)
    ph.add_argument("a", type=int)
    ph.set_defaults(handler=cmd_gen)

    p = sub.add_parser("catalog", help="list shipped catalog graphs")
    add_common(p)
    p.set_defaults(handler=cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except ValidationFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for c in exc.report.checks:
            if not c.passed:
                print(f"  {c.name}: {c.detail}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ResgraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE


if __name__ == "__main__":
    sys.exit(main())

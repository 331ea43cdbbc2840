"""Characterization of the hypothesis gates of every entry point.

For graphs that fail one hypothesis, or two at once, each entry point must
raise the same exception with the same message, in a fixed precedence:

- ``class_group``: divisibility before definiteness.
- ``class_group_ell``: the prime check, then the per-vertex d and
  residue-degree checks, then the gates of ``class_group``.
- ``local_homology_general``: the prime check, then empty or
  disconnected, then definiteness.
- ``curve_profile``, ``mv_profile`` and ``deg_surjectivity``: the prime
  check first.
- ``validate``, ``local_homology_rational`` and ``dualizing_report``: the
  prime check first (before the mode check of ``local_homology_rational``).
- ``dualizing_report``: names the first failing point.
"""

import tracemalloc

import pytest

from resgraph import classgrp, dualgraph, dualizing, surfhom
from resgraph.classgrp import class_group, class_group_ell
from resgraph.curvehom import curve_profile, deg_surjectivity, mv_profile
from resgraph.dualgraph import DualGraph, Edge, Vertex, gen_ade, validate
from resgraph.dualizing import SingularPoint, SurfaceSpec, dualizing_report
from resgraph.errors import (
    DivisibilityViolationError,
    EllNotCoprimeError,
    EmptyInputError,
    NotAForestError,
    NotConnectedError,
    NotNegativeDefiniteError,
    ValidationFailedError,
)
from resgraph.exactlat import FgAbGroup, LModule, LSummand, ell_primary, is_prime
from resgraph.surfhom import GeneralCurveInput, local_homology_general, local_homology_rational

GOOD = gen_ade("A", 2)
EMPTY = DualGraph("pt", (), ())
# d = 2 divides neither -3 nor 1; otherwise negative definite and a forest
BAD_DIV = DualGraph("bad-div", (Vertex("a", -3, d=2), Vertex("b", -2)), (Edge("a", "b"),))
# two -1 curves meeting once: determinant 0
INDEFINITE = DualGraph("indef", (Vertex("a", -1), Vertex("b", -1)), (Edge("a", "b"),))
# both of the above at once
BAD_DIV_INDEFINITE = DualGraph("both", (Vertex("a", -1, d=2), Vertex("b", -1)), (Edge("a", "b"),))
# d = 3 on one vertex, residue degree 3 on the other (no edge: two components)
ELL3 = DualGraph("ell3", (Vertex("a", -6, d=3), Vertex("b", -2, residue_degree=3)), ())
# d = 2 fails to divide -3, and l = 2 divides d
ELL2_BAD_DIV = DualGraph("ell2-div", (Vertex("a", -3, d=2),), ())
TRIANGLE = DualGraph(
    "tri", tuple(Vertex(f"v{i}", -3) for i in (1, 2, 3)),
    (Edge("v1", "v2"), Edge("v2", "v3"), Edge("v1", "v3")))
DISCONNECTED = DualGraph("two", (Vertex("a", -2), Vertex("b", -2)), ())
# disconnected and not definite
DISCONNECTED_INDEFINITE = DualGraph("two-indef", (Vertex("a", 1), Vertex("b", -2)), ())
D4_AT_FOUR = DualGraph("d4", (Vertex("a", -4, d=4),), ())

PRIME = "coefficient prime required, got 4"


def raises(exc, message, fn, *args):
    with pytest.raises(exc) as info:
        fn(*args)
    assert type(info.value) is exc
    assert str(info.value) == message
    return info.value


class TestClassGroup:
    def test_divisibility(self):
        raises(DivisibilityViolationError, "d=2 of vertex 'a' does not divide ('a','a') = -3", class_group, BAD_DIV)

    def test_definiteness(self):
        raises(NotNegativeDefiniteError, "intersection matrix of 'indef' is not negative definite",
               class_group, INDEFINITE)

    def test_divisibility_before_definiteness(self):
        raises(DivisibilityViolationError, "d=2 of vertex 'a' does not divide ('a','a') = -1",
               class_group, BAD_DIV_INDEFINITE)

    def test_first_failing_entry_is_named(self):
        g = DualGraph(
            "two-bad", (Vertex("v1", -6, d=3), Vertex("v2", -5), Vertex("v3", -6, d=4)),
            (Edge("v1", "v2"), Edge("v2", "v3", 2)))
        raises(DivisibilityViolationError, "d=3 of vertex 'v1' does not divide ('v2','v1') = 1", class_group, g)

    def test_no_forest_or_connectedness_gate(self):
        assert class_group(TRIANGLE) == FgAbGroup(0, (4, 4))
        assert class_group(DISCONNECTED) == FgAbGroup(0, (2, 2))


class TestClassGroupEll:
    def test_d_then_residue_degree(self):
        raises(EllNotCoprimeError, "3 divides d=3 of vertex 'a'", class_group_ell, ELL3, 3)
        g = DualGraph("r", (Vertex("a", -2), Vertex("b", -2, residue_degree=3)), ())
        raises(EllNotCoprimeError, "3 divides residue degree 3 of vertex 'b'", class_group_ell, g, 3)
        both = DualGraph("r", (Vertex("a", -6, d=3, residue_degree=3),), ())
        raises(EllNotCoprimeError, "3 divides d=3 of vertex 'a'", class_group_ell, both, 3)

    def test_ell_before_divisibility(self):
        raises(EllNotCoprimeError, "2 divides d=2 of vertex 'a'", class_group_ell, ELL2_BAD_DIV, 2)
        raises(DivisibilityViolationError, "d=2 of vertex 'a' does not divide ('a','a') = -3",
               class_group_ell, ELL2_BAD_DIV, 3)

    def test_prime_check_before_class_group_gates(self):
        raises(ValueError, PRIME, class_group_ell, INDEFINITE, 4)
        raises(DivisibilityViolationError, "d=2 of vertex 'a' does not divide ('a','a') = -1",
               class_group_ell, BAD_DIV_INDEFINITE, 3)

    def test_prime_check_first(self):
        raises(ValueError, PRIME, class_group_ell, GOOD, 4)
        raises(ValueError, "coefficient prime required, got 1", class_group_ell, EMPTY, 1)
        for ell in (0, -3):
            for g in (GOOD, EMPTY, INDEFINITE, BAD_DIV_INDEFINITE, ELL3):
                raises(ValueError, f"coefficient prime required, got {ell}", class_group_ell, g, ell)

    def test_composite_ell_dividing_d(self):
        raises(ValueError, PRIME, class_group_ell, D4_AT_FOUR, 4)
        raises(ValueError, "coefficient prime required, got 1", class_group_ell, GOOD, 1)

    def test_passes(self):
        assert class_group_ell(ELL3, 5) == LModule.zero(5)
        assert class_group_ell(GOOD, 3) == LModule(3, (LSummand(1, 0, (1,)),))


class TestValidate:
    def test_prime_check_first(self):
        for g in (GOOD, INDEFINITE, BAD_DIV_INDEFINITE, TRIANGLE, DISCONNECTED):
            raises(ValueError, PRIME, validate, g, 4)

    def test_failures_are_report_entries(self):
        report = validate(BAD_DIV_INDEFINITE, 2)
        assert [(c.name, c.passed, c.detail) for c in report.checks] == [
            ("symmetric", True, "intersection matrix is symmetric by construction"),
            ("negative_definite", False, "some leading principal minor violates the sign condition"),
            ("connected", True, "single component"),
            ("divisibility", False,
             "d=2 of 'a' does not divide ('a','a')=-1; d=2 of 'a' does not divide ('b','a')=1"),
            ("ell_coprime", False, "2 divides d=2 of 'a'"),
            ("forest", True, "no cycles or multiple intersections"),
        ]

    def test_ell_failures_in_vertex_order(self):
        both = DualGraph("r", (Vertex("a", -6, d=3, residue_degree=3), Vertex("b", -3, residue_degree=3)), ())
        assert validate(both, 3).check("ell_coprime").detail == (
            "3 divides d=3 of 'a'; 3 divides residue degree 3 of 'a'; 3 divides residue degree 3 of 'b'")

    def test_shape_entries(self):
        report = validate(DISCONNECTED_INDEFINITE, 2)
        assert [c.name for c in report.checks if not c.passed] == ["negative_definite", "connected"]
        assert report.check("connected").detail == "2 components"
        assert validate(EMPTY, 2).check("connected").detail == "empty graph (vacuously connected)"
        assert validate(EMPTY, 2).overall
        tri = validate(TRIANGLE, 2)
        assert [c.name for c in tri.checks if not c.passed] == ["forest"]
        assert tri.check("forest").detail == "cycle found (an edge of multiplicity >= 2 counts as a cycle)"
        double = DualGraph("m2", (Vertex("a", -4), Vertex("b", -4)), (Edge("a", "b", 2),))
        assert [c.name for c in validate(double, 3).checks if not c.passed] == ["forest"]


class TestLocalHomologyRational:
    def test_prime_then_mode(self):
        raises(ValueError, PRIME, local_homology_rational, INDEFINITE, 4, "bogus")
        raises(ValueError, "coefficient prime required, got 1", local_homology_rational, GOOD, 1, "bogus")
        raises(ValueError, PRIME, local_homology_rational, INDEFINITE, 4)
        raises(ValueError, "mode must be 'integral' or 'rational', got 'bogus'",
               local_homology_rational, INDEFINITE, 3, "bogus")

    def test_validation_failure_carries_the_report(self):
        exc = raises(ValidationFailedError, "validation failed: negative_definite, divisibility, ell_coprime",
                     local_homology_rational, BAD_DIV_INDEFINITE, 2)
        assert exc.report == validate(BAD_DIV_INDEFINITE, 2)
        assert exc.point_id is None
        raises(ValidationFailedError, "validation failed: connected", local_homology_rational, DISCONNECTED, 3)
        raises(ValidationFailedError, "validation failed: forest", local_homology_rational, TRIANGLE, 3, "rational")
        raises(ValidationFailedError, "validation failed: connected, ell_coprime", local_homology_rational, ELL3, 3)


class TestLocalHomologyGeneral:
    def test_prime_check_first(self):
        for g in (EMPTY, DISCONNECTED_INDEFINITE):
            raises(ValueError, PRIME, local_homology_general, g, 4, GeneralCurveInput())
        raises(ValueError, "coefficient prime required, got 0", local_homology_general, GOOD, 0, GeneralCurveInput())

    def test_empty_or_disconnected_first(self):
        # the first of the graph gates, once ell is prime
        raises(NotConnectedError, "configuration 'pt' must be nonempty and connected for the local case",
               local_homology_general, EMPTY, 3, GeneralCurveInput())
        raises(NotConnectedError, "configuration 'two-indef' must be nonempty and connected for the local case",
               local_homology_general, DISCONNECTED_INDEFINITE, 3, GeneralCurveInput())

    def test_prime_before_definiteness(self):
        raises(ValueError, PRIME, local_homology_general, INDEFINITE, 4, GeneralCurveInput())
        raises(NotNegativeDefiniteError, "intersection matrix of 'indef' is not negative definite",
               local_homology_general, INDEFINITE, 3, GeneralCurveInput())
        raises(ValueError, PRIME, local_homology_general, TRIANGLE, 4, GeneralCurveInput())

    def test_no_divisibility_or_ell_gate(self):
        profile = local_homology_general(ELL2_BAD_DIV, 3, GeneralCurveInput())
        assert profile.entry(2) == LModule(3, (LSummand(1, 0, (1,)),))
        unit_free = DualGraph("r3", (Vertex("a", -2, residue_degree=3),), ())
        profile = local_homology_general(unit_free, 3, GeneralCurveInput())
        assert profile.entry(2).is_zero
        assert "assumed onto" in profile.provenance[0]


class TestCurveEntryPoints:
    def test_prime_check_first(self):
        raises(ValueError, PRIME, curve_profile, TRIANGLE, 4)
        raises(ValueError, PRIME, mv_profile, TRIANGLE, 4)
        raises(NotAForestError, "configuration 'tri' is not a forest", curve_profile, TRIANGLE, 3)
        raises(ValueError, "coefficient prime required, got 0", deg_surjectivity, [1], 0)
        raises(ValueError, PRIME, deg_surjectivity, [], 4)
        raises(EmptyInputError, "need at least one residue degree", deg_surjectivity, [], 2)


def spec(ell, *graphs):
    return SurfaceSpec("S", ell, tuple(SingularPoint(f"p{i}", g) for i, g in enumerate(graphs, start=1)))


class TestDualizingReport:
    def test_prime_check_first(self):
        raises(ValueError, PRIME, dualizing_report, spec(4, INDEFINITE, GOOD))
        raises(ValueError, PRIME, dualizing_report, spec(4))

    def test_names_the_first_failing_point(self):
        exc = raises(ValidationFailedError, "validation failed at point 'p2': divisibility",
                     dualizing_report, spec(3, GOOD, BAD_DIV, INDEFINITE))
        assert exc.point_id == "p2"
        assert exc.report == validate(BAD_DIV, 3)
        raises(ValidationFailedError, "validation failed at point 'p1': connected, ell_coprime",
               dualizing_report, spec(3, ELL3, TRIANGLE))


@pytest.mark.parametrize("ell", [2.0, 3.0, 7.5, True, "3", None], ids=repr)
def test_every_entry_point_that_takes_ell_refuses_a_non_integer(ell):
    # 2.0 and True once passed as primes, so Cl came out as Z/4.0(1); 7.5 raised a TypeError
    message = f"primality is only decided for integers, got {ell!r}"
    a3 = gen_ade("A", 3)
    entry_points = (
        (is_prime, ell),
        (LModule, ell),
        (LModule.zero, ell),
        (LModule.free, ell, 1),
        (ell_primary, FgAbGroup(0, (4,)), ell),
        (validate, a3, ell),
        (class_group_ell, a3, ell),
        (class_group_ell, INDEFINITE, ell),
        (local_homology_rational, a3, ell),
        (local_homology_rational, a3, ell, "rational"),
        (local_homology_rational, a3, ell, "bogus"),
        (local_homology_general, a3, ell, GeneralCurveInput()),
        (curve_profile, a3, ell),
        (mv_profile, a3, ell),
        (deg_surjectivity, [1], ell),
        (dualizing_report, spec(ell, a3)),
        (dualizing_report, spec(ell)),
    )
    for fn, *args in entry_points:
        raises(ValueError, message, fn, *args)


def test_three_point_report_builds_each_intersection_matrix_once(monkeypatch):
    # every dense matrix (the intersection matrix or theta) is built by dualgraph._dense
    real = dualgraph._dense
    built = []

    def counted(rows, divisors):
        built.append(len(rows))
        return real(rows, divisors)

    for module in (dualgraph, classgrp, surfhom, dualizing):
        if vars(module).get("_dense") is real:
            monkeypatch.setattr(module, "_dense", counted)
    report = dualizing_report(spec(2, gen_ade("A", 3), gen_ade("D", 5), gen_ade("E", 6)))
    assert [str(v.class_group) for v in report.points] == ["Z/4", "Z/4", "Z/3"]
    assert built == [3, 5, 6]

    # theta is filled straight from the sparse rows, with no intersection matrix in between
    built.clear()
    assert str(class_group(DualGraph("d2", (Vertex("a", -4, d=2), Vertex("b", -2)), (Edge("a", "b", 2),)))) == "Z/2"
    assert built == [2]

    # a gate-only call builds no dense matrix, nor does a gate that fails before Cl
    built.clear()
    for g in (GOOD, EMPTY, BAD_DIV, INDEFINITE, BAD_DIV_INDEFINITE, ELL3, TRIANGLE, DISCONNECTED_INDEFINITE):
        validate(g, 3)
    for fn, g in ((class_group, BAD_DIV), (class_group, INDEFINITE), (class_group, BAD_DIV_INDEFINITE),
                  (lambda g: class_group_ell(g, 3), ELL3), (lambda g: local_homology_rational(g, 3), TRIANGLE),
                  (lambda g: local_homology_general(g, 3, GeneralCurveInput()), INDEFINITE),
                  (lambda g: local_homology_general(g, 3, GeneralCurveInput()), DISCONNECTED),
                  (lambda g: dualizing_report(spec(3, g)), BAD_DIV)):
        with pytest.raises((DivisibilityViolationError, NotNegativeDefiniteError, EllNotCoprimeError,
                            ValidationFailedError, NotConnectedError)):
            fn(g)
    assert built == []


def test_validate_scales_to_the_generator_limit_in_sparse_memory():
    # a dense n x n grid holds n^2 row slots, 32 MB at n = 2,000: far above the bound
    for n in (2_000, 10_000):
        g = gen_ade("D", n)
        tracemalloc.start()
        try:
            report = validate(g, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.overall
        assert peak < 16 << 20, (n, peak)

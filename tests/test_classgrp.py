import ast
from math import prod
from pathlib import Path

import pytest

from resgraph import classgrp, dualgraph, dualizing, surfhom
from resgraph.cli import main
from resgraph.classgrp import class_group, class_group_ell, theta_matrix
from resgraph.dualgraph import (
    DualGraph,
    Edge,
    Vertex,
    catalog_names,
    gen_ade,
    gen_hj,
    intersection_matrix,
    load_catalog_graph,
)
from resgraph.errors import (
    DivisibilityViolationError,
    EllNotCoprimeError,
    GraphFormatError,
    NotNegativeDefiniteError,
)
from resgraph.dualizing import SingularPoint, SurfaceSpec, dualizing_report
from resgraph.exactlat import FgAbGroup, IntMatrix, LModule, LSummand
from resgraph.surfhom import GeneralCurveInput, local_homology_general, local_homology_rational

from .oracles import CosetGroup, det_fraction


def single(selfint, d=1, residue=1):
    return DualGraph("one", (Vertex("v1", selfint, d, residue),), ())


def two_bad_rows():
    """d = 3 and d = 4 each fail to divide two entries of their rows."""
    return DualGraph(
        "two-bad",
        (Vertex("v1", -6, d=3), Vertex("v2", -5), Vertex("v3", -6, d=4)),
        (Edge("v1", "v2"), Edge("v2", "v3", 2)),
    )


class TestThetaMatrix:
    def test_a1(self):
        assert theta_matrix(gen_ade("A", 1)).matrix == IntMatrix.from_rows([[-2]])

    def test_rescaled_vertex(self):
        assert theta_matrix(single(-4, d=2)).matrix == IntMatrix.from_rows([[-2]])

    def test_equals_intersection_when_d_is_one(self):
        for name in catalog_names():
            g = load_catalog_graph(name)
            assert theta_matrix(g).matrix == intersection_matrix(g)
        for g in (gen_ade("D", 40), gen_hj(2**61 - 1, 2**35)):
            assert theta_matrix(g).matrix == intersection_matrix(g)

    def test_row_scaling_orientation(self):
        # second vertex has d=2: only the second *row* of the pairing matrix
        # is halved
        g = DualGraph(
            "mixed",
            (Vertex("a", -4), Vertex("b", -6, d=2)),
            (Edge("a", "b", 2),),
        )
        assert theta_matrix(g).matrix == IntMatrix.from_rows([[-4, 2], [1, -3]])

    def test_divisibility_violation(self):
        with pytest.raises(DivisibilityViolationError):
            theta_matrix(single(-3, d=2))
        # two rows fail; the error names the first entry of the first one
        with pytest.raises(DivisibilityViolationError) as info:
            theta_matrix(two_bad_rows())
        assert str(info.value) == "d=3 of vertex 'v1' does not divide ('v2','v1') = 1"

    def test_empty_graph(self):
        assert theta_matrix(DualGraph("pt", (), ())).matrix.rows == 0

    def test_float_d_is_refused(self):
        for d in (1.0, 2.0):
            with pytest.raises(GraphFormatError, match=rf"^vertex 'v1': d must be an integer, got {d}$"):
                single(-4, d=d)


class TestClassGroup:
    def test_an_series(self):
        for n in range(1, 8):
            assert class_group(gen_ade("A", n)) == FgAbGroup(0, (n + 1,))

    def test_a3_against_oracle(self):
        g = gen_ade("A", 3)
        oracle = CosetGroup(intersection_matrix(g).to_lists())
        group = class_group(g)
        assert group.order() == oracle.order == 4
        assert group.exponent() == oracle.exponent == 4

    def test_e8_trivial(self):
        assert class_group(gen_ade("E", 8)).is_trivial

    def test_hj_5_2(self):
        assert class_group(gen_hj(5, 2)) == FgAbGroup(0, (5,))

    def test_dn_structure(self):
        # discriminant group of the D_n configuration: order 4 always,
        # cyclic exactly when n is odd; verified against the coset oracle
        # for n = 4..7, regression-locked beyond
        for n in range(4, 8):
            g = gen_ade("D", n)
            oracle = CosetGroup(intersection_matrix(g).to_lists())
            group = class_group(g)
            assert group.order() == oracle.order == 4
            assert group.exponent() == oracle.exponent
        assert class_group(gen_ade("D", 5)) == FgAbGroup(0, (4,))
        assert class_group(gen_ade("D", 8)) == FgAbGroup(0, (2, 2))
        assert class_group(gen_ade("D", 9)) == FgAbGroup(0, (4,))

    def test_not_negative_definite(self):
        with pytest.raises(NotNegativeDefiniteError):
            class_group(single(2))

    def test_order_is_det_of_theta(self):
        for name in catalog_names():
            g = load_catalog_graph(name)
            theta_rows = theta_matrix(g).matrix.to_lists()
            assert class_group(g).order() == abs(det_fraction(theta_rows))

    def test_empty_graph_gives_trivial_group(self):
        assert class_group(DualGraph("pt", (), ())).is_trivial


class TestClassGroupEll:
    def test_a3_two_part(self):
        assert class_group_ell(gen_ade("A", 3), 2) == LModule(2, (LSummand(1, 0, (2,)),))

    def test_a3_three_part_is_zero(self):
        assert class_group_ell(gen_ade("A", 3), 3).is_zero

    def test_e8_always_zero(self):
        for ell in (2, 3, 5, 7):
            assert class_group_ell(gen_ade("E", 8), ell).is_zero

    def test_twist_is_plus_one(self):
        mod = class_group_ell(gen_ade("A", 1), 2)
        assert mod.summands[0].twist == 1

    def test_ell_divides_d(self):
        with pytest.raises(EllNotCoprimeError):
            class_group_ell(single(-4, d=2), 2)

    def test_ell_divides_residue_degree(self):
        with pytest.raises(EllNotCoprimeError):
            class_group_ell(single(-2, residue=2), 2)

    def test_d_of_two_is_fine_at_odd_ell(self):
        mod = class_group_ell(single(-4, d=2), 3)
        # theta is [-2], class group Z/2, trivial 3-part
        assert mod.is_zero

    def test_theta_vs_intersection_at_coprime_ell(self):
        g = DualGraph(
            "mixed",
            (Vertex("a", -10, d=2), Vertex("b", -10)),
            (Edge("a", "b", 2),),
        )
        from resgraph.exactlat import cokernel, ell_primary

        for ell in (3, 5, 7):
            lhs = ell_primary(cokernel(theta_matrix(g).matrix), ell)
            rhs = ell_primary(cokernel(intersection_matrix(g)), ell)
            assert lhs == rhs


class TestOneOwnerForTheEllPart:
    """Every route turns theta (or the intersection matrix) into Cl and Cl
    into its twisted l-part through ``classgrp``: the seam that a local
    l-adic elimination would replace."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # ``_ell_part`` is the one caller of ``ell_primary`` in classgrp, and
        # ``_cokernel`` the one caller of ``cokernel``
        seen = {"ell_part": 0, "cokernel": 0}

        def counted(key, real):
            def wrapper(*args):
                seen[key] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(classgrp, "ell_primary", counted("ell_part", classgrp.ell_primary))
        monkeypatch.setattr(classgrp, "cokernel", counted("cokernel", classgrp.cokernel))
        return seen

    def test_each_route_goes_through_classgrp(self, calls):
        g = gen_ade("A", 3)
        routes = (
            (lambda: class_group_ell(g, 2), 1, 1),
            (lambda: local_homology_rational(g, 2), 1, 1),
            (lambda: local_homology_rational(g, 2, "rational"), 1, 1),
            (lambda: dualizing_report(SurfaceSpec("S", 2, (SingularPoint("p", g), SingularPoint("q", g)))), 2, 2),
            # the general route reads the cokernel of the intersection matrix
            (lambda: local_homology_general(g, 2, GeneralCurveInput()), 1, 1),
        )
        for route, ell_parts, cokernels in routes:
            calls.update(ell_part=0, cokernel=0)
            route()
            assert calls == {"ell_part": ell_parts, "cokernel": cokernels}

    def test_no_other_module_reads_the_ell_part(self):
        for module in (surfhom, dualizing):
            assert not {"_theta", "ell_primary"} & set(vars(module))
        raising = [path.name for path in Path(classgrp.__file__).parent.glob("*.py")
                   if "raise NotNegativeDefiniteError" in path.read_text(encoding="utf-8")]
        assert raising == ["classgrp.py"]

    def test_no_other_module_builds_or_reduces_a_matrix(self):
        # the modules that define ``cokernel`` and ``_dense`` aside, and the
        # package's public re-exports in ``__init__``, only classgrp binds them
        owners = {"cokernel": {"exactlat.py", "classgrp.py", "__init__.py"},
                  "_dense": {"dualgraph.py", "classgrp.py"}}
        for path in Path(classgrp.__file__).parent.glob("*.py"):
            bound = set()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    bound |= {alias.asname or alias.name for alias in node.names}
                elif isinstance(node, (ast.FunctionDef, ast.Name)):
                    bound.add(node.name if isinstance(node, ast.FunctionDef) else node.id)
            for name, modules in owners.items():
                assert name not in bound or path.name in modules, (path.name, name)


class TestOrderSelfCheck:
    """The definiteness pass keeps |det A| = |prod of its pivots|, and every
    cokernel must have the order it predicts: |Cl| = |det theta| = |det A|
    over the product of the d_j, and |coker A| = |det A| on the general
    route.  Another order is a bug, so it raises RuntimeError, which the CLI
    does not turn into a domain error."""

    # a 4-cycle with d = 2 on two vertices, definite, theta differing from A
    CYCLE = DualGraph(
        "cyc", (Vertex("a", -6, d=2), Vertex("b", -5), Vertex("c", -6, d=2), Vertex("e", -5)),
        (Edge("a", "b", 2), Edge("b", "c", 2), Edge("c", "e", 2), Edge("e", "a", 2)))

    def test_the_pivot_determinant_predicts_each_order(self):
        graphs = [load_catalog_graph(name) for name in catalog_names()]
        graphs += [self.CYCLE, single(-6, d=3), gen_hj(97, 28), gen_ade("D", 40), DualGraph("pt", (), ())]
        for g in graphs:
            det = dualgraph._analyse(g).det
            assert det == abs(det_fraction(intersection_matrix(g).to_lists())), g.name
            assert class_group(g).order() * prod(v.d for v in g.vertices) == det, g.name

    @pytest.fixture(params=[FgAbGroup(0, (2,)), FgAbGroup(1)], ids=["order-2", "infinite"])
    def wrong_cokernel(self, request, monkeypatch):
        monkeypatch.setattr(classgrp, "cokernel", lambda m: request.param)
        return request.param

    def test_a_cokernel_of_another_order_is_a_bug(self, wrong_cokernel):
        g = gen_ade("A", 3)
        message = f"cokernel for 'A3' has order {wrong_cokernel.order()}, but the pivots give 4"
        routes = (
            class_group,
            lambda g: class_group_ell(g, 3),
            lambda g: local_homology_rational(g, 3),
            lambda g: dualizing_report(SurfaceSpec("S", 3, (SingularPoint("p", g),))),
            lambda g: local_homology_general(g, 3, GeneralCurveInput()),
        )
        for route in routes:
            with pytest.raises(RuntimeError) as info:
                route(g)
            assert str(info.value) == message

    def test_the_cli_lets_the_bug_through(self, wrong_cokernel):
        with pytest.raises(RuntimeError):
            main(["classgroup", "catalog:A3"])

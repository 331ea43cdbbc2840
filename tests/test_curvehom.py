import pytest

from resgraph.curvehom import (
    curve_profile,
    deg_surjectivity,
    mv_profile,
)
from resgraph.dualgraph import DualGraph, Edge, Vertex, gen_ade
from resgraph.errors import EmptyInputError, NotAForestError
from resgraph.exactlat import LModule

from .oracles import all_forests


def forest_graph(n, edges, name="forest"):
    return DualGraph(
        name,
        tuple(Vertex(f"v{i}", -2) for i in range(n)),
        tuple(Edge(f"v{a}", f"v{b}") for a, b in edges),
    )


class TestCurveProfile:
    def test_single_vertex(self):
        p = curve_profile(gen_ade("A", 1), ell=2)
        assert (p.r, p.n) == (1, 1)
        assert p.homology[0] == LModule.free(2, 1, 0)
        assert p.homology[1].is_zero
        assert p.homology[2] == LModule.free(2, 1, 1)
        assert p.cohomology[0] == LModule.free(2, 1, 0)
        assert p.cohomology[1].is_zero
        assert p.cohomology[2] == LModule.free(2, 1, -1)
        assert p.basis_labels == ("v1",)

    def test_two_disjoint_vertices(self):
        g = forest_graph(2, [])
        p = curve_profile(g)
        assert (p.r, p.n) == (2, 2)
        assert p.homology[0].total_free_rank() == 2
        assert p.homology[2].total_free_rank() == 2

    def test_a4_chain_matches_oracle(self):
        g = gen_ade("A", 4)
        assert curve_profile(g) == mv_profile(g)
        assert (curve_profile(g).r, curve_profile(g).n) == (1, 4)

    def test_rejects_cycle(self):
        g = DualGraph(
            "tri",
            tuple(Vertex(f"v{i}", -2) for i in (1, 2, 3)),
            (Edge("v1", "v2"), Edge("v2", "v3"), Edge("v1", "v3")),
        )
        with pytest.raises(NotAForestError):
            curve_profile(g)
        with pytest.raises(NotAForestError):
            mv_profile(g)

    def test_rejects_multiple_intersection(self):
        g = DualGraph("m2", (Vertex("a", -4), Vertex("b", -4)), (Edge("a", "b", 2),))
        with pytest.raises(NotAForestError):
            curve_profile(g)

    def test_additive_over_components(self):
        chain = gen_ade("A", 3)
        star = gen_ade("D", 4)
        union = DualGraph(
            "union",
            tuple(Vertex(f"c{v.id}", -2) for v in chain.vertices)
            + tuple(Vertex(f"s{v.id}", -2) for v in star.vertices),
            tuple(Edge(f"c{e.a}", f"c{e.b}") for e in chain.edges)
            + tuple(Edge(f"s{e.a}", f"s{e.b}") for e in star.edges),
        )
        pc, ps, pu = curve_profile(chain), curve_profile(star), curve_profile(union)
        assert pu.r == pc.r + ps.r
        assert pu.n == pc.n + ps.n
        for q in range(3):
            assert pu.homology[q].total_free_rank() == (
                pc.homology[q].total_free_rank() + ps.homology[q].total_free_rank())


class TestMvProfile:
    def test_base_case(self):
        g = gen_ade("A", 1)
        assert mv_profile(g) == curve_profile(g)

    def test_a2_one_step(self):
        p = mv_profile(gen_ade("A", 2))
        assert (p.r, p.n) == (1, 2)
        assert p.homology[2].total_free_rank() == 2
        assert p.homology[0].total_free_rank() == 1

    def test_d4_star(self):
        p = mv_profile(gen_ade("D", 4))
        assert (p.r, p.n) == (1, 4)

    def test_exhaustive_forests_up_to_six(self):
        for n, edges in all_forests(6):
            g = forest_graph(n, edges)
            assert mv_profile(g) == curve_profile(g), (n, edges)

    def test_long_chain_peels_without_recursion(self):
        # one recursion level per vertex used to overflow the stack here
        g = gen_ade("A", 1200)
        assert mv_profile(g) == curve_profile(g)

    def test_empty_graph(self):
        g = DualGraph("pt", (), ())
        p = mv_profile(g)
        assert (p.r, p.n) == (0, 0)
        assert p == curve_profile(g)


class TestDegSurjectivity:
    def test_unit(self):
        assert deg_surjectivity([1], 5)

    def test_all_divisible(self):
        assert not deg_surjectivity([9, 3], 3)

    def test_prime_power_of_other_char(self):
        # residue degree 4 = 2^2 is a unit in the 3-adic ring
        assert deg_surjectivity([4], 3)

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            deg_surjectivity([], 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            deg_surjectivity([0], 2)

import json
import random
import time
from math import gcd

import pytest

from resgraph.dualgraph import (
    MAX_GENERATED_VERTICES,
    _analyse,
    _rows,
    DualGraph,
    Edge,
    Vertex,
    catalog_names,
    connected_components,
    gen_ade,
    gen_hj,
    graph_from_obj,
    graph_to_obj,
    hj_expansion,
    intersection_matrix,
    is_forest,
    load_catalog_graph,
    parse_graph,
    resolve_graph,
    serialize_graph,
    validate,
)
from resgraph.errors import GraphFormatError, NotCoprimeError, UnsupportedIndexError
from resgraph.exactlat import IntMatrix, is_negative_definite

from .oracles import det_fraction, eval_continued_fraction
from fractions import Fraction


def single(selfint=-2, d=1, residue=1, name="one"):
    return DualGraph(name, (Vertex("v1", selfint, d, residue),), ())


def triangle(selfint=-2):
    return DualGraph(
        "triangle",
        tuple(Vertex(f"v{i}", selfint) for i in (1, 2, 3)),
        (Edge("v1", "v2"), Edge("v2", "v3"), Edge("v1", "v3")),
    )


class TestGraphInvariants:
    def test_duplicate_vertex_ids_rejected(self):
        with pytest.raises(GraphFormatError):
            DualGraph("bad", (Vertex("v", -2), Vertex("v", -3)), ())

    def test_first_repeated_vertex_id_is_named(self):
        vs = tuple(Vertex(x, -2) for x in ("a", "b", "b", "a"))
        with pytest.raises(GraphFormatError, match="^duplicate vertex id 'b'$"):
            DualGraph("bad", vs, ())

    def test_duplicate_last_of_many_is_found_fast(self):
        # a quadratic scan took 21 s at 40,001 vertices
        n = 50_000
        text = json.dumps({"name": "big", "edges": [],
                           "vertices": [{"id": f"v{i}", "self": -2} for i in range(n)] + [{"id": f"v{n - 1}", "self": -2}]})
        start = time.perf_counter()
        with pytest.raises(GraphFormatError, match=f"^duplicate vertex id 'v{n - 1}'$"):
            parse_graph(text)
        assert time.perf_counter() - start < 2

    def test_edge_to_missing_vertex_rejected(self):
        with pytest.raises(GraphFormatError):
            DualGraph("bad", (Vertex("v1", -2),), (Edge("v1", "v2"),))

    def test_duplicate_edge_pair_rejected(self):
        with pytest.raises(GraphFormatError):
            DualGraph(
                "bad",
                (Vertex("v1", -2), Vertex("v2", -2)),
                (Edge("v1", "v2"), Edge("v2", "v1")),
            )

    def test_loops_rejected(self):
        with pytest.raises(GraphFormatError):
            Edge("v1", "v1")

    def test_bad_vertex_data(self):
        with pytest.raises(GraphFormatError):
            Vertex("v", -2, d=0)
        with pytest.raises(GraphFormatError):
            Vertex("v", -2, residue_degree=0)


class TestIntersectionMatrix:
    def test_single_vertex(self):
        assert intersection_matrix(single(-2)) == IntMatrix.from_rows([[-2]])

    def test_a2_chain(self):
        g = gen_ade("A", 2)
        assert intersection_matrix(g) == IntMatrix.from_rows([[-2, 1], [1, -2]])

    def test_two_disjoint(self):
        g = DualGraph("two", (Vertex("a", -2), Vertex("b", -3)), ())
        assert intersection_matrix(g) == IntMatrix.from_rows([[-2, 0], [0, -3]])

    def test_empty(self):
        g = DualGraph("pt", (), ())
        assert intersection_matrix(g).rows == 0

    def test_multiplicity(self):
        g = DualGraph("m2", (Vertex("a", -4), Vertex("b", -4)), (Edge("a", "b", 2),))
        assert intersection_matrix(g) == IntMatrix.from_rows([[-4, 2], [2, -4]])

    def test_float_weight_is_refused(self):
        with pytest.raises(GraphFormatError, match=r"^vertex 'b': self_intersection must be an integer, got -2\.0$"):
            Vertex("b", -2.0)
        with pytest.raises(GraphFormatError, match=r"^edge 'a'-'b': m must be an integer, got 1\.0$"):
            Edge("a", "b", 1.0)
        with pytest.raises(GraphFormatError, match=r"^vertex 'a': residue_degree must be an integer, got True$"):
            Vertex("a", -2, residue_degree=True)

    def test_permutation_invariance(self):
        rng = random.Random(5)
        g = gen_ade("D", 6)
        inter = intersection_matrix(g)
        order = list(range(g.n))
        for _ in range(10):
            rng.shuffle(order)
            shuffled = DualGraph(
                g.name,
                tuple(g.vertices[i] for i in order),
                tuple(reversed(g.edges)),
            )
            other = intersection_matrix(shuffled)
            for new_i, old_i in enumerate(order):
                for new_j, old_j in enumerate(order):
                    assert other[new_i, new_j] == inter[old_i, old_j]


class TestValidate:
    def test_a1_all_pass(self):
        report = validate(gen_ade("A", 1), 3)
        assert report.overall
        assert [c.name for c in report.checks] == [
            "symmetric", "negative_definite", "connected",
            "divisibility", "ell_coprime", "forest",
        ]

    def test_triangle_fails_forest(self):
        report = validate(triangle(), 2)
        assert not report.check("forest").passed
        assert not report.overall

    def test_ell_divides_d(self):
        report = validate(single(-4, d=2), 2)
        assert not report.check("ell_coprime").passed
        assert report.check("divisibility").passed

    def test_ell_divides_residue_degree(self):
        report = validate(single(-2, residue=4), 2)
        assert not report.check("ell_coprime").passed

    def test_divisibility_violation(self):
        report = validate(single(-3, d=2), 3)
        assert not report.check("divisibility").passed
        g = DualGraph(
            "two-bad",
            (Vertex("v1", -6, d=3), Vertex("v2", -5), Vertex("v3", -6, d=4)),
            (Edge("v1", "v2"), Edge("v2", "v3", 2)),
        )
        assert validate(g, 5).check("divisibility").detail == (
            "d=3 of 'v1' does not divide ('v2','v1')=1; "
            "d=4 of 'v3' does not divide ('v2','v3')=2; "
            "d=4 of 'v3' does not divide ('v3','v3')=-6")

    def test_not_negative_definite(self):
        report = validate(single(2), 3)
        assert not report.check("negative_definite").passed

    def test_disconnected(self):
        g = DualGraph("two", (Vertex("a", -2), Vertex("b", -2)), ())
        report = validate(g, 2)
        assert not report.check("connected").passed

    def test_multiplicity_breaks_forest(self):
        g = DualGraph("m2", (Vertex("a", -4), Vertex("b", -4)), (Edge("a", "b", 2),))
        assert not is_forest(g)
        assert not validate(g, 3).check("forest").passed

    def test_empty_graph_passes(self):
        assert validate(DualGraph("pt", (), ()), 2).overall

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            validate(gen_ade("A", 1), 6)


class TestGenAde:
    def test_a1(self):
        g = gen_ade("A", 1)
        assert g.n == 1 and not g.edges
        assert g.vertices[0].self_intersection == -2

    def test_a3_chain(self):
        g = gen_ade("A", 3)
        assert g.n == 3
        assert {frozenset((e.a, e.b)) for e in g.edges} == {
            frozenset(("v1", "v2")), frozenset(("v2", "v3"))}

    def test_d4_star(self):
        g = gen_ade("D", 4)
        degree = {v.id: 0 for v in g.vertices}
        for e in g.edges:
            degree[e.a] += 1
            degree[e.b] += 1
        assert sorted(degree.values()) == [1, 1, 1, 3]

    def test_e8_determinant(self):
        g = gen_ade("E", 8)
        assert g.n == 8
        assert abs(det_fraction(intersection_matrix(g).to_lists())) == 1

    def test_e_series_determinants(self):
        assert abs(det_fraction(intersection_matrix(gen_ade("E", 6)).to_lists())) == 3
        assert abs(det_fraction(intersection_matrix(gen_ade("E", 7)).to_lists())) == 2

    def test_unsupported(self):
        for family, n in (("A", 0), ("D", 3), ("E", 5), ("E", 9), ("F", 4)):
            with pytest.raises(UnsupportedIndexError):
                gen_ade(family, n)
        assert gen_ade("A", MAX_GENERATED_VERTICES).n == MAX_GENERATED_VERTICES
        for family in "ADE":
            with pytest.raises(UnsupportedIndexError, match="at most 10000 vertices"):
                gen_ade(family, MAX_GENERATED_VERTICES + 1)

    def test_all_pass_validation(self):
        for g in (gen_ade("A", 5), gen_ade("D", 5), gen_ade("E", 6)):
            for ell in (2, 3, 5, 7):
                assert validate(g, ell).overall, (g.name, ell)


class TestGenHj:
    def test_two_one(self):
        g = gen_hj(2, 1)
        assert [v.self_intersection for v in g.vertices] == [-2]

    def test_k_one(self):
        for k in (2, 5, 9):
            g = gen_hj(k, 1)
            assert [v.self_intersection for v in g.vertices] == [-k]

    def test_five_two(self):
        assert hj_expansion(5, 2) == [3, 2]
        g = gen_hj(5, 2)
        assert [v.self_intersection for v in g.vertices] == [-3, -2]

    def test_expansion_oracle(self):
        for k in range(2, 31):
            for a in range(1, k):
                if gcd(a, k) != 1:
                    continue
                bs = hj_expansion(k, a)
                assert all(b >= 2 for b in bs)
                assert eval_continued_fraction(bs) == Fraction(k, a)

    def test_determinant_identity(self):
        for k in range(2, 13):
            for a in range(1, k):
                if gcd(a, k) != 1:
                    continue
                assert abs(det_fraction(intersection_matrix(gen_hj(k, a)).to_lists())) == k

    def test_vertex_limit(self):
        # k/(k-1) expands to k-1 twos
        assert len(hj_expansion(MAX_GENERATED_VERTICES + 1, MAX_GENERATED_VERTICES)) == MAX_GENERATED_VERTICES
        for k, a in ((MAX_GENERATED_VERTICES + 2, MAX_GENERATED_VERTICES + 1), (10**8, 10**8 - 1)):
            with pytest.raises(UnsupportedIndexError, match="at most 10000 vertices"):
                gen_hj(k, a)

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            gen_hj(4, 2)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            gen_hj(1, 1)
        with pytest.raises(ValueError):
            gen_hj(5, 5)

    def test_validation(self):
        for ell in (2, 3, 5, 7):
            assert validate(gen_hj(12, 5), ell).overall


class TestJson:
    def test_round_trip_catalog(self):
        for name in catalog_names():
            g = load_catalog_graph(name)
            assert parse_graph(serialize_graph(g)) == g

    def test_defaults_applied(self):
        g = graph_from_obj({
            "name": "t",
            "vertices": [{"id": "v1", "self": -2}],
            "edges": [],
        })
        assert g.vertices[0].d == 1
        assert g.vertices[0].residue_degree == 1

    def test_edge_default_multiplicity(self):
        g = graph_from_obj({
            "name": "t",
            "vertices": [{"id": "a", "self": -2}, {"id": "b", "self": -2}],
            "edges": [{"a": "a", "b": "b"}],
        })
        assert g.edges[0].m == 1

    def test_unknown_keys_rejected(self):
        with pytest.raises(GraphFormatError):
            graph_from_obj({"name": "t", "vertices": [], "edges": [], "extra": 1})
        with pytest.raises(GraphFormatError):
            graph_from_obj({
                "name": "t",
                "vertices": [{"id": "v", "self": -2, "genus": 0}],
                "edges": [],
            })

    def test_duplicate_ids_rejected(self):
        with pytest.raises(GraphFormatError):
            graph_from_obj({
                "name": "t",
                "vertices": [{"id": "v", "self": -2}, {"id": "v", "self": -3}],
                "edges": [],
            })

    def test_bool_is_not_int(self):
        with pytest.raises(GraphFormatError):
            graph_from_obj({
                "name": "t",
                "vertices": [{"id": "v", "self": True}],
                "edges": [],
            })

    def test_missing_keys(self):
        with pytest.raises(GraphFormatError):
            graph_from_obj({"name": "t", "vertices": [{"id": "v"}], "edges": []})
        with pytest.raises(GraphFormatError):
            graph_from_obj({"vertices": [], "edges": []})

    def test_invalid_json_text(self):
        with pytest.raises(GraphFormatError):
            parse_graph("{not json")

    def test_serialized_form_is_explicit(self):
        obj = graph_to_obj(gen_hj(5, 2))
        assert obj["vertices"][0] == {"id": "v1", "self": -3, "d": 1, "residue_degree": 1}
        assert obj["edges"][0] == {"a": "v1", "b": "v2", "m": 1}


class TestCatalog:
    def test_expected_names_present(self):
        names = catalog_names()
        for expected in ["A1", "A9", "D4", "D8", "E6", "E7", "E8", "HJ-5-2"]:
            assert expected in names

    def test_load(self):
        g = load_catalog_graph("A3")
        assert g == gen_ade("A", 3)

    def test_missing_name(self):
        with pytest.raises(FileNotFoundError):
            load_catalog_graph("Z99")

    def test_resolve_prefers_catalog_prefix(self, tmp_path):
        g = resolve_graph("catalog:A2")
        assert g == gen_ade("A", 2)
        path = tmp_path / "g.json"
        path.write_text(serialize_graph(gen_ade("A", 4)), encoding="utf-8")
        assert resolve_graph(str(path)) == gen_ade("A", 4)

    def test_env_override(self, tmp_path, monkeypatch):
        alt = gen_ade("A", 1)
        alt_named = DualGraph("custom", alt.vertices, alt.edges)
        (tmp_path / "custom.json").write_text(serialize_graph(alt_named), encoding="utf-8")
        monkeypatch.setenv("RESGRAPH_CATALOG_DIR", str(tmp_path))
        assert catalog_names() == ["custom"]
        assert load_catalog_graph("custom") == alt_named


def test_connectivity_helpers():
    assert connected_components(DualGraph("pt", (), ())) == []
    assert connected_components(gen_ade("A", 4)) == [[0, 1, 2, 3]]
    assert connected_components(DualGraph("two", (Vertex("a", -2), Vertex("b", -2)), ())) == [[0], [1]]
    assert is_forest(gen_ade("D", 5))
    assert not is_forest(triangle())


def seeded_graphs():
    """Random trees and forests, and the same with extra edges making cycles;
    multiplicities up to 3, d in 1..3, edges listed in random order and
    orientation.  Self-intersections lie in -7..1 (0 included), or in half of the
    graphs just below minus the vertex's weighted degree, which makes
    the matrix diagonally dominant and so negative definite."""
    rng = random.Random(71)
    graphs = [DualGraph("pt", (), ()), triangle(), triangle(0)]
    for k in range(60):
        n = rng.randint(1, 30)
        pairs = {(rng.randrange(i), i): rng.choice((1, 1, 2)) for i in range(1, n) if rng.random() < 0.9}
        for _ in range(rng.randint(0, 4) if k % 2 and n > 2 else 0):
            a, b = sorted(rng.sample(range(n), 2))
            pairs.setdefault((a, b), rng.randint(1, 3))
        degree = [0] * n
        for (a, b), m in pairs.items():
            degree[a] += m
            degree[b] += m
        vertices = tuple(Vertex(f"v{i}", -degree[i] - rng.randint(1, 2) if k % 4 < 2 else rng.randint(-7, 1),
                                d=rng.choice((1, 1, 1, 2, 3)), residue_degree=rng.randint(1, 3)) for i in range(n))
        edges = [Edge(f"v{a}", f"v{b}", m) if rng.random() < 0.5 else Edge(f"v{b}", f"v{a}", m)
                 for (a, b), m in pairs.items()]
        rng.shuffle(edges)
        graphs.append(DualGraph(f"g{k}", vertices, tuple(edges)))
    return graphs


@pytest.mark.parametrize("g", seeded_graphs(), ids=lambda g: g.name)
def test_every_view_of_the_edge_list_agrees_with_the_dense_matrix(g):
    m = intersection_matrix(g)
    dense = m.entries
    assert _rows(g) == [{j: x for j, x in enumerate(row) if x} for row in dense]
    assert [sorted(nbrs) for nbrs in g.adjacency()] == [
        [j for j, x in enumerate(row) if x and j != i] for i, row in enumerate(dense)]
    a = _analyse(g)
    assert a.indivisible == [(j, i, x) for j, v in enumerate(g.vertices) if v.d != 1
                             for i, x in enumerate(dense[j]) if x % v.d]
    assert (a.det is not None) == is_negative_definite(m)
    if a.det is not None:
        assert a.det == abs(det_fraction(m.to_lists()))
    # components by closing each vertex's dense neighbourhood
    label = list(range(g.n))
    for i, row in enumerate(dense):
        for j, x in enumerate(row):
            if x and label[i] != label[j]:
                old, new = label[j], label[i]
                label = [new if c == old else c for c in label]
    groups = {}
    for i, c in enumerate(label):
        groups.setdefault(c, []).append(i)
    assert sorted(connected_components(g)) == sorted(groups.values())
    assert a.components == connected_components(g)

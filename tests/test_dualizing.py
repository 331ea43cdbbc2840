import time

import pytest

from resgraph.classgrp import class_group
from resgraph.dualgraph import (
    DualGraph,
    Edge,
    Vertex,
    catalog_names,
    gen_ade,
    graph_to_obj,
    load_catalog_graph,
)
from resgraph.dualizing import (
    SingularPoint,
    SurfaceSpec,
    dualizing_report,
    surface_from_obj,
)
from resgraph.errors import (
    GraphFormatError,
    ValidationFailedError,
)
from resgraph.exactlat import LModule, LSummand


def spec_of(ell, *named_graphs, name="X"):
    return SurfaceSpec(
        name=name,
        ell=ell,
        points=tuple(SingularPoint(pid, g) for pid, g in named_graphs),
    )


class TestDualizingReport:
    def test_single_a1_at_two(self):
        report = dualizing_report(spec_of(2, ("p1", gen_ade("A", 1))))
        assert report.q_ell_dualizing
        assert not report.z_ell_dualizing
        assert report.k_minus4 == LModule.free(2, 1, 2)
        assert report.k_minus2 == (("p1", LModule(2, (LSummand(1, 0, (1,)),))),)
        assert not report.points[0].factorial

    def test_single_a1_at_three(self):
        report = dualizing_report(spec_of(3, ("p1", gen_ade("A", 1))))
        assert report.z_ell_dualizing
        assert report.k_minus2 == ()

    def test_e8_factorial_everywhere(self):
        for ell in (2, 3, 5, 7):
            report = dualizing_report(spec_of(ell, ("p", gen_ade("E", 8))))
            assert report.points[0].factorial
            assert report.z_ell_dualizing

    def test_mixed_points(self):
        report = dualizing_report(
            spec_of(2, ("a1", gen_ade("A", 1)), ("e8", gen_ade("E", 8))))
        assert not report.z_ell_dualizing
        assert [v.factorial for v in report.points] == [False, True]
        assert [pid for pid, _ in report.k_minus2] == ["a1"]

    def test_no_singular_points(self):
        report = dualizing_report(spec_of(2))
        assert report.q_ell_dualizing and report.z_ell_dualizing
        assert report.k_minus2 == ()

    def test_permutation_invariance(self):
        points = [("a", gen_ade("A", 2)), ("b", gen_ade("D", 4)), ("c", gen_ade("E", 7))]
        fwd = dualizing_report(spec_of(2, *points))
        rev = dualizing_report(spec_of(2, *reversed(points)))
        assert fwd.z_ell_dualizing == rev.z_ell_dualizing
        assert fwd.q_ell_dualizing == rev.q_ell_dualizing
        assert {v.id: v for v in fwd.points} == {v.id: v for v in rev.points}
        assert dict(fwd.k_minus2) == dict(rev.k_minus2)

    def test_z_ell_iff_ell_coprime_to_class_number(self):
        for name in catalog_names():
            g = load_catalog_graph(name)
            order = class_group(g).order()
            for ell in (2, 3, 5, 7):
                report = dualizing_report(spec_of(ell, ("p", g)))
                assert report.z_ell_dualizing == (order % ell != 0), (name, ell)

    def test_factorial_implies_z_ell(self):
        for ell in (2, 3, 5, 7):
            report = dualizing_report(spec_of(ell, ("p", gen_ade("E", 8))))
            assert report.points[0].factorial
            assert report.z_ell_dualizing

    def test_validation_failure_names_the_point(self):
        bad = DualGraph(
            "tri",
            tuple(Vertex(f"v{i}", -2) for i in (1, 2, 3)),
            (Edge("v1", "v2"), Edge("v2", "v3"), Edge("v1", "v3")),
        )
        with pytest.raises(ValidationFailedError) as exc_info:
            dualizing_report(spec_of(2, ("good", gen_ade("A", 1)), ("bad", bad)))
        assert exc_info.value.point_id == "bad"

    def test_duplicate_point_ids(self):
        with pytest.raises(GraphFormatError):
            spec_of(2, ("p", gen_ade("A", 1)), ("p", gen_ade("A", 2)))

    def test_duplicate_last_of_many_points_is_found_fast(self):
        n = 50_000
        g = gen_ade("A", 1)
        points = tuple(SingularPoint(f"p{i}", g) for i in range(n)) + (SingularPoint(f"p{n - 1}", g),)
        start = time.perf_counter()
        with pytest.raises(GraphFormatError, match=f"^duplicate point id 'p{n - 1}'$"):
            SurfaceSpec("X", 2, points)
        assert time.perf_counter() - start < 2


class TestSurfaceJson:
    def test_inline_and_catalog_graphs(self):
        spec = surface_from_obj({
            "name": "X",
            "ell": 2,
            "points": [
                {"id": "p1", "graph": "catalog:A1"},
                {"id": "p2", "graph": graph_to_obj(gen_ade("D", 4))},
            ],
        })
        assert spec.points[0].graph == gen_ade("A", 1)
        assert spec.points[1].graph == gen_ade("D", 4)

    def test_unknown_keys_rejected(self):
        with pytest.raises(GraphFormatError):
            surface_from_obj({"name": "X", "ell": 2, "points": [], "extra": 1})
        with pytest.raises(GraphFormatError):
            surface_from_obj({
                "name": "X", "ell": 2,
                "points": [{"id": "p", "graph": "catalog:A1", "note": "hi"}],
            })

    def test_type_errors(self):
        with pytest.raises(GraphFormatError):
            surface_from_obj({"name": "X", "ell": "2", "points": []})
        with pytest.raises(GraphFormatError):
            surface_from_obj({"name": "X", "ell": 2, "points": [{"id": "p", "graph": 3}]})

    def test_duplicate_ids_rejected(self):
        with pytest.raises(GraphFormatError):
            surface_from_obj({
                "name": "X", "ell": 2,
                "points": [
                    {"id": "p", "graph": "catalog:A1"},
                    {"id": "p", "graph": "catalog:A2"},
                ],
            })

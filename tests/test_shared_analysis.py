"""The l-free gate verdicts of a graph are computed once per graph object.

``dualgraph._analyse`` keeps the failing divisibility entries, the connected
components and the definiteness verdict of a graph in the graph's own
``_analysis`` slot, outside its fields.  Every route reads them from there,
so one definiteness pass serves all the routes run on one graph, while equal
but distinct graphs are analysed apart.
"""

import copy
import pickle
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from resgraph import dualgraph
from resgraph.classgrp import class_group, class_group_ell, theta_matrix
from resgraph.dualgraph import DualGraph, Edge, Vertex, gen_ade, validate
from resgraph.dualizing import SingularPoint, SurfaceSpec, dualizing_report
from resgraph.errors import NotNegativeDefiniteError, ValidationFailedError
from resgraph.surfhom import GeneralCurveInput, local_homology_general, local_homology_rational


@pytest.fixture
def passes(monkeypatch):
    """The sparse rows that get a definiteness pass, in call order."""
    real = dualgraph._negative_det
    seen = []

    def counted(rows):
        seen.append(rows)
        return real(rows)

    monkeypatch.setattr(dualgraph, "_negative_det", counted)
    return seen


def cycle_graph(name="cyc"):
    """A 4-cycle with d = 2 on two vertices: theta differs from the
    intersection matrix, and the graph is not a forest."""
    vs = (Vertex("a", -6, d=2), Vertex("b", -5), Vertex("c", -6, d=2), Vertex("e", -5))
    es = (Edge("a", "b", 2), Edge("b", "c", 2), Edge("c", "e", 2), Edge("e", "a", 2))
    return DualGraph(name, vs, es)


ROUTES = (
    lambda g: validate(g, 3),
    class_group,
    lambda g: class_group_ell(g, 2),
    lambda g: class_group_ell(g, 3),
    lambda g: class_group_ell(g, 5),
    lambda g: local_homology_rational(g, 3),
    lambda g: local_homology_rational(g, 3, "rational"),
    lambda g: dualizing_report(SurfaceSpec("S", 3, (SingularPoint("p", g),))),
    theta_matrix,
)


def every_route(g):
    return tuple(route(g) for route in ROUTES)


def test_one_definiteness_pass_per_graph_object(passes):
    g = gen_ade("D", 7)
    every_route(g)
    local_homology_general(g, 3, GeneralCurveInput())
    assert len(passes) == 1


def test_a_failing_graph_is_analysed_once(passes):
    g = cycle_graph()
    validate(g, 3)
    class_group(g)
    class_group_ell(g, 3)
    local_homology_general(g, 3, GeneralCurveInput(h1_rank=1))
    with pytest.raises(ValidationFailedError):
        local_homology_rational(g, 3)
    indefinite = DualGraph("indef", (Vertex("a", -1), Vertex("b", -1)), (Edge("a", "b"),))
    for _ in range(3):
        with pytest.raises(NotNegativeDefiniteError):
            class_group(indefinite)
        assert not validate(indefinite, 2).check("negative_definite").passed
    assert len(passes) == 2


def test_equal_distinct_graphs_are_analysed_apart(passes):
    g, twin = gen_ade("E", 7), gen_ade("E", 7)
    assert g == twin and g is not twin
    assert every_route(g) == every_route(twin)
    assert len(passes) == 2


def test_the_record_goes_with_the_graph():
    g = cycle_graph()
    class_group(g)
    dead = weakref.ref(g)
    del g
    assert dead() is None  # no reference cycle and no store in the package: freed at once


def test_the_record_stays_out_of_fields_pickles_and_copies(passes):
    g = cycle_graph()
    fresh = cycle_graph()
    validate(g, 3)
    record = dualgraph._analyse(g)
    assert g._analysis is record and record not in vars(g).values()
    assert list(vars(g)) == ["name", "vertices", "edges"]
    assert pickle.dumps(g) == pickle.dumps(fresh)
    for twin in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert twin == g and getattr(twin, "_analysis", None) is None
    assert len(passes) == 1


def test_a_lone_theta_matrix_runs_no_definiteness_pass(passes):
    g = cycle_graph()
    theta_matrix(g)
    assert passes == [] and getattr(g, "_analysis", None) is None
    class_group(g)
    assert len(passes) == 1


def test_a_reused_id_never_returns_a_stale_verdict():
    definite = (Vertex("a", -2), Vertex("b", -2))
    indefinite = (Vertex("a", -1), Vertex("b", -1))
    edges = (Edge("a", "b"),)
    ids = set()
    for i in range(2000):
        g = DualGraph(f"g{i}", definite if i % 2 == 0 else indefinite, edges)
        ids.add(id(g))
        assert validate(g, 3).check("negative_definite").passed == (i % 2 == 0)
        del g
    assert len(ids) < 2000  # ids were reused, so the test means something


def test_threads_sharing_one_graph_get_the_serial_results():
    serial = every_route(gen_ade("D", 9))
    shared = gen_ade("D", 9)
    routes = range(len(serial))
    barrier = threading.Barrier(8)

    def work(k):
        # each thread runs the routes in its own order, twice
        barrier.wait()
        out = {}
        for step in range(2):
            for r in (*routes[k % len(serial):], *routes[:k % len(serial)]):
                out[r, step] = ROUTES[r](shared)
        return out

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(8)))
    finally:
        sys.setswitchinterval(old)
    for out in results:
        assert out == {(r, step): serial[r] for r in routes for step in range(2)}
    assert shared._analysis is not None

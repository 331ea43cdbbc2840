"""Every value class behaves as a frozen dataclass with the same fields.

Each class is checked against a mirror made by ``dataclasses.make_dataclass``
with the same fields in the same order, so ``repr``, ``hash`` and
comparisons are held to the standard-library semantics.
"""

import copy
import dataclasses
import inspect
import pickle
from functools import cache

import pytest

import resgraph
from resgraph.dualgraph import gen_ade
from resgraph.exactlat import Value

I2 = resgraph.IntMatrix.from_rows([[1, 0], [0, 1]])
A2 = gen_ade("A", 2)
D4 = gen_ade("D", 4)
SPEC = resgraph.SurfaceSpec("s", 3, (resgraph.SingularPoint("p", A2), resgraph.SingularPoint("q", D4)))
PROFILE = resgraph.local_homology_rational(A2, 3)
# a 4-cycle with d = 2 on two vertices, theta differing from the intersection matrix
CYCLE = resgraph.DualGraph(
    "cyc", tuple(resgraph.Vertex(v, w, d) for v, w, d in (("a", -6, 2), ("b", -5, 1), ("c", -6, 2), ("e", -5, 1))),
    tuple(resgraph.Edge(a, b, 2) for a, b in (("a", "b"), ("b", "c"), ("c", "e"), ("e", "a"))))
resgraph.class_group(CYCLE)
resgraph.validate(CYCLE, 3)
# graphs the module has analysed, so each has a record of shared gate verdicts
ANALYSED = (A2, D4, CYCLE)


def _ctor_args(value):
    return tuple(vars(value).values())


# Per class: argument tuples of two unequal values.
SAMPLES = {
    resgraph.IntMatrix: [(2, 2, ((1, 2), (3, 4))), (1, 2, ((0, 5),))],
    resgraph.SmithForm: [(I2, resgraph.IntMatrix.from_rows([[1, 0], [0, 3]]), I2), (I2, I2, I2)],
    resgraph.FgAbGroup: [(0, (2, 4)), (1,)],
    resgraph.LSummand: [(1, 2, (1, 3)), (0, 0)],
    resgraph.LModule: [(2, (resgraph.LSummand(1, 1, (2,)),)), (3,)],
    resgraph.Vertex: [("a", -2), ("b", -3, 2, 1)],
    resgraph.Edge: [("a", "b"), ("a", "b", 2)],
    resgraph.DualGraph: [_ctor_args(A2), _ctor_args(D4), _ctor_args(CYCLE)],
    resgraph.dualgraph.CheckResult: [("forest", True, "ok"), ("forest", False, "cycle")],
    resgraph.ValidationReport: [_ctor_args(resgraph.validate(A2, 2)), _ctor_args(resgraph.validate(A2, 3))],
    resgraph.ThetaMatrix: [_ctor_args(resgraph.theta_matrix(A2)), _ctor_args(resgraph.theta_matrix(D4))],
    resgraph.StratumProfile: [("generic", 2, frozenset({-2}), frozenset()), ("point", 0, frozenset(), frozenset({0, 1}))],
    resgraph.PerversityVerdict: [(True, False), (True, True)],
    resgraph.CurveProfile: [_ctor_args(resgraph.curve_profile(A2, 2)), _ctor_args(resgraph.curve_profile(D4, 3))],
    resgraph.SingularPoint: [("p", A2), ("p", D4)],
    resgraph.SurfaceSpec: [_ctor_args(SPEC), ("t", 2, ())],
    resgraph.dualizing.PointVerdict: [("p", resgraph.FgAbGroup(0, (3,)), resgraph.LModule.zero(2), False),
                                      ("p", resgraph.FgAbGroup(0), resgraph.LModule.zero(2), True)],
    resgraph.DualizingReport: [_ctor_args(resgraph.dualizing_report(SPEC)),
                               _ctor_args(resgraph.dualizing_report(resgraph.SurfaceSpec("s", 5, SPEC.points)))],
    resgraph.GeneralCurveInput: [(), (1, 2)],
    resgraph.HomologyProfile: [_ctor_args(PROFILE), _ctor_args(resgraph.local_homology_rational(D4, 3, "rational"))],
}


@cache
def _mirror(cls):
    """Frozen dataclass with the fields, defaults and order of ``cls``."""
    fields = []
    for p in inspect.signature(cls).parameters.values():
        spec = {} if p.default is p.empty else {"default": p.default}
        if (cls, p.name) == (resgraph.HomologyProfile, "provenance"):
            spec["compare"] = False
        fields.append((p.name, p.annotation, dataclasses.field(**spec)))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def _pair(cls, args):
    """A value and its mirror, the mirror holding the normalised fields."""
    value = cls(*args)
    return value, _mirror(cls)(**vars(value))


def test_samples_cover_every_value_class():
    def subclasses(cls):
        return {cls, *(c for s in cls.__subclasses__() for c in subclasses(s))}
    assert subclasses(Value) - {Value} == set(SAMPLES)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda c: c.__name__)
class TestValueSemantics:
    def test_repr_and_hash_match_mirror(self, cls):
        for args in SAMPLES[cls]:
            value, mirror = _pair(cls, args)
            assert repr(value) == repr(mirror)
            assert hash(value) == hash(mirror)

    def test_comparisons_match_mirror(self, cls):
        pairs = [_pair(cls, args) for args in SAMPLES[cls]]
        again = [_pair(cls, args) for args in SAMPLES[cls]]
        for x, mx in pairs:
            for y, my in pairs + again:
                assert (x == y, x != y) == (mx == my, mx != my)
            for other in (None, 1, "x", (), object()):
                assert (x == other, x != other) == (mx == other, mx != other)
            assert (x == mx, x != mx, mx == x) == (False, True, False)
            twin, mtwin = (object.__new__(type("Sub", (type(v),), {})) for v in (x, mx))
            vars(twin).update(vars(x))
            vars(mtwin).update(vars(mx))
            assert (x == twin, x != twin) == (mx == mtwin, mx != mtwin) == (False, True)
        assert pairs[0][0] == again[0][0] and hash(pairs[0][0]) == hash(again[0][0])
        assert pairs[0][0] != pairs[1][0]

    def test_positional_keyword_and_default_construction(self, cls):
        params = list(inspect.signature(cls).parameters)
        for args in SAMPLES[cls]:
            positional = cls(*args)
            assert vars(cls(**dict(zip(params, args)))) == vars(positional)
            assert list(vars(positional)) == params
        for p in inspect.signature(cls).parameters.values():
            if p.default is not p.empty:
                required = SAMPLES[cls][0][:params.index(p.name)]
                assert getattr(cls(*required), p.name) == p.default

    def test_fields_are_read_only(self, cls):
        value = cls(*SAMPLES[cls][0])
        name = next(iter(vars(value)))
        before = vars(value).copy()
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            value.new_field = 0
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert vars(value) == before

    def test_pickle_and_deepcopy_round_trip(self, cls):
        for args in SAMPLES[cls]:
            value = cls(*args)
            for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
                assert type(twin) is cls
                assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)


def test_homology_profile_provenance_is_not_compared():
    other_notes = resgraph.HomologyProfile(PROFILE.ell, PROFILE.entries, PROFILE.mode, ("x",) * 6)
    assert other_notes == PROFILE
    assert hash(other_notes) == hash(PROFILE)
    assert repr(other_notes) != repr(PROFILE)
    assert "provenance=('x', 'x', 'x', 'x', 'x', 'x')" in repr(other_notes)
    assert f"provenance={PROFILE.provenance!r}" in repr(PROFILE)


@pytest.mark.parametrize("g", ANALYSED, ids=lambda g: g.name)
def test_analysed_graph_keeps_value_semantics(g):
    assert g._analysis is not None
    fresh = resgraph.DualGraph(*_ctor_args(g))
    mirror = _mirror(resgraph.DualGraph)(**vars(g))
    assert getattr(fresh, "_analysis", None) is None
    assert list(vars(g)) == ["name", "vertices", "edges"]
    assert g == fresh and hash(g) == hash(fresh) == hash(mirror) and repr(g) == repr(fresh) == repr(mirror)
    assert (g == mirror, g != mirror) == (False, True)
    for twin in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert type(twin) is resgraph.DualGraph
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
        assert vars(twin) == vars(g)
    assert pickle.dumps(g) == pickle.dumps(fresh)
    assert resgraph.class_group(copy.deepcopy(g)) == resgraph.class_group(g)

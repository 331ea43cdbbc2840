import pytest

from resgraph.classgrp import class_group, class_group_ell
from resgraph.dualgraph import (
    DualGraph,
    Edge,
    Vertex,
    catalog_names,
    gen_ade,
    intersection_matrix,
    load_catalog_graph,
)
from resgraph.errors import (
    NotConnectedError,
    NotNegativeDefiniteError,
    ValidationFailedError,
)
from resgraph.exactlat import LModule, LSummand, cokernel, ell_primary
from resgraph.surfhom import (
    GeneralCurveInput,
    HomologyProfile,
    local_homology_general,
    local_homology_rational,
)

EMPTY = DualGraph("pt", (), ())


def cycle_graph(selfint=-3, n=3, name="cycle"):
    vertices = tuple(Vertex(f"v{i}", selfint) for i in range(n))
    edges = tuple(Edge(f"v{i}", f"v{(i + 1) % n}") for i in range(n))
    return DualGraph(name, vertices, edges)


class TestRational:
    def test_regular_point(self):
        profile = local_homology_rational(EMPTY, 2)
        assert profile.entry(4) == LModule.free(2, 1, 2)
        for q in (0, 1, 2, 3, 5):
            assert profile.entry(q).is_zero

    def test_a1_integral(self):
        profile = local_homology_rational(gen_ade("A", 1), 2)
        assert profile.entry(4) == LModule.free(2, 1, 2)
        assert profile.entry(2) == LModule(2, (LSummand(1, 0, (1,)),))  # Z/2, twist 1
        for q in (0, 1, 3, 5):
            assert profile.entry(q).is_zero

    def test_a1_rational_mode(self):
        for ell in (2, 3, 5, 7):
            profile = local_homology_rational(gen_ade("A", 1), ell, mode="rational")
            assert profile.entry(4) == LModule.free(ell, 1, 2)
            for q in (0, 1, 2, 3, 5):
                assert profile.entry(q).is_zero

    def test_h2_is_ell_part_of_class_group(self):
        for name in ("A4", "D5", "E7", "HJ-12-5"):
            g = load_catalog_graph(name)
            for ell in (2, 3, 5, 7):
                profile = local_homology_rational(g, ell)
                assert profile.entry(2) == class_group_ell(g, ell)

    def test_validation_failure_carries_report(self):
        with pytest.raises(ValidationFailedError) as exc_info:
            local_homology_rational(cycle_graph(), 2)
        assert not exc_info.value.report.check("forest").passed

    def test_disconnected_rejected_via_validation(self):
        g = DualGraph("two", (Vertex("a", -2), Vertex("b", -2)), ())
        with pytest.raises(ValidationFailedError):
            local_homology_rational(g, 2)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            local_homology_rational(gen_ade("A", 1), 2, mode="adelic")

    def test_vanishing_range(self):
        for name in catalog_names():
            g = load_catalog_graph(name)
            for ell in (2, 3):
                profile = local_homology_rational(g, ell)
                assert profile.entry(0).is_zero and profile.entry(5).is_zero
                assert profile.entry(1).is_zero and profile.entry(3).is_zero
                rational = local_homology_rational(g, ell, mode="rational")
                for q in (0, 1, 2, 3, 5):
                    assert rational.entry(q).is_zero


class TestGeneral:
    def test_matches_rational_on_forests(self):
        for name in catalog_names():
            g = load_catalog_graph(name)
            for ell in (2, 3, 5):
                general = local_homology_general(g, ell, GeneralCurveInput())
                rational = local_homology_rational(g, ell)
                assert general == rational, (name, ell)

    def test_cycle_with_supplied_h1(self):
        g = cycle_graph(-3)
        profile = local_homology_general(g, 2, GeneralCurveInput(h1_rank=1))
        assert profile.entry(3) == LModule.free(2, 1, 2)
        assert profile.entry(4) == LModule.free(2, 1, 2)
        expected_torsion = ell_primary(cokernel(intersection_matrix(g)), 2).twisted(1)
        assert profile.entry(2) == expected_torsion

    def test_a2_at_three(self):
        profile = local_homology_general(gen_ade("A", 2), 3, GeneralCurveInput())
        assert profile.entry(2) == LModule(3, (LSummand(1, 0, (1,)),))  # Z/3, twist 1
        assert profile.entry(3).is_zero

    def test_h2_free_part_from_hint(self):
        g = cycle_graph(-3)
        profile = local_homology_general(g, 2, GeneralCurveInput(h1_rank=1, h1_homology_free_rank=2))
        piece = profile.entry(2).summands[0]
        assert piece.twist == 1
        assert piece.free_rank == 2
        assert piece.torsion_exponents  # coker torsion still present

    def test_rejects_disconnected(self):
        g = DualGraph("two", (Vertex("a", -2), Vertex("b", -2)), ())
        with pytest.raises(NotConnectedError):
            local_homology_general(g, 2, GeneralCurveInput())

    def test_rejects_empty(self):
        with pytest.raises(NotConnectedError):
            local_homology_general(EMPTY, 2, GeneralCurveInput())

    def test_rejects_indefinite(self):
        # the (-2)-triangle has singular intersection matrix
        with pytest.raises(NotNegativeDefiniteError):
            local_homology_general(cycle_graph(-2), 2, GeneralCurveInput())

    def test_torsion_is_finite(self):
        for name in ("A3", "D6", "HJ-7-3"):
            g = load_catalog_graph(name)
            profile = local_homology_general(g, 2, GeneralCurveInput())
            assert profile.entry(2).total_free_rank() == 0

    def test_negative_h1_rank_rejected(self):
        with pytest.raises(ValueError):
            GeneralCurveInput(h1_rank=-1)

    @pytest.mark.parametrize("key", ["h1_rank", "h1_homology_free_rank"])
    @pytest.mark.parametrize("bad", [-1, 1.5, 2.0, True, "1", None])
    def test_ranks_must_be_nonnegative_integers(self, key, bad):
        with pytest.raises(ValueError) as info:
            GeneralCurveInput(**{key: bad})
        assert str(info.value) == f"{key} must be a nonnegative integer, got {bad!r}"


class TestProfileType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            HomologyProfile(ell=2, entries=(LModule.zero(2),) * 3)

    def test_entry_out_of_range_is_zero(self):
        profile = local_homology_rational(gen_ade("A", 1), 2)
        assert profile.entry(7).is_zero
        assert profile.entry(-1).is_zero

    def test_h4_always_rank_one_twist_two(self):
        for name in catalog_names():
            g = load_catalog_graph(name)
            profile = local_homology_rational(g, 5)
            assert profile.entry(4) == LModule.free(5, 1, 2)

    def test_provenance_not_part_of_equality(self):
        a = local_homology_rational(gen_ade("A", 1), 2)
        b = HomologyProfile(ell=a.ell, entries=a.entries, mode=a.mode)
        assert a == b

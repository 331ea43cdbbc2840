import random

import pytest

from resgraph.errors import EmptyInputError, GraphFormatError
from resgraph.perversity import (
    DELTA_PRESETS,
    StratumProfile,
    check_perverse,
    strata_from_obj,
    weight_of_cohomology,
)


def smooth_shifted_surface():
    """Stalk/costalk degrees of a smooth sheaf shifted by [2] on a surface
    with rational singularities: stalks sit in degree -2 everywhere, the
    costalk at a closed point in degree +2."""
    return [
        StratumProfile.of("generic", 2, stalk=[-2], costalk=[-2]),
        StratumProfile.of("point", 0, stalk=[-2], costalk=[2]),
    ]


class TestCheckPerverse:
    def test_smooth_shifted_is_perverse(self):
        verdict = check_perverse(smooth_shifted_surface())
        assert verdict.left_ok and verdict.right_ok and verdict.perverse

    def test_skyscraper(self):
        verdict = check_perverse([StratumProfile.of("point", 0, [0], [0])])
        assert verdict.perverse

    def test_unshifted_constant_sheaf_fails_support(self):
        strata = [StratumProfile.of("generic", 2, stalk=[0], costalk=[4])]
        verdict = check_perverse(strata)
        assert not verdict.left_ok
        assert not verdict.perverse

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            check_perverse([])

    def test_empty_degree_sets_pass_vacuously(self):
        verdict = check_perverse([StratumProfile.of("curve", 1, [], [])])
        assert verdict.perverse

    def test_monotone_under_stratum_removal(self):
        rng = random.Random(17)
        for _ in range(60):
            strata = [
                StratumProfile.of(
                    f"s{i}",
                    rng.randint(0, 2),
                    [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))],
                    [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))],
                )
                for i in range(rng.randint(2, 5))
            ]
            full = check_perverse(strata)
            for skip in range(len(strata)):
                reduced = strata[:skip] + strata[skip + 1 :]
                if not reduced:
                    continue
                sub = check_perverse(reduced)
                if full.left_ok:
                    assert sub.left_ok
                if full.right_ok:
                    assert sub.right_ok

    def test_shift_polarizes_verdict(self):
        rng = random.Random(19)
        for _ in range(25):
            delta = rng.randint(0, 2)
            stalk = [rng.randint(-1, 3) for _ in range(rng.randint(1, 3))]
            costalk = [rng.randint(-3, 1) for _ in range(rng.randint(1, 3))]
            became_left_ok = False
            became_right_not_ok = False
            for k in range(6):
                shifted = [StratumProfile.of(
                    "s", delta,
                    [x - k for x in stalk],
                    [x - k for x in costalk],
                )]
                verdict = check_perverse(shifted)
                if verdict.left_ok:
                    became_left_ok = True
                # once violated, lowering degrees keeps the cosupport broken
                if not verdict.right_ok:
                    became_right_not_ok = True
            assert became_left_ok  # max(stalk) - 5 <= -2 always
            if min(costalk) - 5 < -delta:
                assert became_right_not_ok


class TestStratumProfile:
    def test_delta_range_enforced(self):
        with pytest.raises(ValueError):
            StratumProfile.of("bad", 3, [], [])
        with pytest.raises(ValueError):
            StratumProfile.of("bad", -1, [], [])

    @pytest.mark.parametrize("delta, stalk, costalk, message", [
        (1.5, [1], [0], "delta must be an integer, got 1.5"),
        (True, [], [], "delta must be an integer, got True"),
        (2.0, [], [], "delta must be an integer, got 2.0"),
        (1, [1.7], [0], "stalk_degrees must be an integer, got 1.7"),
        (1, [0, 1.0], [0], "stalk_degrees must be an integer, got 1.0"),
        (1, [], [-0.5], "costalk_degrees must be an integer, got -0.5"),
        (1, [], [False], "costalk_degrees must be an integer, got False"),
    ])
    def test_non_integers_are_refused_not_truncated(self, delta, stalk, costalk, message):
        # delta 1.5 was kept and the degrees 1.7 and -0.5 were stored as 1 and 0
        with pytest.raises(ValueError) as info:
            StratumProfile.of("x", delta, stalk, costalk)
        assert str(info.value) == message
        with pytest.raises(ValueError):
            StratumProfile("x", delta, frozenset(stalk), frozenset(costalk))

    def test_degrees_may_be_any_iterable(self):
        s = StratumProfile("x", 1, iter([-2, -1, -2]), (x for x in [0]))
        assert (s.stalk_degrees, s.costalk_degrees) == (frozenset({-2, -1}), frozenset({0}))

    def test_presets(self):
        assert DELTA_PRESETS == {"generic": 2, "curve": 1, "point": 0}


class TestWeights:
    def test_degree_zero(self):
        for w in range(-3, 4):
            assert weight_of_cohomology(0, w) == w

    def test_reference_values(self):
        assert weight_of_cohomology(2, 0) == 2
        assert weight_of_cohomology(4, 3) == 7

    def test_additivity(self):
        rng = random.Random(23)
        for _ in range(50):
            n1, n2 = rng.randint(-5, 5), rng.randint(-5, 5)
            w1, w2 = rng.randint(-5, 5), rng.randint(-5, 5)
            assert weight_of_cohomology(n1 + n2, w1 + w2) == (
                weight_of_cohomology(n1, w1) + weight_of_cohomology(n2, w2))


class TestStrataJson:
    def test_parse_with_explicit_delta(self):
        strata = strata_from_obj({
            "strata": [{"label": "open", "delta": 2, "stalk": [-2], "costalk": [-2]}]
        })
        assert strata[0].delta == 2
        assert strata[0].stalk_degrees == frozenset([-2])

    def test_preset_labels_fill_delta(self):
        strata = strata_from_obj({
            "strata": [
                {"label": "generic", "stalk": [-2], "costalk": [-2]},
                {"label": "point", "stalk": [-2], "costalk": [2]},
            ]
        })
        assert [s.delta for s in strata] == [2, 0]
        assert check_perverse(strata).perverse

    def test_delta_required_for_unknown_label(self):
        with pytest.raises(GraphFormatError):
            strata_from_obj({"strata": [{"label": "weird", "stalk": [], "costalk": []}]})

    def test_unknown_keys_rejected(self):
        with pytest.raises(GraphFormatError):
            strata_from_obj({"strata": [], "extra": 1})
        with pytest.raises(GraphFormatError):
            strata_from_obj({"strata": [{"label": "point", "depth": 1}]})

    def test_type_errors(self):
        with pytest.raises(GraphFormatError):
            strata_from_obj({"strata": [{"label": "point", "stalk": [0.5], "costalk": []}]})
        with pytest.raises(GraphFormatError):
            strata_from_obj({"strata": [{"label": "point", "delta": 5, "stalk": [], "costalk": []}]})

"""Support/cosupport bookkeeping for the perverse t-structure on a surface,
plus the weight of the cohomology of a pure smooth sheaf.

Strata are user-declared with their dimension-function values and the
degree sets where the stalk and costalk complexes are nonzero; the checker
verifies the defining inequalities rather than computing the functors.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .dualgraph import _json_field, _json_loads, _json_object
from .errors import EmptyInputError, GraphFormatError
from .exactlat import Value, _require_int

# delta(x) = 2 - dim of the local ring at x; presets for the three kinds of
# points on a surface.
DELTA_PRESETS = {"generic": 2, "curve": 1, "point": 0}


class StratumProfile(Value):
    """One stratum: its dimension-function value and the degrees where the
    restriction (stalk) and exceptional restriction (costalk) of the
    complex under test have cohomology."""

    def __init__(self, label: str, delta: int, stalk_degrees: frozenset[int], costalk_degrees: frozenset[int]):
        _require_int("delta", delta)
        if not 0 <= delta <= 2:
            raise ValueError(f"surface strata have delta in 0..2, got {delta}")
        stalk, costalk = tuple(stalk_degrees), tuple(costalk_degrees)
        for key, degrees in (("stalk_degrees", stalk), ("costalk_degrees", costalk)):
            for x in degrees:
                _require_int(key, x)
        super().__init__(label=label, delta=delta, stalk_degrees=frozenset(stalk), costalk_degrees=frozenset(costalk))

    @classmethod
    def of(cls, label: str, delta: int, stalk: Iterable[int], costalk: Iterable[int]) -> "StratumProfile":
        return cls(label, delta, frozenset(stalk), frozenset(costalk))


class PerversityVerdict(Value):
    def __init__(self, left_ok: bool, right_ok: bool):
        super().__init__(left_ok=left_ok, right_ok=right_ok)

    @property
    def perverse(self) -> bool:
        return self.left_ok and self.right_ok


def check_perverse(strata: Sequence[StratumProfile]) -> PerversityVerdict:
    """Support condition: every stratum's stalk degrees are <= -delta.
    Cosupport condition: every costalk degree is >= -delta.  Perverse means
    both.  Strata with empty degree sets pass vacuously."""
    if not strata:
        raise EmptyInputError("need at least one stratum")
    left_ok = all(max(s.stalk_degrees) <= -s.delta for s in strata if s.stalk_degrees)
    right_ok = all(min(s.costalk_degrees) >= -s.delta for s in strata if s.costalk_degrees)
    return PerversityVerdict(left_ok=left_ok, right_ok=right_ok)


def weight_of_cohomology(n: int, w: int) -> int:
    """Weight of the degree-n cohomology of a smooth sheaf punctually pure
    of weight w on a complete surface with rational singularities: n + w."""
    return n + w


# ---------------------------------------------------------------------------
# Strata JSON

def strata_from_obj(obj) -> tuple[StratumProfile, ...]:
    _json_object(obj, {"strata"}, "strata input", "strata input must be a JSON object")
    items = _json_field(obj, "strata", list, "strata input")
    out = []
    for i, sobj in enumerate(items):
        where = f"strata[{i}]"
        _json_object(sobj, {"label", "delta", "stalk", "costalk"}, where)
        label = _json_field(sobj, "label", str, where)
        if "delta" in sobj:
            delta = _json_field(sobj, "delta", int, where)
        elif label in DELTA_PRESETS:
            delta = DELTA_PRESETS[label]
        else:
            raise GraphFormatError(
                f"{where}: 'delta' required unless label is one of {sorted(DELTA_PRESETS)}")
        degree_sets = {}
        for key in ("stalk", "costalk"):
            vals = sobj.get(key, [])
            if not isinstance(vals, list) or any(type(x) is not int for x in vals):
                raise GraphFormatError(f"{where}: {key!r} must be an array of integers")
            degree_sets[key] = vals
        try:
            out.append(StratumProfile.of(label, delta, degree_sets["stalk"], degree_sets["costalk"]))
        except ValueError as exc:
            raise GraphFormatError(f"{where}: {exc}") from exc
    return tuple(out)


def parse_strata(text: str) -> tuple[StratumProfile, ...]:
    return strata_from_obj(_json_loads(text))

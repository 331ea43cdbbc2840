import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import resgraph
from resgraph.cli import main
from resgraph.dualgraph import gen_ade, gen_hj, graph_from_obj, serialize_graph

TRIANGLE_JSON = {
    "name": "tri",
    "vertices": [{"id": "v1", "self": -3}, {"id": "v2", "self": -3}, {"id": "v3", "self": -3}],
    "edges": [
        {"a": "v1", "b": "v2"},
        {"a": "v2", "b": "v3"},
        {"a": "v1", "b": "v3"},
    ],
}

DUALIZING_SCHEMA = {
    "type": "object",
    "required": [
        "schema", "kind", "surface", "ell", "points",
        "q_ell_dualizing", "z_ell_dualizing", "k_minus_4", "k_minus_2",
    ],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": 1},
        "kind": {"const": "dualizing"},
        "surface": {"type": "string"},
        "ell": {"type": "integer"},
        "points": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "class_group", "ell_part", "factorial"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string"},
                    "class_group": {"$ref": "#/$defs/group"},
                    "ell_part": {"$ref": "#/$defs/lmodule"},
                    "factorial": {"type": "boolean"},
                },
            },
        },
        "q_ell_dualizing": {"type": "boolean"},
        "z_ell_dualizing": {"type": "boolean"},
        "k_minus_4": {"$ref": "#/$defs/lmodule"},
        "k_minus_2": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "stalk"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string"},
                    "stalk": {"$ref": "#/$defs/lmodule"},
                },
            },
        },
    },
    "$defs": {
        "group": {
            "type": "object",
            "required": ["free_rank", "invariant_factors", "order", "rendered"],
            "additionalProperties": False,
            "properties": {
                "free_rank": {"type": "integer"},
                "invariant_factors": {"type": "array", "items": {"type": "integer"}},
                "order": {"type": ["integer", "null"]},
                "rendered": {"type": "string"},
            },
        },
        "lmodule": {
            "type": "object",
            "required": ["ell", "summands", "rendered"],
            "additionalProperties": False,
            "properties": {
                "ell": {"type": "integer"},
                "summands": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["twist", "free_rank", "torsion_exponents"],
                        "additionalProperties": False,
                        "properties": {
                            "twist": {"type": "integer"},
                            "free_rank": {"type": "integer"},
                            "torsion_exponents": {"type": "array", "items": {"type": "integer"}},
                        },
                    },
                },
                "rendered": {"type": "string"},
            },
        },
    },
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassgroup:
    def test_a3_prints_group(self, capsys):
        code, out, _ = run_cli(capsys, "classgroup", "catalog:A3")
        assert code == 0
        assert out == "Z/4\n"

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "classgroup", "catalog:E7", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == 1
        assert obj["group"]["invariant_factors"] == [2]
        assert obj["group"]["order"] == 2


class TestCheck:
    def test_e8_passes(self, capsys):
        code, out, err = run_cli(capsys, "check", "catalog:E8", "--ell", "2")
        assert code == 0
        assert "overall: pass" in out
        assert err == ""

    def test_failing_graph_exits_one(self, capsys, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(TRIANGLE_JSON), encoding="utf-8")
        code, out, err = run_cli(capsys, "check", str(path), "--ell", "2")
        assert code == 1
        assert "forest" in out
        assert "validation failed" in err


class TestHomology:
    def test_a1_integral(self, capsys):
        code, out, _ = run_cli(capsys, "homology", "catalog:A1", "--ell", "2")
        assert code == 0
        assert "H_2 = Z/2(1)" in out
        assert "H_4 = Z_2(2)" in out

    def test_a1_rational(self, capsys):
        code, out, _ = run_cli(capsys, "homology", "catalog:A1", "--ell", "2", "--mode", "rational")
        assert code == 0
        assert "H_2 = 0" in out
        assert "H_4 = Q_2(2)" in out

    def test_validation_failure(self, capsys, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(TRIANGLE_JSON), encoding="utf-8")
        code, _, err = run_cli(capsys, "homology", str(path), "--ell", "2")
        assert code == 1
        assert "forest" in err


class TestCurve:
    def test_a4(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "catalog:A4", "--ell", "3")
        assert code == 0
        assert "r: 1" in out and "n: 4" in out
        assert "H_2 = Z_3^4(1)" in out

    def test_cycle_rejected(self, capsys, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(TRIANGLE_JSON), encoding="utf-8")
        code, _, err = run_cli(capsys, "curve", str(path))
        assert code == 1
        assert "forest" in err


class TestDualizing:
    def surface_file(self, tmp_path, ell=5):
        path = tmp_path / "surface.json"
        path.write_text(json.dumps({
            "name": "X",
            "ell": ell,
            "points": [{"id": "p0", "graph": "catalog:E8"}],
        }), encoding="utf-8")
        return path

    def test_e8_z_ell_true(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "dualizing", str(self.surface_file(tmp_path)))
        assert code == 0
        assert "Z_l dualizing: yes" in out
        assert "factorial = yes" in out

    def test_json_matches_schema(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "dualizing", str(self.surface_file(tmp_path)), "--format", "json")
        assert code == 0
        obj = json.loads(out)
        jsonschema.validate(obj, DUALIZING_SCHEMA)
        assert obj["z_ell_dualizing"] is True

    def test_a1_at_two_not_z_ell(self, capsys, tmp_path):
        path = tmp_path / "surface.json"
        path.write_text(json.dumps({
            "name": "X",
            "ell": 2,
            "points": [{"id": "p", "graph": "catalog:A1"}],
        }), encoding="utf-8")
        code, out, _ = run_cli(capsys, "dualizing", str(path))
        assert code == 0
        assert "Z_l dualizing: no" in out
        assert "K[-2] = Z/2(1) at p" in out


class TestPerversity:
    def strata_file(self, tmp_path, stalk=(-2,)):
        path = tmp_path / "strata.json"
        path.write_text(json.dumps({
            "strata": [
                {"label": "generic", "stalk": list(stalk), "costalk": [-2]},
                {"label": "point", "stalk": list(stalk), "costalk": [2]},
            ]
        }), encoding="utf-8")
        return path

    def test_perverse(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "perversity", str(self.strata_file(tmp_path)))
        assert code == 0
        assert "perverse: yes" in out

    def test_not_perverse(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "perversity", str(self.strata_file(tmp_path, stalk=(0,))))
        assert code == 0
        assert "left_ok: no" in out
        assert "perverse: no" in out

    def test_json(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "perversity", str(self.strata_file(tmp_path)), "--format", "json")
        obj = json.loads(out)
        assert obj["schema"] == 1 and obj["perverse"] is True


class TestGen:
    def test_ade_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "ade", "A", "3")
        assert code == 0
        assert graph_from_obj(json.loads(out)) == gen_ade("A", 3)

    def test_hj(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "hj", "5", "2")
        assert code == 0
        assert graph_from_obj(json.loads(out)) == gen_hj(5, 2)

    def test_unsupported_index_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "gen", "ade", "E", "5")
        assert code == 1
        assert "error" in err

    def test_not_coprime(self, capsys):
        code, _, err = run_cli(capsys, "gen", "hj", "4", "2")
        assert code == 1

    @pytest.mark.parametrize("argv, name", [
        (("hj", "100000000", "99999999"), "HJ-100000000-99999999 has more"),
        (("ade", "A", "30000000"), "A30000000 has 30000000"),
    ])
    def test_vertex_limit_is_domain_error(self, capsys, argv, name):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "gen", *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == f"error: a generated graph has at most 10000 vertices, {name}\n"


class TestCatalogCommand:
    def test_lists_names(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        names = out.strip().split("\n")
        assert "A1" in names and "E8" in names and "HJ-5-2" in names

    def test_env_override(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "solo.json").write_text(
            serialize_graph(gen_ade("A", 1)).replace('"A1"', '"solo"'), encoding="utf-8")
        monkeypatch.setenv("RESGRAPH_CATALOG_DIR", str(tmp_path))
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        assert out.strip() == "solo"


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2
        assert run_cli(capsys)[0] == 2

    def test_non_prime_ell_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "check", "catalog:A1", "--ell", "6")
        assert code == 2

    def test_large_prime_ell_answers(self, capsys):
        code, out, _ = run_cli(capsys, "check", "catalog:E8", "--ell", "2305843009213693951")
        assert code == 0
        assert "ell: 2305843009213693951\n" in out

    def test_ell_beyond_primality_bound_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "catalog:A1", "--ell", "3317044064679887385961981")
        assert code == 2
        assert "3317044064679887385961981" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "classgroup", str(tmp_path / "nope.json"))
        assert code == 3
        assert "file error" in err

    def test_missing_catalog_entry(self, capsys):
        code, _, _ = run_cli(capsys, "classgroup", "catalog:Z99")
        assert code == 3

    @pytest.mark.parametrize("command", ["check", "dualizing", "perversity"])
    def test_deeply_nested_json_is_domain_error(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid JSON: ") and "Traceback" not in err

    def test_malformed_json_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops", encoding="utf-8")
        code, _, _ = run_cli(capsys, "classgroup", str(path))
        assert code == 1


class TestDomainErrorsFromBareValueError:
    """Domain errors that start as a plain ValueError, not a ResgraphError,
    and reach the user through ``main``'s ``except ValueError``: exit 1 and
    exactly these bytes on stderr."""

    BOUND = 3317044064679887385961981

    @pytest.mark.parametrize("surface, message", [
        ({"name": "s", "ell": 3, "points": [{"id": "p", "graph": "g\u0000.json"}]},
         "error: embedded null byte\n"),
        ({"name": "s", "ell": 4, "points": [{"id": "p", "graph": "catalog:A1"}]},
         "error: coefficient prime required, got 4\n"),
        ({"name": "s", "ell": BOUND, "points": []},
         f"error: primality is only decided below {BOUND}, got {BOUND}\n"),
        ({"name": "s", "ell": BOUND + 2, "points": [{"id": "p", "graph": "catalog:A1"}]},
         f"error: primality is only decided below {BOUND}, got {BOUND + 2}\n"),
    ], ids=["nul-in-graph-path", "ell-4", "ell-at-bound", "ell-above-bound"])
    def test_surface(self, capsys, tmp_path, surface, message):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(surface), encoding="utf-8")
        assert run_cli(capsys, "dualizing", str(path)) == (1, "", message)

    def test_gen_hj_out_of_range(self, capsys):
        assert run_cli(capsys, "gen", "hj", "5", "7") == (1, "", "error: need k >= 2 and 1 <= a < k, got k=5, a=7\n")

    @pytest.mark.parametrize("command", ["check", "classgroup"])
    def test_integer_past_the_digit_limit(self, capsys, tmp_path, command):
        # Python's own wording: 3.10 says "limit (4300)", 3.11 and later "limit (4300 digits)"
        with pytest.raises(ValueError) as info:
            int("1" * 5000)
        assert str(info.value).startswith("Exceeds the limit (4300")
        path = tmp_path / "g.json"
        path.write_text('{"name": "g", "vertices": [{"id": "a", "self": -%s}], "edges": []}' % ("1" * 5000),
                        encoding="utf-8")
        assert run_cli(capsys, command, str(path)) == (1, "", f"error: {info.value}\n")


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("classgroup", "catalog:A3"),
        ("check", "catalog:E8", "--ell", "2"),
        ("homology", "catalog:D5", "--ell", "2", "--format", "json"),
        ("curve", "catalog:A4"),
        ("catalog",),
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second

    def test_json_key_order_stable(self, capsys):
        _, out, _ = run_cli(capsys, "homology", "catalog:A1", "--ell", "3", "--format", "json")
        keys = list(json.loads(out).keys())
        assert keys == ["schema", "kind", "graph", "ell", "mode", "entries", "provenance"]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site packages, and whatever they import, out of the result
    src = Path(resgraph.__file__).parents[1]
    code = "import resgraph.cli, sys; print(sorted({'dataclasses', 'inspect', 'importlib.resources'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"

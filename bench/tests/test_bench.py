"""Tests of the benchmark itself: its checker, its input generators and
the metric names it prints.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT)]

import check  # noqa: E402
import gen  # noqa: E402
from tests.oracles import det_fraction, leading_principal_minors  # noqa: E402


def negative_definite(g: gen.GraphSpec) -> bool:
    minors = leading_principal_minors(g.intersection_rows())
    return all((-1) ** (k + 1) * m > 0 for k, m in enumerate(minors))


SMALL_GRAPHS = {
    "tree": lambda rng, n: gen.random_tree(rng, n, "t"),
    "cycle": lambda rng, n: gen.random_cycle_graph(rng, n, "c"),
    "hj": lambda rng, n: gen.random_hj(rng, 30, 34),
}


@pytest.mark.parametrize("family", sorted(SMALL_GRAPHS))
@pytest.mark.parametrize("seed", range(6))
def test_generators_are_seeded_and_negative_definite(family, seed):
    make = SMALL_GRAPHS[family]
    n = 8 + 3 * seed
    g = make(random.Random(seed), n)
    assert make(random.Random(seed), n) == g
    assert negative_definite(g)
    assert check.det(g.intersection_rows()) == det_fraction(g.intersection_rows())


def test_cycle_graphs_have_cycles_and_integral_theta():
    g = gen.random_cycle_graph(random.Random(7), 20, "c")
    assert not g.is_forest() and 2 in g.d
    for j, dj in enumerate(g.d):
        assert all(row[j] % dj == 0 for row in g.intersection_rows())
    assert det_fraction(g.theta_rows()) * 2 ** g.d.count(2) == det_fraction(g.intersection_rows())


@pytest.mark.parametrize("build", [gen.chains_round, gen.trees_round, gen.cycles_round])
def test_rounds_are_deterministic_for_their_seed(build):
    assert build(3, 1) == build(3, 1)
    assert build(3, 1) != build(4, 1)
    assert len(build(3, 1)) == len(build(4, 2))


def test_catalog_round_is_deterministic_and_covers_every_graph():
    catalog = [gen.gen_a(3), gen.gen_a(5), gen.gen_d(5), gen.gen_e(8)]
    ops = gen.cli_round(5, 0, catalog)
    assert ops == gen.cli_round(5, 0, catalog)
    assert {op.argv[1] for op in ops if op.argv[0] == "classgroup"} >= {f"catalog:{g.name}" for g in catalog}


def test_closed_forms_match_determinants():
    for g in [gen.gen_a(9), gen.gen_d(6), gen.gen_d(7), gen.gen_e(6), gen.gen_e(7), gen.gen_e(8), gen.gen_hj(12, 5)]:
        assert abs(det_fraction(g.intersection_rows())) == math.prod(check.closed_form(g.name))


def test_checker_rejects_a_wrong_group():
    oracle = check.Oracle()
    a3, d4 = gen.gen_a(3), gen.gen_d(4)
    oracle.check_group(a3, {"free_rank": 0, "factors": [4]})
    oracle.check_group(d4, {"free_rank": 0, "factors": [2, 2]})
    with pytest.raises(check.Mismatch):
        oracle.check_group(a3, {"free_rank": 0, "factors": [2, 2]})
    with pytest.raises(check.Mismatch):
        oracle.check_group(d4, {"free_rank": 0, "factors": [4]})
    tree = gen.random_tree(random.Random(1), 12, "t")
    order = abs(det_fraction(tree.intersection_rows()))
    with pytest.raises(check.Mismatch):
        oracle.check_group(tree, {"free_rank": 0, "factors": [2 * order]})


def test_checker_rejects_a_wrong_ell_part_and_verdict():
    oracle = check.Oracle()
    a3 = gen.gen_a(3)
    oracle.check_ell_part(a3, 2, {"ell": 2, "summands": [[1, 0, [2]]]})
    with pytest.raises(check.Mismatch):
        oracle.check_ell_part(a3, 2, {"ell": 2, "summands": [[1, 0, [1, 1]]]})
    two = {"ell": 2, "summands": [[1, 0, [2]]]}
    report = {
        "points": [{"id": "p0", "class_group": {"free_rank": 0, "factors": [4]}, "ell_part": two, "factorial": False}],
        "q_ell_dualizing": True,
        "z_ell_dualizing": False,
        "k_minus4": {"ell": 2, "summands": [[2, 1, []]]},
        "k_minus2": [["p0", two]],
    }
    oracle.check_report((a3,), 2, report)
    with pytest.raises(check.Mismatch):
        oracle.check_report((a3,), 2, dict(report, z_ell_dualizing=True))


def run_bench(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(["--workload", "cycles-general", "--seed", "1", "--seconds", "0.2", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 80
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec[key]}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(["--workload", "chains-reuse", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

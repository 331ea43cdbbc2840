"""Golden CLI bytes: stdout, stderr and exit code of every catalog graph
through ``check``, ``classgroup``, ``homology --mode integral|rational`` and
``curve`` in text and JSON, and of five graphs that each fail one
hypothesis.  Runs in-process through ``cli.main``.

The expected bytes live in ``tests/data/cli_golden.json``.  Record them
again only when output is meant to change:

    PYTHONPATH=src python -m tests.test_cli_golden
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from resgraph.cli import main
from resgraph.dualgraph import catalog_names

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

# One graph per failing hypothesis, with the prime that makes it fail.
FAILING = {
    "bad-div": (2, {"name": "bad-div", "vertices": [{"id": "a", "self": -3, "d": 2}, {"id": "b", "self": -2}],
                    "edges": [{"a": "a", "b": "b"}]}),
    "indefinite": (2, {"name": "indefinite", "vertices": [{"id": "a", "self": -1}, {"id": "b", "self": -1}],
                       "edges": [{"a": "a", "b": "b"}]}),
    "ell-divides-d": (3, {"name": "ell-divides-d", "vertices": [{"id": "a", "self": -6, "d": 3}], "edges": []}),
    "cycle": (2, {"name": "cycle", "vertices": [{"id": f"v{i}", "self": -3} for i in (1, 2, 3)],
                  "edges": [{"a": "v1", "b": "v2"}, {"a": "v2", "b": "v3"}, {"a": "v1", "b": "v3"}]}),
    "disconnected": (2, {"name": "disconnected", "vertices": [{"id": "a", "self": -2}, {"id": "b", "self": -2}],
                         "edges": []}),
}

COMMANDS = (
    ("check", True),
    ("classgroup", False),
    ("homology", True, "integral"),
    ("homology", True, "rational"),
    ("curve", True),
)


def cases() -> list[tuple[str, ...]]:
    """Argument lists; ``@NAME`` stands for the file of a failing graph.
    The catalog graphs take the primes 2 (the default), 3, 5 and 7 in turn."""
    inputs = [(f"catalog:{name}", (2, 3, 5, 7)[i % 4]) for i, name in enumerate(catalog_names())]
    inputs += [(f"@{name}", ell) for name, (ell, _) in FAILING.items()]
    out = []
    for spec, ell in inputs:
        for command, takes_ell, *mode in COMMANDS:
            for fmt in ("text", "json"):
                args = [command, spec]
                if takes_ell and ell != 2:
                    args += ["--ell", str(ell)]
                if mode:
                    args += ["--mode", mode[0]]
                out.append(tuple(args + ["--format", fmt]))
    return out


def run(args: tuple[str, ...], folder: Path) -> dict:
    argv = [str(folder / f"{a[1:]}.json") if a.startswith("@") else a for a in args]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "code": code}


def write_inputs(folder: Path) -> None:
    for name, (_, obj) in FAILING.items():
        (folder / f"{name}.json").write_text(json.dumps(obj), encoding="utf-8")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden")
    write_inputs(folder)
    return folder


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_cases_match_the_record(golden):
    assert sorted(golden) == sorted(" ".join(args) for args in cases())


@pytest.mark.parametrize("args", cases(), ids=" ".join)
def test_bytes(args, inputs, golden):
    assert run(args, inputs) == golden[" ".join(args)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        record = {" ".join(args): run(args, Path(tmp)) for args in cases()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, ensure_ascii=False, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(record)} cases in {GOLDEN}")

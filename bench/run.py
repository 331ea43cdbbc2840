"""Benchmark harness for resgraph.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop from this process against the package
in ``src/`` (put on the path as ``PYTHONPATH=src``; nothing is installed).
A run repeats whole rounds of operations until the operations have taken
``--seconds`` seconds in all; each round's inputs come from the seed and
the round index.  Every output is checked by ``check.py``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``.  A readable summary goes to standard
error.  README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import gen
import spans
from check import Mismatch

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CATALOG = SRC / "resgraph" / "catalog"
OUT = BENCH / "out"
WORK = OUT / "work"

SETUP_PROBES = 15
WALL_LIMIT_S = 120.0  # no round starts after this much wall time
CHILD_LIMIT_S = 60.0  # budget of one CLI process or set-up probe
ISOLATED_MEMORY = 2 << 30  # address-space cap of a child running an isolated op

# workload -> (maker of round r from the seed, budget of one operation in seconds)
WORKLOADS = {
    "cli-catalog": (gen.cli_round, CHILD_LIMIT_S),
    "chains-reuse": (gen.chains_round, 60.0),
    "trees-oneshot": (gen.trees_round, 1.0),
    "cycles-general": (gen.cycles_round, 60.0),
}

END_TO_END = (("setup_s", "s"), ("batch_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))

# name, unit; see README.md for what each should move
PER_LAYER = (
    ("exactlat.smith_normal_form.calls", "count"),
    ("exactlat.smith_normal_form.ms", "ms"),
    ("exactlat.smith_normal_form.max_bits", "bits"),
    ("exactlat.smith_normal_form.bits_per_order_bit", "ratio"),
    ("exactlat.cokernel.ms", "ms"),
    ("classgrp.class_group.order_bits", "bits"),
    ("exactlat.is_negative_definite.calls", "count"),
    ("exactlat.is_negative_definite.ms", "ms"),
    ("dualgraph.intersection_matrix.calls", "count"),
    ("classgrp.theta_matrix.calls", "count"),
    ("dualgraph.validate.calls", "count"),
    ("dualgraph.validate.self_ms", "ms"),
    ("classgrp.class_group.calls", "count"),
    ("classgrp.class_group.self_ms", "ms"),
    ("classgrp.class_group_ell.calls", "count"),
    ("dualizing.dualizing_report.self_ms", "ms"),
    ("dualizing.dualizing_report.definiteness_per_point", "count"),
    ("surfhom.local_homology_rational.self_ms", "ms"),
    ("exactlat.is_prime.calls", "count"),
    ("exactlat.is_prime.ms", "ms"),
    ("exactlat.ell_primary.calls", "count"),
    ("surfhom.local_homology_general.self_ms", "ms"),
    ("curvehom.curve_profile.ms", "ms"),
    ("cli.interpreter_start_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("dualgraph.resolve_graph.ms", "ms"),
    ("dualizing.parse_surface.ms", "ms"),
)

FAILED = "failed"


class Timeout(BaseException):
    """Raised by SIGALRM when an in-process operation overruns its budget."""


def _alarm(signum, frame):
    raise Timeout


@dataclass
class Child:
    spawned: float  # time.monotonic() just before the spawn
    seconds: float  # spawn to exit
    code: int | None  # None when killed at the budget
    out: str
    err: str
    rss_kib: int


def run_child(argv: list[str], limit: float) -> Child:
    """Run a child to its end, or kill it after ``limit`` seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("RESGRAPH_CATALOG_DIR", None)
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    killed = False
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            left = spawned + limit - time.monotonic()
            if left <= 0:
                proc.kill()
                killed = True
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.monotonic() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    text = {fd: b"".join(parts).decode("utf-8", "replace") for fd, parts in chunks.items()}
    return Child(spawned, seconds, None if killed else proc.returncode, text[out_fd], text[err_fd], usage.ru_maxrss)


def probe_setup() -> tuple[float, dict]:
    """Seconds from spawn until a fresh interpreter has imported the CLI
    and read the catalog, and the probe's own timestamps."""
    child = run_child([sys.executable, str(BENCH / "probe.py")], CHILD_LIMIT_S)
    if child.code != 0:
        raise SystemExit(f"set-up probe failed ({child.code}): {child.err.strip()}")
    stamps = json.loads(child.out)
    return stamps["ready"] - child.spawned, {"start_s": stamps["first"] - child.spawned, "import_s": stamps["import_s"]}


# ---------------------------------------------------------------------------
# Summaries of library values, in the shapes check.py reads


def group_summary(group) -> dict:
    return {"free_rank": group.free_rank, "factors": list(group.invariant_factors)}


def module_summary(module) -> dict:
    return {"ell": module.ell, "summands": [[s.twist, s.free_rank, list(s.torsion_exponents)] for s in module.summands]}


def summarize(kind: str, value) -> dict | list:
    if isinstance(value, Exception):
        return {"error": type(value).__name__, "message": str(value)}
    if kind == "validate":
        return {c.name: c.passed for c in value.checks}
    if kind == "class_group":
        return group_summary(value)
    if kind == "class_group_ell":
        return module_summary(value)
    if kind in ("homology", "homology_general"):
        return [module_summary(e) for e in value.entries]
    if kind == "curve":
        return {
            "r": value.r,
            "n": value.n,
            "homology": [module_summary(m)["summands"] for m in value.homology],
            "cohomology": [module_summary(m)["summands"] for m in value.cohomology],
            "basis": list(value.basis_labels),
        }
    if kind == "dualizing":
        return {
            "points": [{"id": p.id, "class_group": group_summary(p.class_group), "ell_part": module_summary(p.ell_part),
                        "factorial": p.factorial} for p in value.points],
            "q_ell_dualizing": value.q_ell_dualizing,
            "z_ell_dualizing": value.z_ell_dualizing,
            "k_minus4": module_summary(value.k_minus4),
            "k_minus2": [[pid, module_summary(m)] for pid, m in value.k_minus2],
        }
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# Running operations


class Runner:
    """Runs operations one at a time and times each."""

    def __init__(self, budget: float, tracer: spans.Tracer | None):
        import resgraph

        self.rg = resgraph
        self.budget = budget
        self.tracer = tracer
        self.graphs: dict[gen.GraphSpec, object] = {}
        self.processes: list[dict] = []  # timings reported by traced CLI processes
        self.child_rss_kib = 0  # largest child that completed an operation
        self.trace = spans.empty_summary()

    def dual(self, g: gen.GraphSpec):
        if g not in self.graphs:
            self.graphs[g] = self.rg.graph_from_obj(g.to_obj())
        return self.graphs[g]

    def call(self, op: gen.Op):
        """The library function for an in-process op and its arguments,
        looked up now so that a tracer's wrappers are used."""
        rg = self.rg
        g = [self.dual(x) for x in op.graphs]
        if op.kind == "validate":
            return rg.validate, (g[0], op.ell)
        if op.kind == "class_group":
            return rg.class_group, (g[0],)
        if op.kind == "class_group_ell":
            return rg.class_group_ell, (g[0], op.ell)
        if op.kind == "homology":
            return rg.local_homology_rational, (g[0], op.ell, op.mode)
        if op.kind == "homology_general":
            return rg.local_homology_general, (g[0], op.ell, rg.GeneralCurveInput(h1_rank=gen.cycle_rank(op.graphs[0])))
        if op.kind == "curve":
            return rg.curve_profile, (g[0], op.ell)
        if op.kind == "dualizing":
            points = tuple(rg.SingularPoint(f"p{i}", x) for i, x in enumerate(g))
            return rg.dualizing_report, (rg.SurfaceSpec(f"surface-{op.graphs[0].name}", op.ell, points),)
        raise ValueError(op.kind)

    def execute(self, op: gen.Op) -> tuple[float, object]:
        """(seconds, summary of the output, or FAILED)."""
        if op.kind == "cli":
            return self._cli(op)
        fn, args = self.call(op)
        if op.isolated:
            return self._isolated(op.kind, fn, args)
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.budget)
            try:
                try:
                    value = fn(*args)
                except Exception as exc:  # a domain error is an output to check
                    value = exc
                seconds = time.perf_counter() - start
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Timeout:
            self._collect()
            return time.perf_counter() - start, FAILED
        self._collect()
        return seconds, summarize(op.kind, value)

    def _collect(self) -> None:
        if self.tracer:
            spans.merge(self.trace, self.tracer.collect())

    def _isolated(self, kind: str, fn, args) -> tuple[float, object]:
        """Run in a forked child under the budget and a memory cap, so that
        how far a timed-out op got leaves no trace in this process."""
        read_fd, write_fd = os.pipe()
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                resource.setrlimit(resource.RLIMIT_AS, (ISOLATED_MEMORY, ISOLATED_MEMORY))
                try:
                    out = summarize(kind, fn(*args))
                except (MemoryError, RecursionError):
                    raise
                except Exception as exc:
                    out = summarize(kind, exc)
                data = json.dumps({"out": out, "trace": self.tracer.collect() if self.tracer else None}).encode()
                while data:
                    data = data[os.write(write_fd, data):]
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        chunks, done = [], False
        with selectors.DefaultSelector() as sel:
            sel.register(read_fd, selectors.EVENT_READ)
            while not done:
                left = start + self.budget - time.perf_counter()
                if left <= 0:
                    break
                if sel.select(left):
                    data = os.read(read_fd, 1 << 16)
                    chunks.append(data)
                    done = not data
        seconds = time.perf_counter() - start
        if not done:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        os.close(read_fd)
        if not done or status != 0:
            return seconds, FAILED
        payload = json.loads(b"".join(chunks))
        if payload["trace"]:
            spans.merge(self.trace, payload["trace"])
        self.child_rss_kib = max(self.child_rss_kib, usage.ru_maxrss)
        return seconds, payload["out"]

    def _cli(self, op: gen.Op) -> tuple[float, object]:
        WORK.mkdir(parents=True, exist_ok=True)
        for name, obj in op.files:
            (WORK / name).write_text(json.dumps(obj), encoding="utf-8")
        argv = [str(WORK / a[1:]) if a.startswith("@") else a for a in op.argv]
        entry = [str(BENCH / "clitrace.py")] if self.tracer else ["-m", "resgraph"]
        res = run_child([sys.executable, *entry, *argv], self.budget)
        if res.code is None:
            return res.seconds, FAILED
        head, _, last = res.err.rstrip("\n").rpartition("\n")
        if self.tracer and last.startswith(spans.TRACE_PREFIX):
            trace = json.loads(last.removeprefix(spans.TRACE_PREFIX))
            res.err = head + "\n" if head else ""
            spans.merge(self.trace, trace["summary"])
            self.processes.append({"start_s": trace["first"] - res.spawned, "import_s": trace["import_s"], "main_s": trace["main_s"]})
        self.child_rss_kib = max(self.child_rss_kib, res.rss_kib)
        return res.seconds, res


# ---------------------------------------------------------------------------
# Metrics


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def layer_metrics(rounds: list[dict], processes: list[dict]) -> dict[str, float]:
    """Per-layer values: the median over rounds of each round's count or
    time, and for the cli.* timings the median over processes."""

    def per_round(value) -> float:
        return statistics.median(value(t) for t in rounds)

    def fn(name: str, slot: int):
        return lambda t: t["fn"].get(name, (0, 0.0, 0.0))[slot] * (1 if slot == 0 else 1000.0)

    def median_ms(key: str, rows: list[dict]) -> float:
        return statistics.median(row[key] for row in rows) * 1000.0 if rows else 0.0

    cli_runs = [p for p in processes if "main_s" in p]
    special = {
        "exactlat.smith_normal_form.max_bits": lambda: per_round(lambda t: t["snf_bits"]),
        "classgrp.class_group.order_bits": lambda: per_round(lambda t: t["order_bits"]),
        "exactlat.smith_normal_form.bits_per_order_bit":
            lambda: per_round(lambda t: t["snf_bits"] / t["order_bits"] if t["order_bits"] else 0.0),
        "dualizing.dualizing_report.definiteness_per_point":
            lambda: per_round(lambda t: t["report_definiteness"] / t["report_points"] if t["report_points"] else 0.0),
        "cli.interpreter_start_ms": lambda: median_ms("start_s", processes),
        "cli.import_ms": lambda: median_ms("import_s", processes),
        "cli.main_ms": lambda: median_ms("main_s", cli_runs),
    }
    values = {}
    for name, _ in PER_LAYER:
        if name in special:
            values[name] = special[name]()
        else:
            base, _, what = name.rpartition(".")
            values[name] = per_round(fn(base, {"calls": 0, "ms": 1, "self_ms": 2}[what]))
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "resgraph" / "__init__.py").is_file() or not CATALOG.is_dir():
        print(f"error: no resgraph package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import resgraph

    if Path(resgraph.__file__).resolve().parent != (SRC / "resgraph").resolve():
        print(f"error: imported resgraph from {resgraph.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    wall_start = time.monotonic()
    build_round, budget = WORKLOADS[args.workload]
    catalog = [gen.spec_from_obj(json.loads(p.read_text(encoding="utf-8"))) for p in sorted(CATALOG.glob("*.json"))]
    names = [g.name for g in catalog]

    setup: list[tuple[float, dict]] = []
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    runner = Runner(budget, tracer)
    signal.signal(signal.SIGALRM, _alarm)

    samples: list[float] = []
    round_seconds: list[float] = []
    round_traces: list[dict] = []
    attempted = failed = seen_ops = 0
    seen: set[str] = set()
    mistakes: list[str] = []
    r = 0
    # whole rounds, as many as come closest to --seconds of operation time
    while not round_seconds or (sum(round_seconds) + round_seconds[-1] / 2 < args.seconds
                                and time.monotonic() - wall_start < WALL_LIMIT_S):
        ops = build_round(args.seed, r, catalog) if args.workload == "cli-catalog" else build_round(args.seed, r)
        runner.graphs.clear()
        runner.trace = spans.empty_summary()
        oracle = check.Oracle()
        total = 0.0
        for op in ops:
            # set-up probes are spread over the run, so that their median
            # sees the same machine as the operations do
            if len(setup) < SETUP_PROBES and sum(round_seconds) + total >= len(setup) * args.seconds / SETUP_PROBES:
                setup.append(probe_setup())
            inputs = [g.name for g in op.graphs] if op.expect.get("command") != "gen" else []
            seen_ops += bool(inputs) and all(name in seen for name in inputs)
            seen.update(inputs)
            seconds, out = runner.execute(op)
            total += seconds
            samples.append(seconds)
            attempted += 1
            if out is FAILED:
                failed += 1
                continue
            try:
                if op.kind == "cli":
                    check.check_cli(oracle, op, out.code, out.out, out.err, names)
                else:
                    check.check_library(oracle, op, out)
            except (Mismatch, KeyError, IndexError, TypeError, ValueError) as exc:
                mistakes.append(f"{op.kind} {op.argv or [g.name for g in op.graphs]}: {type(exc).__name__}: {exc}")
        round_seconds.append(total)
        round_traces.append(runner.trace)
        r += 1

    setup += [probe_setup() for _ in range(SETUP_PROBES - len(setup))]
    if args.workload == "cli-catalog":
        rss_kib = runner.child_rss_kib
    else:
        rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, runner.child_rss_kib)
    setup_s = statistics.median(s for s, _ in setup)
    e2e = {
        "setup_s": setup_s,
        "batch_s": statistics.median(round_seconds),
        "op_p50_ms": statistics.median(samples) * 1000.0,
        "op_p90_ms": percentile(samples, 0.9) * 1000.0,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    for line in mistakes[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(round_seconds)} rounds, {attempted} ops "
          f"({failed} failed, {len(mistakes)} wrong), {seen_ops / attempted:.1%} of ops on a graph already seen; "
          f"round s {[round(x, 3) for x in round_seconds]}; "
          + ", ".join(f"{k} {v:.4g}" for k, v in e2e.items()), file=sys.stderr)

    if tracer:
        tracer.uninstall()
        processes = [p for _, p in setup] + runner.processes
        values = layer_metrics(round_traces, processes)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps({"end_to_end_traced": e2e, "rounds": round_traces, "processes": processes, "metrics": values}, indent=1),
            encoding="utf-8")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": not mistakes, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

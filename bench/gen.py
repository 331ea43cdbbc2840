"""Seeded inputs for the benchmark workloads.

Every function here is a pure function of its arguments and imports nothing
from ``resgraph``: a graph is a plain ``GraphSpec`` that the harness turns
into library values, and that ``check`` reads to compute expected answers
on its own.  A round of a workload is a list of ``Op`` values built from
``(seed, round index)``; the same pair always gives the same round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

PRIMES = (2, 3, 5, 7, 11, 13)

# Sizes of the trees that time out in ``smith_normal_form`` at this commit.
# They come from a fixed seed, not from --seed, so that every run fails on
# exactly the same operations.
BIG_TREE_SIZES = (100, 150, 200, 300, 400)
BIG_TREE_SEED = 20081


@dataclass(frozen=True)
class GraphSpec:
    """A weighted dual graph as plain data.

    ``edges`` holds ``(i, j, m)`` with vertex indices ``i != j`` and
    intersection number ``m``; ``d`` holds the degree gcds.  Generated
    A, D, E and Hirzebruch-Jung graphs carry their family in the name
    (``A60``, ``HJ-k-a``), which is how ``check.closed_form`` knows them.
    """

    name: str
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    d: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.d:
            object.__setattr__(self, "d", (1,) * len(self.weights))

    @property
    def n(self) -> int:
        return len(self.weights)

    def intersection_rows(self) -> list[list[int]]:
        a = [[0] * self.n for _ in range(self.n)]
        for i, w in enumerate(self.weights):
            a[i][i] = w
        for i, j, m in self.edges:
            a[i][j] = a[j][i] = m
        return a

    def theta_rows(self) -> list[list[int]]:
        """Row j is row j of the intersection matrix divided by d_j."""
        return [[x // dj for x in row] for row, dj in zip(self.intersection_rows(), self.d)]

    def is_forest(self) -> bool:
        if any(m >= 2 for _, _, m in self.edges):
            return False
        root = list(range(self.n))

        def find(x):
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for i, j, _ in self.edges:
            a, b = find(i), find(j)
            if a == b:
                return False
            root[a] = b
        return True

    def to_obj(self) -> dict:
        """The graph in the package's JSON format."""
        return {
            "name": self.name,
            "vertices": [{"id": f"v{i + 1}", "self": w, "d": dj} for i, (w, dj) in enumerate(zip(self.weights, self.d))],
            "edges": [{"a": f"v{i + 1}", "b": f"v{j + 1}", "m": m} for i, j, m in self.edges],
        }


def spec_from_obj(obj: dict) -> GraphSpec:
    """Read a graph JSON object (as shipped in the catalog) into a spec."""
    index = {v["id"]: i for i, v in enumerate(obj["vertices"])}
    return GraphSpec(
        name=obj["name"],
        weights=tuple(v["self"] for v in obj["vertices"]),
        edges=tuple((index[e["a"]], index[e["b"]], e.get("m", 1)) for e in obj["edges"]),
        d=tuple(v.get("d", 1) for v in obj["vertices"]),
    )


# ---------------------------------------------------------------------------
# Graph families


def chain(name: str, weights) -> GraphSpec:
    return GraphSpec(name, tuple(weights), tuple((i, i + 1, 1) for i in range(len(weights) - 1)))


def gen_a(n: int) -> GraphSpec:
    return chain(f"A{n}", [-2] * n)


def gen_d(n: int) -> GraphSpec:
    edges = tuple((i, i + 1, 1) for i in range(n - 3)) + ((n - 3, n - 2, 1), (n - 3, n - 1, 1))
    return GraphSpec(f"D{n}", (-2,) * n, edges)


def hj_digits(k: int, a: int) -> list[int]:
    """k/a = b1 - 1/(b2 - 1/(...)) with every bi >= 2."""
    bs = []
    num, den = k, a
    while den:
        b = -(-num // den)
        bs.append(b)
        num, den = den, b * den - num
    return bs


def gen_hj(k: int, a: int) -> GraphSpec:
    return chain(f"HJ-{k}-{a}", [-b for b in hj_digits(k, a)])


def random_hj(rng: random.Random, lo: int, hi: int) -> GraphSpec:
    """A chain for k/a with a 59- to 61-bit k and lo <= length <= hi."""
    k = rng.randrange(2**59, 2**61)
    while True:
        a = rng.randrange(1, k)
        if _gcd(a, k) == 1 and lo <= len(hj_digits(k, a)) <= hi:
            return gen_hj(k, a)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def random_tree(rng: random.Random, n: int, name: str) -> GraphSpec:
    """Random tree by attachment to an earlier vertex, with weights
    -max(2, deg) - {0, 1}: diagonally dominant, hence negative definite,
    and rational by Artin's criterion."""
    parent = [rng.randrange(i) for i in range(1, n)]
    deg = [0] * n
    for child, p in enumerate(parent, start=1):
        deg[child] += 1
        deg[p] += 1
    weights = tuple(-max(2, deg[i]) - rng.randrange(2) for i in range(n))
    return GraphSpec(name, weights, tuple((p, child, 1) for child, p in enumerate(parent, start=1)))


def big_trees() -> list[GraphSpec]:
    rng = random.Random(BIG_TREE_SEED)
    return [random_tree(rng, n, f"bigtree-{n}") for n in BIG_TREE_SIZES]


def random_cycle_graph(rng: random.Random, n: int, name: str) -> GraphSpec:
    """Connected graph with cycles, edges of multiplicity 2 and some
    vertices with d = 2.

    Every edge at a d = 2 vertex has m = 2 and that vertex has an even
    weight, so d divides its column.  Weights are at most minus the sum of
    the incident multiplicities, strictly so at one vertex, which makes the
    matrix irreducibly diagonally dominant and so negative definite.
    """
    edges = {(p, child): 1 for child in range(1, n) for p in [rng.randrange(child)]}
    extra = 0
    while extra < max(1, n // 6):
        i, j = sorted(rng.sample(range(n), 2))
        if (i, j) not in edges:
            edges[(i, j)] = 1
            extra += 1
    d = [1] * n
    for v in rng.sample(range(1, n), max(1, n // 8)):
        d[v] = 2
    for i, j in edges:
        if d[i] == 2 or d[j] == 2 or rng.random() < 0.1:
            edges[(i, j)] = 2
    load = [0] * n
    for (i, j), m in edges.items():
        load[i] += m
        load[j] += m
    weights = []
    for v in range(n):
        if d[v] == 2:
            weights.append(-load[v] - 2 * rng.randrange(2))
        else:
            weights.append(-max(2, load[v]) - (1 if v == 0 else rng.randrange(2)))
    return GraphSpec(name, tuple(weights), tuple((i, j, m) for (i, j), m in sorted(edges.items())), tuple(d))


def cycle_rank(g: GraphSpec) -> int:
    """First Betti number of the multigraph, an edge of multiplicity m
    counting m times."""
    return sum(m for _, _, m in g.edges) - g.n + 1


# ---------------------------------------------------------------------------
# Operations


@dataclass(frozen=True)
class Op:
    """One operation of a round.

    In-process kinds name a library call; ``graphs`` are its inputs (the
    points of a surface for ``dualizing``).  The ``cli`` kind holds an
    argument list in ``argv``, the files it reads in ``files`` and what
    the checker needs in ``expect``.  ``isolated`` operations run in a
    child process under the workload's time budget.
    """

    kind: str
    graphs: tuple[GraphSpec, ...] = ()
    ell: int = 2
    mode: str = "integral"
    isolated: bool = False
    argv: tuple[str, ...] = ()
    files: tuple[tuple[str, str], ...] = ()
    expect: dict = field(default_factory=dict, compare=False)


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_index}")


CHAIN_SIZES = ((40, "A"), (50, "HJ"), (60, "D"), (70, "HJ"), (80, "A"), (90, "HJ"), (100, "D"), (110, "HJ"))


def chains_round(seed: int, r: int) -> list[Op]:
    """Eight long chains on a fixed ladder of sizes, each queried eight
    times, then two three-point surfaces made from the same chains.  Only
    the Hirzebruch-Jung shapes, the primes and the order of points vary
    with the seed, so every round has the same spread of costs."""
    rng = _rng("chains-reuse", seed, r)
    graphs = []
    for n, family in CHAIN_SIZES:
        if family == "A":
            graphs.append(gen_a(n + rng.randint(-2, 2)))
        elif family == "D":
            graphs.append(gen_d(n + rng.randint(-2, 2)))
        else:
            graphs.append(random_hj(rng, n - 2, n + 2))
    ops = []
    for g in graphs:
        ells = rng.sample(PRIMES, 3)
        ops += [
            Op("validate", (g,), ells[0]),
            Op("class_group", (g,)),
            *(Op("class_group_ell", (g,), ell) for ell in ells),
            Op("homology", (g,), ells[0], "integral"),
            Op("homology", (g,), ells[1], "rational"),
            Op("curve", (g,), ells[0]),
        ]
    for points in (graphs[1:6:2], graphs[2:7:2]):
        ops.append(Op("dualizing", tuple(rng.sample(points, 3)), rng.choice(PRIMES)))
    return ops


TREE_SIZES = (25, 30, 35, 40)
TREES_PER_SIZE = 25
TREE_QUERIES = ("class_group", 2, 3, 5, "dualizing")


def trees_round(seed: int, r: int) -> list[Op]:
    """A hundred fresh trees, each seen by exactly one operation: the
    queries class_group, class_group_ell for l = 2, 3, 5 and a one-point
    dualizing report take turns.  Then the fixed large trees through
    class_group, in a child under the time budget."""
    rng = _rng("trees-oneshot", seed, r)
    jobs = [(n, TREE_QUERIES[i % len(TREE_QUERIES)]) for n in TREE_SIZES for i in range(TREES_PER_SIZE)]
    rng.shuffle(jobs)
    ops = []
    for i, (n, query) in enumerate(jobs):
        g = random_tree(rng, n, f"tree-{seed}-{r}-{i}")
        if query == "class_group":
            ops.append(Op("class_group", (g,)))
        elif query == "dualizing":
            ops.append(Op("dualizing", (g,), rng.choice((2, 3, 5))))
        else:
            ops.append(Op("class_group_ell", (g,), query))
    ops += [Op("class_group", (g,), isolated=True) for g in big_trees()]
    return ops


CYCLE_SIZES = (12, 16, 20, 24, 28)
CYCLES_PER_SIZE = 8


def cycles_round(seed: int, r: int) -> list[Op]:
    """Forty fresh graphs with cycles, each through the general homology
    route, class_group, validate and curve_profile."""
    rng = _rng("cycles-general", seed, r)
    sizes = [n for n in CYCLE_SIZES for _ in range(CYCLES_PER_SIZE)]
    rng.shuffle(sizes)
    ops = []
    for i, n in enumerate(sizes):
        g = random_cycle_graph(rng, n, f"cyc-{seed}-{r}-{i}")
        ell = rng.choice((3, 5, 7))
        ops += [
            Op("homology_general", (g,), ell),
            Op("class_group", (g,)),
            Op("validate", (g,), ell),
            Op("curve", (g,), ell),
        ]
    return ops


def gen_e(n: int) -> GraphSpec:
    edges = tuple((i, i + 1, 1) for i in range(n - 2)) + ((2, n - 1, 1),)
    return GraphSpec(f"E{n}", (-2,) * n, edges)


# Inputs the CLI must refuse with exit 1, and a piece of the diagnostic.
HOSTILE = (
    ("not-definite.json", ["classgroup"], "is not negative definite",
     {"name": "not-definite", "vertices": [{"id": "a", "self": -1}, {"id": "b", "self": -1}],
      "edges": [{"a": "a", "b": "b", "m": 2}]}),
    ("ell-divides-d.json", ["homology", "--ell", "3"], "ell_coprime: 3 divides d=3",
     {"name": "ell-divides-d", "vertices": [{"id": "a", "self": -3, "d": 3}], "edges": []}),
    ("unknown-key.json", ["check", "--ell", "2"], "unknown keys ['colour']",
     {"name": "unknown-key", "vertices": [{"id": "a", "self": -2, "colour": "red"}], "edges": []}),
)

CLI_COMMANDS = ("classgroup", "check", "homology-integral", "homology-rational", "curve")


def cli_round(seed: int, r: int, catalog: list[GraphSpec]) -> list[Op]:
    """Every catalog graph through five subcommands, text and JSON output
    alternating; then surfaces, strata, gen, catalog and hostile inputs.
    A file argument ``@name`` refers to the file ``name`` of the op."""
    rng = _rng("cli-catalog", seed, r)
    ops = []
    k = seed
    for g in catalog:
        for command in CLI_COMMANDS:
            k += 1
            fmt = ("text", "json")[k % 2]
            ell = rng.choice((2, 3, 5, 7))
            sub, _, mode = command.partition("-")
            argv = [sub, f"catalog:{g.name}"]
            if sub != "classgroup":
                argv += ["--ell", str(ell)]
            if mode:
                argv += ["--mode", mode]
            ops.append(Op("cli", (g,), ell, mode or "integral", argv=(*argv, "--format", fmt), expect={"command": sub, "format": fmt}))
    for s in range(3):
        points = rng.sample(catalog, rng.randint(2, 4))
        ell = rng.choice((2, 3, 5, 7))
        tree = random_tree(rng, rng.randint(4, 12), f"inline-{s}")
        surface = {
            "name": f"surface-{s}",
            "ell": ell,
            "points": [{"id": f"p{i}", "graph": f"catalog:{g.name}"} for i, g in enumerate(points)]
            + [{"id": f"p{len(points)}", "graph": tree.to_obj()}],
        }
        k += 1
        fmt = ("text", "json")[k % 2]
        ops.append(Op("cli", (*points, tree), ell, argv=("dualizing", f"@surface-{s}.json", "--format", fmt),
                      files=((f"surface-{s}.json", surface),), expect={"command": "dualizing", "format": fmt}))
    for s in range(2):
        strata = [{"label": label, "stalk": sorted(rng.sample(range(-4, 3), rng.randint(0, 2))),
                   "costalk": sorted(rng.sample(range(-4, 3), rng.randint(0, 2)))}
                  for label in ("generic", "curve", "point")]
        k += 1
        fmt = ("text", "json")[k % 2]
        ops.append(Op("cli", argv=("perversity", f"@strata-{s}.json", "--format", fmt),
                      files=((f"strata-{s}.json", {"strata": strata}),), expect={"command": "perversity", "format": fmt, "strata": strata}))
    family = rng.choice("ADE")
    n = {"A": rng.randint(1, 30), "D": rng.randint(4, 30), "E": rng.randint(6, 8)}[family]
    g = {"A": gen_a, "D": gen_d, "E": gen_e}[family](n)
    ops.append(Op("cli", (g,), argv=("gen", "ade", family, str(n)), expect={"command": "gen"}))
    hk = rng.randint(3, 60)
    ha = rng.choice([a for a in range(1, hk) if _gcd(a, hk) == 1])
    g = gen_hj(hk, ha)
    ops.append(Op("cli", (g,), argv=("gen", "hj", str(hk), str(ha)), expect={"command": "gen"}))
    k += 1
    fmt = ("text", "json")[k % 2]
    ops.append(Op("cli", argv=("catalog", "--format", fmt), expect={"command": "catalog", "format": fmt}))
    for name, argv, message, obj in HOSTILE:
        ops.append(Op("cli", argv=(argv[0], f"@{name}", *argv[1:]), files=((name, obj),),
                      expect={"command": "hostile", "message": message}))
    return ops

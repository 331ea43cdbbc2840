"""Exact integer lattice algebra.

Matrices over the integers, Smith normal form with unimodular witnesses,
cokernels in invariant-factor form, the Sylvester negative-definiteness
test, and the l-primary part of a finitely generated abelian group.

Definiteness is decided by symmetric elimination over the rationals on the
nonzero pattern, in minimum-degree order (Rose 1970; George-Liu 1981), so
a forest is eliminated leaves first with no fill.

Everything here is exact: entries are Python integers (arbitrary precision)
or, inside the elimination, ratios of them; no floating point is used
anywhere in this module.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, prod

from .errors import NonSquareError, NonSymmetricError


# Miller-Rabin with the first 13 prime bases is exact below the least
# strong pseudoprime to all of them (Sorenson-Webster 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test of an ``int`` (``True`` and ``2.0`` are refused),
    exact below 3,317,044,064,679,887,385,961,981; raises ValueError at or above it."""
    if type(n) is not int:
        raise ValueError(f"primality is only decided for integers, got {n!r}")
    if n < 2:
        return False
    if n >= _PRIME_TEST_BOUND:
        raise ValueError(f"primality is only decided below {_PRIME_TEST_BOUND}, got {n}")
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(ell: int) -> None:
    if not is_prime(ell):
        raise ValueError(f"coefficient prime required, got {ell}")


def _require_int(key: str, val, least: int | None = None) -> None:
    """Refuse a non-integer ``val`` (``True`` and ``2.0`` too, never truncated) or one below ``least``."""
    if type(val) is not int or least is not None and val < least:
        raise ValueError(f"{key} must be an integer{'' if least is None else f' >= {least}'}, got {val!r}")


class Value:
    """Immutable value: the fields are the instance ``__dict__``, set once
    in field order by a subclass ``__init__`` that checks and normalises
    its arguments and then calls ``super().__init__(**fields)``.  Equality
    (same class, equal fields), hashing and ``repr`` are those of a frozen
    dataclass, and assignment or deletion raises AttributeError.

    Every value class of the package derives from this base rather than
    from ``dataclasses``: that module imports ``inspect`` (and with it
    ``ast``, ``dis`` and ``tokenize``) and then generates and compiles six
    methods per class.  For the 20 value classes that was about 30 of the
    70 ms that ``import resgraph.cli`` took (Python 3.11 on 2 vCPUs, no
    bytecode cache), while the CLI's ``main`` runs in about 6 ms.

    Fields are set one at a time, as a frozen dataclass sets them, so the
    instances keep CPython's shared-key attribute storage.  A single
    ``__dict__.update`` gives each instance a key table of its own: 302
    against 166 bytes per ``Vertex``, and 12% more peak memory over three
    rounds of seeded trees with their graphs kept.
    """

    def __init__(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        """The compared and hashed fields."""
        return tuple(vars(self).values())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class IntMatrix(Value):
    """Immutable integer matrix, row-major.

    A 0x0 matrix is legal and behaves as the empty map; ``entries`` is a
    tuple of row tuples so values can be shared freely across threads.
    """

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows:
            raise ValueError("row count does not match entry grid")
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged entry grid")
            if set(map(type, row)) - {int}:
                raise ValueError(f"integer entries required, got {next(x for x in row if type(x) is not int)!r}")
        super().__init__(rows=rows, cols=cols, entries=entries)

    @classmethod
    def from_rows(cls, data) -> "IntMatrix":
        # operator.index rejects floats instead of truncating them
        entries = tuple(tuple(int(operator.index(x)) for x in row) for row in data)
        rows = len(entries)
        cols = len(entries[0]) if entries else 0
        return cls(rows, cols, entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        return self.entries == tuple(zip(*self.entries))


class SmithForm(Value):
    """Diagonalization witness for a matrix m: the matrix product of u, m
    and v, in that order, equals d, where u and v are unimodular (integer
    matrices of determinant +1 or -1) and d is zero off its diagonal, with
    a nonnegative diagonal in which each entry divides the next."""

    def __init__(self, u: IntMatrix, d: IntMatrix, v: IntMatrix):
        super().__init__(u=u, d=d, v=v)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i, i] for i in range(min(self.d.rows, self.d.cols)))


def _least(values: list[int]) -> int | None:
    """Index of a least nonzero entry of ``values`` in absolute value, or
    None when every entry is zero."""
    m = min(map(abs, filter(None, values)), default=0)
    if not m:
        return None
    return values.index(m) if m in values else values.index(-m)


def _diagonalize(a: list[list[int]], nr: int, nc: int) -> None:
    """Bring the leading ``nr`` x ``nc`` block of the grid ``a`` to Smith
    form in place.

    Textbook elementary reduction (Cohen, GTM 138, Section 2.4): move a
    least nonzero entry of the trailing block to the pivot position, then
    subtract multiples of the pivot row and column from the others, leaving
    only remainders of division by the fixed pivot.  The least remainder
    left in the pivot column or row becomes the next pivot.  Once both are
    clear, a row holding an entry the pivot does not divide is added to the
    pivot row, so the next pass leaves a smaller remainder and the
    divisibility chain holds.  Finally each pivot row is negated where its
    pivot is negative.

    Operations act on whole rows and columns of ``a``, but every pivot
    choice and test reads only the leading block, so entries outside it ride
    along as witnesses.  Rows below the block may be shorter: row operations
    never reach them.

    At step t the leading block is zero left of column t in rows t and
    below, and zero from column t on in the rows above t.  So a row
    operation rewrites only ``row[t:]``, and a column operation only rows
    from t on; entries right of the block and rows below it lie inside those
    ranges.
    """
    for t in range(min(nr, nc)):
        k = _least(list(chain.from_iterable(row[t:nc] for row in a[t:nr])))
        if k is None:
            break
        bi, bj = t + k // (nc - t), t + k % (nc - t)
        while True:
            if bi != t:
                a[t], a[bi] = a[bi], a[t]
            if bj != t:
                for row in a[t:]:
                    row[t], row[bj] = row[bj], row[t]
            pivot = a[t][t]
            for i in range(t + 1, nr):
                q = a[i][t] // pivot
                if q:
                    a[i][t:] = [x - q * y for x, y in zip(a[i][t:], a[t][t:])]
            # a column operation only changes rows with a nonzero entry in
            # column t, and it leaves that column as it is
            movers = [row for row in a[t:] if row[t]]
            for j in range(t + 1, nc):
                q = a[t][j] // pivot
                if q:
                    for row in movers:
                        row[j] -= q * row[t]
            column = [a[i][t] for i in range(t + 1, nr)]
            k = _least(column + a[t][t + 1:nc])
            if k is not None:
                bi, bj = (t + 1 + k, t) if k < len(column) else (t, t + 1 + k - len(column))
                continue
            if abs(pivot) == 1:
                break
            carrier = next((i for i in range(t + 1, nr) if any(x % pivot for x in a[i][t + 1:nc])), None)
            if carrier is None:
                break
            a[t][t:] = [x + y for x, y in zip(a[t][t:], a[carrier][t:])]
            bi = bj = t

    for i in range(min(nr, nc)):
        if a[i][i] < 0:
            a[i][i:] = [-x for x in a[i][i:]]


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row/column operations,
    keeping the witnesses: d is the product u m v (see :class:`SmithForm`).

    The reduction runs on the grid ``[[m, I], [I]]``, so the row operations
    build ``u`` to the right of ``m`` and the column operations build ``v``
    below it.  Total on all integer matrices, including empty ones.
    """
    nr, nc = m.rows, m.cols
    grid = [list(row) + [int(i == k) for k in range(nr)] for i, row in enumerate(m.entries)]
    grid += [[int(j == k) for k in range(nc)] for j in range(nc)]
    _diagonalize(grid, nr, nc)
    return SmithForm(
        u=IntMatrix(nr, nr, tuple(tuple(row[nc:]) for row in grid[:nr])),
        d=IntMatrix(nr, nc, tuple(tuple(row[:nc]) for row in grid[:nr])),
        v=IntMatrix(nc, nc, tuple(tuple(row) for row in grid[nr:])),
    )


class FgAbGroup(Value):
    """Finitely generated abelian group: free rank plus invariant factors.

    Factors are >= 2 and each divides the next, so equality of values is
    equality of groups.  The group is finite iff ``free_rank == 0``.
    """

    def __init__(self, free_rank: int, invariant_factors: tuple[int, ...] = ()):
        _require_int("free_rank", free_rank, 0)
        factors = tuple(invariant_factors)
        for f in factors:
            _require_int("invariant_factors", f, 2)
        for f, g in zip(factors, factors[1:]):
            if g % f != 0:
                raise ValueError(f"invariant factors must form a divisibility chain: {f} does not divide {g}")
        super().__init__(free_rank=free_rank, invariant_factors=factors)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        return prod(self.invariant_factors)

    def exponent(self) -> int | None:
        """Largest invariant factor (1 for the trivial group), None when infinite."""
        if self.free_rank:
            return None
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def __str__(self) -> str:
        parts = [f"Z/{f}" for f in self.invariant_factors]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " ⊕ ".join(parts) if parts else "0"


def cokernel(m: IntMatrix) -> FgAbGroup:
    """Quotient of Z^rows by the lattice spanned by the columns of ``m``,
    in invariant-factor form.  Unit factors are dropped; the free rank is
    ``rows - rank(m)``.  Runs the reduction of :func:`smith_normal_form`
    on ``m`` alone, so no witness is built."""
    a = m.to_lists()
    _diagonalize(a, m.rows, m.cols)
    diag = [a[i][i] for i in range(min(m.rows, m.cols))]
    rank = sum(1 for x in diag if x != 0)
    return FgAbGroup(
        free_rank=m.rows - rank,
        invariant_factors=tuple(x for x in diag if x >= 2),
    )


_Ratio = tuple[int, int]  # numerator, denominator > 0, in lowest terms


def _schur(a: _Ratio, b: _Ratio, c: _Ratio, p: _Ratio) -> _Ratio:
    """a - b * c / p, the update of one Schur complement entry."""
    num = a[0] * b[1] * c[1] * p[0] - b[0] * c[0] * a[1] * p[1]
    den = a[1] * b[1] * c[1] * p[0]
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    return num // g, den // g


def _symmetric_pivots(rows: list[dict[int, int]]) -> Iterator[_Ratio]:
    """Pivots of symmetric Gaussian elimination over the rationals of the
    symmetric m with nonzero entries ``rows[i]`` in row i (keyed by column),
    taking an index of least current degree at each step (minimum degree):
    a forest is eliminated leaves first with no fill.

    The pivots are those of P m P^T for the permutation P of the elimination
    order; while none is zero their product is det m.  The pass ends after
    the first zero pivot.  Rationals are integer pairs rather than
    ``Fraction`` values, which cost a module import and run 2-3 times slower.
    """
    diag = [(row.get(i, 0), 1) for i, row in enumerate(rows)]
    adj = [{j: (x, 1) for j, x in row.items() if j != i} for i, row in enumerate(rows)]
    heap = [(len(nbrs), i) for i, nbrs in enumerate(adj)]
    heapify(heap)
    done = [False] * len(rows)
    while heap:
        degree, v = heappop(heap)
        if done[v] or degree != len(adj[v]):
            continue  # stale entry: v is eliminated or its degree changed
        done[v] = True
        pivot = diag[v]
        yield pivot
        if not pivot[0]:
            return
        nbrs = list(adj[v].items())
        for u, _ in nbrs:
            del adj[u][v]
        for k, (u, x) in enumerate(nbrs):
            diag[u] = _schur(diag[u], x, x, pivot)
            row = adj[u]
            for w, y in nbrs[k + 1:]:
                z = _schur(row.get(w, (0, 1)), x, y, pivot)
                if z[0]:
                    row[w] = adj[w][u] = z
                else:  # cancellation: x * y != 0, so a_uw was nonzero
                    del row[w], adj[w][u]
            heappush(heap, (len(row), u))


def _negative_det(rows: list[dict[int, int]]) -> int | None:
    """|det m| if m (given as for :func:`_symmetric_pivots`) is negative definite, else None.
    The first k pivots multiply to a principal minor, so ``det`` stays an integer."""
    det = 1
    for num, den in _symmetric_pivots(rows):
        if num >= 0:
            return None
        det = det * num // den
    return abs(det)


def is_negative_definite(m: IntMatrix) -> bool:
    """Sylvester criterion in exact arithmetic, by sparse elimination.

    P m P^T is negative definite iff m is, and that holds iff every pivot
    of its symmetric Gaussian elimination is negative, so the pivots may be
    taken in any order.  They are taken in minimum-degree order on the nonzero
    pattern (Rose 1970, "Triangulated graphs and the elimination process",
    J. Math. Anal. Appl. 32; George-Liu 1981, Computer Solution of Large
    Sparse Positive Definite Systems), and the pass stops at the first
    pivot >= 0.  The empty matrix is vacuously negative definite.
    """
    if not m.is_square:
        raise NonSquareError(f"definiteness of a {m.rows}x{m.cols} matrix")
    if not m.is_symmetric():
        raise NonSymmetricError("definiteness requires a symmetric matrix")
    return _negative_det([{j: x for j, x in enumerate(row) if x} for row in m.entries]) is not None


class LSummand(Value):
    """One graded piece of an l-adic module: a Tate-twist tag, a free rank,
    and cyclic torsion factors of order ell^e (exponents e >= 1)."""

    def __init__(self, twist: int, free_rank: int, torsion_exponents: tuple[int, ...] = ()):
        _require_int("twist", twist)
        _require_int("free_rank", free_rank, 0)
        exps = tuple(torsion_exponents)
        for e in exps:
            _require_int("torsion_exponents", e, 1)
        super().__init__(twist=twist, free_rank=free_rank, torsion_exponents=exps)

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion_exponents


class LModule(Value):
    """Finitely generated module over the l-adic coefficient ring, as a sum
    of twist-tagged pieces.

    Twists are bookkeeping tags, never applied numerically.  Values are
    normalized on construction (zero pieces dropped, same-twist pieces
    merged, sorted by twist) so value equality is module isomorphism.
    """

    def __init__(self, ell: int, summands: tuple[LSummand, ...] = ()):
        _require_prime(ell)
        merged: dict[int, tuple[int, list[int]]] = {}
        for s in summands:
            if not isinstance(s, LSummand):
                s = LSummand(*s)
            if s.is_zero:
                continue
            rank, exps = merged.get(s.twist, (0, []))
            merged[s.twist] = (rank + s.free_rank, exps + list(s.torsion_exponents))
        normal = tuple(
            LSummand(twist, rank, tuple(sorted(exps)))
            for twist, (rank, exps) in sorted(merged.items())
        )
        super().__init__(ell=ell, summands=normal)

    @classmethod
    def zero(cls, ell: int) -> "LModule":
        return cls(ell, ())

    @classmethod
    def free(cls, ell: int, rank: int, twist: int = 0) -> "LModule":
        return cls(ell, ((LSummand(twist, rank)),))

    @property
    def is_zero(self) -> bool:
        return not self.summands

    def total_free_rank(self) -> int:
        return sum(s.free_rank for s in self.summands)

    def torsion_order(self) -> int:
        """Order ell^(sum of exponents) of the torsion subgroup."""
        return self.ell ** sum(e for s in self.summands for e in s.torsion_exponents)

    def twisted(self, k: int) -> "LModule":
        """Shift every twist tag by ``k``."""
        return LModule(self.ell, tuple(LSummand(s.twist + k, s.free_rank, s.torsion_exponents) for s in self.summands))

    def without_torsion(self) -> "LModule":
        return LModule(self.ell, tuple(LSummand(s.twist, s.free_rank) for s in self.summands))

    def render(self, rational: bool = False) -> str:
        """Human-readable form, e.g. ``Z_2(2)`` or ``Z/4(1)``; twist tags
        appear as a ``(t)`` suffix when nonzero."""
        if self.is_zero:
            return "0"
        ring = f"Q_{self.ell}" if rational else f"Z_{self.ell}"
        parts = []
        for s in self.summands:
            suffix = f"({s.twist})" if s.twist else ""
            if s.free_rank:
                base = ring if s.free_rank == 1 else f"{ring}^{s.free_rank}"
                parts.append(base + suffix)
            for e in s.torsion_exponents:
                parts.append(f"Z/{self.ell ** e}" + suffix)
        return " ⊕ ".join(parts)

    def __str__(self) -> str:
        return self.render()


def ell_primary(group: FgAbGroup, ell: int) -> LModule:
    """The l-primary part of a finitely generated abelian group.

    Tensoring with the l-adic integers preserves the free rank and keeps
    exactly the l-power part of each invariant factor.  The twist tag is 0;
    callers retwist.
    """
    _require_prime(ell)
    exps = []
    for f in group.invariant_factors:
        e = 0
        while f % ell == 0:
            f //= ell
            e += 1
        if e:
            exps.append(e)
    return LModule(ell, ((LSummand(0, group.free_rank, tuple(exps))),))

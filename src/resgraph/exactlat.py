"""Exact integer lattice algebra.

Matrices over the integers, Smith normal form with unimodular witnesses,
cokernels in invariant-factor form, the Sylvester negative-definiteness
test, and the l-primary part of a finitely generated abelian group.

Everything here is exact: entries are Python integers (arbitrary precision)
and no floating point is used anywhere in this module.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass
from math import prod

from .errors import NonSquareError, NonSymmetricError


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (coefficient primes
    are small; no need for anything fancier)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _require_prime(ell: int) -> None:
    if not is_prime(ell):
        raise ValueError(f"coefficient prime required, got {ell}")


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major.

    A 0x0 matrix is legal and behaves as the empty map; ``entries`` is a
    tuple of row tuples so values can be shared freely across threads.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entry grid")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged entry grid")
            for x in row:
                if type(x) is not int:
                    raise ValueError(f"integer entries required, got {x!r}")

    @classmethod
    def from_rows(cls, data) -> "IntMatrix":
        # operator.index rejects floats instead of truncating them
        entries = tuple(tuple(int(operator.index(x)) for x in row) for row in data)
        rows = len(entries)
        cols = len(entries[0]) if entries else 0
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def diagonal(cls, diag) -> "IntMatrix":
        diag = tuple(int(operator.index(x)) for x in diag)
        n = len(diag)
        return cls(n, n, tuple(tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.entries)) if self.entries else tuple(() for _ in range(self.cols)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols_of_other = list(zip(*other.entries)) if other.entries else []
        out = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols_of_other) if cols_of_other else (0,) * other.cols
            for row in self.entries
        )
        return IntMatrix(self.rows, other.cols, out)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        e = self.entries
        return all(e[i][j] == e[j][i] for i in range(self.rows) for j in range(i + 1, self.cols))

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square:
            raise NonSquareError(f"determinant of a {self.rows}x{self.cols} matrix")
        sign, last = 1, 1
        for last, swapped in _bareiss(self.to_lists()):
            if swapped:
                sign = -sign
        return sign * last

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.entries) + "]"


def _bareiss(a: list[list[int]]) -> Iterator[tuple[int, bool]]:
    """Fraction-free (Bareiss) elimination of the square grid ``a`` in place.

    Yields ``(pivot, swapped)`` before eliminating with each pivot, where
    ``swapped`` says a zero pivot was swapped for a lower row's nonzero entry.
    Without swaps pivot k is the leading principal minor of order k + 1; the
    last pivot, signed by the swaps, is the determinant (0 ends the pass).
    """
    n = len(a)
    prev = 1
    for k in range(n):
        swapped = False
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if i is not None:
                a[k], a[i] = a[i], a[k]
                swapped = True
        pivot = a[k][k]
        yield pivot, swapped
        if pivot == 0:
            return
        top = a[k]
        for i in range(k + 1, n):
            row = a[i]
            c = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - c * top[j]) // prev
        prev = pivot


@dataclass(frozen=True)
class SmithForm:
    """Diagonalization witness: ``d == u @ m @ v`` with u, v unimodular and
    the diagonal of d nonnegative, each entry dividing the next."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i, i] for i in range(min(self.d.rows, self.d.cols)))

    def invariant_factors(self) -> tuple[int, ...]:
        """Nonzero diagonal entries: the invariant factors of the image lattice."""
        return tuple(x for x in self.diagonal() if x != 0)

    def rank(self) -> int:
        return len(self.invariant_factors())


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _diagonalize(a: list[list[int]], nr: int, nc: int) -> None:
    """Bring the leading ``nr`` x ``nc`` block of the grid ``a`` to Smith
    form in place.

    Classical elementary reduction: move a minimal nonzero entry of the
    trailing block to the pivot position, then alternately clear the pivot
    column and row.  Each offending pair (pivot, entry) is resolved by one
    unimodular 2x2 transform built from the extended gcd (a single-shot
    Euclid cascade, which keeps intermediate entries from churning), and
    any trailing entry the pivot fails to divide is folded into the pivot
    row so the divisibility chain holds.  Finally each pivot row is
    negated where its pivot is negative.

    Operations act on whole rows and columns of ``a``, but every pivot
    choice and test reads only the leading block, so entries outside it ride
    along as witnesses.  Rows below the block may be shorter: row operations
    never reach them.
    """
    t = 0
    while t < nr and t < nc:
        best: tuple[int, int] | None = None
        best_abs = 0
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best_abs):
                    best = (i, j)
                    best_abs = abs(x)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        while True:
            for i in range(t + 1, nr):
                y = a[i][t]
                if y == 0:
                    continue
                x = a[t][t]
                if y % x == 0:
                    c = -(y // x)
                    a[i] = [p + c * q for p, q in zip(a[i], a[t])]
                else:
                    g, s, w = _xgcd(x, y)
                    yg, xg = y // g, x // g
                    a[t], a[i] = (
                        [s * p + w * q for p, q in zip(a[t], a[i])],
                        [xg * q - yg * p for p, q in zip(a[t], a[i])],
                    )
            for j in range(t + 1, nc):
                y = a[t][j]
                if y == 0:
                    continue
                x = a[t][t]
                if y % x == 0:
                    c = -(y // x)
                    for row in a:
                        row[j] += c * row[t]
                else:
                    # the pivot shrinks to gcd(x, y); this may refill the
                    # pivot column, hence the outer loop
                    g, s, w = _xgcd(x, y)
                    yg, xg = y // g, x // g
                    for row in a:
                        p, q = row[t], row[j]
                        row[t] = s * p + w * q
                        row[j] = xg * q - yg * p
            if any(a[i][t] != 0 for i in range(t + 1, nr)):
                continue
            pivot = a[t][t]
            carrier = next(
                (i for i in range(t + 1, nr) for j in range(t + 1, nc) if a[i][j] % pivot != 0),
                None,
            )
            if carrier is None:
                break
            # fold the undivided entry's row into the pivot row; the next
            # sweep gcds the pivot down toward it
            a[t] = [p + q for p, q in zip(a[t], a[carrier])]
        t += 1

    for i in range(min(nr, nc)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row/column operations,
    keeping the witnesses: ``d == u @ m @ v``.

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


@dataclass(frozen=True)
class FgAbGroup:
    """Finitely generated abelian group: free rank plus invariant factors.

    Factors are >= 2 and each divides the next, so equality of values is
    equality of groups.  The group is finite iff ``free_rank == 0``.
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        factors = tuple(int(f) for f in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        for f in factors:
            if f < 2:
                raise ValueError(f"invariant factors must be >= 2, got {f}")
        for f, g in zip(factors, factors[1:]):
            if g % f != 0:
                raise ValueError(f"invariant factors must form a divisibility chain: {f} does not divide {g}")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

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


def is_negative_definite(m: IntMatrix) -> bool:
    """Sylvester criterion in exact arithmetic: (-1)^k * minor_k > 0 for
    every leading principal minor.

    Uses one fraction-free elimination pass whose pivots are exactly the
    leading principal minors while no row swap is needed; a swap, or a zero
    or wrong-signed pivot, short-circuits.
    The empty matrix is vacuously negative definite.
    """
    if not m.is_square:
        raise NonSquareError(f"definiteness of a {m.rows}x{m.cols} matrix")
    if not m.is_symmetric():
        raise NonSymmetricError("definiteness requires a symmetric matrix")
    for k, (minor, swapped) in enumerate(_bareiss(m.to_lists())):
        if swapped or minor == 0 or ((minor > 0) if k % 2 == 0 else (minor < 0)):
            return False
    return True


@dataclass(frozen=True)
class LSummand:
    """One graded piece of an l-adic module: a Tate-twist tag, a free rank,
    and cyclic torsion factors of order ell^e (exponents e >= 1)."""

    twist: int
    free_rank: int
    torsion_exponents: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        exps = tuple(int(e) for e in self.torsion_exponents)
        object.__setattr__(self, "torsion_exponents", exps)
        if any(e < 1 for e in exps):
            raise ValueError("torsion exponents must be >= 1")

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion_exponents


@dataclass(frozen=True)
class LModule:
    """Finitely generated module over the l-adic coefficient ring, as a sum
    of twist-tagged pieces.

    Twists are bookkeeping tags, never applied numerically.  Values are
    normalized on construction (zero pieces dropped, same-twist pieces
    merged, sorted by twist) so dataclass equality is module isomorphism.
    """

    ell: int
    summands: tuple[LSummand, ...] = ()

    def __post_init__(self):
        _require_prime(self.ell)
        merged: dict[int, tuple[int, list[int]]] = {}
        for s in self.summands:
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
        object.__setattr__(self, "summands", normal)

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

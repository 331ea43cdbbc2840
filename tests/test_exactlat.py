import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resgraph.dualgraph import gen_ade, intersection_matrix
from resgraph.errors import NonSquareError, NonSymmetricError
from resgraph.exactlat import (
    FgAbGroup,
    IntMatrix,
    LModule,
    LSummand,
    _symmetric_pivots,
    cokernel,
    ell_primary,
    is_negative_definite,
    is_prime,
    smith_normal_form,
)

from .oracles import (
    CosetGroup,
    det_fraction,
    leading_principal_minors,
    quadratic_form_violation,
)

A3_CARTAN_NEG = [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]


def _neg_cartan_chain_with_branch(n, branch_at=None):
    """Negated Cartan matrix of a chain v1..v_{n-1} plus v_n glued at a
    branch vertex (None for a plain A_n chain on n vertices)."""
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = -2
    limit = n if branch_at is None else n - 1
    for i in range(limit - 1):
        a[i][i + 1] = a[i + 1][i] = 1
    if branch_at is not None:
        a[branch_at - 1][n - 1] = a[n - 1][branch_at - 1] = 1
    return a


E8_CARTAN_NEG = _neg_cartan_chain_with_branch(8, branch_at=3)


def matrices(max_dim=4, lo=-5, hi=5):
    dim = st.integers(min_value=0, max_value=max_dim)
    return dim.flatmap(
        lambda r: dim.flatmap(
            lambda c: st.lists(
                st.lists(st.integers(min_value=lo, max_value=hi), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(IntMatrix.from_rows)
        )
    )


@st.composite
def symmetric_rows(draw, max_dim=7):
    """Symmetric integer grids shaped like intersection matrices and worse:
    zero and positive diagonals, sparse patterns with cycles, entries >= 2
    (multiple intersections), and singular rows summing to zero."""
    n = draw(st.integers(min_value=0, max_value=max_dim))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.sampled_from((0, 0, 0, 1, 1, 2, -1)))
    singular = draw(st.booleans())
    for i in range(n):
        rows[i][i] = -sum(rows[i]) if singular else draw(st.integers(min_value=-6, max_value=1))
    return rows


def determinantal_divisors(rows, r, c):
    """[D_0, D_1, ...] with D_0 = 1 and D_i the gcd of the i x i minors."""
    divisors = [1]
    for i in range(1, min(r, c) + 1):
        g = 0
        for ri in combinations(range(r), i):
            for ci in combinations(range(c), i):
                g = gcd(g, int(det_fraction([[rows[a][b] for b in ci] for a in ri])))
        divisors.append(g)
    return divisors


def sparse_rows(rng, n, density, bound):
    return [[rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]


def matmul(a, b):
    """The product of two IntMatrix values (shapes may be empty)."""
    assert a.cols == b.rows
    cols = [[row[j] for row in b.entries] for j in range(b.cols)]
    return IntMatrix(a.rows, b.cols, tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                                           for row in a.entries))


def identity(n):
    return IntMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def assert_witnessed(m):
    """The Smith form of ``m`` with its witness checked: u m v = d, and u
    and v have determinant +1 or -1."""
    snf = smith_normal_form(m)
    assert matmul(matmul(snf.u, m), snf.v) == snf.d
    assert abs(det_fraction(snf.u.to_lists())) == 1
    assert abs(det_fraction(snf.v.to_lists())) == 1
    return snf


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IntMatrix(-1, 0, ())
        for entries, message in (
            (((1, 2), (3,)), "ragged entry grid"),
            (((1, 2), (1.5, 3)), "integer entries required, got 1.5"),
            (((True, 1), (3, 4)), "integer entries required, got True"),
            (((1, 2), ("1", 2.5)), "integer entries required, got '1'"),
        ):
            with pytest.raises(ValueError) as info:
                IntMatrix(2, 2, entries)
            assert str(info.value) == message

    def test_empty_matrix_is_legal(self):
        m = IntMatrix(0, 0, ())
        assert IntMatrix.from_rows([]) == m
        assert m.to_lists() == [] and m.is_symmetric()
        assert assert_witnessed(m).diagonal() == ()


class TestSmithNormalForm:
    def test_identity(self):
        snf = assert_witnessed(identity(3))
        assert snf.d == identity(3)

    def test_zero_1x1(self):
        snf = smith_normal_form(IntMatrix.from_rows([[0]]))
        assert snf.d == IntMatrix.from_rows([[0]])

    def test_diag_2_3(self):
        # oracle: Z^2 modulo the column lattice of diag(2,3) is cyclic of
        # order 6, so the invariant factors are (1, 6)
        oracle = CosetGroup([[2, 0], [0, 3]])
        assert oracle.order == 6 and oracle.is_cyclic
        snf = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert snf.diagonal() == (1, 6)

    def test_reconstruction_and_chain_random(self):
        rng = random.Random(11)
        for _ in range(120):
            r, c = rng.randint(0, 4), rng.randint(0, 4)
            m = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)])
            snf = assert_witnessed(m)
            diag = snf.diagonal()
            assert all(x >= 0 for x in diag)
            for x, y in zip(diag, diag[1:]):
                if x != 0:
                    assert y % x == 0
                else:
                    assert y == 0
            # off-diagonal entries vanish
            for i in range(snf.d.rows):
                for j in range(snf.d.cols):
                    if i != j:
                        assert snf.d[i, j] == 0

    def test_witnesses_on_tall_and_wide(self):
        # the witness columns of u and rows of v lie outside the leading
        # block, beyond the shapes of the hypothesis strategy
        rng = random.Random(95)
        for _ in range(60):
            r, c = rng.randint(5, 9), rng.randint(1, 5)
            if rng.random() < 0.5:
                r, c = c, r
            m = IntMatrix.from_rows([[rng.randint(-30, 30) if rng.random() < 0.6 else 0 for _ in range(c)]
                                     for _ in range(r)])
            assert_witnessed(m)

    @settings(max_examples=80, deadline=None)
    @given(matrices())
    def test_reconstruction_property(self, m):
        assert_witnessed(m)

    @settings(max_examples=80, deadline=None)
    @given(matrices())
    def test_matches_determinantal_divisors(self, m):
        # the i-th invariant factor is D_i / D_(i-1), read off minors alone
        divisors = determinantal_divisors(m.to_lists(), m.rows, m.cols)
        rank = sum(1 for x in divisors[1:] if x != 0)
        diag = [divisors[i] // divisors[i - 1] for i in range(1, rank + 1)]
        diag += [0] * (min(m.rows, m.cols) - rank)
        assert smith_normal_form(m).diagonal() == tuple(diag)
        assert cokernel(m) == FgAbGroup(m.rows - rank, tuple(x for x in diag if x >= 2))

    def test_sparse_40_wide_entries(self):
        rng = random.Random(40)
        for _ in range(2):
            rows = sparse_rows(rng, 40, 0.2, 100)
            m = IntMatrix.from_rows(rows)
            det = det_fraction(rows)
            group = cokernel(m)
            if det:
                assert group.order() == abs(det)
            else:
                assert group.free_rank >= 1
            assert_witnessed(m)

    def test_sparse_60_small_entries_and_singular(self):
        rng = random.Random(60)
        rows = sparse_rows(rng, 60, 0.1, 5)
        while det_fraction(rows) == 0:
            rows = sparse_rows(rng, 60, 0.1, 5)
        m = IntMatrix.from_rows(rows)
        assert cokernel(m).order() == abs(det_fraction(rows))
        assert_witnessed(m)
        # replacing the last row by the sum of the first two leaves rank 59,
        # since the first 59 rows of a nonsingular matrix are independent
        rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
        singular = IntMatrix.from_rows(rows)
        assert det_fraction(rows) == 0
        assert cokernel(singular).free_rank == 1
        assert_witnessed(singular)

    def test_no_entry_swell_on_dense_matrices(self):
        # regression: a remainder-swap cascade used to blow intermediate
        # entries up exponentially on dense 6x6 inputs
        rng = random.Random(2024)
        for _ in range(60):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            m = IntMatrix.from_rows([[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)])
            assert_witnessed(m)
            if r == c:
                d = det_fraction(m.to_lists())
                if d != 0:
                    group = cokernel(m)
                    assert group.order() == abs(d)


class TestCokernel:
    def test_zero_2x2(self):
        assert cokernel(IntMatrix.from_rows([[0, 0], [0, 0]])) == FgAbGroup(2)

    def test_minus_two(self):
        oracle = CosetGroup([[-2]])
        assert oracle.order == 2
        assert cokernel(IntMatrix.from_rows([[-2]])) == FgAbGroup(0, (2,))

    def test_a3_cartan(self):
        oracle = CosetGroup(A3_CARTAN_NEG)
        assert oracle.order == 4 and oracle.is_cyclic
        assert cokernel(IntMatrix.from_rows(A3_CARTAN_NEG)) == FgAbGroup(0, (4,))

    def test_empty(self):
        assert cokernel(IntMatrix(0, 0, ())).is_trivial

    def test_free_rank_counts_missing_rank(self):
        m = IntMatrix.from_rows([[1, 0], [0, 0], [0, 0]])
        assert cokernel(m) == FgAbGroup(2)

    def test_order_matches_det_random(self):
        rng = random.Random(23)
        seen_finite = 0
        while seen_finite < 40:
            n = rng.randint(1, 4)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            d = det_fraction(rows)
            if d == 0:
                continue
            seen_finite += 1
            group = cokernel(IntMatrix.from_rows(rows))
            assert group.order() == abs(d)
            if abs(d) <= 200:
                oracle = CosetGroup(rows)
                assert oracle.order == group.order()
                assert oracle.exponent == group.exponent()


    @settings(max_examples=80, deadline=None)
    @given(matrices())
    def test_agrees_with_smith_diagonal(self, m):
        # cokernel skips the witnesses; its group must still be read off
        # the diagonal of the witnessed Smith form
        diag = smith_normal_form(m).diagonal()
        group = cokernel(m)
        assert group.free_rank == m.rows - sum(1 for x in diag if x != 0)
        assert group.invariant_factors == tuple(x for x in diag if x >= 2)

    def test_order_matches_det_on_larger_trees(self):
        # random attachment trees with weights -max(2, deg) - {0, 1}:
        # diagonally dominant, hence negative definite and det != 0
        rng = random.Random(53)
        for n in (50, 55, 60):
            parent = [rng.randrange(i) for i in range(1, n)]
            rows = [[0] * n for _ in range(n)]
            for child, p in enumerate(parent, start=1):
                rows[child][p] = rows[p][child] = 1
            for i in range(n):
                deg = sum(rows[i])
                rows[i][i] = -max(2, deg) - rng.randrange(2)
            assert cokernel(IntMatrix.from_rows(rows)).order() == abs(det_fraction(rows))


class TestNegativeDefinite:
    def test_single_entry(self):
        assert is_negative_definite(IntMatrix.from_rows([[-2]]))
        assert not is_negative_definite(IntMatrix.from_rows([[0]]))
        assert not is_negative_definite(IntMatrix.from_rows([[1]]))

    def test_empty_is_vacuously_definite(self):
        assert is_negative_definite(IntMatrix(0, 0, ()))

    def test_e8(self):
        minors = leading_principal_minors(E8_CARTAN_NEG)
        for k, minor in enumerate(minors, start=1):
            assert (minor < 0) if k % 2 else (minor > 0)
        assert is_negative_definite(IntMatrix.from_rows(E8_CARTAN_NEG))

    def test_indefinite_example(self):
        assert not is_negative_definite(IntMatrix.from_rows([[-2, 3], [3, -2]]))

    def test_errors(self):
        with pytest.raises(NonSquareError):
            is_negative_definite(IntMatrix.from_rows([[1, 2]]))
        with pytest.raises(NonSymmetricError):
            is_negative_definite(IntMatrix.from_rows([[1, 2], [3, 4]]))

    @settings(max_examples=300, deadline=None)
    @given(symmetric_rows())
    def test_matches_leading_minors_and_pivot_product(self, rows):
        m = IntMatrix.from_rows(rows)
        verdict = is_negative_definite(m)
        minors = leading_principal_minors(rows)
        assert verdict == all((minor < 0) if k % 2 else (minor > 0) for k, minor in enumerate(minors, start=1))
        witness = quadratic_form_violation(rows, bound=2 if len(rows) <= 5 else 1)
        if verdict:
            assert witness is None
        if witness is not None:
            assert not verdict
        ratios = list(_symmetric_pivots([{j: x for j, x in enumerate(row) if x} for row in rows]))
        assert all(den > 0 and gcd(num, den) == 1 for num, den in ratios)
        pivots = [Fraction(num, den) for num, den in ratios]
        if len(pivots) == m.rows and all(pivots):
            assert prod(pivots) == det_fraction(rows)

    def test_long_chains(self):
        m = intersection_matrix(gen_ade("A", 2000))
        assert is_negative_definite(m)
        # a -2, -1, -2 run is a singular 3 x 3 principal block
        row = m.entries[1000][:1000] + (-1,) + m.entries[1000][1001:]
        assert not is_negative_definite(IntMatrix(m.rows, m.cols, m.entries[:1000] + (row,) + m.entries[1001:]))

    def test_agrees_with_bounded_sign_search(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 3)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-5, 5)
            verdict = is_negative_definite(IntMatrix.from_rows(rows))
            witness = quadratic_form_violation(rows, bound=3)
            if verdict:
                # definite => the form is negative on every small vector
                assert witness is None
            if witness is not None:
                # an explicit certificate of non-definiteness
                assert not verdict


class TestEllPrimary:
    def test_twelve(self):
        g = FgAbGroup(0, (12,))
        assert ell_primary(g, 2) == LModule(2, (LSummand(0, 0, (2,)),))
        assert ell_primary(g, 3) == LModule(3, (LSummand(0, 0, (1,)),))
        assert ell_primary(g, 5).is_zero

    def test_free_module(self):
        g = FgAbGroup(1)
        for ell in (2, 3, 5):
            lm = ell_primary(g, ell)
            assert lm == LModule.free(ell, 1, 0)
            assert lm.torsion_order() == 1

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            ell_primary(FgAbGroup(0, (4,)), 6)

    def test_order_is_largest_ell_power(self):
        rng = random.Random(41)
        for _ in range(100):
            factors = []
            current = 1
            for _ in range(rng.randint(0, 4)):
                current = max(current, 1) * rng.randint(1, 6)
                if current >= 2:
                    factors.append(current)
            group = FgAbGroup(0, tuple(factors))
            total = group.order()
            for ell in (2, 3, 5, 7):
                part = ell_primary(group, ell)
                expected = 1
                rest = total
                while rest % ell == 0:
                    expected *= ell
                    rest //= ell
                assert part.torsion_order() == expected


class TestFgAbGroup:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, (1,))
        with pytest.raises(ValueError):
            FgAbGroup(0, (4, 6))  # 4 does not divide 6
        with pytest.raises(ValueError):
            FgAbGroup(-1)

    @pytest.mark.parametrize("args, field", [
        ((1.5,), "free_rank"), ((True,), "free_rank"), ((0, (2.5,)), "invariant_factors"),
        ((0, (2.0,)), "invariant_factors"), ((0, (2, True)), "invariant_factors"),
    ])
    def test_fields_must_be_integers(self, args, field):
        # int() used to truncate: FgAbGroup(0, (2.5,)) equalled FgAbGroup(0, (2,))
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            FgAbGroup(*args)

    def test_rendering(self):
        assert str(FgAbGroup(0)) == "0"
        assert str(FgAbGroup(0, (4,))) == "Z/4"
        assert str(FgAbGroup(2, (2, 4))) == "Z/2 ⊕ Z/4 ⊕ Z^2"
        assert str(FgAbGroup(1)) == "Z"

    def test_order_exponent(self):
        assert FgAbGroup(0, (2, 4)).order() == 8
        assert FgAbGroup(0, (2, 4)).exponent() == 4
        assert FgAbGroup(1).order() is None
        assert FgAbGroup(0).exponent() == 1


class TestLModule:
    def test_normalization(self):
        a = LModule(2, (LSummand(1, 1), LSummand(1, 0, (2,)), LSummand(0, 0)))
        b = LModule(2, (LSummand(1, 1, (2,)),))
        assert a == b
        assert a.summands == (LSummand(1, 1, (2,)),)

    def test_twisted(self):
        a = LModule(3, (LSummand(0, 0, (1,)),))
        assert a.twisted(1) == LModule(3, (LSummand(1, 0, (1,)),))

    def test_render(self):
        assert LModule.free(2, 1, 2).render() == "Z_2(2)"
        assert LModule.free(2, 1, 2).render(rational=True) == "Q_2(2)"
        assert str(LModule(2, (LSummand(1, 0, (2,)),))) == "Z/4(1)"
        assert str(LModule.zero(5)) == "0"
        assert str(LModule.free(3, 2, 0)) == "Z_3^2"

    def test_requires_prime_ell(self):
        with pytest.raises(ValueError):
            LModule(4, ())

    @pytest.mark.parametrize("args, field", [
        ((0.5, 1), "twist"), ((0, 1.5), "free_rank"), ((0, False), "free_rank"),
        ((0, 1, (1.9,)), "torsion_exponents"), ((0, 0, (1, 2.0)), "torsion_exponents"),
        ((0, -1), "free_rank"), ((0, 0, (0,)), "torsion_exponents"),
    ])
    def test_summand_fields_must_be_integers_in_range(self, args, field):
        # LModule(2, (LSummand(0, 1.5, (1.9,)),)) used to render Z_2^1.5 ⊕ Z/2
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            LSummand(*args)
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            LModule(2, (args,))

    def test_without_torsion(self):
        a = LModule(2, (LSummand(1, 2, (1, 3)),))
        assert a.without_torsion() == LModule.free(2, 2, 1)


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 13, 97]
    composites = [-3, 0, 1, 4, 6, 9, 91]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    # strong pseudoprimes to the prime bases up to 7, 23 and 37
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert all(is_prime(n) == all(n % f for f in range(2, n)) for n in range(2, 2000))


def test_is_prime_refuses_beyond_its_bound():
    assert not is_prime(3317044064679887385961981 - 1)
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        is_prime(3317044064679887385961981)

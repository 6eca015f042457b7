"""Fraction-free linear algebra: rank and determinant against an independent oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jpencil.linalg import bareiss_det, bareiss_rank, mat_vec


def test_rank_known():
    assert bareiss_rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert bareiss_rank([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == 2
    assert bareiss_rank([]) == 0
    assert bareiss_rank([[Fraction(0), Fraction(0)]]) == 0


def test_rank_rejects_ragged_rows():
    # the row update zips a row with the pivot row, so a short row would
    # otherwise be cut silently
    for bad in ([[1], [2, 3]], [[1, 2], [3]], [[1, 0, 0], [0, 1]], [[0], [1, 2]]):
        with pytest.raises(ValueError):
            bareiss_rank(bad)


def test_mat_vec_rejects_a_length_mismatch():
    # zip would cut the longer of a row and the vector silently
    assert mat_vec([[1, 2], [3, 4]], [1, -1]) == [-1, -1]
    for rows, vec in (([[1, 2]], [1]), ([[1]], [1, 2]), ([[1, 2], [3]], [1, 1])):
        with pytest.raises(ValueError):
            mat_vec(rows, vec)


def _sympy_rank(rows, n_cols):
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    entries = [[QQ(c.numerator, c.denominator) for c in row] for row in rows]
    return DomainMatrix(entries, (len(rows), n_cols), QQ).rank()


def _rank_deficient(rng, n_rows, n_cols, rank):
    """A product of random n_rows x rank and rank x n_cols rational factors."""
    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    left = [[entry() for _ in range(rank)] for _ in range(n_rows)]
    right = [[entry() for _ in range(n_cols)] for _ in range(rank)]
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0))
             for j in range(n_cols)] for i in range(n_rows)]


def test_rank_matches_sympy_oracle():
    rng = random.Random(3001)
    shapes = [(5, 5), (3, 7), (8, 4), (6, 6)]
    for n_rows, n_cols in shapes:
        for _ in range(6):
            rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(n_cols)]
                    for _ in range(n_rows)]
            assert bareiss_rank(rows) == _sympy_rank(rows, n_cols)
    for n_rows, n_cols, rank in [(6, 6, 3), (4, 9, 2), (9, 4, 3), (7, 7, 1), (5, 5, 0)]:
        rows = _rank_deficient(rng, n_rows, n_cols, rank)
        assert _sympy_rank(rows, n_cols) <= rank
        assert bareiss_rank(rows) == _sympy_rank(rows, n_cols)


def test_det_known():
    m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert bareiss_det(m) == Fraction(-2)
    m3 = [[Fraction(2), Fraction(0), Fraction(0)],
          [Fraction(0), Fraction(3), Fraction(0)],
          [Fraction(0), Fraction(0), Fraction(5)]]
    assert bareiss_det(m3) == Fraction(30)
    # a row swap flips the sign; row scales are divided back out
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[Fraction(1, 2), Fraction(1, 3)], [4, 6]]) == Fraction(5, 3)
    assert bareiss_det([[1, 2], [0, 0]]) == 0
    for bad in ([], [[1, 2]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            bareiss_det(bad)


def _sympy_det(rows):
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    entries = [[QQ(c.numerator, c.denominator) for c in row] for row in rows]
    det = DomainMatrix(entries, (len(rows), len(rows)), QQ).det()
    return Fraction(int(det.numerator), int(det.denominator))


def test_det_matches_sympy_oracle():
    rng = random.Random(3002)
    for n in range(1, 8):
        for density in (1.0, 0.3):
            for _ in range(4):
                rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                         if rng.random() < density else Fraction(0) for _ in range(n)]
                        for _ in range(n)]
                assert bareiss_det(rows) == _sympy_det(rows)
        if n > 1:
            # singular: one row a combination of the others
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)]
                    for _ in range(n - 1)]
            rows.insert(rng.randrange(n), [a - 2 * b for a, b in zip(rows[0], rows[-1])])
            assert bareiss_det(rows) == _sympy_det(rows) == 0


def test_det_multiplicative_random():
    rng = random.Random(3003)

    def rand_matrix():
        return [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]

    def mat_mul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)]

    for _ in range(10):
        A, B = rand_matrix(), rand_matrix()
        assert bareiss_det(mat_mul(A, B)) == bareiss_det(A) * bareiss_det(B)


# Sparse entries, ints and Fractions: zeros give rows that are zero in a
# pivot column, which the elimination leaves stale until a later step uses
# them, and the many ones give unit pivots, for which a stale row already
# equals Bareiss's.
_entries = st.one_of(st.sampled_from((0, 0, 0, 1, 1)), st.integers(-4, 4),
                     st.fractions(-4, 4, max_denominator=5))
# Sparse entries with no unit among them: the pivots are not units, so a
# stale row stamped s differs from Bareiss's by the factor P[k] / P[s], and
# a stamp left behind in a row swap, a wrong divisor or a pivot row that is
# not brought up to date gives a wrong rank or determinant.
_non_unit_entries = st.sampled_from((0, 0, 0, 2, -3, 5))


@st.composite
def _matrices(draw, square, entries=_entries):
    n_rows = draw(st.integers(1, 8))
    n_cols = n_rows if square else draw(st.integers(1, 8))
    flat = draw(st.lists(entries, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    rows = [flat[i * n_cols:(i + 1) * n_cols] for i in range(n_rows)]
    if n_rows > 2 and draw(st.booleans()):
        # one row a combination of two others
        t, i, j = draw(st.permutations(range(n_rows)))[:3]
        k = draw(entries)
        rows[t] = [k * a + b for a, b in zip(rows[i], rows[j])]
    return rows


@given(_matrices(square=False))
def test_rank_law_matches_sympy(rows):
    assert bareiss_rank(rows) == _sympy_rank(rows, len(rows[0]))


@given(_matrices(square=True))
def test_det_law_matches_sympy(rows):
    assert bareiss_det(rows) == _sympy_det(rows)


@given(_matrices(square=False, entries=_non_unit_entries))
def test_rank_law_with_non_unit_pivots(rows):
    assert bareiss_rank(rows) == _sympy_rank(rows, len(rows[0]))


@given(_matrices(square=True, entries=_non_unit_entries))
def test_det_law_with_non_unit_pivots(rows):
    # every cyclic rotation of the rows, each with its own row swaps and
    # stale rows; a rotation by k is k(n - 1) transpositions
    det = _sympy_det(rows)
    n = len(rows)
    for k in range(n):
        assert bareiss_det(rows[k:] + rows[:k]) == (-1) ** (k * (n - 1)) * det

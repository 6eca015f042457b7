"""Exact linear algebra over the rationals.

One elimination path: fraction-free Bareiss elimination over the integers,
for ranks and for determinants of square matrices.
"""

from fractions import Fraction
from math import lcm


def _integer_rows(rows):
    """The nonzero rows, each times the lcm of its denominators, as fresh
    lists of ints, and the product of those lcms; rank is unchanged and a
    determinant is multiplied by it."""
    out = []
    product = 1
    for row in rows:
        if any(row):
            scale = lcm(*[c.denominator for c in row])
            out.append([c.numerator * (scale // c.denominator) for c in row])
            product *= scale
    return out, product


def _bareiss(m):
    """Fraction-free elimination of the integer rows m, which it overwrites,
    rescaling rows lazily.  Returns the rank, the sign of the row swaps and
    the last pivot, which for a square m of full rank is its determinant
    up to that sign.

    P[k] is the divisor of step k: P[0] = 1, P[k + 1] the pivot of step k.
    A row's stamp s, which moves with it, is 1 + the step that last rewrote
    it (0 if none): it holds Bareiss's entries before step s, and before
    step k Bareiss's are those times P[k] / P[s], the telescoping product
    of the rescales that a row with factor 0 skips.  So such a row is not
    touched, one with a nonzero factor becomes (pivot*a - factor*b) // P[s],
    stamped k + 1, and the pivot row is first brought up to date by
    a * P[k] // P[s].  Both are Bareiss's own entries, minors of m, so each
    division is exact."""
    n_rows = len(m)
    n_cols = len(m[0])
    rank = 0
    sign = 1
    P = [1]
    stamp = [0] * n_rows
    for col in range(n_cols):
        pivot_row = None
        for r in range(rank, n_rows):
            if m[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != rank:
            m[rank], m[pivot_row] = m[pivot_row], m[rank]
            stamp[rank], stamp[pivot_row] = stamp[pivot_row], stamp[rank]
            sign = -sign
        top = m[rank][col:]
        if stamp[rank] != rank:
            scale, old = P[rank], P[stamp[rank]]
            top = [a * scale // old for a in top]
        pivot = top[0]
        for r in range(rank + 1, n_rows):
            row = m[r]
            factor = row[col]
            if factor:
                old = P[stamp[r]]
                row[col:] = [(pivot * a - factor * b) // old for a, b in zip(row[col:], top)]
                stamp[r] = rank + 1
        P.append(pivot)
        rank += 1
        if rank == n_rows:
            break
    return rank, sign, P[-1]


def bareiss_rank(rows):
    """Rank of a rational matrix by fraction-free elimination."""
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("rank needs rows of one length")
    m, _ = _integer_rows(rows)
    if not m:
        return 0
    return _bareiss(m)[0]


def bareiss_det(rows):
    """Determinant of a square rational matrix by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    m, scale = _integer_rows(rows)
    if len(m) == n:
        rank, sign, pivot = _bareiss(m)
        if rank == n:
            return Fraction(sign * pivot, scale)
    return Fraction(0)


def mat_vec(rows, vec):
    """The product of a matrix, given by its rows, and a vector."""
    if any(len(row) != len(vec) for row in rows):
        raise ValueError("a matrix row and the vector differ in length")
    return [sum((c * v for c, v in zip(row, vec) if c), 0) for row in rows]

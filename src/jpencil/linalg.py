"""Exact linear algebra over the rationals.

One elimination path: fraction-free Bareiss elimination over the integers,
for ranks.  A small generic determinant (expansion by minors with
memoization) covers matrices whose entries are polynomials.
"""

from fractions import Fraction

from .poly import primitive_scale


def _integer_rows(rows):
    """The nonzero rows, each scaled to coprime integers; rank is unchanged."""
    out = []
    for row in rows:
        if any(row):
            scale = primitive_scale(row, 1)
            out.append([int(c * scale) for c in row])
    return out


def bareiss_rank(rows):
    """Rank by fraction-free elimination; all intermediate entries stay
    integral (they are minors of the input), divisions are exact."""
    m = _integer_rows(rows)
    if not m:
        return 0
    n_rows = len(m)
    n_cols = len(m[0])
    rank = 0
    prev = 1
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
        pivot = m[rank][col]
        for r in range(rank + 1, n_rows):
            factor = m[r][col]
            for c in range(col, n_cols):
                m[r][c] = (pivot * m[r][c] - factor * m[rank][c]) // prev
        prev = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank


def mat_vec(rows, vec):
    return [sum((c * v for c, v in zip(row, vec)), Fraction(0)) for row in rows]


def is_zero_vector(vec):
    return all(not c for c in vec)


def det_cofactor(matrix):
    """Determinant by expansion along rows, memoized on the column subset.

    Entries may be any ring elements supporting + - *; used for Sylvester
    matrices with polynomial entries.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    for row in matrix:
        if len(row) != n:
            raise ValueError("determinant needs a square matrix")
    cache = {}

    def minor(row, cols):
        if row == n:
            return 1
        key = cols
        if key in cache:
            return cache[key]
        acc = None
        for pos, col in enumerate(cols):
            entry = matrix[row][col]
            if not entry:
                continue
            sub = minor(row + 1, cols[:pos] + cols[pos + 1:])
            term = entry * sub
            if pos % 2:
                term = -term
            acc = term if acc is None else acc + term
        if acc is None:
            acc = matrix[row][0] * 0
        cache[key] = acc
        return acc

    return minor(0, tuple(range(n)))

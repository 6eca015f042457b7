"""Finite-field certification of the orbit-closure set geometry.

Zero loci of coefficient ideals in P^n(F_p) are compared against exact
images of stratum parametrizations.  Everything here is set-level over a
handful of good primes: no multiplicity structure, no extension fields.
Every stratum is the image of products of binary-form families (L^3 M
for TBAR, g^2 for NBAR, t0^m L^(4-m) for the chart strata; the table is
STRATUM_FAMILIES), except the chords of SECANT.  Conjugate-pair chords,
joining points of the quartic curve defined over F_{p^2}, are reached
through monic irreducible quadratics over F_p instead of building the
extension field.

Quartic coordinates are the divided ones used by the rest of the
package: the point (a0 : ... : a4) is the form
sum_i binom(4,i) a_i t0^(4-i) t1^i.  The hyperplane chart strata (P1P,
X2, X3) live in the chart (a0 : a1 : a2 : a3) of the hyperplane a4 = 0,
the forms divisible by t0; the flag point is [1:0].
"""

import itertools
from collections import namedtuple

# callers also import BadPrimeError and is_prime from this module
from .poly import BadPrimeError, check_prime, is_prime

# |P^4(F_31)| is about 954k and is the intended ceiling
POINT_CAP = 1000000

# Each stratum is the union of the images of products of binary-form
# families: ("L", k) runs over the k-th powers of the lines, ("g", k) over
# those of the plane quadratics, and ("t0", k) is t0^k alone.  SECANT adds
# its chords to the tangent lines L^3 M.
STRATUM_FAMILIES = {
    "X4": [[("L", 4)]],
    "TBAR": [[("L", 3), ("L", 1)]],
    "NBAR": [[("g", 2)]],
    "X2": [[("t0", 2), ("L", 2)]],
    "X3": [[("t0", 1), ("L", 3)]],
    "P1P": [[("t0", 3), ("L", 1)]],
    "SECANT": [[("L", 3), ("L", 1)]],
    "DISCRIMINANT": [[("g", 2)], [("L", 2), ("g", 1)]],
}

STRATA = tuple(STRATUM_FAMILIES)

# ambient projective dimension of each stratum
STRATUM_DIM = {
    "X4": 4, "TBAR": 4, "NBAR": 4, "SECANT": 4, "DISCRIMINANT": 4,
    "P1P": 3, "X2": 3, "X3": 3,
}


def normalize_point(pt, p):
    """Scale so the first nonzero coordinate is 1."""
    check_prime(p)
    vec = [x % p for x in pt]
    for x in vec:
        if x:
            inv = pow(x, -1, p)
            return tuple(v * inv % p for v in vec)
    raise ValueError("zero vector does not define a projective point")


class PointSet:
    """Set of normalized points of P^n(F_p).

    Points are coordinate tuples with first nonzero entry 1, so set
    operations are plain tuple-set operations.  Iteration is sorted,
    which keeps every report deterministic.
    """

    __slots__ = ("p", "dim", "points")

    def __init__(self, p, dim, points=()):
        check_prime(p)
        clean = set()
        for pt in points:
            if len(pt) != dim + 1:
                raise ValueError("point %r does not live in P^%d" % (pt, dim))
            clean.add(normalize_point(pt, p))
        self.p = p
        self.dim = dim
        self.points = frozenset(clean)

    def _check_match(self, other):
        if self.p != other.p or self.dim != other.dim:
            raise ValueError("mismatched ambient: P^%d(F_%d) vs P^%d(F_%d)"
                             % (self.dim, self.p, other.dim, other.p))

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(sorted(self.points))

    def __contains__(self, pt):
        return normalize_point(pt, self.p) in self.points

    def __eq__(self, other):
        if not isinstance(other, PointSet):
            return NotImplemented
        return (self.p == other.p and self.dim == other.dim
                and self.points == other.points)

    def __hash__(self):
        return hash((self.p, self.dim, self.points))

    def __repr__(self):
        return "PointSet(p=%d, dim=%d, %d points)" % (self.p, self.dim, len(self.points))

    def union(self, other):
        self._check_match(other)
        return PointSet(self.p, self.dim, self.points | other.points)

    def intersection(self, other):
        self._check_match(other)
        return PointSet(self.p, self.dim, self.points & other.points)

    def difference(self, other):
        self._check_match(other)
        return PointSet(self.p, self.dim, self.points - other.points)


def _reduce_poly(poly, p):
    """Terms of poly mod p as (int, ((variable, exponent), ...)) pairs.

    Zero coefficients and zero exponents are dropped, so a polynomial
    that vanishes mod p has no terms and a constant has no pairs.
    """
    try:
        reduced = poly.reduce_mod(p)
    except ValueError as exc:
        raise BadPrimeError(str(exc)) from None
    return [(c, tuple((i, e) for i, e in enumerate(exps) if e))
            for exps, c in sorted(reduced.terms.items())]


def _projective_points(n, p):
    """The points of P^n(F_p), each with first nonzero coordinate 1, one
    slice per leading coordinate."""
    for lead in range(n + 1):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(p), repeat=n - lead):
            yield prefix + tail


def zero_locus(polys, n, p):
    """Common zeros of the polynomials in P^n(F_p).

    Polynomials must have arity n+1; rational coefficients are reduced
    mod p (a denominator divisible by p is a BadPrimeError).  A
    polynomial that vanishes identically mod p imposes no condition and
    is dropped.  The points are walked in one process, with every
    product of a coefficient and table powers reduced mod p; a point is
    dropped at the first polynomial that does not vanish there.
    """
    polys = list(polys)
    for P in polys:
        if P.arity != n + 1:
            raise ValueError("arity %d polynomial in P^%d" % (P.arity, n))
    check_prime(p)
    count = (p ** (n + 1) - 1) // (p - 1)
    if count > POINT_CAP:
        raise ValueError("P^%d(F_%d) has %d points, over the %d cap"
                         % (n, p, count, POINT_CAP))
    reduced = [r for r in (_reduce_poly(P, p) for P in polys) if r]
    maxdeg = max((e for terms in reduced for _, pairs in terms for _, e in pairs),
                 default=0)
    powtab = [[pow(x, e, p) for e in range(maxdeg + 1)] for x in range(p)]

    hits = []
    for pt in _projective_points(n, p):
        for terms in reduced:
            tot = 0
            for c, pairs in terms:
                v = c
                for i, e in pairs:
                    v = v * powtab[pt[i]][e] % p
                tot += v
            if tot % p:
                break
        else:
            hits.append(pt)
    return PointSet(p, n, hits)


# parametrization plumbing: a binary form is its plain coefficient vector,
# t0 first

def _convolve(u, v, p):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] = (out[i + j] + a * b) % p
    return out


def _family(p, base, k):
    """The k-th powers of the lines ("L"), of the plane quadratics ("g"),
    or of t0 alone ("t0")."""
    forms = [(1, 0)] if base == "t0" else _projective_points(1 if base == "L" else 2, p)
    powers = []
    for f in forms:
        power = [1]
        for _ in range(k):
            power = _convolve(power, f, p)
        powers.append(power)
    return powers


def _products(p, *families):
    """Divided coordinates of every product of quartic degree that takes
    one form from each family."""
    products = [[1]]
    for family in families:
        products = [_convolve(u, f, p) for u in products for f in family]
    inv = [pow(b, -1, p) for b in (1, 4, 6, 4, 1)]
    return [tuple(c * i % p for c, i in zip(u, inv)) for u in products]


def _chords(p):
    """Chords of the quartic curve through two distinct points: rational
    pairs of X4, and the conjugate roots of an irreducible t^2 + bt + c.

    The chord through the conjugate roots is the line of sequences with
    a_(k+2) = -b a_(k+1) - c a_k, one for each seed (a0 : a1).
    """
    lines = list(_projective_points(1, p))
    x4 = _products(p, _family(p, "L", 4))
    pts = [tuple((u * a + v * b) % p for a, b in zip(A, B))
           for A, B in itertools.combinations(x4, 2) for u, v in lines]
    squares = {x * x % p for x in range(p)}
    for b in range(p):
        for c in range(1, p):
            if (b * b - 4 * c) % p not in squares:
                for seq in lines:
                    seq = list(seq)
                    while len(seq) < 5:
                        seq.append((-b * seq[-1] - c * seq[-2]) % p)
                    pts.append(seq)
    return pts


def stratum_points(stratum, p):
    """Exact image of the stratum's parametrization over F_p.

    Degenerate parameter values are kept, so TBAR and NBAR both contain
    X4, and each chart stratum contains the flag point (1:0:0:0).
    """
    check_prime(p)
    if stratum not in STRATUM_FAMILIES:
        raise ValueError("unknown stratum %r (one of %s)" % (stratum, ", ".join(STRATA)))
    pts = _chords(p) if stratum == "SECANT" else []
    for product in STRATUM_FAMILIES[stratum]:
        pts += _products(p, *(_family(p, base, k) for base, k in product))
    # a chart stratum is divisible by t0, so its a4 vanishes and its chart
    # coordinates are (a0 : a1 : a2 : a3)
    dim = STRATUM_DIM[stratum]
    return PointSet(p, dim, [pt[:dim + 1] for pt in pts])


ComparisonReport = namedtuple("ComparisonReport", ["equal", "only_a", "only_b"])


def compare_sets(A, B):
    """Exact set comparison with difference witnesses."""
    A._check_match(B)
    only_a = A.difference(B)
    only_b = B.difference(A)
    return ComparisonReport(len(only_a) == 0 and len(only_b) == 0, only_a, only_b)

"""Finite-field certification of the orbit-closure set geometry.

Zero loci of coefficient ideals in P^n(F_p) are compared against exact
images of stratum parametrizations.  Everything here is set-level over a
handful of good primes: no multiplicity structure, no extension fields.
Conjugate-pair phenomena (chords of the quartic curve joining points
defined over F_{p^2}) are reached by enumerating monic irreducible
quadratics over F_p instead of building the extension field.

Quartic coordinates are the divided ones used by the rest of the
package: the point (a0 : ... : a4) is the form
sum_i binom(4,i) a_i t0^(4-i) t1^i.  The hyperplane chart strata (P1P,
X2, X3) live in the chart (a0 : a1 : a2 : a3) of the hyperplane a4 = 0,
the forms divisible by t0; the flag point is [1:0].
"""

import itertools
from collections import namedtuple

# |P^4(F_31)| is about 954k and is the intended ceiling
POINT_CAP = 1000000

STRATA = ("X4", "TBAR", "NBAR", "X2", "X3", "P1P", "SECANT", "DISCRIMINANT")

# ambient projective dimension of each stratum
STRATUM_DIM = {
    "X4": 4, "TBAR": 4, "NBAR": 4, "SECANT": 4, "DISCRIMINANT": 4,
    "P1P": 3, "X2": 3, "X3": 3,
}


class BadPrimeError(ValueError):
    """The prime is unusable: composite, too small, or divides a denominator."""


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _check_prime(p):
    if not is_prime(p) or p < 5:
        raise BadPrimeError("need a prime p >= 5, got %r" % (p,))


def normalize_point(pt, p):
    """Scale so the first nonzero coordinate is 1."""
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
        _check_prime(p)
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


def zero_locus(polys, n, p):
    """Common zeros of the polynomials in P^n(F_p).

    Polynomials must have arity n+1; rational coefficients are reduced
    mod p (a denominator divisible by p is a BadPrimeError).  A
    polynomial that vanishes identically mod p imposes no condition and
    is dropped.  The points are walked in one process, one slice per
    leading coordinate, with every product of a coefficient and table
    powers reduced mod p; a point is dropped at the first polynomial
    that does not vanish there.
    """
    _check_prime(p)
    polys = list(polys)
    for P in polys:
        if P.arity != n + 1:
            raise ValueError("arity %d polynomial in P^%d" % (P.arity, n))
    count = (p ** (n + 1) - 1) // (p - 1)
    if count > POINT_CAP:
        raise ValueError("P^%d(F_%d) has %d points, over the %d cap"
                         % (n, p, count, POINT_CAP))
    reduced = [r for r in (_reduce_poly(P, p) for P in polys) if r]
    maxdeg = max((e for terms in reduced for _, pairs in terms for _, e in pairs),
                 default=0)
    powtab = [[pow(x, e, p) for e in range(maxdeg + 1)] for x in range(p)]

    hits = []
    for lead in range(n + 1):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(p), repeat=n - lead):
            pt = prefix + tail
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


# parametrization plumbing: plain coefficient vectors of products of
# linear forms, then division by the binomials to land in divided
# coordinates

def _convolve(u, v, p):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] = (out[i + j] + a * b) % p
    return out


def _divided_quartic(plain, p):
    inv = (1, pow(4, -1, p), pow(6, -1, p), pow(4, -1, p), 1)
    return tuple(c * i % p for c, i in zip(plain, inv))


def _p1_parameters(p):
    return [(1, b) for b in range(p)] + [(0, 1)]


def _combine(u, v, A, B, p):
    return tuple((u * a + v * b) % p for a, b in zip(A, B))


def _stratum_x4(p):
    pts = []
    for c, d in _p1_parameters(p):
        pts.append((c ** 4 % p, c ** 3 * d % p, c * c * d * d % p,
                    c * d ** 3 % p, d ** 4 % p))
    return pts


def _stratum_tbar(p):
    pars = _p1_parameters(p)
    pts = []
    for P in pars:
        cube = _convolve(_convolve(P, P, p), P, p)
        for Q in pars:
            pts.append(_divided_quartic(_convolve(cube, Q, p), p))
    return pts


def _stratum_nbar(p):
    pts = []
    # the plain coefficient vectors (g0, g1, g2) are the points of P^2(F_p)
    for g in zero_locus([], 2, p):
        pts.append(_divided_quartic(_convolve(g, g, p), p))
    return pts


def _irreducible_quadratics(p):
    """Monic t^2 + b t + c without roots in F_p, as (b, c) pairs."""
    squares = {x * x % p for x in range(p)}
    out = []
    for b in range(p):
        for c in range(1, p):
            if (b * b - 4 * c) % p not in squares:
                out.append((b, c))
    return out


def _stratum_secant(p):
    """Chords of the quartic curve: rational, tangent, and conjugate-pair."""
    pts = set(_stratum_tbar(p))
    combos = _p1_parameters(p)

    ver = _stratum_x4(p)
    for i in range(len(ver)):
        for j in range(i + 1, len(ver)):
            for u, v in combos:
                pts.add(normalize_point(_combine(u, v, ver[i], ver[j], p), p))

    # chord through the conjugate root pair of t^2 + bt + c, spanned
    # rationally by the two power-sum vectors
    for b, c in _irreducible_quadratics(p):
        s = [2, -b % p]
        while len(s) < 6:
            s.append((-b * s[-1] - c * s[-2]) % p)
        t1 = tuple(s[0:5])
        t2 = tuple(s[1:6])
        for u, v in combos:
            pts.add(normalize_point(_combine(u, v, t1, t2, p), p))
    return pts


def _stratum_discriminant(p):
    """Quartics with a repeated root: L^2 G, plus squared irreducibles."""
    pts = set(_stratum_nbar(p))
    plane = list(zero_locus([], 2, p))
    for L in _p1_parameters(p):
        sq = _convolve(L, L, p)
        for g in plane:
            pts.add(normalize_point(_divided_quartic(_convolve(sq, g, p), p), p))
    return pts


def _chart_points(p, t0_mult):
    """Divided chart coordinates of t0^t0_mult * L^(4 - t0_mult).

    t0_mult = 3 gives P1P, 2 gives X2, 1 gives X3.  Every form here is
    divisible by t0, so the last divided coordinate vanishes and the
    chart tuple is the first four.
    """
    t0 = (1, 0)
    pts = []
    for L in _p1_parameters(p):
        plain = [1]
        for _ in range(t0_mult):
            plain = _convolve(plain, t0, p)
        for _ in range(4 - t0_mult):
            plain = _convolve(plain, L, p)
        pts.append(_divided_quartic(plain, p)[:4])
    return pts


def stratum_points(stratum, p):
    """Exact image of the stratum's parametrization over F_p.

    Degenerate parameter values are kept, so TBAR and NBAR both contain
    X4, and each chart stratum contains the flag point (1:0:0:0).
    """
    _check_prime(p)
    if stratum == "X4":
        pts = _stratum_x4(p)
    elif stratum == "TBAR":
        pts = _stratum_tbar(p)
    elif stratum == "NBAR":
        pts = _stratum_nbar(p)
    elif stratum == "SECANT":
        pts = _stratum_secant(p)
    elif stratum == "DISCRIMINANT":
        pts = _stratum_discriminant(p)
    elif stratum == "P1P":
        pts = _chart_points(p, 3)
    elif stratum == "X2":
        pts = _chart_points(p, 2)
    elif stratum == "X3":
        pts = _chart_points(p, 1)
    else:
        raise ValueError("unknown stratum %r (one of %s)" % (stratum, ", ".join(STRATA)))
    return PointSet(p, STRATUM_DIM[stratum], pts)


ComparisonReport = namedtuple("ComparisonReport", ["equal", "only_a", "only_b"])


def compare_sets(A, B):
    """Exact set comparison with difference witnesses."""
    A._check_match(B)
    only_a = A.difference(B)
    only_b = B.difference(A)
    return ComparisonReport(len(only_a) == 0 and len(only_b) == 0, only_a, only_b)

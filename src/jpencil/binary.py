"""Binary forms of degree r over Q and the invariant theory of the quartic.

Coordinates are divided: a form is stored by the coefficients a_0..a_r in
the basis binom(r,i) t0^(r-i) t1^i, so (c t0 + d t1)^r has coordinates
c^(r-i) d^i and the classical quartic invariants

    Q = a0 a4 - 4 a1 a3 + 3 a2^2
    C = a0 a2 a4 - a0 a3^2 + 2 a1 a2 a3 - a1^2 a4 - a2^3

are genuinely invariant under unimodular substitutions (and scale by a
determinant power in general, which cancels in j = Q^3 / D).  Plain
coefficient vectors convert via from_plain / plain_coefficients.

Points of the projective line are identified with linear forms by
[c:d] <-> c t0 + d t1; effective divisors are products of such forms, and
the osculating flag at a point consists of the divisors containing it with
prescribed multiplicity.
"""

from collections import namedtuple
from fractions import Fraction
from math import comb

from .poly import MultiPoly, coefficient_gcd, primitive_scale
from .linalg import bareiss_det


class BinaryForm:
    """A nonzero binary form of degree r over Q in divided coordinates."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) < 2:
            raise ValueError("a binary form needs degree >= 1")
        if not any(coeffs):
            raise ValueError("the zero form is not a projective representative")
        self.degree = len(coeffs) - 1
        self.coeffs = coeffs

    @classmethod
    def from_plain(cls, plain):
        """From coefficients in the plain monomial basis t0^(r-i) t1^i."""
        r = len(plain) - 1
        return cls(tuple(Fraction(c) / comb(r, i) for i, c in enumerate(plain)))

    @classmethod
    def from_poly(cls, P):
        """From a homogeneous arity-2 polynomial."""
        if P.arity != 2:
            raise ValueError("binary forms live in two variables")
        r = P.homogeneous_degree()
        plain = [P.terms.get((r - i, i), 0) for i in range(r + 1)]
        return cls.from_plain(plain)

    def plain_coefficients(self):
        r = self.degree
        return tuple(comb(r, i) * c for i, c in enumerate(self.coeffs))

    def normalized(self):
        """Canonical projective representative: primitive integer vector,
        first nonzero entry positive."""
        first = next(c for c in self.coeffs if c)
        scale = primitive_scale(self.coeffs, first)
        return BinaryForm(tuple(c * scale for c in self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "BinaryForm(%s)" % (self.coeffs,)


def linear_form_of_point(point):
    """The linear form c*t0 + d*t1 attached to the point [c:d]."""
    c, d = (Fraction(x) for x in point)
    if not c and not d:
        raise ValueError("zero point has no linear form")
    return MultiPoly(2, {(1, 0): c, (0, 1): d})


def veronese(r, point):
    """r-th power of the linear form of a point: coordinates c^(r-i) d^i."""
    c, d = (Fraction(x) for x in point)
    if not c and not d:
        raise ValueError("zero point")
    return BinaryForm(tuple(c ** (r - i) * d ** i for i in range(r + 1)))


def form_from_divisor(pairs):
    """Product of linear forms: pairs of (point, multiplicity)."""
    if any(m <= 0 for _, m in pairs):
        raise ValueError("multiplicities must be positive")
    product = None
    for point, m in pairs:
        factor = linear_form_of_point(point) ** m
        product = factor if product is None else product * factor
    if product is None:
        raise ValueError("empty divisor")
    return BinaryForm.from_poly(product).normalized()


RootPattern = namedtuple("RootPattern", ["multiplicities", "orbit_class"])

ORBIT_CLASSES = {
    (4,): "VERONESE",
    (3, 1): "TANGENT",
    (2, 2): "BITANGENT-NODE",
    (2, 1, 1): "ONE-DOUBLE",
    (1, 1, 1, 1): "SIMPLE",
}


def root_pattern(F):
    """Root multiplicities over the algebraic closure, without factoring.

    Dehomogenize with respect to t1; the lost root at [1:0] contributes the
    number of leading zero coefficients.  The finite multiplicities come from
    the chain g_(k+1) = gcd(g_k, g_k'), whose degree drops record how many
    roots survive each differentiation, which holds in characteristic 0.
    Each step must lower the degree, so the chain takes at most r steps; a
    gcd that does not is an ArithmeticError, a fault and not bad input.
    """
    r = F.degree
    plain = F.plain_coefficients()
    m_inf = 0
    while not plain[m_inf]:
        m_inf += 1
    f = MultiPoly(1, {(r - i,): plain[i] for i in range(m_inf, r + 1)})
    mults = []
    if f.total_degree() > 0:
        survivors = [f.total_degree()]  # survivors[k] = number of roots of multiplicity > k
        g = f
        while survivors[-1] > 0:
            g = coefficient_gcd([g, g.partial_derivative(0)])
            d = g.total_degree()
            if not 0 <= d < survivors[-1]:
                raise ArithmeticError("square-free chain: a gcd of degree %d after degree %d"
                                      % (d, survivors[-1]))
            survivors.append(d)
        drops = [a - b for a, b in zip(survivors, survivors[1:])]
        for k, (hi, lo) in enumerate(zip(drops, drops[1:] + [0]), start=1):
            mults.extend([k] * (hi - lo))
    if m_inf:
        mults.append(m_inf)
    mults = tuple(sorted(mults, reverse=True))
    return RootPattern(mults, ORBIT_CLASSES.get(mults) if r == 4 else None)


InvariantTriple = namedtuple("InvariantTriple", ["Q", "C", "D"])


def _invariants_from(a):
    """Q, C, D from five ring elements (scalars or polynomials)."""
    q = a[0] * a[4] - 4 * a[1] * a[3] + 3 * a[2] * a[2]
    c = (a[0] * a[2] * a[4] - a[0] * a[3] * a[3] + 2 * a[1] * a[2] * a[3]
         - a[1] * a[1] * a[4] - a[2] * a[2] * a[2])
    d = q * q * q - 27 * c * c
    return InvariantTriple(q, c, d)


def require_quartic(degree):
    """Refuse any degree but 4, as invariants_qcd does, before any work."""
    if degree != 4:
        raise ValueError("invariants are defined for quartics, got degree %d" % degree)


def invariants_qcd(F):
    require_quartic(F.degree)
    return _invariants_from(F.coeffs)


def invariant_polys():
    """Q, C, D as polynomials in the five divided coordinates."""
    return _invariants_from([MultiPoly.variable(5, i) for i in range(5)])


def j_invariant(F, normalization="RAW"):
    """The value of the j-map at a quartic: a Fraction, or "INFINITY"
    (D = 0), or "INDETERMINATE" (Q = C = 0, the base locus).  RAW is
    Q^3/D; CLASSICAL is 1728 Q^3/D, which puts the vanishing of C on the
    fiber 1728."""
    if normalization not in ("RAW", "CLASSICAL"):
        raise ValueError("normalization must be RAW or CLASSICAL")
    inv = invariants_qcd(F)
    if not inv.Q and not inv.C:
        return "INDETERMINATE"
    if not inv.D:
        return "INFINITY"
    value = inv.Q ** 3 / inv.D
    return 1728 * value if normalization == "CLASSICAL" else value


# -- discriminant oracle ----------------------------------------------------

def _sylvester_resultant(u, v):
    """Resultant of two binary forms given by plain coefficient lists."""
    m = len(u) - 1
    n = len(v) - 1
    rows = []
    for k in range(n):
        rows.append([0] * k + list(u) + [0] * (n - 1 - k))
    for k in range(m):
        rows.append([0] * k + list(v) + [0] * (m - 1 - k))
    return bareiss_det(rows)


def discriminant_oracle(F):
    """Resultant of the two partial derivatives of F, a form over Q.

    Proportional to the discriminant; for quartics this equals a fixed
    rational multiple of D = Q^3 - 27 C^2.  The multiple is pinned by
    discriminant_scale; the test suite checks the identity symbolically
    against sympy's resultant of the generic quartic's partials, and this
    function against D on random samples.
    """
    r = F.degree
    if r < 2:
        raise ValueError("discriminant oracle needs degree >= 2")
    a = F.coeffs
    # plain coefficients of dF/dt0 and dF/dt1
    u = [(r - i) * comb(r, i) * a[i] for i in range(r)]
    v = [(i + 1) * comb(r, i + 1) * a[i + 1] for i in range(r)]
    return _sylvester_resultant(u, v)


def discriminant_scale():
    """The constant c with oracle = c * D, fixed by one evaluation."""
    ref = BinaryForm((0, 1, 0, -1, 0))
    return discriminant_oracle(ref) / invariants_qcd(ref).D


def cubic_discriminant_plain(a, b, c, d):
    """Discriminant of a t^3 + b t^2 u + c t u^2 + d u^3 (plain basis)."""
    return (18 * a * b * c * d - 4 * b ** 3 * d + b ** 2 * c ** 2
            - 4 * a * c ** 3 - 27 * a ** 2 * d ** 2)


# -- osculating flag --------------------------------------------------------

OsculatingFlag = namedtuple("OsculatingFlag", ["point", "hyperplane", "plane", "line"])


def osculating_flag(point):
    """Flag of osculating subspaces to the degree-4 Veronese curve at 4p.

    hyperplane / plane / line are lists of 1, 2, 3 linear functionals in the
    divided coordinates a_0..a_4 cutting out the divisors with multiplicity
    >= 1, 2, 3 at p.  F has multiplicity >= k at p iff its k polars of order
    k-1 vanish at the root r = (d, -c) of L_p = c t0 + d t1; the j-th of
    them pairs (a_j, ..., a_(j+5-k)) with the plain coefficients of the
    Veronese form r^(5-k).  Each list runs over j descending.
    """
    c, d = (Fraction(x) for x in point)
    if not c and not d:
        raise ValueError("zero point")
    a = [MultiPoly.variable(5, i) for i in range(5)]

    def polars(k):
        plain = veronese(5 - k, (d, -c)).plain_coefficients()
        return [sum((v * a[j + i] for i, v in enumerate(plain)), MultiPoly.zero(5)).normalized()
                for j in reversed(range(k))]

    return OsculatingFlag((c, d), polars(1), polars(2), polars(3))

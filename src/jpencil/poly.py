"""Exact scalars and sparse multivariate polynomials.

Two scalar domains, both exact: arbitrary-precision rationals
(fractions.Fraction) and prime fields F_p for a runtime prime p >= 5.
There is no floating point anywhere in this package.

Polynomials are sparse maps from exponent tuples to nonzero scalars, with a
single global monomial order: graded lexicographic, total degree first, ties
broken lexicographically with the variable of index 0 largest.  All printing,
normalization and division routines use this one order.
"""

from fractions import Fraction
from math import gcd as _int_gcd


class FpElement:
    """An element of F_p.  Mixing moduli is a hard error, never a coercion."""

    __slots__ = ("p", "v")

    def __init__(self, v, p):
        if p < 5:
            raise ValueError("prime fields are supported for p >= 5 only, got p=%d" % p)
        self.p = p
        self.v = v % p

    @classmethod
    def from_rational(cls, c, p):
        """The image in F_p of an int, a Fraction or an element of F_p itself.

        A denominator divisible by p and an element of another prime field
        are both ValueErrors.
        """
        if isinstance(c, FpElement):
            if c.p != p:
                raise ValueError("modulus mismatch: %d vs %d" % (p, c.p))
            return c
        if isinstance(c, int):
            return cls(c, p)
        if isinstance(c, Fraction):
            if c.denominator % p == 0:
                raise ValueError("denominator %d divisible by p=%d" % (c.denominator, p))
            return cls(c.numerator * pow(c.denominator, -1, p), p)
        raise TypeError("cannot reduce %r mod %d" % (c, p))

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("modulus mismatch: %d vs %d" % (self.p, other.p))
            return other
        if isinstance(other, (int, Fraction)):
            return FpElement.from_rational(other, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.v * pow(o.v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(o.v * pow(self.v, -1, self.p), self.p)

    def __pow__(self, e):
        return FpElement(pow(self.v, e, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.v, self.p)

    def __eq__(self, other):
        # an int or a Fraction is never equal to an element of F_p, so
        # that equal values always hash equal
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return str(self.v)


def scalar_one_like(c):
    """Multiplicative unit of the domain the scalar c lives in."""
    if isinstance(c, FpElement):
        return FpElement(1, c.p)
    return Fraction(1)


def primitive_scale(coeffs, pivot):
    """The scalar s that puts coeffs * s in canonical form up to a scalar.

    F_p (pivot an FpElement): 1/pivot, which makes the pivot 1.  Q: the lcm
    of the denominators over the gcd of the numerators, which makes the
    scaled coefficients coprime integers, negated when pivot < 0 so that
    the pivot comes out positive.  coeffs must hold a nonzero entry; the
    pivot is the entry to make 1 (F_p), and over Q only its sign is read.
    """
    if isinstance(pivot, FpElement):
        return 1 / pivot
    # For fractions in lowest terms the content is gcd(numerators) over
    # lcm(denominators).
    den_lcm, num_gcd = 1, 0
    for c in coeffs:
        den_lcm = den_lcm * c.denominator // _int_gcd(den_lcm, c.denominator)
        num_gcd = _int_gcd(num_gcd, c.numerator)
    scale = Fraction(den_lcm, num_gcd)
    return -scale if pivot < 0 else scale


def grlex_key(exps):
    # Graded lex: compare by total degree, then plain tuple order, under which
    # a larger exponent of an earlier variable wins.  max() over keys gives the
    # leading monomial.
    return (sum(exps), exps)


class MultiPoly:
    """Sparse multivariate polynomial: arity plus {exponent tuple: scalar}.

    Values are immutable by convention; every operation returns a fresh
    polynomial and never mutates its arguments, so instances can be shared
    freely.  Zero coefficients are never stored; the zero polynomial has an
    empty term map.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        self.arity = arity
        clean = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != arity:
                    raise ValueError("exponent tuple %r does not match arity %d" % (exps, arity))
                if c:
                    clean[exps] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity):
        return cls(arity, {})

    @classmethod
    def constant(cls, arity, c):
        return cls(arity, {(0,) * arity: c})

    @classmethod
    def variable(cls, arity, i):
        if not 0 <= i < arity:
            raise IndexError("variable index %d out of range for arity %d" % (i, arity))
        exps = tuple(1 if j == i else 0 for j in range(arity))
        return cls(arity, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, arity, exps, c):
        return cls(arity, {tuple(exps): c})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def total_degree(self):
        """Max total degree, -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def homogeneous_degree(self):
        degrees = {sum(e) for e in self.terms}
        if len(degrees) != 1:
            raise ValueError("polynomial is not homogeneous" if degrees else "zero polynomial has no degree")
        return degrees.pop()

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(%d, 0)" % self.arity
        parts = ["%r:%r" % (e, c) for e, c in sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)]
        return "MultiPoly(%d, {%s})" % (self.arity, ", ".join(parts))

    # -- ring operations ---------------------------------------------------

    def _check_arity(self, other):
        if self.arity != other.arity:
            raise ValueError("arity mismatch: %d vs %d" % (self.arity, other.arity))

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_arity(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            cur = out.get(exps)
            s = c if cur is None else cur + c
            if s:
                out[exps] = s
            elif cur is not None:
                del out[exps]
        return MultiPoly(self.arity, out)

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return MultiPoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check_arity(other)
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    exps = tuple(a + b for a, b in zip(e1, e2))
                    prod = c1 * c2
                    cur = out.get(exps)
                    s = prod if cur is None else cur + prod
                    if s:
                        out[exps] = s
                    elif cur is not None:
                        del out[exps]
            return MultiPoly(self.arity, out)
        if isinstance(other, (int, Fraction, FpElement)):
            if not other:
                return MultiPoly.zero(self.arity)
            return MultiPoly(self.arity, {e: c * other for e, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take non-negative integer exponents")
        one = scalar_one_like(next(iter(self.terms.values()))) if self.terms else Fraction(1)
        result = MultiPoly.constant(self.arity, one)
        base = self
        e = n
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- calculus and substitution ----------------------------------------

    def partial_derivative(self, i):
        if not 0 <= i < self.arity:
            raise IndexError("variable index %d out of range for arity %d" % (i, self.arity))
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            nexps = exps[:i] + (e - 1,) + exps[i + 1:]
            nc = c * e
            cur = out.get(nexps)
            s = nc if cur is None else cur + nc
            if s:
                out[nexps] = s
            elif cur is not None:
                del out[nexps]
        return MultiPoly(self.arity, out)

    def evaluate(self, point):
        if len(point) != self.arity:
            raise ValueError("point length %d does not match arity %d" % (len(point), self.arity))
        acc = None
        for exps, c in self.terms.items():
            term = c
            for x, e in zip(point, exps):
                if e:
                    term = term * x ** e
            acc = term if acc is None else acc + term
        if acc is None:
            return Fraction(0) if not point or not isinstance(point[0], FpElement) else FpElement(0, point[0].p)
        return acc

    def linear_substitute(self, matrix, new_arity=None):
        """Compose with a linear map: one matrix row per old variable, one
        column per new variable; old_i maps to sum_j matrix[i][j] * new_j."""
        if len(matrix) != self.arity:
            raise ValueError("matrix has %d rows, arity is %d" % (len(matrix), self.arity))
        if new_arity is None:
            new_arity = len(matrix[0]) if matrix else 0
        for row in matrix:
            if len(row) != new_arity:
                raise ValueError("ragged substitution matrix")
        images = [
            MultiPoly(new_arity, {tuple(1 if j == k else 0 for j in range(new_arity)): row[k]
                                  for k in range(new_arity) if row[k]})
            for row in matrix
        ]
        result = MultiPoly.zero(new_arity)
        power_cache = [{} for _ in range(self.arity)]
        for exps, c in self.terms.items():
            term = MultiPoly.constant(new_arity, c)
            for i, e in enumerate(exps):
                if not e:
                    continue
                if e not in power_cache[i]:
                    power_cache[i][e] = images[i] ** e
                term = term * power_cache[i][e]
            result = result + term
        return result

    # -- normal forms ------------------------------------------------------

    def normalization_scale(self):
        """The scalar s with self * s == self.normalized(): the primitive
        scale of the coefficients, with the leading coefficient as pivot."""
        if not self.terms:
            return Fraction(1)
        return primitive_scale(self.terms.values(), self.leading_coefficient())

    def normalized(self):
        """Canonical representative up to a nonzero scalar.

        Rational coefficients: primitive over the integers with positive
        leading coefficient.  F_p coefficients: monic leading coefficient.
        """
        return self * self.normalization_scale()

    def reduce_mod(self, p):
        """The image in F_p[x], coefficients as FpElement; terms that vanish
        mod p are dropped.  ValueError as in FpElement.from_rational."""
        return MultiPoly(self.arity, {e: FpElement.from_rational(c, p) for e, c in self.terms.items()})


# -- division and gcd ------------------------------------------------------

def exact_divide(P, F):
    """Return G with P = F * G, or None when F does not divide P.

    Leading-term peeling in the global order; correct because the leading
    monomial of any multiple of F is divisible by the leading monomial of F.
    """
    if F.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if P.is_zero:
        return MultiPoly.zero(P.arity)
    P._check_arity(F)
    f_lead = max(F.terms, key=grlex_key)
    f_lc = F.terms[f_lead]
    quotient = {}
    rem = dict(P.terms)
    while rem:
        r_lead = max(rem, key=grlex_key)
        diff = tuple(a - b for a, b in zip(r_lead, f_lead))
        if any(d < 0 for d in diff):
            return None
        q_c = rem[r_lead] / f_lc
        quotient[diff] = q_c
        for exps, c in F.terms.items():
            tgt = tuple(d + e for d, e in zip(diff, exps))
            cur = rem.get(tgt)
            delta = q_c * c
            s = -delta if cur is None else cur - delta
            if s:
                rem[tgt] = s
            elif cur is not None:
                del rem[tgt]
    return MultiPoly(P.arity, quotient)


def _degree_in(P, v):
    if not P.terms:
        return -1
    return max(e[v] for e in P.terms)


def _coeff_in(P, v, k):
    """Coefficient of main_variable^k, as a polynomial with exponent 0 at v."""
    out = {}
    for exps, c in P.terms.items():
        if exps[v] == k:
            out[exps[:v] + (0,) + exps[v + 1:]] = c
    return MultiPoly(P.arity, out)


def _shift_in(P, v, k):
    return MultiPoly(P.arity, {e[:v] + (e[v] + k,) + e[v + 1:]: c for e, c in P.terms.items()})


def _pseudo_remainder(A, B, v):
    """Pseudo-remainder of A by B in the variable v; exact over any domain."""
    db = _degree_in(B, v)
    lcb = _coeff_in(B, v, db)
    R = A
    while not R.is_zero:
        dr = _degree_in(R, v)
        if dr < db:
            break
        lcr = _coeff_in(R, v, dr)
        R = lcb * R - _shift_in(lcr * B, v, dr - db)
    return R


def _content_and_pp(P, v):
    degP = _degree_in(P, v)
    coeffs = [c for k in range(degP + 1) if not (c := _coeff_in(P, v, k)).is_zero]
    content = coeffs[0]
    for c in coeffs[1:]:
        content = _gcd_rec(content, c)
        if content.total_degree() == 0:
            break
    content = content.normalized()
    pp = exact_divide(P, content)
    return content, pp


def _gcd_rec(P, Q):
    if P.is_zero:
        return Q
    if Q.is_zero:
        return P
    # Main variable: the highest index with positive degree in either input.
    main = -1
    for v in range(P.arity - 1, -1, -1):
        if _degree_in(P, v) > 0 or _degree_in(Q, v) > 0:
            main = v
            break
    if main < 0:
        return MultiPoly.constant(P.arity, scalar_one_like(next(iter(P.terms.values()))))
    cP, ppP = _content_and_pp(P, main)
    cQ, ppQ = _content_and_pp(Q, main)
    cont = _gcd_rec(cP, cQ)
    A, B = ppP, ppQ
    if _degree_in(A, main) < _degree_in(B, main):
        A, B = B, A
    while not B.is_zero:
        R = _pseudo_remainder(A, B, main)
        if R.is_zero:
            A = B
            break
        _, Rpp = _content_and_pp(R, main)
        A, B = B, Rpp
    _, App = _content_and_pp(A, main)
    return cont * App


def poly_gcd(P, Q):
    """A gcd in the primitive-PRS sense, in canonical normalized form.

    exact_divide(P, gcd) and exact_divide(Q, gcd) always succeed, and the
    quotients have no further common factor.
    """
    if P.is_zero and Q.is_zero:
        raise ValueError("gcd of two zero polynomials")
    P._check_arity(Q)
    return _gcd_rec(P, Q).normalized()


def coefficient_gcd(polys):
    """Iterated gcd of a list of polynomials, at least one nonzero."""
    polys = list(polys)
    if not polys:
        raise ValueError("empty coefficient list")
    nonzero = [P for P in polys if not P.is_zero]
    if not nonzero:
        raise ValueError("all-zero coefficient list")
    g = nonzero[0]
    for P in nonzero[1:]:
        g = poly_gcd(g, P)
        if g.total_degree() == 0:
            break
    return g.normalized()

"""Exact scalars and sparse multivariate polynomials.

Two scalar domains, both exact: the rationals and prime fields F_p for a
runtime prime p >= 5, which check_prime admits for every caller.
There is no floating point anywhere in this package.  A polynomial owns
its domain: MultiPoly.p is None over Q and the prime over F_p.  Its
constructor owns the scalar format: over Q an integral coefficient is an
int and any other a Fraction, over F_p every coefficient is an int in
[0, p); to_fp is the one reduction of a scalar into F_p.

The ring rule: polynomials that meet (in +, *, division, gcd or
substitution) meet in F_p when one is over F_p, a rational one read there
by reduce_mod, and two primes are a ValueError; one_ring is the rule for a
list, MultiPoly._ring for two operands, and a matrix acts over its
polynomials' ring.  F_p enters only through the MultiPoly constructor:
its p, or FpElements as term-map values with p omitted, which bring theirs.

Polynomials are sparse maps from exponent tuples to nonzero scalars, with a
single global monomial order: graded lexicographic, total degree first, ties
broken lexicographically with the variable of index 0 largest.  All printing,
normalization and division routines use this one order.
"""

import random
from fractions import Fraction
from math import gcd as _int_gcd, lcm


class BadPrimeError(ValueError):
    """The prime is unusable: composite, too small, too large to decide, or
    divides a denominator."""


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound, the least strong pseudoprime to all of them (Sorenson
# and Webster, 2017).  The first 12 are not enough: 318665857834031151167461
# = 399165290221 * 798330580441 passes them all.
PRIME_BOUND = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Exact primality of an int n, by deterministic Miller-Rabin; an
    n >= PRIME_BOUND is a BadPrimeError."""
    if n >= PRIME_BOUND:
        raise BadPrimeError("primality is decided only below %d, got %r" % (PRIME_BOUND, n))
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The moduli admitted so far, so that admitting one again is a set lookup.
_PRIMES = set()


def check_prime(p):
    """Admit p as the modulus of a prime field: a prime 5 <= p < PRIME_BOUND,
    else a BadPrimeError.  The one check for polynomials, elements and
    probes."""
    if p not in _PRIMES:
        if p < 5 or not is_prime(p):
            raise BadPrimeError("need a prime p >= 5, got %r" % (p,))
        _PRIMES.add(p)


class FpElement:
    """An element of F_p, only as a term-map value or constant passed to
    the MultiPoly constructor with p omitted; it does no arithmetic."""

    __slots__ = ("p", "v")

    def __init__(self, v, p):
        check_prime(p)
        self.p = p
        self.v = v % p


SCALARS = (int, Fraction)


def to_fp(c, p):
    """The image in F_p, an int in [0, p), of an int, a Fraction or an
    element of F_p itself.

    A denominator divisible by p and an element of another prime field
    are both ValueErrors, and p not a prime a BadPrimeError.
    """
    check_prime(p)
    if isinstance(c, int):
        return c % p
    if isinstance(c, Fraction):
        if c.denominator % p == 0:
            raise ValueError("denominator %d divisible by p=%d" % (c.denominator, p))
        return c.numerator * pow(c.denominator, -1, p) % p
    if isinstance(c, FpElement):
        if c.p != p:
            raise ValueError("modulus mismatch: %d vs %d" % (p, c.p))
        return c.v
    raise TypeError("cannot reduce %r mod %d" % (c, p))


def primitive_scale(coeffs, pivot, p=None):
    """The scalar s that puts coeffs * s in canonical form up to a scalar.

    F_p (p given): 1/pivot, which makes the pivot 1.  Q: the lcm of the
    denominators over the gcd of the numerators, which makes the scaled
    coefficients coprime integers, negated when pivot < 0 so that the
    pivot comes out positive.  coeffs must hold a nonzero entry; the pivot
    is the entry to make 1 (F_p), and over Q only its sign is read.
    """
    if p is not None:
        check_prime(p)
        return pow(pivot, -1, p)
    # For fractions in lowest terms the content is gcd(numerators) over
    # lcm(denominators).
    den_lcm, num_gcd = 1, 0
    for c in coeffs:
        den_lcm = den_lcm * c.denominator // _int_gcd(den_lcm, c.denominator)
        num_gcd = _int_gcd(num_gcd, c.numerator)
    scale = Fraction(den_lcm, num_gcd)
    return -scale if pivot < 0 else scale


def _mul_terms(a, b):
    """The product of two term maps, zeros and unreduced ints included."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            prod = c1 * c2
            cur = out.get(exps)
            out[exps] = prod if cur is None else cur + prod
    return out


def _mul_packed(a, b):
    """The product of two term maps keyed by packed monomials, in which a
    product of monomials is a sum of keys."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            prod = c1 * c2
            cur = out.get(k)
            out[k] = prod if cur is None else cur + prod
    return out


def _add_scaled(out, c, terms):
    """Add c times the term map terms into the term map out."""
    for k, v in terms.items():
        v = c * v
        cur = out.get(k)
        out[k] = v if cur is None else cur + v


def grlex_key(exps):
    # Graded lex: compare by total degree, then plain tuple order, under which
    # a larger exponent of an earlier variable wins.  max() over keys gives the
    # leading monomial.
    return (sum(exps), exps)


class MultiPoly:
    """Sparse multivariate polynomial: arity plus {exponent tuple: scalar},
    over Q (p None) or over F_p (coefficients ints in [0, p)).  Operands
    meet in one ring by the module's rule (_ring).

    Values are immutable by convention; every operation returns a fresh
    polynomial and never mutates its arguments, so instances can be shared
    freely.  Zero coefficients are never stored, over Q a Fraction with
    denominator 1 is stored as its int numerator, and over F_p every stored
    coefficient is reduced; this constructor is the one place that does
    all three, so operations hand it sums that may hold zeros, integral
    Fractions or unreduced ints.  A term map of FpElements with p omitted
    takes their prime; over Q a coefficient other than an int or a
    Fraction is a TypeError.  The zero polynomial has an empty term map.
    """

    __slots__ = ("arity", "terms", "p")

    def __init__(self, arity, terms=None, p=None):
        if p is not None and p not in _PRIMES:
            check_prime(p)
        clean = {}
        if terms:
            if p is None:
                for c in terms.values():  # the first value tells FpElements apart
                    p = c.p if type(c) is FpElement else None
                    break
            if p is None:
                for exps, c in terms.items():
                    if len(exps) != arity:
                        raise ValueError("exponent tuple %r does not match arity %d" % (exps, arity))
                    if type(c) is Fraction:
                        if c.denominator == 1:
                            c = c.numerator
                    elif type(c) is not int:
                        raise TypeError("coefficient %r over Q is not an int or a Fraction" % (c,))
                    if c:
                        clean[exps] = c
            else:
                for exps, c in terms.items():
                    if len(exps) != arity:
                        raise ValueError("exponent tuple %r does not match arity %d" % (exps, arity))
                    c = c % p if type(c) is int else to_fp(c, p)
                    if c:
                        clean[exps] = c
        self.arity = arity
        self.terms = clean
        self.p = p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity, p=None):
        return cls(arity, {}, p)

    @classmethod
    def constant(cls, arity, c, p=None):
        return cls(arity, {(0,) * arity: c}, p)

    @classmethod
    def variable(cls, arity, i):
        if not 0 <= i < arity:
            raise IndexError("variable index %d out of range for arity %d" % (i, arity))
        exps = tuple(1 if j == i else 0 for j in range(arity))
        return cls(arity, {exps: 1})

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
        return self.arity == other.arity and self.p == other.p and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, self.p, frozenset(self.terms.items())))

    def __repr__(self):
        ring = "" if self.p is None else " mod %d" % self.p
        if not self.terms:
            return "MultiPoly(%d, 0%s)" % (self.arity, ring)
        parts = ["%r:%r" % (e, c) for e, c in sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)]
        return "MultiPoly(%d, {%s}%s)" % (self.arity, ", ".join(parts), ring)

    # -- ring operations ---------------------------------------------------

    def _ring(self, other):
        """The prime of the ring that self and other meet in, None for Q;
        a rational operand is read in F_p."""
        if self.arity != other.arity:
            raise ValueError("arity mismatch: %d vs %d" % (self.arity, other.arity))
        if self.p is not None and other.p is not None and self.p != other.p:
            raise ValueError("modulus mismatch: %d vs %d" % (self.p, other.p))
        return self.p or other.p

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        p = self._ring(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            cur = out.get(exps)
            out[exps] = c if cur is None else cur + c
        return MultiPoly(self.arity, out, p)

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return MultiPoly(self.arity, {e: -c for e, c in self.terms.items()}, self.p)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            p = self._ring(other)
            return MultiPoly(self.arity, _mul_terms(self.terms, other.terms), p)
        if isinstance(other, SCALARS):
            p = self.p
            if p is not None:
                other = to_fp(other, p)
            return MultiPoly(self.arity, {e: c * other for e, c in self.terms.items()}, p)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take non-negative integer exponents")
        result = MultiPoly.constant(self.arity, 1, self.p)
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
            out[nexps] = nc if cur is None else cur + nc
        return MultiPoly(self.arity, out, self.p)

    def evaluate(self, point):
        """The value at point: a Fraction over Q, an int in [0, p) over F_p."""
        if len(point) != self.arity:
            raise ValueError("point length %d does not match arity %d" % (len(point), self.arity))
        p = self.p
        if p is not None:
            point = [to_fp(x, p) for x in point]
        acc = Fraction(0) if p is None else 0
        for exps, c in self.terms.items():
            term = c
            for x, e in zip(point, exps):
                if e:
                    term = term * (x ** e if p is None else pow(x, e, p))
            acc = acc + term
        return acc if p is None else acc % p

    # -- normal forms ------------------------------------------------------

    def normalization_scale(self):
        """The scalar s with self * s == self.normalized(): the primitive
        scale of the coefficients, with the leading coefficient as pivot."""
        if not self.terms:
            return Fraction(1)
        return primitive_scale(self.terms.values(), self.leading_coefficient(), self.p)

    def normalized(self):
        """Canonical representative up to a nonzero scalar.

        Over Q: primitive over the integers with positive leading
        coefficient.  Over F_p: monic leading coefficient.
        """
        return self * self.normalization_scale()

    def reduce_mod(self, p):
        """The image in F_p[x]; terms that vanish mod p are dropped.
        ValueError as in to_fp, and for a polynomial over another prime;
        BadPrimeError for a p that check_prime does not admit."""
        if self.p is not None and self.p != p:
            raise ValueError("modulus mismatch: %d vs %d" % (p, self.p))
        return MultiPoly(self.arity, self.terms, p)


def one_ring(polys):
    """The ring rule for a list: (p, polys read there), with p the prime
    they meet in, None for Q.  Two arities or two primes are a ValueError."""
    polys = list(polys)
    arities, primes = {P.arity for P in polys}, {P.p for P in polys} - {None}
    if len(arities) > 1 or len(primes) > 1:
        raise ValueError("no one ring for arities %s and primes %s" % (sorted(arities), sorted(primes)))
    p = primes.pop() if primes else None
    return p, [P if P.p == p else P.reduce_mod(p) for P in polys]


# -- linear substitution ---------------------------------------------------

def ring_matrix(matrix, p):
    """The entries of a matrix, ints and Fractions (SCALARS; else a
    TypeError), as the ring of prime p (None for Q) stores a coefficient."""
    if not all(isinstance(c, SCALARS) for row in matrix for c in row):
        raise TypeError("matrix entries are ints or Fractions")
    return [[MultiPoly(0, {(): c}, p).terms.get((), 0) for c in row] for row in matrix]


def substitute(polys, matrix, mixing=None):
    """Compose each of polys, nonempty, read in one ring (one_ring), with a
    linear map: one matrix row per old variable, one column per new
    variable; old_i maps to sum_j matrix[i][j] * new_j.  Returns one
    polynomial per input; with mixing, rows of ints or Fractions of one
    entry per input, one polynomial per row instead: the sum over k of
    row[k] * (polys[k] o matrix).  The matrix acts over the polynomials'
    ring (ring_matrix).

    The products are taken on packed monomials: new variable j is the
    digit of weight base ** (m - 1 - j), m new variables, with base one
    more than the largest total degree, so that no exponent of a product
    carries into the next digit and multiplying two monomials adds two
    ints.  Each variable's power table is built once for all inputs, and
    the monomials of all inputs are walked in sorted order, each reusing
    the prefix product image_0^e_0 ... image_i^e_i of the one before it.
    The keys are unpacked to exponent tuples once per result.
    """
    p, polys = one_ring(polys)
    if not polys:
        raise ValueError("substitute needs at least one polynomial")
    arity = polys[0].arity
    if len(matrix) != arity:
        raise ValueError("matrix has %d rows, arity is %d" % (len(matrix), arity))
    new_arity = len(matrix[0]) if matrix else 0
    for row in matrix:
        if len(row) != new_arity:
            raise ValueError("ragged substitution matrix")
    if mixing is not None and any(len(row) != len(polys) for row in mixing):
        raise ValueError("a mixing row needs one scalar per polynomial")
    rows = ring_matrix(matrix, p)
    base = max(max(P.total_degree() for P in polys), 0) + 1
    weights = [base ** (new_arity - 1 - j) for j in range(new_arity)]
    images = [{w: c for w, c in zip(weights, row) if c} for row in rows]
    # the coefficients of every input on each monomial
    owners = {}
    for k, P in enumerate(polys):
        for exps, c in P.terms.items():
            owners.setdefault(exps, []).append((k, c))
    # powers[i][e] is the packed term map of image_i ** e and prefix[i + 1]
    # that of image_0^e_0 ... image_i^e_i for the monomial last walked; a
    # monomial's image is scaled by each coefficient last, so that the
    # products stay in ints for an integer matrix
    one = {0: 1}
    powers = [[one] for _ in images]
    prefix = [one] * (arity + 1)
    last = None
    accs = [{} for _ in polys]
    for exps in sorted(owners):
        i = 0
        if last is not None:
            while exps[i] == last[i]:
                i += 1
        last = exps
        for i in range(i, arity):
            e = exps[i]
            if e:
                cache = powers[i]
                while len(cache) <= e:
                    cache.append(_mul_packed(cache[-1], images[i]))
                prefix[i + 1] = cache[e] if prefix[i] is one else _mul_packed(prefix[i], cache[e])
            else:
                prefix[i + 1] = prefix[i]
        for k, c in owners[exps]:
            _add_scaled(accs[k], c, prefix[arity])
    if mixing is not None:
        mixed = [{} for _ in mixing]
        for out, row in zip(mixed, mixing):
            for m, acc in zip(row, accs):
                if m:
                    _add_scaled(out, m, acc)
        accs = mixed
    return [MultiPoly(new_arity, {tuple([k // w % base for w in weights]): v for k, v in acc.items()}, p)
            for acc in accs]


# -- division and gcd ------------------------------------------------------

def _cleared(terms):
    """(den, the term map times den), with den the lcm of the denominators
    of the term map of a polynomial over Q: every coefficient comes out an
    int, and den == 1 returns the map itself, which the constructor has
    stored in ints."""
    den = lcm(*[c.denominator for c in terms.values()])
    if den == 1:
        return den, terms
    return den, {e: c.numerator * (den // c.denominator) for e, c in terms.items()}


def exact_divide(P, F):
    """Return G with P = F * G, or None when F does not divide P.

    Leading-term peeling in the global order, correct because the leading
    monomial of any multiple of F is divisible by the leading monomial of
    F, on packed monomials (after Monagan and Pearce, CASC 2007).

    Keys: with top the largest total degree in P and F, a monomial of n
    variables is one int of n + 1 fields, each s = top.bit_length() + 1
    bits wide: the total degree in the highest field, then e_0, ...,
    e_(n-1).  The int order is then grlex_key's order, so the leading term
    of the remainder is a max over ints, and a product of two monomials is
    the sum of their keys: no field of a product formed here exceeds top.
    The top bit of each field is a guard bit, clear in every key, since a
    field holds at most top < 2^(s-1).  The leading monomial f of F
    divides a monomial r exactly when (r - f) & guard == 0: a field of r
    below that of f borrows from the field above and sets its own guard
    bit.  The quotient's keys are unpacked to exponent tuples once.

    Over Q, P is scaled to integers by the lcm of its denominators and F to
    its primitive integer multiple.  By Gauss's lemma an integer
    polynomial that a primitive one divides over Q has an integral
    quotient, so each quotient coefficient is a divmod by F's leading
    coefficient, and a nonzero remainder proves that F does not divide P.
    The quotient is scaled back once, at the end.  Over F_p each step
    multiplies by the inverse of F's leading coefficient.
    """
    if F.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    p, (P, F) = one_ring((P, F))
    n = P.arity
    p_terms, f_terms, scale = P.terms, F.terms, 1
    if p is None:
        p_den, p_terms = _cleared(p_terms)
        f_den, f_terms = _cleared(f_terms)
        content = _int_gcd(*f_terms.values())
        if content != 1:
            f_terms = {e: c // content for e, c in f_terms.items()}
        scale = Fraction(f_den, content * p_den)
    top = max(max(map(sum, p_terms), default=0), max(map(sum, f_terms)))
    s = top.bit_length() + 1
    guard = sum(1 << (s * j + s - 1) for j in range(n + 1))

    def pack(terms):
        packed = {}
        for exps, c in terms.items():
            key = sum(exps)
            for e in exps:
                key = key << s | e
            packed[key] = c
        return packed

    rest = pack(f_terms)
    f_lead = max(rest)
    f_lc = rest.pop(f_lead)
    rest = list(rest.items())
    f_inv = None if p is None else pow(f_lc, -1, p)
    quotient = {}
    # the remainder keeps the zeros that cancellation leaves, and reduces
    # mod p only the coefficient it reads: a zero leading entry is dropped.
    # Each step pops the largest key and adds only smaller keys, none
    # negative (d passed the guard test), so the loop ends.
    rem = pack(p_terms)
    while rem:
        r = max(rem)
        c = rem.pop(r)
        if p is not None:
            c %= p
        if not c:
            continue
        d = r - f_lead
        if d & guard:
            return None
        if p is None:
            c, m = divmod(c, f_lc)
            if m:
                return None
        else:
            c = c * f_inv % p
        quotient[d] = c
        for k, fc in rest:
            k += d
            rem[k] = rem.get(k, 0) - c * fc
    mask = (1 << s) - 1
    shifts = [s * (n - 1 - i) for i in range(n)]
    return MultiPoly(n, {tuple([d >> t & mask for t in shifts]): c if scale == 1 else c * scale
                         for d, c in quotient.items()}, p)


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
    return MultiPoly(P.arity, out, P.p)


def _shift_in(P, v, k):
    return MultiPoly(P.arity, {e[:v] + (e[v] + k,) + e[v + 1:]: c for e, c in P.terms.items()}, P.p)


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
    split = {}
    for exps, c in P.terms.items():
        split.setdefault(exps[v], {})[exps[:v] + (0,) + exps[v + 1:]] = c
    # the gcd is the same in any order; the smallest coefficients first
    # reach a constant content soonest
    content = _fold_gcd(sorted((MultiPoly(P.arity, t, P.p) for t in split.values()),
                               key=lambda c: (c.total_degree(), len(c.terms))))
    # a normalized constant content is 1, and P is its own primitive part
    return content, P if content.total_degree() == 0 else exact_divide(P, content)


def _dense_primitive(a):
    """The primitive integer list with a positive leading entry that is a
    scalar multiple of the dense list a over Q (ints and Fractions, which
    may be integral)."""
    if not a:
        return a
    den = lcm(*[c.denominator for c in a])
    ints = [c.numerator * (den // c.denominator) for c in a]
    g = _int_gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints] if g != 1 else ints


def _dense_gcd(a, b, p):
    """The gcd of two univariate polynomials given as dense lists,
    coefficients lowest degree first with no trailing zero ([] is 0).

    Euclid: over F_p (entries ints in [0, p)) on remainders, and the gcd
    comes back monic; over Q (p None, entries ints or Fractions) on the
    primitive integer remainder sequence, each remainder a scalar multiple
    of the true one, and the gcd comes back primitive with a positive
    leading entry (_dense_primitive).
    """
    if p is None:
        a, b = _dense_primitive(a), _dense_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r, lc, n = list(a), b[-1], len(b) - 1
        inv = None if p is None else pow(lc, -1, p)
        while len(r) > n:
            lead = r.pop()
            shift = len(r) - n
            if p is None:
                # r * lc/g - b * lead/g x^shift: integral, and the lead cancels
                g = _int_gcd(lead, lc)
                m, q = lc // g, lead // g
                if m != 1:
                    r = [m * c for c in r]
                for i in range(n):
                    r[shift + i] -= q * b[i]
            else:
                q = lead * inv % p
                for i in range(n):
                    r[shift + i] = (r[shift + i] - q * b[i]) % p
            while r and not r[-1]:
                r.pop()
        a, b = b, (_dense_primitive(r) if p is None else r)
    if p is None or not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


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
        return MultiPoly.constant(P.arity, 1, P._ring(Q))
    if all(sum(e) == e[main] for R in (P, Q) for e in R.terms):
        # both involve the main variable only: Euclid on dense lists
        p, dense = P._ring(Q), []
        for R in (P, Q):
            a = [0] * (_degree_in(R, main) + 1)
            for e, c in R.terms.items():
                a[e[main]] = c
            dense.append(a)
        zeros = (0,) * P.arity
        return MultiPoly(P.arity, {zeros[:main] + (k,) + zeros[main + 1:]: c
                                   for k, c in enumerate(_dense_gcd(*dense, p))}, p)
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
    # A is ppP, ppQ or some Rpp, so it is already primitive in main
    return cont * A


# Lines for the unit certificate come from a generator with this fixed
# seed, made afresh for each call, so that every certificate is
# reproducible and does not depend on the calls before it.
_LINE_SEED = 20061
# Draws of a line (u, v) per call.  Over F_p a random line meets the common
# zeros of the inputs with probability about degree/p, and a draw is lost
# when polys[0](v) = 0, so small primes need several draws: on unit-gcd
# restrictions mod 5, 8 draws left 7% of them to the PRS and 16 left none
# of 2,400.  A draw costs about 0.1 ms on those restrictions (four quartics
# in 4 variables, 22-34 terms each; 0.08-0.14 ms per draw), nearly all of
# it in _on_line.  Over Q a failed line is the common case (a real common
# factor), so one draw.
_LINES_FP = 16
_LINES_Q = 1


def _on_line(polys, u, v, p):
    """Each P(u + t*v) for P in polys, over F_p (p) or over Q (p None), as
    a dense list of ints, lowest degree first ([] for 0); u and v are lists
    of ints.  Over F_p the coefficients are reduced into [0, p); over Q
    they are those of P times the lcm of its denominators.

    Kronecker substitution, with t = 2^B: variable i is the int
    u_i + v_i * 2^B and a term c * x^e the int c * prod_i image_i^e_i, so
    the sum holds the coefficient of t^k as the signed digit of bits kB to
    (k + 1)B.  No coefficient exceeds N = ||P||_1 * r^d in absolute value,
    with r = max(1, |u_i| + |v_i| over i) and d the total degree of P, so
    B = N.bit_length() + 1, a sign bit on top, keeps every digit in
    [-2^(B-1), 2^(B-1)); one B serves all inputs.
    """
    scaled = [P.terms if p is not None else _cleared(P.terms)[1] for P in polys]
    reach = max([1] + [abs(a) + abs(b) for a, b in zip(u, v)])
    degrees = [max(map(sum, terms), default=0) for terms in scaled]
    norm = max(sum(map(abs, terms.values())) * reach ** d for terms, d in zip(scaled, degrees))
    B = norm.bit_length() + 1
    powers = []
    for a, b in zip(u, v):
        x = a + (b << B)
        table = [1]
        for _ in range(max(degrees)):
            table.append(table[-1] * x)
        powers.append(table)
    mask, half = (1 << B) - 1, 1 << (B - 1)
    monomials = {}  # the int of each monomial, once for all inputs
    out = []
    for terms, d in zip(scaled, degrees):
        packed = 0
        for exps, c in terms.items():
            x = monomials.get(exps)
            if x is None:
                x = 1
                for table, e in zip(powers, exps):
                    if e:
                        x *= table[e]
                monomials[exps] = x
            packed += c * x
        digits = []
        for _ in range(d + 1):
            digit = packed & mask
            if digit >= half:
                digit -= mask + 1
            digits.append(digit if p is None else digit % p)
            packed = (packed - digit) >> B
        while digits and not digits[-1]:
            digits.pop()
        out.append(digits)
    return out


def _unit_line(polys):
    """A line (u, v) on which the inputs have a coprime restriction, which
    proves that their gcd is a constant, or None when no line tried does.

    polys are nonzero homogeneous polynomials over one ring.  v is drawn
    with polys[0](v) != 0 and u is any point.  A common factor G divides
    polys[0], so G(v) != 0: G(u + t*v) keeps the degree of G in t and
    divides every P(u + t*v).  A constant gcd of these univariate
    restrictions therefore proves that G is a constant, over Q and F_p.
    A variable that divides every input is a common factor, and no line
    is tried.  The restrictions are dense lists (_on_line), and their gcd
    is folded with _dense_gcd until it is a constant.
    """
    arity = polys[0].arity
    if any(all(e[i] for P in polys for e in P.terms) for i in range(arity)):
        return None
    p = polys[0].p
    rng = random.Random(_LINE_SEED)
    if p is None:
        draw, lines = (lambda: rng.randint(-3, 3)), _LINES_Q
    else:
        draw, lines = (lambda: rng.randrange(p)), _LINES_FP
    for _ in range(lines):
        u = [draw() for _ in range(arity)]
        v = [draw() for _ in range(arity)]
        # u proportional to v spans no line
        minors = (u[i] * v[j] - u[j] * v[i] for i in range(arity) for j in range(i))
        if not polys[0].evaluate(v) or not any(m if p is None else m % p for m in minors):
            continue
        g = []
        for a in _on_line(polys, u, v, p):
            g = _dense_gcd(g, a, p)
            if len(g) == 1:
                return u, v
    return None


def _fold_gcd(polys):
    """The normalized gcd of nonzero polys, folded left to right with
    _gcd_rec and normalized once, at the end.  The fold stops at a
    constant, and once the running gcd divides every input left, which
    makes it their gcd."""
    g = polys[0]
    for k in range(1, len(polys)):
        if g.total_degree() == 0 or all(exact_divide(Q, g) is not None for Q in polys[k:]):
            break
        g = _gcd_rec(g, polys[k])
    return g.normalized()


def coefficient_gcd(polys):
    """The normalized gcd of a list of polynomials, at least one nonzero,
    read in one ring (one_ring): exact_divide by it succeeds on every
    input, and the quotients have no further common factor.

    Homogeneous inputs in three or more variables are first tried on lines
    (_unit_line), which certify a unit gcd at the cost of a univariate
    gcd; the primitive PRS runs only when no line does.
    """
    p, polys = one_ring(polys)
    nonzero = [P for P in polys if not P.is_zero]
    if not nonzero:
        raise ValueError("coefficient_gcd needs a nonzero polynomial")
    arity = nonzero[0].arity
    if arity >= 3 and all(P.is_homogeneous() for P in nonzero) and _unit_line(nonzero):
        return MultiPoly.constant(arity, 1, p)
    return _fold_gcd(nonzero)

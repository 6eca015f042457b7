"""Scalar and polynomial kernel: exactness, order, division, gcd."""

import functools
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jpencil import poly
from jpencil.poly import (
    FpElement,
    MultiPoly,
    coefficient_gcd,
    exact_divide,
    grlex_key,
    to_fp,
)
from jpencil.polytext import parse_poly, poly_to_text


def test_fp_element_small_prime_rejected():
    with pytest.raises(ValueError):
        FpElement(1, 3)


def test_a_prime_field_needs_a_prime():
    # one check admits a modulus, for polynomials and elements alike; over
    # Z/n for a composite n, normalized() and the gcd have no meaning
    x = MultiPoly.variable(1, 0)
    for build in (lambda: MultiPoly(1, {(1,): 1}, 9), lambda: x.reduce_mod(25),
                  lambda: FpElement(1, 35), lambda: MultiPoly.zero(2, 49),
                  lambda: MultiPoly.constant(2, 1, 2)):
        with pytest.raises(poly.BadPrimeError, match="need a prime p >= 5"):
            build()
    assert [n for n in range(2, 20) if poly.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert x.reduce_mod(31).p == 31


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division_and_sympy():
    from sympy import isprime
    assert [n for n in range(10 ** 4) if poly.is_prime(n)] == \
        [n for n in range(10 ** 4) if _trial_division(n)]
    rng = random.Random(1009)
    draws = [rng.getrandbits(64) | 1 for _ in range(300)]
    draws += [rng.randrange(2 ** 63, 2 ** 64) for _ in range(100)]
    # strong pseudoprimes: to bases 2..23 (caught by 29), and to all of
    # 2..37, the first 12 primes (caught only by 41)
    draws += [3825123056546413051, 318665857834031151167461, 2 ** 61 - 1, 2 ** 64 - 59]
    assert [poly.is_prime(n) for n in draws] == [isprime(n) for n in draws]
    assert sum(isprime(n) for n in draws) >= 5


def test_a_large_prime_is_admitted_at_once():
    # trial division of 2^61 - 1 never returned; Miller-Rabin decides it in
    # microseconds, and a modulus it cannot decide is refused at once
    start = time.perf_counter()
    assert MultiPoly(1, {(1,): 1}, 2 ** 61 - 1).p == 2 ** 61 - 1
    largest = 3317044064679887385961813  # the largest prime below the bound
    assert MultiPoly(1, {(1,): 1}, largest).p == largest
    for n in (poly.PRIME_BOUND, 2 ** 89 - 1):
        with pytest.raises(poly.BadPrimeError, match="decided only below"):
            FpElement(1, n)
        with pytest.raises(poly.BadPrimeError):
            poly.is_prime(n)
    assert time.perf_counter() - start < 1


def test_fp_element_modulus_mismatch():
    x = MultiPoly.variable(2, 0)
    x5 = x.reduce_mod(5)
    with pytest.raises(ValueError):
        x5 + x.reduce_mod(7)
    with pytest.raises(ValueError):
        x5 * x.reduce_mod(7)
    with pytest.raises(ValueError):
        x5.reduce_mod(7)
    with pytest.raises(ValueError):
        x5 * MultiPoly.constant(2, FpElement(1, 7))
    with pytest.raises(ValueError):
        MultiPoly(2, {(1, 0): 1}, 3)
    # an FpElement enters only through the constructor: it is no scalar
    for scalar in (FpElement(1, 5), FpElement(1, 7)):
        with pytest.raises(TypeError):
            x5 * scalar
        with pytest.raises(TypeError):
            x * scalar


def test_equal_scalars_hash_equal():
    values = list(range(-3, 10)) + [Fraction(v, d) for v in range(-3, 10) for d in (1, 2, 5)]
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    # a polynomial over F_p equals none over Q, so a reduction never equals
    # its source
    x = MultiPoly.variable(2, 0)
    assert (6 * x).reduce_mod(5) != 6 * x
    assert len({(6 * x).reduce_mod(5), 6 * x}) == 2
    assert len({(6 * x).reduce_mod(5), MultiPoly(2, {(1, 0): FpElement(1, 5)})}) == 1


def test_rational_coefficients_are_int_or_fraction():
    # over Q a coefficient is an int or a Fraction, checked value by value
    with pytest.raises(TypeError):
        MultiPoly(2, {(1, 0): Fraction(1), (0, 1): FpElement(1, 7)})
    with pytest.raises(TypeError):
        MultiPoly(1, {(1,): 0.5})
    assert MultiPoly(2, {(1, 0): 2, (0, 1): Fraction(1, 2)}).p is None
    # a map that starts with an element of F_p is over F_p, and reduces the rest
    mixed = MultiPoly(2, {(1, 0): FpElement(1, 7), (0, 1): Fraction(1, 2)})
    assert mixed.p == 7 and mixed.terms == {(1, 0): 1, (0, 1): 4}


def test_grlex_order_is_degree_then_lex():
    # x0*x3^3 before x2^2*x3^2: same degree, lex on exponents from x0
    lo = grlex_key((0, 0, 2, 2))
    hi = grlex_key((1, 0, 0, 3))
    assert hi > lo
    assert grlex_key((2, 0)) > grlex_key((1, 1)) > grlex_key((0, 2))
    assert grlex_key((0, 2)) > grlex_key((1, 0))


def _f7(n, d=1):
    return FpElement(to_fp(Fraction(n, d), 7), 7)


def _assert_no_zero_terms(*polys):
    for P in polys:
        assert all(P.terms.values()), P


def test_ring_axioms_random():
    rng = random.Random(1001)

    def rand_poly(scalar):
        P = MultiPoly.zero(3)
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            c = scalar(rng.randint(-4, 4), rng.randint(1, 3))
            P = P + MultiPoly(3, {exps: c})
        return P

    for scalar in (Fraction, _f7):
        for _ in range(25):
            A, B, C = rand_poly(scalar), rand_poly(scalar), rand_poly(scalar)
            assert A + B == B + A
            assert A * B == B * A
            assert (A + B) * C == A * C + B * C
            assert A * (B * C) == (A * B) * C
            assert A - A == MultiPoly.zero(3, A.p)
            assert A * MultiPoly.constant(3, scalar(0)) == MultiPoly.zero(3, A.p)
            _assert_no_zero_terms(A, B, C, A + B, A * B, (A + B) * C, A * C + B * C,
                                  A * (B * C), A - B)


def test_partial_derivative_product_rule():
    rng = random.Random(1002)
    # over F_7 the exponents reach 7, whose derivative terms vanish
    for scalar, top, rounds in ((Fraction, 3, 10), (_f7, 4, 30)):
        for _ in range(rounds):
            A = MultiPoly(2, {(rng.randint(0, top), rng.randint(0, top)): scalar(rng.randint(1, 5))})
            B = MultiPoly(2, {(rng.randint(0, top), rng.randint(0, top)): scalar(rng.randint(-5, -1))})
            for i in range(2):
                lhs = (A * B).partial_derivative(i)
                rhs = A.partial_derivative(i) * B + A * B.partial_derivative(i)
                assert lhs == rhs
                _assert_no_zero_terms(lhs, rhs, A.partial_derivative(i) * B)


def test_homogeneous_bookkeeping():
    x0 = MultiPoly.variable(2, 0)
    x1 = MultiPoly.variable(2, 1)
    P = x0 * x0 + x0 * x1
    assert P.is_homogeneous()
    assert P.homogeneous_degree() == 2
    assert not (P + x1).is_homogeneous()
    assert MultiPoly.zero(2).total_degree() == -1


def test_evaluate():
    x0 = MultiPoly.variable(2, 0)
    x1 = MultiPoly.variable(2, 1)
    P = x0 ** 3 - 2 * x0 * x1
    assert P.evaluate((Fraction(2), Fraction(3))) == 8 - 12
    Pp = MultiPoly(2, {(1, 1): FpElement(2, 7)})
    assert Pp.p == 7 and Pp.evaluate((3, 4)) == 24 % 7
    assert Pp.evaluate((FpElement(3, 7), Fraction(1, 2))) == 3
    assert MultiPoly.zero(2, 7).evaluate((1, 1)) == 0


def test_linear_substitute_composes():
    x0 = MultiPoly.variable(2, 0)
    x1 = MultiPoly.variable(2, 1)
    P = x0 * x0 - x1 * x1
    # x0 -> y0 + y1, x1 -> y0 - y1 gives 4 y0 y1
    matrix = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    [Q] = poly.substitute([P], matrix)
    assert Q == MultiPoly(2, {(1, 1): Fraction(4)})


def test_normalized_primitive_positive_leading():
    x0 = MultiPoly.variable(2, 0)
    x1 = MultiPoly.variable(2, 1)
    P = Fraction(-4, 6) * (x0 * x0) + Fraction(-2, 3) * (x0 * x1)
    N = P.normalized()
    assert N == x0 * x0 + x0 * x1
    assert P * P.normalization_scale() == N


def test_normalized_monic_over_fp():
    P = MultiPoly(2, {(2, 0): FpElement(3, 7), (0, 2): FpElement(5, 7)})
    N = P.normalized()
    assert N.leading_coefficient() == 1
    assert N == MultiPoly(2, {(2, 0): 1, (0, 2): 4}, 7)


def _rand_rational_poly(rng, arity=3):
    P = MultiPoly.zero(arity)
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 2) for _ in range(arity))
        P = P + MultiPoly(arity, {exps: Fraction(rng.randint(-6, 6), rng.randint(1, 4))})
    return P


def test_normalized_ignores_scalar_factors():
    rng = random.Random(1004)
    for _ in range(30):
        P = _rand_rational_poly(rng)
        if P.is_zero:
            continue
        s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        assert (P * s).normalized() == P.normalized()
        assert P.normalized().normalized() == P.normalized()
        Pp = P.reduce_mod(7)
        if Pp.is_zero:
            continue
        t = rng.randint(1, 6)
        assert (Pp * t).normalized() == Pp.normalized()
        assert Pp * Pp.normalization_scale() == Pp.normalized()


def test_reduce_mod_is_a_ring_map():
    rng = random.Random(1005)
    for p in (5, 7, 11):
        for _ in range(15):
            A, B = _rand_rational_poly(rng), _rand_rational_poly(rng)
            assert (A + B).reduce_mod(p) == A.reduce_mod(p) + B.reduce_mod(p)
            assert (A * B).reduce_mod(p) == A.reduce_mod(p) * B.reduce_mod(p)


def test_reduce_mod_rejects_bad_denominators_and_moduli():
    x0 = MultiPoly.variable(2, 0)
    assert (x0 * Fraction(3, 4)).reduce_mod(7) == MultiPoly(2, {(1, 0): FpElement(6, 7)})
    assert (x0 * 5).reduce_mod(5).is_zero
    with pytest.raises(ValueError):
        (x0 * Fraction(1, 10)).reduce_mod(5)
    with pytest.raises(ValueError):
        x0.reduce_mod(7).reduce_mod(5)
    assert to_fp(FpElement(3, 7), 7) == 3
    assert to_fp(Fraction(3, 4), 7) == 6
    with pytest.raises(ValueError):
        to_fp(FpElement(3, 7), 5)
    with pytest.raises(ValueError):
        x0.reduce_mod(5) * Fraction(1, 5)


def test_reductions_need_a_prime():
    # mod 9 the inverse of 2 is 5, but Z/9 is no field: the reduction and
    # the F_p scale admit their modulus as every polynomial does
    for call in (lambda: to_fp(Fraction(1, 2), 9), lambda: to_fp(4, 9),
                 lambda: poly.primitive_scale([3], 2, 9)):
        with pytest.raises(poly.BadPrimeError, match="need a prime p >= 5"):
            call()
    assert poly.primitive_scale([3], 2, 7) == 4


def test_exact_divide_and_failure():
    x0 = MultiPoly.variable(2, 0)
    x1 = MultiPoly.variable(2, 1)
    P = (x0 + x1) * (x0 - x1)
    assert exact_divide(P, x0 + x1) == x0 - x1
    assert exact_divide(P, x0) is None
    assert exact_divide(MultiPoly.zero(2), x0) == MultiPoly.zero(2)


def test_exact_divide_over_q_returns_fractions():
    # int coefficients divide exactly, never into floats
    twice = MultiPoly(2, {(1, 0): 2, (0, 1): 2})
    four_times = MultiPoly(2, {(1, 0): 4, (0, 1): 4})
    half = exact_divide(twice, four_times)
    assert half.terms == {(0, 0): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in half.terms.values())
    q = exact_divide(MultiPoly(2, {(2, 0): 3, (0, 2): -3}), MultiPoly(2, {(1, 0): 2, (0, 1): 2}))
    assert q.terms == {(1, 0): Fraction(3, 2), (0, 1): Fraction(-3, 2)}
    assert all(type(c) is Fraction for c in q.terms.values())


def test_poly_gcd_known_factors():
    x0 = MultiPoly.variable(2, 0)
    x1 = MultiPoly.variable(2, 1)
    A = (x0 + x1) ** 2 * (x0 - x1)
    B = (x0 + x1) * (x0 + 2 * x1)
    assert coefficient_gcd([A, B]) == x0 + x1
    # coprime inputs give a unit
    assert coefficient_gcd([x0, x1]) == MultiPoly.constant(2, Fraction(1))


def test_poly_gcd_random_products():
    rng = random.Random(1003)
    x0 = MultiPoly.variable(2, 0)
    x1 = MultiPoly.variable(2, 1)
    for _ in range(10):
        G = x0 * rng.randint(1, 3) + x1 * rng.randint(1, 3)
        A = G * (x0 + rng.randint(1, 4) * x1)
        B = G * (x0 - rng.randint(1, 4) * x1)
        got = coefficient_gcd([A, B])
        assert exact_divide(got, G.normalized()) is not None


def test_coefficient_gcd():
    x = [MultiPoly.variable(3, i) for i in range(3)]
    polys = [x[2] * x[0] * 2, x[2] * x[1] * 4, x[2] * x[2] * 6]
    assert coefficient_gcd(polys) == x[2]


# -- laws of the F_p reduction and of the gcd, as properties ----------------

_coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_exps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
_polys = st.dictionaries(_exps, _coeffs, min_size=1, max_size=4).map(lambda t: MultiPoly(3, t))
_primes = st.sampled_from((5, 7, 11))
# the gcd over Q is a primitive PRS, whose cost grows fast with the degree
_small_polys = st.dictionaries(st.tuples(*[st.integers(0, 1)] * 3), _coeffs,
                               min_size=1, max_size=3).map(lambda t: MultiPoly(3, t))


@settings(max_examples=60)
@given(_polys, _polys, _primes, st.lists(_coeffs, min_size=6, max_size=6))
def test_reduce_mod_commutes_with_calculus_and_division(A, B, p, entries):
    for i in range(3):
        assert A.partial_derivative(i).reduce_mod(p) == A.reduce_mod(p).partial_derivative(i)
    # one matrix on both sides: over F_p it is read mod p
    matrix = [entries[0:2], entries[2:4], entries[4:6]]
    assert poly.substitute([A], matrix)[0].reduce_mod(p) == poly.substitute([A.reduce_mod(p)], matrix)[0]
    assume(not A.is_zero and not B.reduce_mod(p).is_zero)
    assert exact_divide(A * B, B) == A
    assert exact_divide((A * B).reduce_mod(p), B.reduce_mod(p)) == A.reduce_mod(p)


def _stored_in_one_format(P):
    """Every coefficient over Q is an int when it is integral, else a
    Fraction."""
    return all(type(c) is int or type(c) is Fraction and c.denominator != 1
               for c in P.terms.values())


@settings(max_examples=60)
@given(_polys, _polys, st.lists(_coeffs, min_size=6, max_size=6))
def test_integral_rationals_are_stored_as_ints(A, B, entries):
    # denominators up to 4 make integral products such as (1/2)*2; the
    # constructor stores each as an int, whichever operation made it
    names = ("x0", "x1", "x2")
    matrix = [entries[0:2], entries[2:4], entries[4:6]]
    results = [A, A + B, A - B, A * B, A ** 3, A.partial_derivative(0),
               poly.substitute([A], matrix)[0], A.normalized(),
               parse_poly(poly_to_text(A, names), names)]
    if not B.is_zero:
        results.append(exact_divide(A * B, B))
    for P in results:
        assert _stored_in_one_format(P), P


# arities n -> m -> k with n != m != k, so that neither matrix is square
_arity_chains = st.tuples(*[st.integers(1, 4)] * 3).filter(lambda d: d[0] != d[1] != d[2])


def _matrices(rows, cols):
    return st.lists(st.lists(_coeffs, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@settings(max_examples=60)
@given(_arity_chains, st.sampled_from((None, 7)), st.data())
def test_linear_substitute_composes_as_matrices(arities, p, data):
    # substituting A, then B, is substituting A*B; each result's arity is
    # read from its matrix's columns
    n, m, k = arities
    terms = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * n), _coeffs, max_size=4))
    P = MultiPoly(n, terms) if p is None else MultiPoly(n, terms).reduce_mod(p)
    A, B = data.draw(_matrices(n, m)), data.draw(_matrices(m, k))
    AB = [[sum(A[i][l] * B[l][j] for l in range(m)) for j in range(k)] for i in range(n)]
    [Q] = poly.substitute(poly.substitute([P], A), B)
    assert (Q.arity, Q.p) == (k, p)
    assert [Q] == poly.substitute([P], AB)


def _linear_substitute_oracle(P, matrix):
    """substitute on one polynomial, on exponent tuples: every product of
    monomials builds a fresh tuple."""
    new_arity = len(matrix[0]) if matrix else 0
    p = P.p
    one = (0,) * new_arity
    units = [one[:k] + (1,) + one[k + 1:] for k in range(new_arity)]
    images = [MultiPoly(new_arity, dict(zip(units, row)), p).terms for row in matrix]
    powers = [[{one: 1}] for _ in images]
    out = {}
    for exps, c in P.terms.items():
        prod = {one: 1}
        for i, e in enumerate(exps):
            if e:
                cache = powers[i]
                while len(cache) <= e:
                    cache.append(poly._mul_terms(cache[-1], images[i]))
                prod = poly._mul_terms(prod, cache[e])
        for exps2, v in prod.items():
            v = c * v
            cur = out.get(exps2)
            out[exps2] = v if cur is None else cur + v
    return MultiPoly(new_arity, out, p)


def _exponents(n):
    """Exponent tuples of length n and total degree at most 9."""
    def cap(draw):
        degree, raw = draw
        exps = []
        for e in raw:
            exps.append(min(e, degree - sum(exps)))
        return tuple(exps)
    return st.tuples(st.integers(0, 9), st.lists(st.integers(0, 9), min_size=n, max_size=n)).map(cap)


# ints beyond [0, 7) and Fractions, which a polynomial over F_7 reads mod 7
_entries = st.one_of(st.just(0), st.integers(-3, 3), _coeffs, st.integers(-20, 20))


@settings(max_examples=150)
@given(st.integers(1, 4), st.integers(1, 4), st.sampled_from((None, 7)), st.data())
def test_packed_substitution_equals_the_tuple_oracle(n, m, p, data):
    # non-homogeneous polynomials up to degree 9, constants and zero; zero
    # rows, one-column matrices, int and Fraction entries, over Q and F_7
    terms = data.draw(st.one_of(
        st.dictionaries(_exponents(n), _coeffs, max_size=6),
        st.builds(lambda c: {(0,) * n: c}, _coeffs)))
    P = MultiPoly(n, terms) if p is None else MultiPoly(n, terms).reduce_mod(p)
    row = st.lists(_entries, min_size=m, max_size=m)
    matrix = data.draw(st.lists(st.one_of(st.just([0] * m), row), min_size=n, max_size=n))
    assert poly.substitute([P], matrix) == [_linear_substitute_oracle(P, matrix)]


@st.composite
def _substitution_lists(draw):
    """1-4 polynomials in n variables over one ring, each of its own total
    degree up to 9 (the zero polynomial among them), a matrix to m
    variables as in the law above, and mixing rows or None."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    p = draw(st.sampled_from((None, 7)))
    polys = [MultiPoly(n, terms) if p is None else MultiPoly(n, terms).reduce_mod(p)
             for terms in draw(st.lists(st.dictionaries(_exponents(n), _coeffs, max_size=5),
                                        min_size=1, max_size=4))]
    row = st.lists(_entries, min_size=m, max_size=m)
    matrix = draw(st.lists(st.one_of(st.just([0] * m), row), min_size=n, max_size=n))
    scalars = st.lists(st.one_of(st.integers(-3, 3), _coeffs), min_size=len(polys), max_size=len(polys))
    mixing = draw(st.one_of(st.none(), st.lists(scalars, min_size=1, max_size=3)))
    return polys, matrix, mixing


@settings(max_examples=150)
@given(_substitution_lists())
@example(([MultiPoly.variable(2, 0), MultiPoly.variable(2, 1) ** 5], [[1, 1], [1, 2]], None))
def test_substitute_on_a_list_equals_the_oracle_on_each(case):
    # one pass over all inputs; its packing base is read from the largest
    # total degree, which the first input need not have
    polys, matrix, mixing = case
    images = [_linear_substitute_oracle(P, matrix) for P in polys]
    if mixing is None:
        expected = images
    else:
        zero = MultiPoly.zero(len(matrix[0]), images[0].p)
        expected = [sum((P * c for P, c in zip(images, row)), zero) for row in mixing]
    assert poly.substitute(polys, matrix, mixing) == expected


def test_substitute_refusals():
    x = MultiPoly.variable(2, 0)
    with pytest.raises(ValueError, match="substitute needs at least one polynomial"):
        poly.substitute([], [[1], [1]])
    with pytest.raises(ValueError, match=r"no one ring for arities \[2, 3\]"):
        poly.substitute([x, MultiPoly.variable(3, 0)], [[1], [1]])
    with pytest.raises(ValueError, match="a mixing row needs one scalar per polynomial"):
        poly.substitute([x, x], [[1], [1]], [[1]])
    # Q meets F_7 in F_7, by the ring rule
    assert poly.substitute([x, x.reduce_mod(7)], [[1], [1]]) == [MultiPoly(1, {(1,): 1}, 7)] * 2
    with pytest.raises(ValueError, match=r"no one ring for arities \[2\] and primes \[5, 7\]"):
        poly.substitute([x.reduce_mod(5), x.reduce_mod(7)], [[1], [1]])
    # a matrix entry is an int or a Fraction, in either ring
    for P in (x, x.reduce_mod(7)):
        with pytest.raises(TypeError, match="matrix entries are ints or Fractions"):
            poly.substitute([P], [[FpElement(1, 7)], [1]])


# -- exact division on packed keys, against the tuple loop -------------------

def _exact_divide_oracle(P, F):
    """exact_divide on exponent tuples: each step takes the leading term of
    the remainder by grlex_key, builds the quotient monomial as a tuple and
    divides by F's leading coefficient in the field."""
    p, (P, F) = poly.one_ring((P, F))
    f_lead = max(F.terms, key=grlex_key)
    f_lc = F.terms[f_lead]
    f_inv = Fraction(1, f_lc) if p is None else pow(f_lc, -1, p)
    quotient = {}
    rem = dict(P.terms)
    while rem:
        r_lead = max(rem, key=grlex_key)
        diff = tuple(a - b for a, b in zip(r_lead, f_lead))
        if any(d < 0 for d in diff):
            return None
        q_c = rem[r_lead] * f_inv if p is None else rem[r_lead] * f_inv % p
        quotient[diff] = q_c
        for exps, c in F.terms.items():
            tgt = tuple(d + e for d, e in zip(diff, exps))
            s = rem.get(tgt, 0) - q_c * c
            if p is not None:
                s %= p
            if s:
                rem[tgt] = s
            else:
                rem.pop(tgt, None)
    return MultiPoly(P.arity, quotient, p)


# small Fractions, wide ints and wide Fractions over Q, and wide ints read
# mod 7: leading coefficients that are not 1 and need not divide
_division_coeffs = st.one_of(_coeffs, st.integers(-10 ** 6, 10 ** 6),
                             st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 3)))


@st.composite
def _division_cases(draw):
    """(A, B, R) in n <= 4 variables over Q or F_7, B nonzero, each up to
    total degree 9 and not homogeneous in general.  With a drawn flag, A
    and B hold a pure power of one variable at their own total degree, so
    that A * B holds an exponent equal to the largest total degree in the
    division, the value at the limit of a key's field."""
    n, p = draw(st.integers(1, 4)), draw(st.sampled_from((None, 7)))
    coeffs = _division_coeffs if p is None else st.integers(-10 ** 6, 10 ** 6)
    A, B, R = [draw(st.dictionaries(_exponents(n), coeffs, min_size=size, max_size=6))
               for size in (0, 1, 0)]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        for terms in (A, B):
            d = max(map(sum, terms), default=0)
            terms[tuple(d if j == i else 0 for j in range(n))] = draw(st.integers(1, 6))
    A, B, R = [MultiPoly(n, t) if p is None else MultiPoly(n, t).reduce_mod(p) for t in (A, B, R)]
    assume(not B.is_zero)
    return A, B, R


_x = [MultiPoly.variable(2, i) for i in range(2)]
_one = MultiPoly.constant(2, 1)


@settings(max_examples=100)
@given(_division_cases())
@example((_x[0] ** 2, _x[0] + _one, None))
@example((Fraction(1, 2) * _one, 2 * _x[0] + 2 * _one, None))
def test_packed_division_returns_the_cofactor(case):
    # A * B / B is A, and the tuple loop agrees
    A, B, _ = case
    assert exact_divide(A * B, B) == A == _exact_divide_oracle(A * B, B)


@settings(max_examples=100)
@given(_division_cases())
@example((0 * _one, _x[0], _x[1] ** 2))
@example((0 * _one, 2 * _x[0] + _one, _x[0]))
@example((_x[0] ** 3, 3 * _x[0] + 2 * _one, Fraction(1, 3) * _x[1]))
def test_packed_division_equals_the_tuple_oracle(case):
    # A * B + R / B: a quotient exactly when the tuple loop finds one
    A, B, R = case
    P = A * B + R
    got = exact_divide(P, B)
    assert got == _exact_divide_oracle(P, B)
    if got is not None:
        assert got * B == P


@settings(max_examples=40)
@given(_small_polys, _small_polys, _small_polys, st.sampled_from((None, 7)))
def test_gcd_divides_and_cofactors_are_coprime(G, A, B, p):
    # G is a planted common factor; over F_7 everything is reduced first
    if p is not None:
        G, A, B = G.reduce_mod(p), A.reduce_mod(p), B.reduce_mod(p)
    assume(not (G.is_zero or A.is_zero or B.is_zero))
    A, B = G * A, G * B
    g = coefficient_gcd([A, B])
    cofactors = [exact_divide(A, g), exact_divide(B, g)]
    assert None not in cofactors
    assert exact_divide(g, G) is not None
    assert coefficient_gcd(cofactors) == MultiPoly.constant(3, Fraction(1), p)


def _sympy_poly(P):
    """P as an element of sympy's sparse ring over QQ or GF(p)."""
    from sympy import GF, QQ
    from sympy.polys.rings import ring
    domain = QQ if P.p is None else GF(P.p)
    R = ring(["x%d" % i for i in range(P.arity)], domain)[0]
    if P.p is None:
        return R.from_dict({e: QQ(c.numerator, c.denominator) for e, c in P.terms.items()})
    return R.from_dict({e: domain(c) for e, c in P.terms.items()})


@settings(max_examples=40)
@given(_small_polys, _small_polys, _small_polys, st.sampled_from((None, 7)))
def test_gcd_matches_sympy_up_to_a_scalar(G, A, B, p):
    # over Q and F_7, with a planted common factor G
    if p is not None:
        G, A, B = G.reduce_mod(p), A.reduce_mod(p), B.reduce_mod(p)
    assume(not G.is_zero and not (A.is_zero and B.is_zero))
    A, B = G * A, G * B
    expected = _sympy_poly(A).gcd(_sympy_poly(B))
    assert _sympy_poly(coefficient_gcd([A, B])).monic() == expected.monic()



# a planted factor in x0 and x1 only: where an input holds x2, the main
# variable of the gcd, its content in x2 is a multiple of that factor
_x01_polys = st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1), st.just(0)), _coeffs,
                             min_size=1, max_size=3).map(lambda t: MultiPoly(3, t))


@settings(max_examples=30)
@given(_x01_polys, st.lists(_small_polys, min_size=3, max_size=5), st.sampled_from((None, 7)))
def test_coefficient_gcd_matches_sympy_through_a_content(G, polys, p):
    # the fold of _content_and_pp meets a content that is not a constant
    if p is not None:
        G, polys = G.reduce_mod(p), [P.reduce_mod(p) for P in polys]
    assume(G.total_degree() > 0 and any(e[2] for P in polys for e in P.terms))
    polys = [G * P for P in polys]
    expected = functools.reduce(lambda a, b: a.gcd(b), map(_sympy_poly, polys))
    assert _sympy_poly(coefficient_gcd(polys)).monic() == expected.monic()


def test_poly_gcd_meets_a_rational_and_a_modular_input_in_fp():
    # a rational input is read in F_7 in either order, also where the
    # fold returns it as it is: a zero partner, or a divisor of the other
    x = [MultiPoly.variable(3, i) for i in range(3)]
    A = 2 * x[0] + x[1]
    B = (A * (x[0] + x[2])).reduce_mod(7)
    expected = MultiPoly(3, {(1, 0, 0): 1, (0, 1, 0): 4}, 7)  # x0 + 4*x1 mod 7
    for pair in ([A, B], [B, A], [A, MultiPoly.zero(3, 7)], [MultiPoly.zero(3, 7), A]):
        assert coefficient_gcd(pair) == expected, pair
    assert coefficient_gcd([x[0] + x[2], B]) == (x[0] + x[2]).reduce_mod(7)


def test_one_ring_reads_a_rational_input_in_fp():
    # Q meets F_7 in F_7 in every entry of poly: the gcd in either order and
    # in 2 and 3 variables, division and substitution; F_5 meets F_7 nowhere
    for n in (2, 3):
        x = [MultiPoly.variable(n, i) for i in range(n)]
        A = 2 * x[0] + x[1]
        C = x[0] + x[n - 1] * 3
        B = (A * C).reduce_mod(7)
        for pair in ([A, B], [B, A]):
            assert coefficient_gcd(pair) == A.reduce_mod(7).normalized(), pair
        assert poly.one_ring([A, B]) == (7, [A.reduce_mod(7), B])
        assert exact_divide(A * C, B) == MultiPoly.constant(n, 1, 7)
        assert exact_divide(B, A) == C.reduce_mod(7)
        matrix = [[1, Fraction(1, 2)]] * n
        assert poly.substitute([A, B], matrix) == poly.substitute([A.reduce_mod(7), B], matrix)
        assert all(P.p == 7 for P in poly.substitute([A, B], matrix))
        x5, x7 = x[0].reduce_mod(5), x[0].reduce_mod(7)
        for call in (lambda: coefficient_gcd([x5, A, x7]), lambda: exact_divide(x5, x7),
                     lambda: poly.substitute([x5, x7], matrix), lambda: poly.one_ring([x5, x7])):
            with pytest.raises(ValueError, match=r"no one ring for arities \[%d\] and primes \[5, 7\]" % n):
                call()

# -- the line certificate of a unit coefficient gcd --------------------------

def _from_sympy(f, arity, p):
    """A sympy ring element as a MultiPoly over Q (p None) or F_p."""
    to_sympy = f.ring.domain.to_sympy
    return MultiPoly(arity, {e: Fraction(int(r.p), int(r.q)) for e, r in
                             ((e, to_sympy(c)) for e, c in f.terms())}, p)


def _gcd_chain(polys):
    """The oracle: sympy's gcd of the nonzero inputs, iterated with no line
    and no early stop, normalized; it shares no code with poly's gcd."""
    nonzero = [P for P in polys if not P.is_zero]
    g = functools.reduce(lambda a, b: a.gcd(b), map(_sympy_poly, nonzero))
    return _from_sympy(g, nonzero[0].arity, nonzero[0].p).normalized()


def _restrict(P, u, v):
    """P(u + t*v), a polynomial in t, built by plain ring arithmetic."""
    t = MultiPoly.variable(1, 0)
    images = [MultiPoly.constant(1, a, P.p) + t * b for a, b in zip(u, v)]
    out = MultiPoly.zero(1, P.p)
    for exps, c in P.terms.items():
        term = MultiPoly.constant(1, c, P.p)
        for image, e in zip(images, exps):
            term = term * image ** e
        out = out + term
    return out


def _certifies(polys, line):
    # the witness a reader can check: P_1(v) != 0, and the restrictions to
    # the line have a constant gcd
    u, v = line
    restricted = [_restrict(P, u, v) for P in polys]
    return polys[0].evaluate(v) != 0 and _gcd_chain(restricted).total_degree() == 0


def _dense(P):
    """A polynomial in one variable as a dense list, lowest degree first."""
    return [P.terms.get((k,), 0) for k in range(P.total_degree() + 1)]


# coefficients up to about 10^30, ints and Fractions, and points up to
# +-10^6, so that the slots of _on_line hold numbers of a hundred bits
_wide = st.one_of(_coeffs, st.integers(-10 ** 30, 10 ** 30),
                  st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 6)))
_points = st.one_of(st.integers(-3, 3), st.integers(-10 ** 6, 10 ** 6))


@settings(max_examples=150)
@given(st.integers(1, 4), st.sampled_from((None, 5, 7, 11, 31)), st.data())
def test_on_line_equals_the_restriction_oracle(n, p, data):
    # up to four inputs of degree up to 9, the zero polynomial among them;
    # over Q each restriction is scaled by the lcm of its input's
    # denominators, over F_p (integer inputs) it is reduced
    entries = _wide if p is None else st.integers(-10 ** 30, 10 ** 30)
    polys = [MultiPoly(n, terms) if p is None else MultiPoly(n, terms).reduce_mod(p)
             for terms in data.draw(st.lists(st.dictionaries(_exponents(n), entries, max_size=6),
                                             min_size=1, max_size=4))]
    u, v = [data.draw(st.lists(_points, min_size=n, max_size=n)) for _ in range(2)]
    expected = []
    for P in polys:
        scale = 1 if p is not None else math.lcm(*[Fraction(c).denominator for c in P.terms.values()])
        expected.append([c * scale for c in _dense(_restrict(P, u, v))])
    assert poly._on_line(polys, u, v, p) == expected


def test_on_line_holds_a_coefficient_at_the_slot_bound():
    # c * x0^d with u_0 = 0 and |v_0| the largest |u_i| + |v_i| restricts to
    # c * v_0^d * t^d, whose coefficient is +-||P||_1 * 5^d: the bound that
    # sets the slot width, so one bit fewer or an unsigned read of the
    # digits gives another list
    for c, d, v0 in itertools.product((3, -3), (3, 4), (5, -5)):
        P = MultiPoly(2, {(d, 0): c})
        u, v = [0, 1], [v0, 2]
        assert abs(c * v0 ** d) == abs(c) * 5 ** d
        assert poly._on_line([P], u, v, None) == [[0] * d + [c * v0 ** d]]
        assert poly._on_line([P.reduce_mod(31)], u, v, 31) == [[0] * d + [c * v0 ** d % 31]]


def _univariates(p, top):
    """Polynomials in one variable of degree at most top, over Q (int and
    Fraction coefficients) or over F_p."""
    entry = _coeffs if p is None else st.integers(0, p - 1)
    return st.lists(entry, max_size=top + 1).map(
        lambda a: MultiPoly(1, {(k,): c for k, c in enumerate(a)}, p))


@settings(max_examples=80)
@given(st.sampled_from((None, 5, 7, 11, 31)), st.data())
def test_dense_gcd_equals_sympy_with_a_planted_factor(p, data):
    # G * A and G * B, either of them possibly zero: the gcd is sympy's up
    # to a scalar, so it has the same degree, and it comes back monic over
    # F_p and primitive with a positive leading entry over Q
    G, A, B = [data.draw(_univariates(p, top)) for top in (3, 4, 4)]
    assume(not G.is_zero and not (A.is_zero and B.is_zero))
    a, b = _dense(G * A), _dense(G * B)
    g = poly._dense_gcd(a, b, p)
    expected = _sympy_poly(G * A).gcd(_sympy_poly(G * B))
    assert len(g) - 1 == expected.degree() >= G.total_degree()
    assert MultiPoly(1, {(k,): c for k, c in enumerate(g)}, p) == _from_sympy(expected, 1, p).normalized()
    assert all(type(c) is int for c in g)


def test_dense_gcd_takes_integral_fractions():
    # a list of Fractions with denominator 1 is converted to ints like any
    # other, not passed on as Fractions
    g = poly._dense_gcd([Fraction(2), Fraction(4)], [Fraction(1), Fraction(1)], None)
    assert g == [1] and all(type(c) is int for c in g)
    assert poly._dense_gcd([Fraction(-2), Fraction(4)], [Fraction(6), Fraction(-12)], None) == [-1, 2]


def _degree_monomials(n, d):
    return [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]


@st.composite
def _planted_families(draw):
    """2-4 inputs with a planted common factor of degree 0 or 1: forms in
    3 and 4 variables, and in 1 and 2 variables forms in one more variable
    read at that variable = 1, as binary.root_pattern reads a quartic."""
    n = draw(st.sampled_from((1, 2, 3, 4)))
    p = draw(st.sampled_from((None, 5, 7, 11)))

    def form(d):
        support = (_degree_monomials(n, d) if n > 2
                   else [e[:n] for e in _degree_monomials(n + 1, d)])
        terms = draw(st.dictionaries(st.sampled_from(support), _coeffs, min_size=1, max_size=4))
        P = MultiPoly(n, terms)
        return P if p is None else P.reduce_mod(p)

    planted = form(draw(st.integers(0, 1)))
    top = 3 - planted.total_degree()
    return [planted * form(draw(st.integers(0, top))) for _ in range(draw(st.integers(2, 4)))]


@settings(max_examples=80)
@given(_planted_families())
# x1 - 1 and x0*x1 - 1 are coprime, but the second read in x1 alone, the
# main variable of the pair, would be x1 - 1
@example([MultiPoly(2, {(0, 1): 1, (0, 0): -1}), MultiPoly(2, {(1, 1): 1, (0, 0): -1})])
def test_coefficient_gcd_matches_the_gcd_chain(polys):
    # over Q and F_5, F_7, F_11, with and without a planted common factor,
    # against sympy's gcd: in one variable through _dense_gcd, in two
    # through the PRS with univariate contents and, for a pair in the main
    # variable alone, _dense_gcd; in three and four through the line
    # certificate or the PRS
    nonzero = [P for P in polys if not P.is_zero]
    assume(nonzero)
    assert coefficient_gcd(polys) == _gcd_chain(polys)
    line = poly._unit_line(nonzero) if nonzero[0].arity > 2 else None
    if line is not None:
        assert _certifies(nonzero, line)


def test_unit_line_needs_a_point_off_the_first_input():
    # x0^5 x1 - x0 x1^5 vanishes at every point over F_5, so no line is
    # drawn through a point where it does not vanish, and the PRS answers.
    # x0^2 - 2 x1^2 has no zero on most lines at all (2 is not a square
    # mod 5), so only the point condition keeps such a line out.
    x = [MultiPoly.variable(3, i).reduce_mod(5) for i in range(3)]
    everywhere = x[0] ** 5 * x[1] - x[0] * x[1] ** 5
    assert all(everywhere.evaluate(pt) == 0 for pt in itertools.product(range(5), repeat=3))
    unit, factor = [everywhere, x[0] ** 2 - 2 * x[1] ** 2], [everywhere, x[0] * x[2] ** 5]
    assert poly._unit_line(unit) is None and poly._unit_line(factor) is None
    assert coefficient_gcd(unit) == MultiPoly.constant(3, 1, 5)
    assert coefficient_gcd(factor) == x[0]


def test_unit_line_is_only_for_homogeneous_inputs(monkeypatch):
    # (x0 + 1) x1 and (x0 + 1) x2 restrict to coprime forms on a line in
    # x0 = 0, so an inhomogeneous input must never reach the line test
    def no_line(polys):
        raise AssertionError("line test on %r" % (polys,))

    monkeypatch.setattr(poly, "_unit_line", no_line)
    x = [MultiPoly.variable(3, i) for i in range(3)]
    one = MultiPoly.constant(3, Fraction(1))
    for p in (None, 5):
        G, A, B = [P if p is None else P.reduce_mod(p) for P in (x[0] + one, x[1], x[2])]
        assert coefficient_gcd([G * A, G * B]) == G
        assert coefficient_gcd([A * A + G, B]) == MultiPoly.constant(3, Fraction(1), p)


def test_unit_line_skips_inputs_that_vanish_on_it():
    # L vanishes on the line that certifies [P1, P2], so L^2 restricts to
    # zero there; it is skipped and the same line still certifies
    x = [MultiPoly.variable(3, i) for i in range(3)]
    for p in (None, 7):
        P1, P2 = [P if p is None else P.reduce_mod(p)
                  for P in (x[0] ** 2 + x[1] * x[2], x[1] ** 2 - 2 * x[0] * x[2])]
        u, v = poly._unit_line([P1, P2])
        normal = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
        L = MultiPoly(3, {(1, 0, 0): normal[0], (0, 1, 0): normal[1], (0, 0, 1): normal[2]}, p)
        assert not L.is_zero
        assert _restrict(L * L, u, v).is_zero
        line = poly._unit_line([P1, L * L, P2])
        assert _certifies([P1, L * L, P2], line)
        if p is None:  # one line is drawn over Q, the same for both lists
            assert line == (u, v)
        assert coefficient_gcd([P1, L * L, P2]) == MultiPoly.constant(3, Fraction(1), p)


def test_planted_linear_factor_is_never_a_unit():
    rng = random.Random(1006)
    coeff = lambda: rng.randrange(5)
    for _ in range(40):
        n = rng.choice((3, 4))
        L = MultiPoly(n, {e: coeff() for e in _degree_monomials(n, 1)}, 5)
        if L.is_zero:
            continue
        polys = [L * MultiPoly(n, {e: coeff() for e in _degree_monomials(n, rng.randint(1, 3))}, 5)
                 for _ in range(rng.randint(2, 4))]
        if all(P.is_zero for P in polys):
            continue
        assert poly._unit_line([P for P in polys if not P.is_zero]) is None
        assert exact_divide(coefficient_gcd(polys), L) is not None


# The unit-gcd benchmark's base inclusions of a hyperplane, one per prime,
# each with the line that certified its restriction before restrictions
# were taken on packed ints: the line is the certificate's witness, so the
# kernels must draw and accept the same one.
_PINNED_LINES = {
    5: ([[3, 2, 1, -2], [3, 1, -2, 2], [-2, 1, -2, -3], [1, -3, 3, -1], [-2, 2, -1, -3]],
        ([1, 2, 3, 1], [1, 0, 1, 3])),
    7: ([[1, -1, 2, 1], [2, 2, -3, 2], [-1, 1, 1, 3], [2, 3, 1, 3], [2, -3, -1, -3]],
        ([6, 0, 1, 3], [5, 4, 3, 5])),
    11: ([[2, -1, 3, 1], [-1, -3, 2, -1], [3, 1, -2, 2], [1, 1, 2, 3], [-2, -1, -2, 3]],
         ([3, 4, 10, 7], [2, 3, 1, 3])),
    13: ([[3, -1, -3, -2], [-2, 1, -1, 2], [3, 3, 3, 3], [1, 2, -3, -3], [-2, 1, 3, 2]],
         ([1, 3, 6, 10], [9, 6, 11, 5])),
    31: ([[3, -1, -2, -2], [3, -2, 1, 3], [2, 3, 2, 3], [2, 3, -1, -1], [3, -2, 2, 1]],
         ([7, 8, 23, 21], [15, 24, 4, 6])),
}


def test_unit_line_witnesses_are_pinned():
    from jpencil.exceptional import build_omega4, restrict_to_hyperplane
    omega4 = build_omega4()
    for p, (inclusion, line) in _PINNED_LINES.items():
        reduced = [P.reduce_mod(p) for P in restrict_to_hyperplane(omega4, inclusion).coefficients()]
        assert poly._unit_line([P for P in reduced if not P.is_zero]) == line, p
    # over Q, on the restriction by the inclusion pinned for p = 5
    restricted = restrict_to_hyperplane(omega4, _PINNED_LINES[5][0]).coefficients()
    assert poly._unit_line([P for P in restricted if not P.is_zero]) == ([-2, -1, 2, 2], [0, 3, -2, -2])

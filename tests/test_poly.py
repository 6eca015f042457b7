"""Scalar and polynomial kernel: exactness, order, division, gcd."""

import random
from fractions import Fraction

import pytest

from jpencil.poly import (
    FpElement,
    MultiPoly,
    coefficient_gcd,
    exact_divide,
    grlex_key,
    poly_gcd,
)


def test_fp_element_arithmetic():
    a = FpElement(3, 7)
    b = FpElement(5, 7)
    assert (a + b).v == 1
    assert (a - b).v == 5
    assert (a * b).v == 1
    assert (a / b).v == (3 * pow(5, -1, 7)) % 7
    assert (a ** 6).v == 1
    assert (-a).v == 4
    assert a + 4 == FpElement(0, 7)
    assert 1 - a == FpElement(5, 7)


def test_fp_element_small_prime_rejected():
    with pytest.raises(ValueError):
        FpElement(1, 3)


def test_fp_element_modulus_mismatch():
    with pytest.raises(ValueError):
        FpElement(1, 5) + FpElement(1, 7)


def test_equal_scalars_hash_equal():
    values = [FpElement(v, p) for p in (5, 7) for v in range(-3, 10)]
    values += list(range(-3, 10)) + [Fraction(v, d) for v in range(-3, 10) for d in (1, 2, 5)]
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    for a in range(5):
        for b in range(7):
            assert FpElement(a, 5) != FpElement(b, 7)
    # an element of F_p equals no int, so a reduction never equals its source
    x = MultiPoly.variable(2, 0)
    assert (6 * x).reduce_mod(5) != 6 * x
    assert len({(6 * x).reduce_mod(5), 6 * x}) == 2
    assert len({(6 * x).reduce_mod(5), x * FpElement(1, 5)}) == 1


def test_grlex_order_is_degree_then_lex():
    # x0*x3^3 before x2^2*x3^2: same degree, lex on exponents from x0
    lo = grlex_key((0, 0, 2, 2))
    hi = grlex_key((1, 0, 0, 3))
    assert hi > lo
    assert grlex_key((2, 0)) > grlex_key((1, 1)) > grlex_key((0, 2))
    assert grlex_key((0, 2)) > grlex_key((1, 0))


def test_ring_axioms_random():
    rng = random.Random(1001)

    def rand_poly():
        P = MultiPoly.zero(3)
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            P = P + MultiPoly.monomial(3, exps, c)
        return P

    for _ in range(25):
        A, B, C = rand_poly(), rand_poly(), rand_poly()
        assert A + B == B + A
        assert A * B == B * A
        assert (A + B) * C == A * C + B * C
        assert A * (B * C) == (A * B) * C
        assert A - A == MultiPoly.zero(3)


def test_partial_derivative_product_rule():
    rng = random.Random(1002)
    for _ in range(10):
        A = MultiPoly.monomial(2, (rng.randint(0, 3), rng.randint(0, 3)),
                               Fraction(rng.randint(1, 5)))
        B = MultiPoly.monomial(2, (rng.randint(0, 3), rng.randint(0, 3)),
                               Fraction(rng.randint(-5, -1)))
        for i in range(2):
            lhs = (A * B).partial_derivative(i)
            rhs = A.partial_derivative(i) * B + A * B.partial_derivative(i)
            assert lhs == rhs


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
    assert Pp.evaluate((FpElement(3, 7), FpElement(4, 7))) == FpElement(24, 7)


def test_linear_substitute_composes():
    x0 = MultiPoly.variable(2, 0)
    x1 = MultiPoly.variable(2, 1)
    P = x0 * x0 - x1 * x1
    # x0 -> y0 + y1, x1 -> y0 - y1 gives 4 y0 y1
    matrix = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    Q = P.linear_substitute(matrix)
    assert Q == MultiPoly.monomial(2, (1, 1), Fraction(4))


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
    assert N.leading_coefficient() == FpElement(1, 7)


def _rand_rational_poly(rng, arity=3):
    P = MultiPoly.zero(arity)
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 2) for _ in range(arity))
        P = P + MultiPoly.monomial(arity, exps, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
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
        t = FpElement(rng.randint(1, 6), 7)
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
    assert (x0 * Fraction(3, 4)).reduce_mod(7) == x0 * FpElement(6, 7)
    assert (x0 * 5).reduce_mod(5).is_zero
    with pytest.raises(ValueError):
        (x0 * Fraction(1, 10)).reduce_mod(5)
    with pytest.raises(ValueError):
        (x0 * FpElement(1, 7)).reduce_mod(5)
    assert FpElement.from_rational(FpElement(3, 7), 7) == FpElement(3, 7)
    with pytest.raises(ValueError):
        FpElement(1, 5) * Fraction(1, 5)


def test_exact_divide_and_failure():
    x0 = MultiPoly.variable(2, 0)
    x1 = MultiPoly.variable(2, 1)
    P = (x0 + x1) * (x0 - x1)
    assert exact_divide(P, x0 + x1) == x0 - x1
    assert exact_divide(P, x0) is None
    assert exact_divide(MultiPoly.zero(2), x0) == MultiPoly.zero(2)


def test_poly_gcd_known_factors():
    x0 = MultiPoly.variable(2, 0)
    x1 = MultiPoly.variable(2, 1)
    A = (x0 + x1) ** 2 * (x0 - x1)
    B = (x0 + x1) * (x0 + 2 * x1)
    assert poly_gcd(A, B) == x0 + x1
    # coprime inputs give a unit
    assert poly_gcd(x0, x1) == MultiPoly.constant(2, Fraction(1))


def test_poly_gcd_random_products():
    rng = random.Random(1003)
    x0 = MultiPoly.variable(2, 0)
    x1 = MultiPoly.variable(2, 1)
    for _ in range(10):
        G = x0 * rng.randint(1, 3) + x1 * rng.randint(1, 3)
        A = G * (x0 + rng.randint(1, 4) * x1)
        B = G * (x0 - rng.randint(1, 4) * x1)
        got = poly_gcd(A, B)
        assert exact_divide(got, G.normalized()) is not None


def test_coefficient_gcd():
    x = [MultiPoly.variable(3, i) for i in range(3)]
    polys = [x[2] * x[0] * 2, x[2] * x[1] * 4, x[2] * x[2] * 6]
    assert coefficient_gcd(polys) == x[2]

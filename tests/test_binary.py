"""Binary quartics: invariants, j, root patterns, flags, the oracle."""

import os
import random
from fractions import Fraction

import pytest

from jpencil import binary, cli
from jpencil.binary import (
    BinaryForm,
    cubic_discriminant_plain,
    discriminant_oracle,
    discriminant_scale,
    form_from_divisor,
    invariant_polys,
    invariants_qcd,
    j_invariant,
    linear_form_of_point,
    osculating_flag,
    root_pattern,
    veronese,
)
from jpencil.linalg import bareiss_rank
from jpencil.poly import FpElement, MultiPoly, substitute
from jpencil.polytext import parse_poly

DATA = os.path.join(os.path.dirname(__file__), "data")


def _sympy_partials_resultant_and_D():
    """sympy's resultant of dF/dt0 and dF/dt1 for the generic divided
    quartic F, and jpencil's invariant D, both as sympy polynomials in
    a0..a4."""
    import sympy
    a = sympy.symbols("a0:5")
    t0, t1 = sympy.symbols("t0 t1")
    F = sum(sympy.binomial(4, i) * a[i] * t0 ** (4 - i) * t1 ** i for i in range(5))
    resultant = sympy.resultant(sympy.diff(F, t0).subs(t1, 1),
                                sympy.diff(F, t1).subs(t1, 1), t0)
    D = sum(sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(x ** e for x, e in zip(a, exps)))
            for exps, c in invariant_polys().D.terms.items())
    return sympy.Poly(resultant, *a), sympy.Poly(D, *a)


def test_divided_plain_round_trip():
    F = BinaryForm([Fraction(1), Fraction(2), Fraction(0), Fraction(-1), Fraction(3)])
    assert BinaryForm.from_plain(F.plain_coefficients()) == F
    assert F.plain_coefficients() == (Fraction(1), Fraction(8), Fraction(0),
                                      Fraction(-4), Fraction(3))


def test_from_poly():
    F = BinaryForm([Fraction(0), Fraction(1), Fraction(0), Fraction(-1), Fraction(0)])
    P = parse_poly("4*t0^3*t1 - 4*t0*t1^3", ("t0", "t1"))
    assert BinaryForm.from_poly(P) == F


def test_linear_form_of_point():
    assert linear_form_of_point((Fraction(2), Fraction(3))) == parse_poly(
        "2*t0 + 3*t1", ("t0", "t1"))


def test_veronese_values():
    assert veronese(4, (Fraction(1), Fraction(1))).coeffs == (1, 1, 1, 1, 1)
    assert veronese(2, (Fraction(1), Fraction(2))).coeffs == (1, 2, 4)
    assert veronese(4, (Fraction(1), Fraction(2))).coeffs == (1, 2, 4, 8, 16)


def test_form_from_divisor_examples():
    F = form_from_divisor([((1, 0), 3), ((0, 1), 1)])
    assert F.coeffs == (0, 1, 0, 0, 0)
    G = form_from_divisor([((1, 0), 2), ((0, 1), 2)])
    assert G.coeffs == (0, 0, 1, 0, 0)
    harmonic = form_from_divisor([((1, 0), 1), ((0, 1), 1), ((1, -1), 1), ((1, 1), 1)])
    assert harmonic.coeffs == (0, 1, 0, -1, 0)


def test_invariants_reference_values():
    inv = invariants_qcd(BinaryForm([0, 1, 0, -1, 0]))
    assert (inv.Q, inv.C, inv.D) == (4, 0, 64)
    inv2 = invariants_qcd(BinaryForm([0, 0, 1, 0, 0]))
    assert (inv2.Q, inv2.C, inv2.D) == (3, -1, 0)


def test_normalized_ignores_scalar_factors():
    rng = random.Random(2004)
    for _ in range(20):
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)]
        if not any(coeffs):
            continue
        F = BinaryForm(coeffs)
        s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        assert BinaryForm([c * s for c in coeffs]).normalized() == F.normalized()
        N = F.normalized()
        assert all(c.denominator == 1 for c in N.coeffs)
        assert next(c for c in N.coeffs if c) > 0


def test_invariant_weights_under_transform():
    rng = random.Random(5001)
    for _ in range(10):
        while True:
            m = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
            if det:
                break
        F = BinaryForm([Fraction(rng.randint(-4, 4)) for _ in range(5)])
        # the substitution t_i -> sum_j m[i][j] t_j
        P = MultiPoly(2, {(4 - i, i): c for i, c in enumerate(F.plain_coefficients())})
        G = BinaryForm.from_poly(substitute([P], m)[0])
        inv_f = invariants_qcd(F)
        inv_g = invariants_qcd(G)
        assert inv_g.Q == det ** 4 * inv_f.Q
        assert inv_g.C == det ** 6 * inv_f.C
        assert inv_g.D == det ** 12 * inv_f.D


def test_syzygy_by_construction():
    inv = invariant_polys()
    assert inv.D == inv.Q ** 3 - 27 * inv.C ** 2


def test_j_values():
    harmonic = BinaryForm([0, 1, 0, -1, 0])
    assert j_invariant(harmonic) == Fraction(1)
    assert j_invariant(harmonic, "CLASSICAL") == 1728
    # D = 0, Q != 0: the fiber at infinity
    assert j_invariant(BinaryForm([0, 0, 1, 0, 0])) == "INFINITY"
    # Q = C = 0: base locus, j undefined
    assert j_invariant(BinaryForm([0, 1, 0, 0, 0])) == "INDETERMINATE"


def test_root_patterns():
    cases = [
        ("t0^4", (4,), "VERONESE"),
        ("t0^3*t1", (3, 1), "TANGENT"),
        ("t0^2*t1^2", (2, 2), "BITANGENT-NODE"),
        ("t0^2*t1*(t0 - t1)", (2, 1, 1), "ONE-DOUBLE"),
        ("t0*t1*(t0 - t1)*(t0 + t1)", (1, 1, 1, 1), "SIMPLE"),
    ]
    for text, mults, cls in cases:
        F = BinaryForm.from_poly(parse_poly(text, ("t0", "t1")))
        pat = root_pattern(F)
        assert pat.multiplicities == mults
        assert pat.orbit_class == cls


def test_root_pattern_irrational_roots():
    # t0^4 - t1^4 has two rational and two conjugate simple roots
    F = BinaryForm.from_poly(parse_poly("t0^4 - t1^4", ("t0", "t1")))
    assert root_pattern(F).multiplicities == (1, 1, 1, 1)


def test_root_pattern_refuses_a_gcd_that_does_not_lower_the_degree(monkeypatch):
    # a faulty gcd that returns its first input would keep the square-free
    # chain at one degree forever; the chain refuses it at the first step,
    # with an error that the CLI does not read as bad input
    calls = []

    def first_input(polys):
        calls.append(polys)
        return polys[0]

    monkeypatch.setattr(binary, "coefficient_gcd", first_input)
    F = BinaryForm.from_poly(parse_poly("t0^2*t1*(t0 - t1)", ("t0", "t1")))
    with pytest.raises(ArithmeticError, match="square-free chain") as info:
        root_pattern(F)
    assert not isinstance(info.value, ValueError)
    assert len(calls) == 1
    # so `classify` fails as a fault, not with exit 3
    with pytest.raises(ArithmeticError, match="square-free chain"):
        cli.run(["classify", "t0^2*t1*(t0 - t1)"])


def test_discriminant_oracle_constant_golden():
    with open(os.path.join(DATA, "discriminant_constant.txt")) as fh:
        frozen = Fraction(fh.read().strip())
    assert discriminant_scale() == frozen
    # symbolic certificate: sympy's resultant of the partials of the generic
    # quartic is 4096 * D
    import sympy
    resultant, D = _sympy_partials_resultant_and_D()
    assert resultant == D * sympy.Rational(frozen.numerator, frozen.denominator)


def test_discriminant_oracle_random():
    rng = random.Random(5002)
    for _ in range(20):
        F = BinaryForm([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                        for _ in range(5)])
        inv = invariants_qcd(F)
        assert discriminant_oracle(F) == 4096 * inv.D


def test_degree_two_oracle_proportional():
    # divided quadratic a0 t0^2 + 2 a1 t0 t1 + a2 t1^2: resultant of the
    # partials is 4(a0 a2 - a1^2)
    rng = random.Random(5003)
    for _ in range(20):
        a = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        assert discriminant_oracle(BinaryForm(a)) == 4 * (a[0] * a[2] - a[1] * a[1])


def test_cubic_discriminant_plain():
    assert cubic_discriminant_plain(1, -3, 3, -1) == 0
    assert cubic_discriminant_plain(0, 1, 0, -1) == 4
    assert cubic_discriminant_plain(1, 0, 0, -1) == -27


def test_osculating_flag_at_chart_point():
    flag = osculating_flag((Fraction(1), Fraction(0)))
    a = [MultiPoly.variable(5, i) for i in range(5)]
    assert flag.hyperplane == [a[4]]
    assert flag.plane == [a[4], a[3]]
    assert flag.line == [a[4], a[3], a[2]]


def _functional_rank(functionals):
    return bareiss_rank([[func.evaluate([int(i == j) for j in range(5)]) for i in range(5)]
                         for func in functionals])


def test_osculating_flag_functionals_vanish_on_divisors():
    rng = random.Random(5003)
    points = [(1, 0), (0, 1), (2, 3), (-1, 2), (Fraction(1, 3), Fraction(-5, 2))]
    points += [(rng.randint(-3, 3), 1) for _ in range(5)]
    others = [(1, 1), (1, -2), (3, 1), (1, 4), (0, 1), (1, 0)]
    for p in points:
        flag = osculating_flag(p)
        # two points distinct from p in P^1
        q, r = [o for o in others if p[0] * o[1] != p[1] * o[0]][:2]
        once = form_from_divisor([(p, 1), (q, 2), (r, 1)])
        twice = form_from_divisor([(p, 2), (q, 1), (r, 1)])
        thrice = form_from_divisor([(p, 3), (q, 1)])
        for k, (functionals, vanishing, short) in enumerate(
                [(flag.hyperplane, once, None), (flag.plane, twice, once),
                 (flag.line, thrice, twice)], start=1):
            assert _functional_rank(functionals) == k, (p, k)
            assert all(func.evaluate(vanishing.coeffs) == 0 for func in functionals), (p, k)
            # multiplicity exactly k - 1 does not satisfy the k-th conditions
            if short is not None:
                assert any(func.evaluate(short.coeffs) != 0 for func in functionals), (p, k)


def test_degree_guard():
    with pytest.raises(ValueError):
        invariants_qcd(BinaryForm([Fraction(1), Fraction(0), Fraction(1)]))
    with pytest.raises(ValueError):
        osculating_flag((Fraction(0), Fraction(0)))
    # binary forms live over Q; an element of F_p is not a coefficient
    with pytest.raises(TypeError):
        BinaryForm([FpElement(1, 7)] * 5)

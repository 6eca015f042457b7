"""Acceptance gate: the eleven certificates, one test per criterion.

Every assertion is exact; nothing is sampled with a tolerance.  Randomized
suites draw from seeded generators so a failure is reproducible verbatim.
"""

import os
import random
from fractions import Fraction

from jpencil.binary import (BinaryForm, discriminant_oracle, discriminant_scale,
                            form_from_divisor, invariant_polys, invariants_qcd,
                            j_invariant, root_pattern)
from jpencil.components import (build_linear_pullback, build_logarithmic,
                                build_rational)
from jpencil.exceptional import (affine_fields, build_omega4,
                                 check_double_tangency, contract_volume,
                                 derive_omega_bar, reference_form,
                                 restrict_to_hyperplane, tangent_system_dim,
                                 tangent_system_matrices)
from jpencil.exterior import (PolyVectorField, descends_check, differential,
                              euler_field, exterior_derivative,
                              integrability_check, interior_product,
                              lie_derivative)
from jpencil.linalg import bareiss_rank, mat_vec
from jpencil.poly import MultiPoly, coefficient_gcd, substitute
from jpencil.varietyprobe import PointSet, stratum_points, zero_locus

DATA = os.path.join(os.path.dirname(__file__), "data")
PRIMES = (5, 7, 11, 13)


def _rand_homogeneous(rng, arity, degree):
    P = MultiPoly.zero(arity)
    for _ in range(rng.randint(2, 5)):
        exps = [0] * arity
        for _ in range(degree):
            exps[rng.randrange(arity)] += 1
        P = P + MultiPoly(arity, {tuple(exps): Fraction(rng.randint(-4, 4))})
    if P.is_zero:
        P = MultiPoly(arity, {tuple([degree] + [0] * (arity - 1)): Fraction(1)})
    return P


def _certified(omega):
    return descends_check(omega).ok and integrability_check(omega).ok


def test_criterion_01_symbolic_certificates():
    inv = invariant_polys()
    omega4 = build_omega4()
    assert _certified(omega4)
    assert _certified(reference_form())
    fields = affine_fields(4)
    assert _certified(contract_volume(fields.X, fields.Y))
    # the transposed combination does not descend; its Euler contraction
    # is 5QC, which pins the orientation of the pencil form
    transposed = differential(inv.C) * (3 * inv.Q) - differential(inv.Q) * (2 * inv.C)
    contracted = interior_product(euler_field(5), transposed)
    assert contracted.terms[()] == 5 * inv.Q * inv.C


def test_criterion_02_constructor_suite():
    rng = random.Random(9002)
    for _ in range(20):
        arity = rng.choice((4, 5))
        d1 = rng.randint(1, 3)
        d2 = rng.randint(1, 5 + 1 - d1)
        omega = build_rational(_rand_homogeneous(rng, arity, d1),
                               _rand_homogeneous(rng, arity, d2))
        assert _certified(omega)
    for _ in range(20):
        arity = rng.choice((4, 5))
        count = rng.choice((3, 4))
        factors = [_rand_homogeneous(rng, arity, 1) for _ in range(count)]
        weights = [Fraction(rng.randint(-3, 3)) for _ in range(count - 1)]
        weights.append(-sum(weights))
        if not any(weights):
            weights[0] += 1
            weights[-1] -= 1
        omega = build_logarithmic(factors, weights)
        assert _certified(omega)
    for _ in range(20):
        arity = rng.choice((4, 5))
        eta = build_rational(_rand_homogeneous(rng, 3, 2),
                             _rand_homogeneous(rng, 3, 1))
        while True:
            matrix = [[Fraction(rng.randint(-2, 2)) for _ in range(arity)]
                      for _ in range(3)]
            if bareiss_rank(matrix) == 3:
                break
        omega = build_linear_pullback(matrix, eta)
        assert _certified(omega)


def test_criterion_03_discriminant_oracle():
    with open(os.path.join(DATA, "discriminant_constant.txt"), encoding="ascii") as fh:
        c = Fraction(fh.read().strip())
    assert discriminant_scale() == c
    rng = random.Random(9003)
    for _ in range(200):
        F = BinaryForm([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                        for _ in range(5)])
        inv = invariants_qcd(F)
        assert discriminant_oracle(F) == c * inv.D
    inv = invariant_polys()
    assert inv.D == inv.Q ** 3 - 27 * inv.C ** 2
    # the identity itself, against an independent oracle: sympy's resultant
    # of the partials of the generic quartic is c * D as a polynomial
    import sympy
    a = sympy.symbols("a0:5")
    t0, t1 = sympy.symbols("t0 t1")
    quartic = sum(sympy.binomial(4, i) * a[i] * t0 ** (4 - i) * t1 ** i for i in range(5))
    resultant = sympy.resultant(sympy.diff(quartic, t0).subs(t1, 1),
                                sympy.diff(quartic, t1).subs(t1, 1), t0)
    D = sum(sympy.Rational(coeff.numerator, coeff.denominator)
            * sympy.Mul(*(x ** e for x, e in zip(a, exps)))
            for exps, coeff in inv.D.terms.items())
    assert sympy.Poly(resultant, *a) == sympy.Poly(sympy.Rational(c.numerator, c.denominator) * D, *a)


def test_criterion_04_pipeline_fingerprint():
    report = derive_omega_bar()
    assert report.factor == MultiPoly.variable(4, 3)
    assert report.omega_bar.coefficient_degrees() == [3]
    assert report.omega_bar.has_homogeneous_coefficients()
    assert _certified(report.omega_bar)


def test_criterion_05_tangent_dimension():
    forms = [reference_form(), derive_omega_bar().omega_bar]
    fields = affine_fields(4)
    forms.append(contract_volume(fields.X, fields.Y))
    for omega in forms:
        report = tangent_system_dim(omega)
        assert report.ambient_dim == 45
        assert report.raw_kernel_dim == 14
        assert report.projective_dim == 13
        assert report.contains_omega_bar is True

    bar = forms[1]
    euler_rows, integ_rows, mono3 = tangent_system_matrices(bar)
    rng = random.Random(9005)
    x = [MultiPoly.variable(4, i) for i in range(4)]
    for _ in range(5):
        coeffs = [sum((Fraction(rng.randint(-3, 3)) * x[j] for j in range(4)),
                      MultiPoly.zero(4)) for _ in range(4)]
        moved = lie_derivative(PolyVectorField(coeffs), bar)
        vec = []
        for s in range(4):
            coeff = moved.terms.get((s,), MultiPoly.zero(4))
            vec.extend(coeff.terms.get(m, Fraction(0)) for m in mono3)
        assert not any(mat_vec(euler_rows, vec))
        assert not any(mat_vec(integ_rows, vec))


def test_criterion_06_singular_point():
    # Over Q the coefficients of d(omega_bar) have the single common zero
    # (0:0:1:0), by an elimination chain on three of them: c * x_v^2 with
    # the earlier variables set to zero forces x_v = 0, and x2 is left.
    # The chain holds over F_p for every p prime to its constants c; at a
    # p dividing one (p = 5: the dx1^dx2 coefficient is -5*x3^2) the
    # reduction is bad and the F_p locus may be larger (six points at 5).
    d_ref = exterior_derivative(reference_form())
    coefficients = list(d_ref.terms.values())
    x = [MultiPoly.variable(4, i) for i in range(4)]
    point = (0, 0, 1, 0)
    # (coefficient of dx_i^dx_j, constant c, forced variable v)
    chain = [((1, 2), -5, 3), ((2, 3), 1, 0), ((0, 3), -3, 1)]
    forced = []
    for key, c, v in chain:
        keep = [[Fraction(int(i == j and i not in forced)) for j in range(4)]
                for i in range(4)]
        [restricted] = substitute([d_ref.terms[key]], keep)
        assert restricted == c * x[v] ** 2, (key, forced, restricted)
        forced.append(v)
    assert [i for i in range(4) if i not in forced] == [2]
    assert all(P.evaluate([Fraction(t) for t in point]) == 0 for P in coefficients)

    bad_primes = [p for p in PRIMES if any(c % p == 0 for _, c, _ in chain)]
    good_primes = [p for p in PRIMES if p not in bad_primes]
    assert (bad_primes, good_primes) == ([5], [7, 11, 13])
    for p in PRIMES:
        locus = zero_locus(coefficients, 3, p)
        if p in bad_primes:
            assert point in locus
        else:
            assert locus == PointSet(p, 3, [point]), (
                "p=%d: singular set of the derivative has %d points: %s"
                % (p, len(locus), ", ".join(str(pt) for pt in locus)))


def test_criterion_07_singular_curve():
    bar = derive_omega_bar().omega_bar
    for p in PRIMES:
        union = stratum_points("P1P", p).union(stratum_points("X2", p)).union(
            stratum_points("X3", p))
        locus = zero_locus(bar.coefficients(), 3, p)
        assert locus == union
        assert len(locus) == 3 * p + 1


def test_criterion_08_base_locus_and_pencil_singularities():
    inv = invariant_polys()
    omega4 = build_omega4()
    partials = [inv.D.partial_derivative(i) for i in range(5)]
    for p in (5, 7):
        tbar = stratum_points("TBAR", p)
        nbar = stratum_points("NBAR", p)
        x4 = stratum_points("X4", p)
        assert zero_locus([inv.Q, inv.C], 4, p) == tbar
        assert len(tbar) == (p + 1) ** 2
        pencil_sing = zero_locus(omega4.coefficients(), 4, p)
        assert pencil_sing == tbar.union(nbar)
        assert tbar.intersection(nbar) == x4
        assert zero_locus([inv.D] + partials, 4, p) == tbar.union(nbar)


def test_criterion_09_double_tangency():
    report = check_double_tangency()
    assert report.constant == 16
    assert report.identity_ok is True
    assert report.multiplicity_exactly_two is True


def test_criterion_10_generic_hyperplane_contrast():
    # Unit gcd is certified after reduction mod 5: a nonconstant common
    # factor over Q would stay homogeneous of its full degree mod p and
    # divide every surviving reduction, so a constant gcd mod p is an
    # exact proof, at a fraction of the cost of the rational computation.
    omega4 = build_omega4()
    rng = random.Random(9010)
    for _ in range(5):
        while True:
            inclusion = [[Fraction(rng.randint(-3, 3)) for _ in range(4)]
                         for _ in range(5)]
            if bareiss_rank(inclusion) == 4:
                break
        restricted = restrict_to_hyperplane(omega4, inclusion)
        assert not restricted.is_zero
        reduced = [c.reduce_mod(5) for c in restricted.coefficients()]
        nonzero = [P for P in reduced if not P.is_zero]
        assert nonzero
        assert coefficient_gcd(nonzero).total_degree() == 0


def test_criterion_11_orbit_classification():
    table = [
        ([((1, 0), 4)], (4,), "VERONESE"),
        ([((1, 0), 3), ((0, 1), 1)], (3, 1), "TANGENT"),
        ([((1, 0), 2), ((0, 1), 2)], (2, 2), "BITANGENT-NODE"),
        ([((1, 0), 2), ((0, 1), 1), ((1, 1), 1)], (2, 1, 1), "ONE-DOUBLE"),
        ([((1, 0), 1), ((0, 1), 1), ((1, 1), 1), ((1, -1), 1)], (1, 1, 1, 1), "SIMPLE"),
    ]
    forms = []
    for divisor, mults, label in table:
        F = form_from_divisor(divisor)
        forms.append(F)
        pattern = root_pattern(F)
        assert pattern.multiplicities == mults
        assert pattern.orbit_class == label
    inv = [invariants_qcd(F) for F in forms]
    assert inv[1] == (0, 0, 0)
    assert inv[2].D == 0 and inv[2].Q != 0
    assert inv[3].D == 0
    harmonic = j_invariant(forms[4], normalization="CLASSICAL")
    assert isinstance(harmonic, Fraction) and harmonic == 1728

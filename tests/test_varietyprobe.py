"""Finite-field point sets: enumeration, loci, and stratum images."""

import random
from fractions import Fraction

import pytest

from jpencil import varietyprobe
from jpencil.binary import invariant_polys
from jpencil.exceptional import build_omega4, derive_omega_bar
from jpencil.poly import MultiPoly
from jpencil.polytext import parse_poly
from jpencil.varietyprobe import (
    BadPrimeError,
    PointSet,
    compare_sets,
    is_prime,
    normalize_point,
    stratum_points,
    zero_locus,
)

PRIMES = (5, 7, 11, 13)


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(-7)


def test_bad_primes_rejected():
    for p in (4, 3, 1, 9):
        with pytest.raises(BadPrimeError):
            zero_locus([], 1, p)
        with pytest.raises(BadPrimeError):
            stratum_points("X4", p)
        with pytest.raises(BadPrimeError):
            PointSet(p, 1)


def test_normalize_point():
    assert normalize_point((2, 4, 0), 5) == (1, 2, 0)
    assert normalize_point((0, 0, 3), 7) == (0, 0, 1)
    assert normalize_point((10, 1), 5) == (0, 1)
    with pytest.raises(ValueError):
        normalize_point((0, 5, 10), 5)


def test_normalize_point_needs_a_prime():
    # mod 9, (2, 4) would scale to (1, 2) and (3, 6) has no invertible base
    for pt in ((2, 4), (3, 6)):
        with pytest.raises(BadPrimeError, match="need a prime p >= 5"):
            normalize_point(pt, 9)


def test_strata_do_not_enumerate_loci(monkeypatch):
    # a stratum's parameters walk P^1 or P^2 directly, so zero_locus runs
    # only for the loci themselves
    calls = []

    def counting(*args):
        calls.append(args)
        return zero_locus(*args)

    monkeypatch.setattr(varietyprobe, "zero_locus", counting)
    for stratum in varietyprobe.STRATA:
        assert len(stratum_points(stratum, 5)) > 0
    assert calls == []


def test_projective_point_counts():
    # the locus of no conditions is all of P^n(F_p)
    assert len(zero_locus([], 1, 5)) == 6
    assert len(zero_locus([], 2, 5)) == 31
    assert len(zero_locus([], 3, 5)) == 156
    assert len(zero_locus([], 4, 7)) == 2801
    with pytest.raises(ValueError):
        zero_locus([], 4, 37)  # over the point cap


def test_point_set_operations():
    A = PointSet(5, 1, [(1, 0), (1, 1)])
    B = PointSet(5, 1, [(2, 2), (0, 1)])  # (2,2) normalizes to (1,1)
    assert len(A.union(B)) == 3
    assert A.intersection(B) == PointSet(5, 1, [(1, 1)])
    assert A.difference(B) == PointSet(5, 1, [(1, 0)])
    assert (3, 3) in A
    assert (1, 2) not in A
    assert list(A) == [(1, 0), (1, 1)]
    with pytest.raises(ValueError):
        A.union(PointSet(7, 1, []))
    with pytest.raises(ValueError):
        A.union(PointSet(5, 2, []))
    with pytest.raises(ValueError):
        PointSet(5, 2, [(1, 0)])


def test_zero_locus_line():
    x0 = MultiPoly.variable(3, 0)
    line = zero_locus([x0], 2, 5)
    assert len(line) == 6
    assert all(pt[0] == 0 for pt in line)


def test_zero_locus_input_handling():
    x0 = MultiPoly.variable(3, 0)
    with pytest.raises(ValueError):
        zero_locus([MultiPoly.variable(2, 0)], 2, 5)
    with pytest.raises(BadPrimeError):
        zero_locus([x0 * Fraction(1, 5)], 2, 5)
    with pytest.raises(BadPrimeError):
        zero_locus([x0.reduce_mod(7)], 2, 5)
    # a polynomial that dies mod p imposes no condition
    assert len(zero_locus([x0 * 5], 2, 5)) == 31
    assert len(zero_locus([], 2, 5)) == 31


def test_zero_locus_matches_direct_evaluation():
    rng = random.Random(8001)

    def quadric(names):
        terms = " + ".join("%d*%s*%s" % (rng.randint(1, 4), rng.choice(names), rng.choice(names))
                           for _ in range(3))
        return parse_poly(terms, names)

    for p in PRIMES:
        for n in (2, 3):
            names = tuple("x%d" % i for i in range(n + 1))
            # vanishes mod p, so it imposes no condition between the two quadrics
            vanishing = parse_poly("%d*x0^2*x%d" % (p, n), names)
            for polys in ([quadric(names)], [quadric(names), vanishing, quadric(names)]):
                locus = zero_locus(polys, n, p)
                for pt in zero_locus([], n, p):
                    values = [P.evaluate(tuple(Fraction(c) for c in pt)) for P in polys]
                    assert (pt in locus) == all(v % p == 0 for v in values)


def test_stratum_counts():
    for p in PRIMES:
        assert len(stratum_points("X4", p)) == p + 1
        assert len(stratum_points("TBAR", p)) == (p + 1) ** 2
        assert len(stratum_points("NBAR", p)) == p * p + p + 1
        for chart in ("P1P", "X2", "X3"):
            assert len(stratum_points(chart, p)) == p + 1
    for p in (5, 7):
        assert len(stratum_points("SECANT", p)) == p ** 3 + p ** 2 + p + 1
        assert len(stratum_points("DISCRIMINANT", p)) == p ** 3 + 2 * p ** 2 + p + 1


def test_stratum_inclusions():
    for p in (5, 7):
        x4 = stratum_points("X4", p)
        tbar = stratum_points("TBAR", p)
        nbar = stratum_points("NBAR", p)
        secant = stratum_points("SECANT", p)
        disc = stratum_points("DISCRIMINANT", p)
        assert tbar.intersection(nbar) == x4
        assert len(x4.difference(tbar)) == 0
        assert len(tbar.difference(secant)) == 0
        assert len(tbar.difference(disc)) == 0
        assert len(nbar.difference(disc)) == 0


def test_loci_match_strata():
    # each stratum's families are pinned at two primes by the invariants
    inv = invariant_polys()
    omega4 = build_omega4().coefficients()
    for p in (5, 7):
        assert zero_locus([inv.Q, inv.C], 4, p) == stratum_points("TBAR", p)
        assert zero_locus([inv.C], 4, p) == stratum_points("SECANT", p)
        assert zero_locus([inv.D], 4, p) == stratum_points("DISCRIMINANT", p)
        pencil_locus = zero_locus(omega4, 4, p)
        expected = stratum_points("TBAR", p).union(stratum_points("NBAR", p))
        assert pencil_locus == expected
        assert len(pencil_locus) == 2 * p * p + 2 * p + 1
    # P^4(F_23) has 292,561 points
    assert zero_locus([inv.Q, inv.C], 4, 23) == stratum_points("TBAR", 23)


def test_chart_union_is_singular_locus():
    bar = derive_omega_bar().omega_bar
    for p in (5, 7):
        union = stratum_points("P1P", p).union(stratum_points("X2", p)).union(
            stratum_points("X3", p))
        assert len(union) == 3 * p + 1
        assert (1, 0, 0, 0) in union
        assert zero_locus(bar.coefficients(), 3, p) == union


def test_compare_sets():
    A = PointSet(5, 1, [(1, 0), (1, 1)])
    B = PointSet(5, 1, [(1, 1), (0, 1)])
    report = compare_sets(A, B)
    assert not report.equal
    assert list(report.only_a) == [(1, 0)]
    assert list(report.only_b) == [(0, 1)]
    same = compare_sets(A, PointSet(5, 1, [(2, 0), (3, 3)]))
    assert same.equal
    assert len(same.only_a) == 0 and len(same.only_b) == 0


def test_unknown_stratum():
    with pytest.raises(ValueError):
        stratum_points("X9", 5)

"""Certified constructors: both residues vanish exactly, errors are loud."""

import contextlib
import io
import random
from fractions import Fraction

import pytest

from jpencil import cli, components
from jpencil.components import (
    WeightError,
    build_linear_pullback,
    build_logarithmic,
    build_rational,
)
from jpencil.exterior import DiffForm, descends_check, form_to_text, integrability_check
from jpencil.poly import MultiPoly, exact_divide
from jpencil.polytext import parse_poly


def _rand_homogeneous(rng, arity, degree):
    P = MultiPoly.zero(arity)
    for _ in range(rng.randint(2, 4)):
        exps = [0] * arity
        for _ in range(degree):
            exps[rng.randrange(arity)] += 1
        P = P + MultiPoly(arity, {tuple(exps): Fraction(rng.randint(-3, 3))})
    if P.is_zero:
        P = MultiPoly(arity, {tuple([degree] + [0] * (arity - 1)): Fraction(1)})
    return P


def test_build_rational_known():
    Q = parse_poly("a0*a4 - 4*a1*a3 + 3*a2^2", tuple("a%d" % i for i in range(5)))
    C = parse_poly(
        "a0*a2*a4 - a0*a3^2 + 2*a1*a2*a3 - a1^2*a4 - a2^3",
        tuple("a%d" % i for i in range(5)))
    omega = build_rational(Q, C)
    # 3 C dQ - 2 Q dC, checked on the dA0 slot
    expected0 = 3 * C * Q.partial_derivative(0) - 2 * Q * C.partial_derivative(0)
    assert omega.terms[(0,)] == expected0
    assert descends_check(omega).ok
    assert integrability_check(omega).ok


def test_build_rational_antisymmetric():
    rng = random.Random(6001)
    F1 = _rand_homogeneous(rng, 4, 2)
    F2 = _rand_homogeneous(rng, 4, 3)
    assert build_rational(F1, F2) == -build_rational(F2, F1)


def test_build_rational_random_certified():
    rng = random.Random(6002)
    for _ in range(8):
        arity = rng.choice((4, 5))
        F1 = _rand_homogeneous(rng, arity, rng.randint(1, 3))
        F2 = _rand_homogeneous(rng, arity, rng.randint(1, 2))
        omega = build_rational(F1, F2)
        assert descends_check(omega).ok
        assert integrability_check(omega).ok


def test_build_rational_rejects_bad_input():
    x0 = MultiPoly.variable(2, 0)
    with pytest.raises(ValueError):
        build_rational(x0, MultiPoly.constant(2, Fraction(2)))
    with pytest.raises(ValueError):
        build_rational(x0, x0 + x0 * x0)


def test_build_logarithmic_weight_condition():
    x = [MultiPoly.variable(3, i) for i in range(3)]
    with pytest.raises(WeightError):
        build_logarithmic([x[0], x[1], x[2]], [1, 1, 1])
    with pytest.raises(ValueError):
        build_logarithmic([x[0], x[1], x[2]], [0, 0, 0])
    with pytest.raises(ValueError):
        build_logarithmic([x[0]], [1])


def test_build_logarithmic_two_factors_delegate():
    rng = random.Random(6003)
    F1 = _rand_homogeneous(rng, 4, 2)
    F2 = _rand_homogeneous(rng, 4, 2)
    assert build_logarithmic([F1, F2], [1, -1]) == build_rational(F1, F2)


def test_build_logarithmic_certified():
    rng = random.Random(6004)
    for _ in range(6):
        arity = rng.choice((4, 5))
        count = rng.choice((3, 4))
        factors = [_rand_homogeneous(rng, arity, 1) for _ in range(count)]
        weights = [Fraction(rng.randint(-3, 3)) for _ in range(count - 1)]
        weights.append(-sum(weights))  # linear factors: sum of weights is zero
        if not any(weights):
            weights[0] += 1
            weights[-1] -= 1
        omega = build_logarithmic(factors, weights)
        assert descends_check(omega).ok
        assert integrability_check(omega).ok


def test_build_logarithmic_zero_weight_divisibility():
    # a factor carrying weight zero divides every coefficient of the form
    x = [MultiPoly.variable(3, i) for i in range(3)]
    factors = [x[0], x[1], x[0] + x[1] + x[2]]
    omega = build_logarithmic(factors, [1, 0, -1])
    for coeff in omega.terms.values():
        assert exact_divide(coeff, x[1]) is not None


def test_build_linear_pullback():
    rng = random.Random(6005)
    eta = build_rational(_rand_homogeneous(rng, 3, 2), _rand_homogeneous(rng, 3, 1))
    matrix = [
        [Fraction(1), Fraction(0), Fraction(0), Fraction(2)],
        [Fraction(0), Fraction(1), Fraction(0), Fraction(-1)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(1)],
    ]
    omega = build_linear_pullback(matrix, eta)
    assert omega.arity == 4
    assert descends_check(omega).ok
    assert integrability_check(omega).ok


def test_build_linear_pullback_rank_guard():
    x = [MultiPoly.variable(3, i) for i in range(3)]
    eta = build_rational(x[0], x[1])
    degenerate = [[Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
                  [Fraction(2), Fraction(0), Fraction(0), Fraction(0)],
                  [Fraction(3), Fraction(0), Fraction(0), Fraction(0)]]
    with pytest.raises(ValueError):
        build_linear_pullback(degenerate, eta)
    with pytest.raises(ValueError):
        build_linear_pullback(degenerate[:2], eta)


def test_constructors_preserve_homogeneity():
    rng = random.Random(6006)
    F1 = _rand_homogeneous(rng, 4, 3)
    F2 = _rand_homogeneous(rng, 4, 2)
    omega = build_rational(F1, F2)
    assert omega.has_homogeneous_coefficients()
    assert omega.coefficient_degrees() == [4]


_REFUSALS = {"descends_check": "descends check failed, Euler contraction is nonzero",
             "integrability_check": "integrability check failed, omega ^ d omega is nonzero"}


def test_certify_refusals_fire(monkeypatch, tmp_path):
    # each check of _certify, forced to fail on the forms of the given
    # arities: the constructor's ValueError names it, and `jpencil build`
    # exits 3 with that text and prints no verdict
    x = [MultiPoly.variable(3, i) for i in range(3)]
    F1, F2 = x[0] ** 2 * x[1] - x[2] ** 3, x[0] * x[1] * x[2]
    eta = build_rational(F1, F2)
    eta_path = str(tmp_path / "eta.form")
    with open(eta_path, "w", encoding="ascii") as fh:
        fh.write(form_to_text(eta, ("x0", "x1", "x2")))
    matrix = [[1, 0, 0, 1], [0, 1, 0, -1], [0, 0, 1, 2]]
    pullback = (lambda: build_linear_pullback(matrix, eta),
                ["build", "pullback", "--form", eta_path, "--matrix", "1,0,0,1;0,1,0,-1;0,0,1,2"])
    cases = [
        ("rational constructor", (3,), lambda: build_rational(F1, F2),
         ["build", "rational", "x0^2*x1 - x2^3", "x0*x1*x2"]),
        ("logarithmic constructor", (3,), lambda: build_logarithmic(x, [1, 1, -2]),
         ["build", "log", "--factor", "x0", "--factor", "x1", "--factor", "x2",
          "--weight", "1", "--weight", "1", "--weight", "-2"]),
        ("pullback input", (3, 4)) + pullback,
        ("pullback constructor", (4,)) + pullback,
    ]
    for name, text in _REFUSALS.items():
        check = getattr(components, name)
        for label, arities, build, argv in cases:
            def failing(omega, check=check, arities=arities):
                verdict = check(omega)
                return verdict._replace(ok=False) if omega.arity in arities else verdict

            monkeypatch.setattr(components, name, failing)
            message = "%s: %s" % (label, text)
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
            assert (code, out.getvalue(), err.getvalue()) == (3, "", "error: %s\n" % message), argv
            monkeypatch.undo()

"""Constructors for the three classical families of integrable 1-forms.

Each constructor returns a form that is certified on the spot: the Euler
contraction i_R(omega) and the Frobenius residual omega ^ d(omega) are both
expanded symbolically and must vanish identically.

The rational family comes from a quotient F1^p1 / F2^p2 of homogeneous
polynomials with p1 d1 = p2 d2; the logarithmic family from a weighted sum
of dlog terms with total weight sum(d_i lambda_i) = 0; the pullback family
from composing a 1-form on three variables with a surjective linear map.
"""

from fractions import Fraction
from math import gcd

from .exterior import (DiffForm, descends_check, differential,
                       integrability_check, pullback_form)
from .linalg import bareiss_rank


class WeightError(ValueError):
    """Violated logarithmic weight condition; carries the residual."""

    def __init__(self, residual):
        super().__init__("weight condition sum(d_i * lambda_i) = 0 violated, residual %s" % residual)
        self.residual = residual


def _require_homogeneous_nonconstant(F, label):
    if F.is_zero or not F.is_homogeneous():
        raise ValueError("%s must be homogeneous and nonzero" % label)
    d = F.homogeneous_degree()
    if d == 0:
        raise ValueError("%s must be nonconstant" % label)
    return d


def _certify(omega, label):
    if not descends_check(omega).ok:
        raise ValueError("%s: descends check failed, Euler contraction is nonzero" % label)
    if not integrability_check(omega).ok:
        raise ValueError("%s: integrability check failed, omega ^ d omega is nonzero" % label)
    return omega


def build_rational(F1, F2):
    """p1 F2 dF1 - p2 F1 dF2 with (p1, p2) = (d2/g, d1/g), g = gcd(d1, d2).

    The weights make F1^p1 / F2^p2 homogeneous of degree zero, so the form
    descends; it is integrable because it is d of that quotient cleared of
    denominators.
    """
    if F1.arity != F2.arity:
        raise ValueError("arity mismatch")
    d1 = _require_homogeneous_nonconstant(F1, "F1")
    d2 = _require_homogeneous_nonconstant(F2, "F2")
    g = gcd(d1, d2)
    p1, p2 = d2 // g, d1 // g
    omega = differential(F1) * (p1 * F2) - differential(F2) * (p2 * F1)
    return _certify(omega, "rational constructor")


def build_logarithmic(factors, weights):
    """sum_i lambda_i (prod_{j != i} F_j) dF_i, demanding sum d_i lambda_i = 0.

    Three or more factors as in the classical family; two factors carry the
    same content as the rational constructor and are delegated to it.
    """
    factors = list(factors)
    weights = [Fraction(w) if isinstance(w, int) else w for w in weights]
    if len(factors) != len(weights):
        raise ValueError("got %d factors and %d weights" % (len(factors), len(weights)))
    if len(factors) < 2:
        raise ValueError("need at least two factors")
    degrees = [_require_homogeneous_nonconstant(F, "factor %d" % i) for i, F in enumerate(factors)]
    if not any(weights):
        raise ValueError("weights are all zero")
    residual = sum(d * w for d, w in zip(degrees, weights))
    if residual:
        raise WeightError(residual)
    if len(factors) == 2:
        return build_rational(factors[0], factors[1])
    arity = factors[0].arity
    omega = DiffForm.zero(arity, 1)
    for i, F in enumerate(factors):
        cofactor = None
        for j, G in enumerate(factors):
            if j != i:
                cofactor = G if cofactor is None else cofactor * G
        omega = omega + differential(F) * (cofactor * weights[i])
    return _certify(omega, "logarithmic constructor")


def build_linear_pullback(matrix, eta):
    """Pull a certified 1-form on three variables back along a linear map.

    matrix has 3 rows and one column per target variable; it must have rank
    3 so the map is surjective and the pullback defines a foliation.
    """
    if eta.arity != 3 or eta.degree != 1:
        raise ValueError("eta must be a 1-form on three variables")
    if len(matrix) != 3:
        raise ValueError("matrix must have exactly 3 rows")
    if bareiss_rank(matrix) != 3:
        raise ValueError("matrix rank below 3")
    _certify(eta, "pullback input")
    new_arity = len(matrix[0])
    omega = pullback_form(matrix, eta, new_arity)
    return _certify(omega, "pullback constructor")

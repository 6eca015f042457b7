"""Independent answers for the benchmark's checks, computed with sympy.

Imported only after the timed loop, so sympy's import and memory stay out of
every metric.
"""

from sympy import QQ, Poly, symbols
from sympy.polys.matrices import DomainMatrix

from jpencil import exceptional


def _rank(rows, n_cols):
    if not rows:
        return 0
    entries = [[QQ(c.numerator, c.denominator) for c in row] for row in rows]
    return DomainMatrix(entries, (len(rows), n_cols), QQ).rank()


def tangent_dims(form):
    """(ambient, raw kernel, projective, contains form) for the 259 x 80
    tangent system of a degree-two form, by sympy's exact rank.

    An integrable form that descends is its own tangent vector, since the
    linearization at omega sends omega to 2 omega ^ d(omega) = 0.
    """
    euler_rows, integ_rows, _ = exceptional.tangent_system_matrices(form)
    ambient = 80 - _rank(euler_rows, 80)
    raw = 80 - _rank(euler_rows + integ_rows, 80)
    return ambient, raw, raw - 1, True


def to_sympy(P, gens):
    return Poly.from_dict({e: QQ(c.numerator, c.denominator) for e, c in P.terms.items()},
                          *gens, domain=QQ)


def saturation(product, planted, sat):
    """None when factor * form == product exactly, the planted factor divides
    the factor, and the factor is sympy's coefficient gcd up to a scalar."""
    gens = symbols("x0:%d" % product.arity)
    factor = to_sympy(sat.factor, gens)
    for idx in set(product.terms) | set(sat.form.terms):
        lhs = factor * to_sympy(sat.form.terms[idx], gens) if idx in sat.form.terms else None
        rhs = to_sympy(product.terms[idx], gens) if idx in product.terms else None
        if lhs is None or rhs is None or lhs != rhs:
            return "factor * form differs from the input at d%s" % (idx,)
    if not factor.rem(to_sympy(planted, gens)).is_zero:
        return "planted factor does not divide the returned factor"
    coeffs = [to_sympy(c, gens) for c in product.terms.values()]
    g = coeffs[0]
    for c in coeffs[1:]:
        g = g.gcd(c)
    quotient, remainder = factor.div(g)
    if not remainder.is_zero or not quotient.is_ground:
        return "factor is not the coefficient gcd up to a scalar"
    return None

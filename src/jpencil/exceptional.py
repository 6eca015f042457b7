"""The degree-two exceptional foliation on projective 3-space.

Pipeline: the pencil form on the space of quartics, built from the degree-2
and degree-3 invariants; its restriction to the osculating hyperplane at the
4-fold point of the rational normal curve; saturation by the coefficient gcd
(a single linear form); and the resulting degree-two form, cross-checked
against a hard-coded reference expression and against the contraction
i_X i_Y i_R of the volume form along the affine vector fields.  The tangent
space of the integrability equations at the form is computed exactly.
"""

from collections import namedtuple
from fractions import Fraction

from .poly import MultiPoly, exact_divide, grlex_key, substitute
from .linalg import bareiss_rank, mat_vec
from .exterior import (DiffForm, PolyVectorField, descends_check,
                       euler_field, exterior_derivative, integrability_check,
                       interior_product, normalize_form, saturate, volume_form,
                       wedge, pullback_form)
from .binary import cubic_discriminant_plain, invariant_polys, osculating_flag
from .components import build_rational


class PipelineError(RuntimeError):
    """A stage of the derivation failed its certificate."""

    def __init__(self, stage, message):
        super().__init__("stage %r: %s" % (stage, message))
        self.stage = stage


def build_omega4():
    """The pencil form on the five divided quartic coordinates.

    buildRational on (Q, C) with degrees (2, 3) gives weights (3, 2) and
    the form 3C dQ - 2Q dC, the unique combination of Q dC and C dQ (up to
    scalar) annihilated by the radial field.  Coefficients are homogeneous
    of degree 4.
    """
    inv = invariant_polys()
    return build_rational(inv.Q, inv.C)


def osculating_inclusion():
    """Linear inclusion of the osculating hyperplane (a4 = 0): one row per
    ambient coordinate, one column per hyperplane coordinate."""
    rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    rows.append([0] * 4)
    return rows


def restrict_to_hyperplane(omega, inclusion):
    """Pull a 1-form back along a linear inclusion of a subspace."""
    cols = len(inclusion[0])
    if len(inclusion) != omega.arity:
        raise ValueError("inclusion rows %d, form arity %d" % (len(inclusion), omega.arity))
    if bareiss_rank(inclusion) != cols:
        raise ValueError("inclusion is not injective")
    return pullback_form(inclusion, omega)


ExceptionalReport = namedtuple(
    "ExceptionalReport",
    ["omega4", "omega_h", "factor", "factor_exact", "omega_bar", "certifications"])


def derive_omega_bar():
    """Run the whole pipeline with certificates at every stage.

    factor is the normalized divisorial part, certified to be the trace on
    the hyperplane of the osculating plane at [1:0] (the linear form a3:
    the divisors with a double point at the flag point); factor_exact is
    the exact cofactor with factor_exact * omega_bar == omega_h.
    """
    try:
        omega4 = build_omega4()  # the constructor has certified it
    except ValueError as exc:
        raise PipelineError("build", str(exc)) from exc

    inclusion = osculating_inclusion()
    omega_h = restrict_to_hyperplane(omega4, inclusion)
    if omega_h.is_zero:
        raise PipelineError("restrict", "restriction vanished identically")
    if not integrability_check(omega_h).ok:
        raise PipelineError("restrict", "restriction lost integrability")

    sat = saturate(omega_h)
    factor = sat.factor.normalized()
    # the trace of the osculating plane at [1:0]; its functional a4 pulls
    # back to zero exactly when the inclusion lies in the hyperplane
    pulled = substitute(osculating_flag((1, 0)).plane, inclusion)
    trace = [g.normalized() for g in pulled if not g.is_zero]
    if [factor] != trace:
        raise PipelineError("saturate", "divisorial factor %r is not the trace %r of the "
                            "osculating plane" % (factor, trace))
    omega_bar = sat.form
    degrees = omega_bar.coefficient_degrees()
    if degrees != [3] or not omega_bar.has_homogeneous_coefficients():
        raise PipelineError("saturate", "saturated coefficients have degrees %r" % degrees)
    if not descends_check(omega_bar).ok:
        raise PipelineError("saturate", "saturated form does not descend")
    if not integrability_check(omega_bar).ok:
        raise PipelineError("saturate", "saturated form is not integrable")

    certifications = {
        "descends": True,
        "integrable": True,
        "factorDegree": factor.homogeneous_degree(),
        "coefficientDegree": 3,
    }
    return ExceptionalReport(omega4, omega_h, factor, sat.factor, omega_bar, certifications)


def reference_form():
    """The standard expression for the degree-two form, hard-coded.

    x3 [(2x1^2 - 3x0x2) dx0 + (3x2x3 - x0x1) dx1 + (x0^2 - 2x1x3) dx2]
    - (x0x1^2 - 2x0^2x2 + x1x2x3) dx3
    """
    x0, x1, x2, x3 = (MultiPoly.variable(4, i) for i in range(4))
    return DiffForm.one_form([
        x3 * (2 * x1 ** 2 - 3 * x0 * x2),
        x3 * (3 * x2 * x3 - x0 * x1),
        x3 * (x0 ** 2 - 2 * x1 * x3),
        -(x0 * x1 ** 2 - 2 * x0 ** 2 * x2 + x1 * x2 * x3),
    ])


AffineFields = namedtuple("AffineFields", ["X", "Y", "R", "Omega"])


def affine_fields(arity):
    """The weight field X = sum i z_i d/dz_i, the shift field Y = sum
    z_(i-1) d/dz_i, the radial field and the volume form.  The relations
    [X, Y] = -Y and [X, R] = 0 are certified by `exceptional fields`."""
    if arity < 2:
        raise ValueError("need at least two variables")
    zero = MultiPoly.zero(arity)
    X = PolyVectorField([i * MultiPoly.variable(arity, i) for i in range(arity)])
    Y = PolyVectorField([zero] + [MultiPoly.variable(arity, i - 1) for i in range(1, arity)])
    return AffineFields(X, Y, euler_field(arity), volume_form(arity))


def contract_volume(X, Y):
    """i_X i_Y i_R of the volume form (radial contraction innermost)."""
    arity = X.arity
    inner = interior_product(euler_field(arity), volume_form(arity))
    return interior_product(X, interior_product(Y, inner))


# -- tangent space of the integrability equations ---------------------------

def _monomials(arity, degree):
    """Exponent tuples of one degree, grlex descending."""
    def rec(pos, left):
        if pos == arity - 1:
            yield (left,)
            return
        for e in range(left, -1, -1):
            for rest in rec(pos + 1, left - e):
                yield (e,) + rest
    return sorted(rec(0, degree), key=grlex_key, reverse=True)


def _check_tangent_shape(omega_bar):
    if omega_bar.arity != 4 or omega_bar.degree != 1:
        raise ValueError("tangent system expects a 1-form on four variables")
    if omega_bar.coefficient_degrees() != [3] or not omega_bar.has_homogeneous_coefficients():
        raise ValueError("coefficients must be homogeneous of degree 3")


TangentReport = namedtuple(
    "TangentReport",
    ["ambient_dim", "raw_kernel_dim", "projective_dim", "contains_omega_bar"])

_TRIPLES = {(0, 1, 2): 0, (0, 1, 3): 1, (0, 2, 3): 2, (1, 2, 3): 3}


def _packed(exps):
    """An exponent tuple of degree at most 7 as one int, base 8, so that
    multiplying monomials adds their packed exponents."""
    key = 0
    for e in exps:
        key = 8 * key + e
    return key


def tangent_system_matrices(omega_bar):
    """Euler and linearized-integrability rows on the 80 unknowns, as dense
    rows of Python ints.

    The unknown eta = sum b_s dx_s has four degree-3 coefficient slots of 20
    monomials each; column s*20+k is the coefficient of the k-th monomial in
    slot s.  Euler rows: the 35 degree-4 coefficients of sum x_s b_s.
    Integrability rows: the 4 x 56 degree-5 coefficients of the four basis
    3-forms of omega ^ d(eta) + eta ^ d(omega), for omega the primitive
    integer multiple of omega_bar.  The rows are linear in omega, so the
    ranks and the kernel are those of omega_bar, and every nonzero multiple
    of omega_bar gives the same rows.  A form over F_p is a ValueError:
    its residues are not the integers of a form over Q.  So is a form that
    is not a 1-form on four variables with coefficients homogeneous of
    degree 3: the packed exponents below hold only degrees up to 7.

    For eta = x^m dx_s that 3-form is x^m (dx_s ^ d omega) plus
    sum_i m_i x^(m - e_i) (omega ^ dx_i ^ dx_s), so column (s, m) is
    filled from 16 fixed 3-forms by shifting their exponents.
    """
    if any(P.p is not None for P in omega_bar.terms.values()):
        raise ValueError("the tangent system is over Q; the form has coefficients mod a prime")
    _check_tangent_shape(omega_bar)
    omega = normalize_form(omega_bar)[0]
    mono3 = _monomials(4, 3)
    row_of_mono4 = {_packed(m): i for i, m in enumerate(_monomials(4, 4))}
    row_of_mono5 = {_packed(m): i for i, m in enumerate(_monomials(4, 5))}
    n_rows5 = len(row_of_mono5)
    units = [_packed(m) for m in _monomials(4, 1)]  # e_0, ..., e_3

    def shifted_terms(form):
        # (row block, packed exponents, coefficient) of each term of a 3-form
        return [(_TRIPLES[triple] * n_rows5, _packed(e), c)
                for triple, P in form.terms.items() for e, c in P.terms.items()]

    dx = [DiffForm(4, 1, {(i,): MultiPoly.constant(4, 1)}) for i in range(4)]
    d_omega = exterior_derivative(omega)
    omega_dx = [wedge(omega, dx[i]) for i in range(4)]
    euler_rows = [[0] * 80 for _ in row_of_mono4]
    integ_rows = [[0] * 80 for _ in range(4 * n_rows5)]
    for s in range(4):
        own = shifted_terms(wedge(dx[s], d_omega))
        others = [(i, shifted_terms(wedge(omega_dx[i], dx[s]))) for i in range(4) if i != s]
        for k, m in enumerate(mono3):
            col = s * 20 + k
            key = _packed(m)
            euler_rows[row_of_mono4[key + units[s]]][col] = 1
            for block, e, c in own:
                integ_rows[block + row_of_mono5[e + key]][col] += c
            for i, terms in others:
                if m[i]:
                    lowered = key - units[i]
                    for block, e, c in terms:
                        integ_rows[block + row_of_mono5[e + lowered]][col] += m[i] * c
    return euler_rows, integ_rows, mono3


def _coefficient_vector(omega_bar, mono3):
    vec = []
    for s in range(4):
        coeff = omega_bar.terms.get((s,), MultiPoly.zero(4))
        vec.extend(coeff.terms.get(m, 0) for m in mono3)
    return vec


def tangent_system_dim(omega_bar):
    """Exact dimensions of the solution space of the linearized system.

    Each column is in exactly one Euler row, with coefficient 1.  Keeping
    the first column of each Euler row as its pivot and replacing every
    other column c by c - pivot is a change of unknowns of determinant 1
    that turns each Euler row into a unit vector on its pivot; the other
    unknowns, x^m dx_s - x^m' dx_s', are a basis of the forms that
    descend.  So ambient_dim is the number of non-pivot columns, and
    raw_kernel_dim is that number minus the exact Bareiss rank of the
    integrability rows on those columns, without their zero rows and rows
    equal to +- an earlier one.

    The rows also decide the input: for eta = omega they give
    2 omega ^ d(omega).  Both checks are linear in the form, so omega_bar
    descends iff the Euler rows kill its coefficient vector, and is then
    integrable iff the reduced rows kill its entries on the non-pivot
    columns; a failure is a ValueError, raised before the rank.
    contains_omega_bar is that input check, so it is always True.
    """
    euler_rows, integ_rows, mono3 = tangent_system_matrices(omega_bar)
    vec = _coefficient_vector(omega_bar, mono3)
    if any(mat_vec(euler_rows, vec)):
        raise ValueError("form does not descend")
    moves = []
    for row in euler_rows:
        pivot, *rest = [c for c, v in enumerate(row) if v]
        moves += [(c, pivot) for c in rest]
    reduced, seen = [], set()
    for row in integ_rows:
        new = tuple([row[c] - row[p] for c, p in moves])
        if any(new) and new not in seen:
            seen.update((new, tuple(-v for v in new)))
            reduced.append(list(new))
    if any(mat_vec(reduced, [vec[c] for c, _ in moves])):
        raise ValueError("form is not integrable")
    ambient_dim = len(moves)
    raw_kernel_dim = ambient_dim - bareiss_rank(reduced)
    return TangentReport(ambient_dim, raw_kernel_dim, raw_kernel_dim - 1, True)


def in_tangent_kernel(omega_bar, eta):
    """Membership in the solution space: eta is a 1-form on four variables
    with cubic coefficients whose coefficient vector the Euler and
    integrability rows of omega_bar kill."""
    if eta.is_zero:
        return True
    if ((eta.arity, eta.degree, eta.coefficient_degrees()) != (4, 1, [3])
            or not eta.has_homogeneous_coefficients()):
        return False
    euler_rows, integ_rows, mono3 = tangent_system_matrices(omega_bar)
    return not any(mat_vec(euler_rows + integ_rows, _coefficient_vector(eta, mono3)))


# -- double tangency of the discriminant ------------------------------------

DoubleTangencyReport = namedtuple(
    "DoubleTangencyReport", ["constant", "identity_ok", "multiplicity_exactly_two"])


def check_double_tangency():
    """The discriminant meets the osculating hyperplane doubly along a3 = 0.

    Restricting D to a4 = 0 factors as c * a3^2 * Delta3 where Delta3 is the
    discriminant of the cubic cofactor (plain coefficients a0, 4a1, 6a2, 4a3,
    scaled by 1/256 so that the constant comes out at the derived value 16),
    and a3^3 does not divide: the intersection multiplicity is exactly two.
    """
    D = invariant_polys().D
    D_H = substitute([D], osculating_inclusion())[0]
    a = [MultiPoly.variable(4, i) for i in range(4)]
    delta3 = cubic_discriminant_plain(a[0], 4 * a[1], 6 * a[2], 4 * a[3]) * Fraction(1, 256)
    reference_point = (Fraction(0), Fraction(1), Fraction(0), Fraction(-1))
    denom = (a[3] ** 2 * delta3).evaluate(reference_point)
    constant = D_H.evaluate(reference_point) / denom
    identity_ok = D_H == a[3] ** 2 * delta3 * constant
    multiplicity_exactly_two = exact_divide(D_H, a[3] ** 3) is None
    return DoubleTangencyReport(constant, identity_ok, multiplicity_exactly_two)

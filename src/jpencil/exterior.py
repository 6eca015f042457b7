"""Exterior calculus over the polynomial ring.

k-forms carry MultiPoly coefficients on strictly increasing index tuples of
the affine coordinates z_0..z_n; vector fields are polynomial derivations.
Everything needed for the integrability story lives here: wedge, exterior
derivative, interior product, Lie bracket and derivative (Cartan), the Euler
field, the descent and Frobenius residues, and saturation by the coefficient
gcd.  Values are immutable; operations are pure.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .linalg import bareiss_det
from .poly import (SCALARS, MultiPoly, coefficient_gcd, exact_divide, one_ring, primitive_scale,
                   ring_matrix, substitute)
from . import polytext


class DiffForm:
    """Polynomial k-form: terms map strictly increasing k-tuples to MultiPoly.

    Zero coefficients are never stored; this constructor is the one place
    that drops them, so operations hand it sums that may hold zeros."""

    __slots__ = ("arity", "degree", "terms")

    def __init__(self, arity, degree, terms=None):
        if not 0 <= degree <= arity:
            raise ValueError("form degree %d invalid for arity %d" % (degree, arity))
        self.arity = arity
        self.degree = degree
        clean = {}
        if terms:
            for idx, coeff in terms.items():
                idx = tuple(idx)
                if len(idx) != degree or any(b <= a for a, b in zip(idx, idx[1:])):
                    raise ValueError("index tuple %r is not strictly increasing of length %d" % (idx, degree))
                if any(i < 0 or i >= arity for i in idx):
                    raise ValueError("index out of range in %r" % (idx,))
                if coeff.arity != arity:
                    raise ValueError("coefficient arity mismatch")
                if not coeff.is_zero:
                    clean[idx] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, arity, degree):
        return cls(arity, degree, {})

    @classmethod
    def one_form(cls, coeffs):
        """Build sum_i coeffs[i] dz_i from a full coefficient list."""
        arity = len(coeffs)
        return cls(arity, 1, {(i,): c for i, c in enumerate(coeffs)})

    @classmethod
    def zero_form(cls, P):
        return cls(P.arity, 0, {(): P})

    def coefficients(self):
        """Dense coefficient list, 1-forms only."""
        if self.degree != 1:
            raise ValueError("coefficient list is defined for 1-forms")
        return [self.terms.get((i,), MultiPoly.zero(self.arity)) for i in range(self.arity)]

    @property
    def is_zero(self):
        return not self.terms

    def coefficient_degrees(self):
        return sorted({c.total_degree() for c in self.terms.values()})

    def has_homogeneous_coefficients(self):
        degrees = set()
        for c in self.terms.values():
            if not c.is_homogeneous():
                return False
            degrees.add(c.homogeneous_degree())
        return len(degrees) <= 1

    def __eq__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        return (self.arity, self.degree, self.terms) == (other.arity, other.degree, other.terms)

    def __hash__(self):
        return hash((self.arity, self.degree, frozenset(self.terms.items())))

    def __repr__(self):
        return "DiffForm(arity=%d, degree=%d, %d terms)" % (self.arity, self.degree, len(self.terms))

    def _check_compatible(self, other):
        if self.arity != other.arity:
            raise ValueError("arity mismatch: %d vs %d" % (self.arity, other.arity))

    def __add__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        self._check_compatible(other)
        if self.degree != other.degree and self.terms and other.terms:
            raise ValueError("cannot add forms of degrees %d and %d" % (self.degree, other.degree))
        out = dict(self.terms)
        for idx, c in other.terms.items():
            cur = out.get(idx)
            out[idx] = c if cur is None else cur + c
        return DiffForm(self.arity, self.degree if self.terms or not other.terms else other.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DiffForm(self.arity, self.degree, {i: -c for i, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, MultiPoly) or isinstance(other, SCALARS):
            return DiffForm(self.arity, self.degree, {i: c * other for i, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__


class PolyVectorField:
    """Polynomial derivation sum_i coeffs[i] d/dz_i."""

    __slots__ = ("arity", "coeffs")

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        arity = len(coeffs)
        for c in coeffs:
            if c.arity != arity:
                raise ValueError("vector field coefficient arity mismatch")
        self.arity = arity
        self.coeffs = coeffs

    def apply_to(self, P):
        out = MultiPoly.zero(self.arity)
        for i, c in enumerate(self.coeffs):
            out = out + c * P.partial_derivative(i)
        return out

    def __eq__(self, other):
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __neg__(self):
        return PolyVectorField([-c for c in self.coeffs])

    def __repr__(self):
        return "PolyVectorField(%r)" % (self.coeffs,)


def euler_field(arity):
    """The radial field R = sum z_i d/dz_i."""
    return PolyVectorField([MultiPoly.variable(arity, i) for i in range(arity)])


def volume_form(arity):
    """dz_0 ^ ... ^ dz_{n} with unit coefficient."""
    return DiffForm(arity, arity, {tuple(range(arity)): MultiPoly.constant(arity, 1)})


def _merge_indices(left, right):
    """Sorted merge of disjoint increasing tuples, with the permutation sign."""
    merged = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] == right[j]:
            return None, 0
        if left[i] < right[j]:
            merged.append(left[i])
            i += 1
        else:
            # right[j] hops over the remaining entries of left
            sign *= -1 if (len(left) - i) % 2 else 1
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return tuple(merged), sign


def wedge(alpha, beta):
    alpha._check_compatible(beta)
    degree = alpha.degree + beta.degree
    if degree > alpha.arity:
        return DiffForm.zero(alpha.arity, min(degree, alpha.arity))
    out = {}
    for ia, ca in alpha.terms.items():
        for ib, cb in beta.terms.items():
            merged, sign = _merge_indices(ia, ib)
            if merged is None:
                continue
            coeff = ca * cb
            if sign < 0:
                coeff = -coeff
            cur = out.get(merged)
            out[merged] = coeff if cur is None else cur + coeff
    return DiffForm(alpha.arity, degree, out)


def exterior_derivative(alpha):
    if alpha.degree == alpha.arity:
        # d of a top form vanishes identically
        return DiffForm.zero(alpha.arity, alpha.arity)
    out = {}
    for idx, coeff in alpha.terms.items():
        for i in range(alpha.arity):
            if i in idx:
                continue
            d = coeff.partial_derivative(i)
            pos = sum(1 for k in idx if k < i)
            nidx = tuple(sorted(idx + (i,)))
            contrib = d if pos % 2 == 0 else -d
            cur = out.get(nidx)
            out[nidx] = contrib if cur is None else cur + contrib
    return DiffForm(alpha.arity, alpha.degree + 1, out)


def differential(P):
    """d of a polynomial, as a 1-form."""
    return exterior_derivative(DiffForm.zero_form(P))


def interior_product(V, alpha):
    if alpha.degree == 0:
        raise ValueError("interior product needs a form of degree >= 1")
    if V.arity != alpha.arity:
        raise ValueError("arity mismatch")
    out = {}
    for idx, coeff in alpha.terms.items():
        for pos, i in enumerate(idx):
            nidx = idx[:pos] + idx[pos + 1:]
            contrib = coeff * V.coeffs[i]
            if pos % 2:
                contrib = -contrib
            cur = out.get(nidx)
            out[nidx] = contrib if cur is None else cur + contrib
    return DiffForm(alpha.arity, alpha.degree - 1, out)


def lie_bracket(V, W):
    if V.arity != W.arity:
        raise ValueError("arity mismatch")
    return PolyVectorField([V.apply_to(w) - W.apply_to(v) for v, w in zip(V.coeffs, W.coeffs)])


def lie_derivative(V, alpha):
    """Cartan formula L_V = i_V d + d i_V (plain V(f) on 0-forms)."""
    if alpha.degree == 0:
        coeff = alpha.terms.get((), MultiPoly.zero(alpha.arity))
        return DiffForm.zero_form(V.apply_to(coeff))
    return interior_product(V, exterior_derivative(alpha)) + exterior_derivative(interior_product(V, alpha))


DescentResult = namedtuple("DescentResult", ["residual", "ok"])
IntegrabilityResult = namedtuple("IntegrabilityResult", ["residual", "ok"])
SaturationResult = namedtuple("SaturationResult", ["form", "factor"])


def descends_check(omega):
    """Residual i_R(omega); zero iff the 1-form descends to projective space."""
    if omega.degree != 1:
        raise ValueError("descent check applies to 1-forms")
    if not omega.has_homogeneous_coefficients():
        raise ValueError("descent check needs homogeneous coefficients of one degree")
    contracted = interior_product(euler_field(omega.arity), omega)
    residual = contracted.terms.get((), MultiPoly.zero(omega.arity))
    return DescentResult(residual, residual.is_zero)


def integrability_check(omega):
    """Residual omega ^ d(omega); zero iff the kernel distribution is integrable."""
    if omega.degree != 1:
        raise ValueError("integrability check applies to 1-forms")
    residual = wedge(omega, exterior_derivative(omega))
    return IntegrabilityResult(residual, residual.is_zero)


def normalize_form(omega):
    """Scale by the primitive scale of all coefficients, with the leading
    coefficient of the first nonzero component as pivot.  Returns (form,
    scale) with form == omega * scale."""
    if omega.is_zero:
        return omega, Fraction(1)
    first = omega.terms[min(omega.terms)]
    scale = primitive_scale([c for P in omega.terms.values() for c in P.terms.values()],
                            first.leading_coefficient(), first.p)
    return omega * scale, scale


def saturate(omega):
    """Divide a 1-form by the gcd of its coefficients.

    Returns (form, factor) with factor * form == omega exactly; form is in
    the canonical primitive normalization, so factor is the exact cofactor,
    a scalar multiple of the normalized gcd.
    """
    if omega.degree != 1:
        raise ValueError("saturation applies to 1-forms")
    if omega.is_zero:
        raise ValueError("cannot saturate the zero form")
    coeffs = [c for c in omega.terms.values()]
    g = coefficient_gcd(coeffs)
    divided = DiffForm(omega.arity, 1, {idx: exact_divide(c, g) for idx, c in omega.terms.items()})
    form, scale = normalize_form(divided)
    factor = g * (Fraction(1) / scale)
    return SaturationResult(form, factor)


def pullback_form(matrix, eta, new_arity=None):
    """Pull a k-form back along the linear map sending new coordinates y to
    old coordinates z_i = sum_j matrix[i][j] y_j.

    matrix has one row per old variable (eta's arity) and one column per new
    variable; new_arity, when given, must be that column count.  By
    Cauchy-Binet, dz_I pulls back to sum_J det(matrix[I, J]) dy_J, the
    minor on rows I and columns J, so the coefficient of dy_J is
    sum_I det(matrix[I, J]) * (a_I o matrix): one substitution of all the
    coefficients a_I, mixed by the minors.  The coefficients are read in
    one ring (poly.one_ring), and the matrix and its minors act over it.
    """
    if len(matrix) != eta.arity:
        raise ValueError("matrix has %d rows for a form of arity %d" % (len(matrix), eta.arity))
    cols = len(matrix[0]) if matrix else 0
    if new_arity is not None and new_arity != cols:
        raise ValueError("new_arity %d, but the matrix has %d columns" % (new_arity, cols))
    targets = list(combinations(range(cols), eta.degree))
    if not eta.terms or not targets:
        return DiffForm.zero(cols, eta.degree)
    p, coeffs = one_ring(eta.terms.values())
    entries = ring_matrix(matrix, p)
    # the minors as the ring stores them: an integral one as an int
    mixing = ring_matrix([[bareiss_det([[entries[i][j] for j in J] for i in I]) for I in eta.terms]
                          for J in targets], p) if eta.degree else None
    return DiffForm(cols, eta.degree, dict(zip(targets, substitute(coeffs, entries, mixing))))


# -- 1-form file format ----------------------------------------------------

def form_items(omega, var_names):
    """The (key, text) pairs of a 1-form: ("vars", the names), then one
    ("coeff NAME", polynomial) pair per variable."""
    if omega.degree != 1:
        raise ValueError("the file format covers 1-forms")
    if len(var_names) != omega.arity:
        raise ValueError("got %d names for arity %d" % (len(var_names), omega.arity))
    items = [("vars", " ".join(var_names))]
    for i, name in enumerate(var_names):
        coeff = omega.terms.get((i,), MultiPoly.zero(omega.arity))
        items.append(("coeff %s" % name, polytext.poly_to_text(coeff, var_names)))
    return items


def form_to_text(omega, var_names):
    """Serialize a 1-form: a vars line, then one coeff line per variable."""
    return "".join("%s: %s\n" % item for item in form_items(omega, var_names))


def parse_form_text(text):
    """Inverse of form_to_text; returns (DiffForm, var_names)."""
    lines = [line for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")]
    if not lines or not lines[0].startswith("vars:"):
        raise polytext.PolyParseError("form file must begin with a 'vars:' line")
    var_names = tuple(lines[0][len("vars:"):].split())
    if not var_names:
        raise polytext.PolyParseError("empty variable list")
    arity = len(var_names)
    coeffs = {}
    for line in lines[1:]:
        if not line.startswith("coeff "):
            raise polytext.PolyParseError("unexpected line %r" % line)
        head, _, poly_text = line.partition(":")
        name = head[len("coeff "):].strip()
        if name not in var_names:
            raise polytext.PolyParseError("coefficient for unknown variable %r" % name)
        if name in coeffs:
            raise polytext.PolyParseError("duplicate coefficient line for %r" % name)
        coeffs[name] = polytext.parse_poly(poly_text.strip(), var_names)
    missing = [n for n in var_names if n not in coeffs]
    if missing:
        raise polytext.PolyParseError("missing coefficient lines for %s" % ", ".join(missing))
    form = DiffForm(arity, 1, {(i,): coeffs[n] for i, n in enumerate(var_names)})
    return form, var_names

"""Exterior calculus: wedge, derivative, contraction, Lie theory, saturation."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpencil.exterior import (
    DiffForm,
    PolyVectorField,
    descends_check,
    differential,
    euler_field,
    exterior_derivative,
    form_to_text,
    integrability_check,
    interior_product,
    lie_bracket,
    lie_derivative,
    parse_form_text,
    pullback_form,
    saturate,
    volume_form,
    wedge,
)
from jpencil.poly import FpElement, MultiPoly, substitute
from jpencil.polytext import PolyParseError, parse_poly


def _rand_poly(rng, arity, maxdeg):
    P = MultiPoly.zero(arity)
    for _ in range(rng.randint(1, 3)):
        exps = [0] * arity
        for _ in range(rng.randint(0, maxdeg)):
            exps[rng.randrange(arity)] += 1
        P = P + MultiPoly(arity, {tuple(exps): Fraction(rng.randint(-3, 3))})
    return P


def _rand_one_form(rng, arity, maxdeg):
    return DiffForm.one_form([_rand_poly(rng, arity, maxdeg) for _ in range(arity)])


def _assert_no_zero_terms(*forms):
    for form in forms:
        for P in form.terms.values():
            assert P.terms and all(P.terms.values()), form


# -- laws over Q and F_7, as hypothesis properties ---------------------------

def _polys(p, maxdeg, arity=3):
    """Polynomials of total degree <= maxdeg with at most three terms, over
    Q (p None) or reduced mod p."""
    monomials = [e for e in itertools.product(range(maxdeg + 1), repeat=arity) if sum(e) <= maxdeg]
    terms = st.dictionaries(st.sampled_from(monomials), st.integers(-3, 3).map(Fraction), max_size=3)
    return terms.map(lambda t: MultiPoly(arity, t) if p is None else MultiPoly(arity, t).reduce_mod(p))


def _one_forms(p, maxdeg=2, arity=3):
    return st.lists(_polys(p, maxdeg, arity), min_size=arity, max_size=arity).map(DiffForm.one_form)


def _linear_one_forms(p):
    """1-forms on four variables with coefficients of degree <= 1."""
    return _one_forms(p, 1, 4)


def _fields(p):
    return st.lists(_polys(p, 1), min_size=3, max_size=3).map(PolyVectorField)


def _matrices(p, rows, cols):
    """rows x cols matrices with small entries: over Q with denominators 1
    and 2, over F_p ints that the pullback reads mod p."""
    entry = st.integers(-2, 2)
    if p is None:
        entry = st.builds(Fraction, entry, st.integers(1, 2))
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def _over_q_and_f7(*parts):
    """Tuples of one draw from each part(p), all over Q or all over F_7."""
    return st.one_of(*[st.tuples(*[part(p) for part in parts]) for p in (None, 7)])


@settings(max_examples=30)
@given(_over_q_and_f7(_one_forms, _one_forms, _linear_one_forms, _linear_one_forms,
                      _linear_one_forms))
def test_wedge_graded_commutativity(drawn):
    a, b, u, v, w = drawn
    assert wedge(a, b) == -wedge(b, a)
    assert wedge(a, a).is_zero
    assert (wedge(a, b) + wedge(b, a)).is_zero
    assert (a * 0).is_zero
    _assert_no_zero_terms(a, b, wedge(a, b), wedge(a, b + a), a - b)
    # a 2-form and a 1-form commute
    uv = wedge(u, v)
    assert wedge(uv, w) == wedge(w, uv)
    _assert_no_zero_terms(uv, wedge(uv, w))


@settings(max_examples=30)
@given(_over_q_and_f7(_linear_one_forms, _linear_one_forms, _linear_one_forms))
def test_wedge_associative(drawn):
    a, b, c = drawn
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@settings(max_examples=30)
@given(_over_q_and_f7(lambda p: _one_forms(p, 3), lambda p: _polys(p, 3)))
def test_d_squared_zero(drawn):
    a, f = drawn
    assert exterior_derivative(exterior_derivative(a)).is_zero
    assert exterior_derivative(differential(f)).is_zero
    _assert_no_zero_terms(exterior_derivative(a), differential(f),
                          interior_product(euler_field(3), a))


def test_derivative_mod_p_leaves_no_zero_term():
    # over F_7 the derivative of z^7 vanishes and must leave no term
    for p in (None, 7):
        def scalar(n):
            return MultiPoly.constant(3, Fraction(n), p)
        z = MultiPoly.variable(3, 0)
        df = differential(z ** 7 * scalar(3) + z * scalar(2))
        zero = MultiPoly.zero(3)
        assert df == DiffForm.one_form([z ** 6 * scalar(21) + scalar(2), zero, zero])
        _assert_no_zero_terms(df)


@settings(max_examples=40)
@given(_over_q_and_f7(_one_forms, _one_forms))
def test_d_leibniz_on_wedge(forms):
    a, b = forms
    lhs = exterior_derivative(wedge(a, b))
    rhs = wedge(exterior_derivative(a), b) - wedge(a, exterior_derivative(b))
    assert lhs == rhs


def test_top_degree_derivative_is_zero():
    rng = random.Random(4005)
    top = wedge(_rand_one_form(rng, 3, 1), wedge(_rand_one_form(rng, 3, 1),
                                                 _rand_one_form(rng, 3, 1)))
    assert top.degree == 3
    d = exterior_derivative(top)
    assert d.is_zero


@settings(max_examples=30)
@given(_over_q_and_f7(_fields, _one_forms, _one_forms))
def test_interior_product_antiderivation(drawn):
    V, a, b = drawn
    lhs = interior_product(V, wedge(a, b))
    iva = interior_product(V, a).terms.get((), MultiPoly.zero(3))
    ivb = interior_product(V, b).terms.get((), MultiPoly.zero(3))
    rhs = b * iva - a * ivb
    assert lhs == rhs
    assert interior_product(V, interior_product(V, wedge(a, b))).is_zero


@settings(max_examples=40)
@given(_over_q_and_f7(_fields, _one_forms))
def test_cartan_formula(drawn):
    # L_V(sum a_i dx_i) = sum_i (V(a_i) dx_i + a_i dV_i), in coordinates and
    # so independent of the i_V d + d i_V that lie_derivative computes
    V, a = drawn
    rhs = DiffForm.zero(3, 1)
    for i, a_i in enumerate(a.coefficients()):
        rhs = rhs + DiffForm(3, 1, {(i,): V.apply_to(a_i)}) + differential(V.coeffs[i]) * a_i
    assert lie_derivative(V, a) == rhs


@settings(max_examples=40)
@given(_over_q_and_f7(_fields, _fields, lambda p: _polys(p, 2)))
def test_lie_bracket_against_derivatives(drawn):
    V, W, f = drawn
    lhs = lie_bracket(V, W).apply_to(f)
    rhs = V.apply_to(W.apply_to(f)) - W.apply_to(V.apply_to(f))
    assert lhs == rhs


@settings(max_examples=40)
@given(_over_q_and_f7(_fields, _fields, _one_forms))
def test_lie_derivative_of_a_bracket_on_one_forms(drawn):
    # [L_V, L_W] = L_[V,W], with [V, W] = VW - WV as above
    V, W, a = drawn
    lhs = lie_derivative(V, lie_derivative(W, a)) - lie_derivative(W, lie_derivative(V, a))
    assert lhs == lie_derivative(lie_bracket(V, W), a)


def test_euler_contraction_counts_degree():
    # i_R df = deg(f) * f on homogeneous f
    f = parse_poly("x0^2*x1 + x1^3", ("x0", "x1", "x2"))
    contracted = interior_product(euler_field(3), differential(f))
    assert contracted.terms.get((), MultiPoly.zero(3)) == f * 3


def test_descends_and_integrability_known_form():
    # x1 dx0 - x0 dx1 descends and is integrable
    x0 = MultiPoly.variable(2, 0)
    x1 = MultiPoly.variable(2, 1)
    omega = DiffForm.one_form([x1, -x0])
    assert descends_check(omega).ok
    assert integrability_check(omega).ok
    bad = DiffForm.one_form([x1, x0])
    assert not descends_check(bad).ok


def test_descends_rejects_inhomogeneous():
    x0 = MultiPoly.variable(2, 0)
    with pytest.raises(ValueError):
        descends_check(DiffForm.one_form([x0 + x0 * x0, MultiPoly.zero(2)]))


def test_saturate_contract():
    # the full coefficient gcd x2^2 comes out, not just one power
    x = [MultiPoly.variable(3, i) for i in range(3)]
    core = DiffForm.one_form([x[1], -x[0], MultiPoly.zero(3)])
    scaled = core * (x[2] * x[2] * Fraction(-6))
    sat = saturate(scaled)
    assert sat.form == core
    assert sat.factor == x[2] * x[2] * Fraction(-6)
    assert sat.factor * sat.form == scaled
    # already-primitive input keeps a degree-0 factor
    sat2 = saturate(sat.form)
    assert sat2.factor.total_degree() == 0


def test_saturate_ignores_scalar_factors():
    rng = random.Random(4005)
    for _ in range(10):
        omega = _rand_one_form(rng, 3, 2)
        if omega.is_zero:
            continue
        s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        assert saturate(omega * s).form == saturate(omega).form
        omega_p = DiffForm.one_form([c.reduce_mod(7) for c in omega.coefficients()])
        if omega_p.is_zero:
            continue
        t = rng.randint(1, 6)
        assert saturate(omega_p * t).form == saturate(omega_p).form


@settings(max_examples=30)
@given(_over_q_and_f7(_one_forms, lambda p: _matrices(p, 3, 4), lambda p: _matrices(p, 4, 5)))
def test_pullback_composition(drawn):
    eta, A, B = drawn
    once = pullback_form(B, pullback_form(A, eta, 4), 5)
    composed = [[sum(A[i][k] * B[k][j] for k in range(4)) for j in range(5)]
                for i in range(3)]
    assert once == pullback_form(composed, eta, 5)


def _pullback_oracle(matrix, eta, new_arity=None):
    """pullback_form by wedges: each coefficient substituted on its own,
    then wedged with the pulled-back dz_i one at a time."""
    if len(matrix) != eta.arity:
        raise ValueError("matrix has %d rows for a form of arity %d" % (len(matrix), eta.arity))
    cols = len(matrix[0]) if matrix else 0
    if new_arity is not None and new_arity != cols:
        raise ValueError("new_arity %d, but the matrix has %d columns" % (new_arity, cols))
    basis_images = [
        DiffForm(cols, 1, {(j,): MultiPoly.constant(cols, row[j]) for j in range(cols)})
        for row in matrix]
    result = DiffForm.zero(cols, eta.degree)
    for idx, coeff in eta.terms.items():
        pulled = DiffForm.zero_form(substitute([coeff], matrix)[0])
        for i in idx:
            pulled = wedge(pulled, basis_images[i])
        result = result + pulled
    return result


@st.composite
def _pullback_cases(draw):
    """A k-form, k in 0..3, on 3-5 variables over Q or F_7, and a matrix to
    1-6 columns with Fraction entries: a product through an inner dimension
    of 1-6, so that some are rank deficient, with rows and columns zeroed."""
    p = draw(st.sampled_from((None, 7)))
    n, k, m = draw(st.integers(3, 5)), draw(st.integers(0, 3)), draw(st.integers(1, 6))
    r = draw(st.integers(1, 6))
    entry = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
    A = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=n, max_size=n))
    B = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=r, max_size=r))
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, m - 1), max_size=2))
    matrix = [[0 if i in zero_rows or j in zero_cols else sum(A[i][l] * B[l][j] for l in range(r))
               for j in range(m)] for i in range(n)]
    indices = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), k))), max_size=4))
    eta = DiffForm(n, k, {idx: draw(_polys(p, 2, n)) for idx in indices})
    return matrix, eta


@settings(max_examples=120)
@given(_pullback_cases())
def test_pullback_equals_the_wedge_oracle(case):
    # Cauchy-Binet against wedges, over Q and F_7; a form of degree above
    # the column count is refused by both
    matrix, eta = case
    if eta.degree > len(matrix[0]):
        for pull in (pullback_form, _pullback_oracle):
            with pytest.raises(ValueError, match="form degree"):
                pull(matrix, eta)
        return
    pulled = pullback_form(matrix, eta)
    assert pulled == _pullback_oracle(matrix, eta)
    _assert_no_zero_terms(pulled)


def test_pullback_keeps_the_prime_of_its_input():
    # a matrix acts over its form's ring: a form over F_7 pulls back over
    # F_7, as the reduction of its pullback over Q, and a form with
    # coefficients over Q and F_7 pulls back into F_7
    rng = random.Random(4011)
    x = [MultiPoly.variable(3, i) for i in range(3)]
    for _ in range(5):
        eta = _rand_one_form(rng, 3, 2)
        eta_7 = DiffForm.one_form([c.reduce_mod(7) for c in eta.coefficients()])
        if eta_7.is_zero:
            continue
        matrix = [[rng.randint(1, 6) for _ in range(4)] for _ in range(3)]
        pulled = pullback_form(matrix, eta_7)
        assert pulled == _pullback_oracle(matrix, eta_7)
        assert pulled == DiffForm.one_form([c.reduce_mod(7) for c in pullback_form(matrix, eta).coefficients()])
        assert {c.p for c in pulled.terms.values()} == {7}
        with pytest.raises(TypeError, match="matrix entries are ints or Fractions"):
            pullback_form([[FpElement(c, 7) for c in row] for row in matrix], eta)
    mixed = DiffForm.one_form([x[0] * x[1] + x[2] * x[2] * Fraction(1, 2), (x[1] - x[2]).reduce_mod(7),
                               x[0] * Fraction(3)])
    dense = [[Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(4)] for _ in range(3)]
    for eta in (mixed, wedge(mixed, DiffForm.one_form(x))):
        pulled = pullback_form(dense, eta)
        assert pulled == _pullback_oracle(dense, eta)
        assert not pulled.is_zero and {c.p for c in pulled.terms.values()} == {7}


def test_saturate_and_pullback_read_a_rational_coefficient_in_fp():
    # a form with coefficients over Q and F_7 saturates over F_7 in either
    # order, in 2 and 3 variables, and pulls back over F_7; F_5 with F_7 is
    # refused
    for n in (2, 3):
        x = [MultiPoly.variable(n, i) for i in range(n)]
        A = 2 * x[0] + x[1]
        B = (A * (x[0] + x[n - 1] * 3)).reduce_mod(7)
        zeros = [MultiPoly.zero(n)] * (n - 2)
        for pair in ([A, B], [B, A]):
            omega = DiffForm.one_form(pair + zeros)
            omega_7 = DiffForm.one_form([c.reduce_mod(7) for c in omega.coefficients()])
            sat = saturate(omega)
            assert sat == saturate(omega_7), pair
            assert sat.factor == A.reduce_mod(7) and sat.factor * sat.form == omega_7
            matrix = [[1, Fraction(1, 2), 3]] * n
            pulled = pullback_form(matrix, omega)
            assert pulled == pullback_form(matrix, omega_7) == _pullback_oracle(matrix, omega)
            assert {c.p for c in pulled.terms.values()} == {7}
        x5, x7 = x[0].reduce_mod(5), x[1].reduce_mod(7)
        both = DiffForm.one_form([x5, x7] + zeros)
        for call in (saturate, lambda form: pullback_form([[1, 2]] * n, form)):
            with pytest.raises(ValueError, match=r"no one ring for arities \[%d\] and primes \[5, 7\]" % n):
                call(both)


def test_pullback_new_arity_is_the_column_count():
    rng = random.Random(4010)
    eta = _rand_one_form(rng, 3, 2)
    A = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(3)]
    assert pullback_form(A, eta, 4) == pullback_form(A, eta)
    for new_arity in (3, 5):
        with pytest.raises(ValueError):
            pullback_form(A, eta, new_arity)


@settings(max_examples=30)
@given(_over_q_and_f7(lambda p: _matrices(p, 3, 4), _one_forms, _one_forms))
def test_pullback_commutes_with_d_and_wedge(drawn):
    # the pullback along a linear map is a morphism of differential graded
    # algebras, over Q and over F_7 alike
    A, a, b = drawn
    pa, pb = pullback_form(A, a, 4), pullback_form(A, b, 4)
    assert pullback_form(A, exterior_derivative(a), 4) == exterior_derivative(pa)
    assert pullback_form(A, wedge(a, b), 4) == wedge(pa, pb)
    assert pullback_form(A, wedge(exterior_derivative(a), b), 4) == wedge(
        exterior_derivative(pa), pb)


def test_form_text_round_trip():
    rng = random.Random(4010)
    names = ("x0", "x1", "x2", "x3")
    for _ in range(10):
        omega = _rand_one_form(rng, 4, 2)
        text = form_to_text(omega, names)
        parsed, parsed_names = parse_form_text(text)
        assert parsed == omega
        assert parsed_names == names


def test_form_text_errors():
    with pytest.raises(PolyParseError):
        parse_form_text("coeff x0: x1\n")
    with pytest.raises(PolyParseError):
        parse_form_text("vars: x0 x1\ncoeff x0: x1\n")
    with pytest.raises(PolyParseError):
        parse_form_text("vars: x0 x1\ncoeff x0: x1\ncoeff x0: x1\ncoeff x1: x0\n")
    # comment lines are skipped
    form, _ = parse_form_text("# leading note\nvars: x0 x1\ncoeff x0: x1\ncoeff x1: 0\n")
    assert form == DiffForm.one_form([MultiPoly.variable(2, 1), MultiPoly.zero(2)])


def test_volume_form_and_euler():
    vol = volume_form(3)
    assert vol.degree == 3
    contracted = interior_product(euler_field(3), vol)
    assert contracted.degree == 2
    assert not contracted.is_zero

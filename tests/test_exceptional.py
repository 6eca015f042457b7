"""Pipeline for the degree-two exceptional form, frozen end to end."""

import contextlib
import functools
import io
import itertools
import os
import random
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jpencil import cli, components, exceptional, exterior, poly
from jpencil.binary import osculating_flag
from jpencil.components import build_rational
from jpencil.exceptional import (
    PipelineError,
    affine_fields,
    build_omega4,
    check_double_tangency,
    contract_volume,
    derive_omega_bar,
    in_tangent_kernel,
    osculating_inclusion,
    reference_form,
    restrict_to_hyperplane,
    tangent_system_dim,
    tangent_system_matrices,
)
from jpencil.exterior import (DiffForm, PolyVectorField, descends_check, differential,
                              euler_field, exterior_derivative, form_to_text,
                              integrability_check, interior_product, lie_bracket,
                              lie_derivative, normalize_form, pullback_form, saturate, wedge)
from jpencil.linalg import bareiss_rank
from jpencil.poly import MultiPoly, exact_divide, grlex_key
from jpencil.polytext import poly_to_text

A_NAMES = ("a0", "a1", "a2", "a3")
X_NAMES = ("x0", "x1", "x2", "x3")


def _coeff_texts(omega, names):
    return [poly_to_text(c, names) for c in omega.coefficients()]


def test_pipeline_frozen_output():
    report = derive_omega_bar()
    assert poly_to_text(report.factor, A_NAMES) == "a3"
    assert poly_to_text(report.factor_exact, A_NAMES) == "-2*a3"
    assert _coeff_texts(report.omega_h, A_NAMES) == [
        "-8*a1*a3^3 + 6*a2^2*a3^2",
        "12*a0*a3^3 - 8*a1*a2*a3^2",
        "-18*a0*a2*a3^2 + 16*a1^2*a3^2",
        "-4*a0*a1*a3^2 + 12*a0*a2^2*a3 - 8*a1^2*a2*a3",
    ]
    assert _coeff_texts(report.omega_bar, A_NAMES) == [
        "4*a1*a3^2 - 3*a2^2*a3",
        "-6*a0*a3^2 + 4*a1*a2*a3",
        "9*a0*a2*a3 - 8*a1^2*a3",
        "2*a0*a1*a3 - 6*a0*a2^2 + 4*a1^2*a2",
    ]
    assert report.certifications == {
        "descends": True, "integrable": True,
        "factorDegree": 1, "coefficientDegree": 3,
    }
    # the exact cofactor reassembles the unsaturated restriction
    assert report.omega_bar * report.factor_exact == report.omega_h


def test_omega4_certified():
    omega4 = build_omega4()
    assert omega4.arity == 5
    assert omega4.coefficient_degrees() == [4]
    assert descends_check(omega4).ok
    assert integrability_check(omega4).ok


def test_restrict_guards():
    omega4 = build_omega4()
    with pytest.raises(ValueError):
        restrict_to_hyperplane(omega4, osculating_inclusion()[:4])
    collapsed = [row[:1] * 4 for row in osculating_inclusion()]
    with pytest.raises(ValueError):
        restrict_to_hyperplane(omega4, collapsed)


def test_factor_is_the_trace_of_the_osculating_plane(monkeypatch):
    # a0 = 0 is the osculating hyperplane at [0:1], not at the flag point
    # [1:0]: the plane's functionals a4, a3 both survive the pullback
    def at_zero_one():
        return [[Fraction(0)] * 4] + [[Fraction(int(i == j)) for j in range(4)]
                                      for i in range(4)]

    monkeypatch.setattr(exceptional, "osculating_inclusion", at_zero_one)
    with pytest.raises(PipelineError) as info:
        derive_omega_bar()
    assert info.value.stage == "saturate"
    assert "osculating plane" in str(info.value)


def _recorded(monkeypatch, module, name):
    """The argument tuples of every later call of module.name (a module or
    a class), recorded there and at every other binding of it in the
    package."""
    calls = []
    original = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    for m in [module] + [m for key, m in sys.modules.items() if key.split(".")[0] == "jpencil"]:
        if getattr(m, name, None) is original:
            monkeypatch.setattr(m, name, recording)
    return calls


def test_each_pullback_substitutes_once(monkeypatch):
    # a restriction is one substitution of all coefficients and no wedge,
    # and derive substitutes both functionals of the osculating plane in
    # one call; a line drawn for the unit certificate substitutes nothing,
    # and each draw whose point passes the test is one _on_line call on all
    # inputs
    omega4 = build_omega4()
    point_test = poly.MultiPoly.evaluate
    substituted = _recorded(monkeypatch, poly, "substitute")
    wedged = _recorded(monkeypatch, exterior, "wedge")
    draws = _recorded(monkeypatch, poly.MultiPoly, "evaluate")
    lines = _recorded(monkeypatch, poly, "_on_line")
    dense = [[1, 2, -1, 3], [2, -1, 1, 1], [-1, 1, 2, -2], [3, 1, -2, 1], [1, -3, 1, 2]]
    for inclusion in (osculating_inclusion(), dense):
        substituted.clear()
        restricted = restrict_to_hyperplane(omega4, inclusion)
        assert len(substituted) == 1 and not wedged
        assert len(substituted[0][0]) == len(omega4.terms)
    reduced = [P.reduce_mod(7) for P in restricted.coefficients()]
    L = MultiPoly.variable(4, 0).reduce_mod(7) + MultiPoly.variable(4, 3)
    for inputs, unit in ((reduced, True), ([L * P for P in reduced], False)):
        substituted.clear()
        draws.clear()
        lines.clear()
        assert (poly._unit_line(inputs) is not None) == unit
        assert not substituted
        # replay the seeded draws: a draw passes with inputs[0](v) != 0 and
        # u not proportional to v (the first draw here is u = 5v mod 7)
        rng = random.Random(poly._LINE_SEED)
        passed = []
        for _ in draws:
            u, v = [rng.randrange(7) for _ in range(4)], [rng.randrange(7) for _ in range(4)]
            if point_test(inputs[0], v) and any((u[i] * v[j] - u[j] * v[i]) % 7
                                                for i in range(4) for j in range(i)):
                passed.append((u, v))
        assert [call[1:3] for call in lines] == passed
        assert 1 <= len(lines) <= len(draws) <= poly._LINES_FP
        assert unit or len(draws) == poly._LINES_FP
        assert all(call[0] == inputs and call[3] == 7 for call in lines)
    substituted.clear()
    derive_omega_bar()
    plane = list(osculating_flag((1, 0)).plane)
    assert len(plane) == 2
    assert [list(call[0]) for call in substituted].count(plane) == 1
    assert not any(g in call[0] for call in substituted if len(call[0]) == 1 for g in plane)


def test_reference_form_frozen():
    ref = reference_form()
    assert _coeff_texts(ref, X_NAMES) == [
        "-3*x0*x2*x3 + 2*x1^2*x3",
        "-x0*x1*x3 + 3*x2*x3^2",
        "x0^2*x3 - 2*x1*x3^2",
        "2*x0^2*x2 - x0*x1^2 - x1*x2*x3",
    ]
    assert descends_check(ref).ok
    assert integrability_check(ref).ok
    sat = saturate(ref)
    # already saturated: the divisorial factor is a constant (sign flip only)
    assert sat.factor == MultiPoly.constant(4, Fraction(-1))
    assert sat.form == -ref


def test_affine_fields_and_contraction():
    fields = affine_fields(4)
    omega = contract_volume(fields.X, fields.Y)
    assert _coeff_texts(omega, X_NAMES) == [
        "x0*x2*x3 - 2*x1^2*x3 + x1*x2^2",
        "3*x0*x1*x3 - 2*x0*x2^2",
        "-3*x0^2*x3 + x0*x1*x2",
        "2*x0^2*x2 - x0*x1^2",
    ]
    for field in (fields.X, fields.Y, fields.R):
        contracted = interior_product(field, omega)
        assert all(c.is_zero for c in contracted.terms.values())
    assert descends_check(omega).ok
    assert integrability_check(omega).ok
    assert saturate(omega).factor == MultiPoly.constant(4, Fraction(1))
    for arity in range(2, 7):
        f = affine_fields(arity)
        assert lie_bracket(f.X, f.Y) == -f.Y
        assert all(c.is_zero for c in lie_bracket(f.X, f.R).coeffs)
    with pytest.raises(ValueError):
        affine_fields(1)


def test_tangent_system_reference():
    report = tangent_system_dim(reference_form())
    assert report.ambient_dim == 45
    assert report.raw_kernel_dim == 14
    assert report.projective_dim == 13
    assert report.contains_omega_bar is True


def _sympy_rank(rows):
    # the tangent rows are ints, and a rank over ZZ is the rank over QQ
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    assert all(type(c) is int for row in rows for c in row)
    entries = [[ZZ(c) for c in row] for row in rows]
    return DomainMatrix(entries, (len(rows), len(rows[0])), ZZ).rank()


def _gl4_pullback(seed):
    rng = random.Random(seed)
    while True:
        g = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        if bareiss_rank(g) == 4:
            return pullback_form(g, reference_form())


def _rational_quadric(rng):
    x = [MultiPoly.variable(4, i) for i in range(4)]
    return sum((Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * x[i] * x[j]
                for i in range(4) for j in range(i, 4)), MultiPoly.zero(4))


def _rational_forms(seed, count):
    rng = random.Random(seed)
    return [build_rational(_rational_quadric(rng), _rational_quadric(rng)) for _ in range(count)]


def test_tangent_dims_match_sympy_rank():
    # independent oracle for the reduced rank: sympy's rank of the full
    # 259 x 80 system, on the criterion-05 forms and a seeded GL(4) pullback
    # of the reference form (raw kernel 14), and on seeded rational forms
    # (raw kernel 17)
    fields = affine_fields(4)
    orbit = [reference_form(), derive_omega_bar().omega_bar,
             contract_volume(fields.X, fields.Y), _gl4_pullback(7006)]
    for omega, kernel in [(f, 14) for f in orbit] + [(f, 17) for f in _rational_forms(7009, 3)]:
        report = tangent_system_dim(omega)
        euler_rows, integ_rows, _ = tangent_system_matrices(omega)
        assert report.ambient_dim == 80 - _sympy_rank(euler_rows) == 45
        assert report.raw_kernel_dim == 80 - _sympy_rank(euler_rows + integ_rows) == kernel
        assert report.contains_omega_bar is True


def _wedge_rows(omega_bar):
    """The tangent system built one column at a time, from the forms: for
    eta = x^m dx_s, the Euler row of i_R(eta) and the integrability rows of
    omega ^ d(eta) + eta ^ d(omega), one wedge product each."""
    omega = normalize_form(omega_bar)[0]

    def monomials(degree):
        exps = (e for e in itertools.product(range(degree + 1), repeat=4) if sum(e) == degree)
        return sorted(exps, key=grlex_key, reverse=True)

    mono3, mono4, mono5 = monomials(3), monomials(4), monomials(5)
    triples = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    euler_rows = [[0] * 80 for _ in mono4]
    integ_rows = [[0] * 80 for _ in range(4 * len(mono5))]
    d_omega = exterior_derivative(omega)
    for s in range(4):
        for k, m in enumerate(mono3):
            eta = DiffForm(4, 1, {(s,): MultiPoly(4, {m: 1})})
            col = s * 20 + k
            radial = interior_product(euler_field(4), eta).terms[()]
            for exps, value in radial.terms.items():
                euler_rows[mono4.index(exps)][col] = value
            residual = wedge(omega, exterior_derivative(eta)) + wedge(eta, d_omega)
            for t, triple in enumerate(triples):
                coeff = residual.terms.get(triple, MultiPoly.zero(4))
                for exps, value in coeff.terms.items():
                    integ_rows[t * len(mono5) + mono5.index(exps)][col] = value
    return euler_rows, integ_rows, mono3


def test_tangent_rows_match_the_wedge_oracle():
    fields = affine_fields(4)
    forms = [reference_form(), derive_omega_bar().omega_bar,
             contract_volume(fields.X, fields.Y), _gl4_pullback(7010)]
    forms += _rational_forms(7011, 3)
    for omega in forms:
        assert tangent_system_matrices(omega) == _wedge_rows(omega)


def test_tangent_system_shapes():
    euler_rows, integ_rows, mono3 = tangent_system_matrices(reference_form())
    assert len(euler_rows) == 35
    assert len(integ_rows) == 224
    assert len(mono3) == 20
    assert all(len(row) == 80 for row in euler_rows + integ_rows)


def test_tangent_input_guards():
    x = [MultiPoly.variable(4, i) for i in range(4)]
    linear = DiffForm.one_form([x[1], -x[0], MultiPoly.zero(4), MultiPoly.zero(4)])
    with pytest.raises(ValueError):
        tangent_system_dim(linear)
    with pytest.raises(ValueError):
        tangent_system_dim(DiffForm.one_form([x[0] ** 3, MultiPoly.zero(4),
                                              MultiPoly.zero(4), MultiPoly.zero(4)]))
    # the public rows refuse a wrong shape too: their exponents are packed
    # in base 8, and a degree-10 coefficient would carry into a valid key
    zero = MultiPoly.zero(4)
    for form in (linear,
                 DiffForm.one_form([x[1] ** 10, -x[0] * x[1] ** 9, zero, zero]),
                 DiffForm.one_form([x[1] ** 3 + x[1], zero, zero, zero])):
        with pytest.raises(ValueError):
            tangent_system_matrices(form)


def _descending_forms(seed, count):
    """Seeded i_R(alpha), alpha a 2-form with rational quadric coefficients:
    each descends, because i_R i_R = 0."""
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(4), 2))
    return [interior_product(euler_field(4),
                             DiffForm(4, 2, {pair: _rational_quadric(rng) for pair in pairs}))
            for _ in range(count)]


def _undescending_forms(seed, count):
    """Seeded 1-forms with cubic coefficients q_s * x_i that do not descend."""
    rng = random.Random(seed)
    x = [MultiPoly.variable(4, i) for i in range(4)]
    return [DiffForm.one_form([_rational_quadric(rng) * x[rng.randrange(4)] for _ in range(4)])
            for _ in range(count)]


def test_tangent_refusals_name_their_cause():
    # the library and `exceptional tangent-dim --form` (exit 3) name the
    # first condition the input fails
    cases = [(f, "form is not integrable") for f in _descending_forms(7012, 10)]
    cases += [(f, "form does not descend") for f in _undescending_forms(7013, 10)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.form")
        for omega, message in cases:
            assert descends_check(omega).ok == (message == "form is not integrable")
            assert not integrability_check(omega).ok
            with pytest.raises(ValueError) as info:
                tangent_system_dim(omega)
            assert str(info.value) == message
            with open(path, "w", encoding="ascii") as fh:
                fh.write(form_to_text(omega, X_NAMES))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.run(["exceptional", "tangent-dim", "--form", path])
            assert (code, err.getvalue()) == (3, "error: %s\n" % message)


def test_tangent_system_dim_checks_its_input_on_the_rows(monkeypatch):
    # the symbolic descent and integrability checks are not called: the
    # rows give the dimensions and both refusals
    def refuse(omega):
        raise AssertionError("tangent_system_dim ran a symbolic check")

    monkeypatch.setattr(exceptional, "descends_check", refuse)
    monkeypatch.setattr(exceptional, "integrability_check", refuse)
    assert tangent_system_dim(reference_form()) == (45, 14, 13, True)
    with pytest.raises(ValueError, match="^form is not integrable$"):
        tangent_system_dim(_descending_forms(7012, 1)[0])
    with pytest.raises(ValueError, match="^form does not descend$"):
        tangent_system_dim(_undescending_forms(7013, 1)[0])


def test_tangent_input_rejects_a_form_over_fp():
    # the system is over Q: residues read as rationals gave a kernel of 0
    # (mod 7) or 9 (mod 5) instead of an error, also from the public rows
    ref = reference_form()
    for p in (5, 7):
        reduced = DiffForm(4, 1, {idx: P.reduce_mod(p) for idx, P in ref.terms.items()})
        with pytest.raises(ValueError):
            tangent_system_dim(reduced)
        with pytest.raises(ValueError):
            tangent_system_matrices(reduced)


def test_tangent_rows_are_those_of_the_primitive_integer_form():
    # the rows are linear in the form, so every multiple of it gives the
    # rows of its primitive integer multiple, as Python ints
    rng = random.Random(7008)
    forms = [reference_form(), build_rational(_rational_quadric(rng), _rational_quadric(rng))]
    for omega in forms:
        euler_rows, integ_rows, _ = tangent_system_matrices(omega)
        assert all(type(c) is int for row in euler_rows + integ_rows for c in row)
        scaled = tangent_system_matrices(omega * Fraction(-3, 7))
        assert scaled[:2] == (euler_rows, integ_rows)
        assert tangent_system_dim(omega * Fraction(-3, 7)) == tangent_system_dim(omega)


def test_in_tangent_kernel():
    ref = reference_form()
    assert in_tangent_kernel(ref, DiffForm.zero(4, 1))
    assert in_tangent_kernel(ref, ref)
    x = [MultiPoly.variable(4, i) for i in range(4)]
    eta = DiffForm.one_form([x[1] ** 2 * 2 * x[0], -(x[0] ** 2) * 2 * x[1],
                             MultiPoly.zero(4), MultiPoly.zero(4)])
    assert not in_tangent_kernel(ref, eta)


def _wedge_in_tangent_kernel(omega_bar, eta):
    """The membership oracle, on the forms themselves: eta has cubic
    coefficients, descends, and omega ^ d(eta) + eta ^ d(omega) = 0."""
    if eta.is_zero:
        return True
    if eta.coefficient_degrees() != [3] or not eta.has_homogeneous_coefficients():
        return False
    if not descends_check(eta).ok:
        return False
    residual = wedge(omega_bar, exterior_derivative(eta)) + wedge(eta, exterior_derivative(omega_bar))
    return residual.is_zero


@functools.cache
def _forms_and_lie_derivatives():
    """The criterion-05 forms, a GL(4) pullback and two seeded rational
    forms, each with its 16 Lie derivatives along x_j d/dx_i."""
    fields = affine_fields(4)
    forms = [reference_form(), derive_omega_bar().omega_bar,
             contract_volume(fields.X, fields.Y), _gl4_pullback(7014)]
    forms += _rational_forms(7015, 2)
    x = [MultiPoly.variable(4, i) for i in range(4)]
    zero = MultiPoly.zero(4)
    units = [PolyVectorField([x[j] if k == i else zero for k in range(4)])
             for i in range(4) for j in range(4)]
    return [(omega, [lie_derivative(A, omega) for A in units]) for omega in forms]


def test_every_linear_lie_derivative_is_a_member():
    for omega, derivatives in _forms_and_lie_derivatives():
        for eta in derivatives:
            assert in_tangent_kernel(omega, eta)
            assert _wedge_in_tangent_kernel(omega, eta)


def test_a_member_must_descend():
    # for omega = build_rational(P, Q), each eta = dh with h in P^2, PQ, Q^2
    # has omega ^ d(eta) + eta ^ d(omega) = dh ^ d(omega) = 0, as h is a
    # function of P and Q, but i_R(eta) = 4h: only the Euler rows refuse it
    rng = random.Random(7016)
    P, Q = _rational_quadric(rng), _rational_quadric(rng)
    omega = build_rational(P, Q)
    for h in (P * P, P * Q, Q * Q):
        eta = differential(h)
        assert (wedge(omega, exterior_derivative(eta)) + wedge(eta, exterior_derivative(omega))).is_zero
        assert not in_tangent_kernel(omega, eta)
        assert not _wedge_in_tangent_kernel(omega, eta)


def _sparse_polys(degree):
    monomials = [e for e in itertools.product(range(degree + 1), repeat=4) if sum(e) == degree]
    terms = st.dictionaries(st.sampled_from(monomials),
                            st.integers(-3, 3).filter(bool).map(Fraction), min_size=1, max_size=2)
    return terms.map(lambda t: MultiPoly(4, t))


@settings(max_examples=60)
@given(st.integers(0, 5),
       st.dictionaries(st.sampled_from(list(itertools.combinations(range(4), 2))),
                       _sparse_polys(2), max_size=3),
       st.lists(st.integers(-2, 2), min_size=16, max_size=16),
       st.dictionaries(st.sampled_from([(s,) for s in range(4)]), _sparse_polys(3), max_size=1))
def test_row_membership_equals_the_wedge_oracle(index, alpha, weights, rest):
    # eta = i_R(alpha), which descends, plus an orbit direction, plus a
    # term that in general does not descend
    omega, derivatives = _forms_and_lie_derivatives()[index]
    eta = interior_product(euler_field(4), DiffForm(4, 2, alpha)) + DiffForm(4, 1, rest)
    for weight, derivative in zip(weights, derivatives):
        eta = eta + derivative * weight
    assert in_tangent_kernel(omega, eta) == _wedge_in_tangent_kernel(omega, eta)


def test_linear_symmetry_directions_in_kernel():
    # the derivative of omega along any linear field is a tangent direction
    rng = random.Random(7005)
    bar = derive_omega_bar().omega_bar
    x = [MultiPoly.variable(4, i) for i in range(4)]
    for _ in range(5):
        coeffs = [sum((Fraction(rng.randint(-2, 2)) * x[j] for j in range(4)),
                      MultiPoly.zero(4)) for _ in range(4)]
        moved = lie_derivative(PolyVectorField(coeffs), bar)
        assert in_tangent_kernel(bar, moved)


def test_double_tangency():
    report = check_double_tangency()
    assert report.constant == 16
    assert report.identity_ok is True
    assert report.multiplicity_exactly_two is True


def test_pipeline_error_carries_stage():
    err = PipelineError("saturate", "boom")
    assert isinstance(err, RuntimeError)
    assert err.stage == "saturate"
    assert "saturate" in str(err)


def _failed(check):
    """check, run as it is, with its verdict turned to a failure."""
    return lambda omega: check(omega)._replace(ok=False)


def _saturated_as(make_form):
    """saturate, with its form replaced by make_form(form) and its factor
    left as it is."""
    def replaced(omega):
        sat = saturate(omega)
        return sat._replace(form=make_form(sat.form))
    return replaced


_X4 = [MultiPoly.variable(4, i) for i in range(4)]

# Each refusal of derive_omega_bar: the module and name of the stage before
# it, what that stage is replaced by, and the stage and message refused.
_DERIVE_REFUSALS = {
    "build": (components, "integrability_check", _failed(integrability_check), "build",
              "rational constructor: integrability check failed, omega ^ d omega is nonzero"),
    "restriction-vanished": (exceptional, "restrict_to_hyperplane",
                             lambda omega, inclusion: DiffForm.zero(4, 1),
                             "restrict", "restriction vanished identically"),
    "restriction-not-integrable": (
        exceptional, "restrict_to_hyperplane",
        lambda omega, inclusion: DiffForm.one_form([_X4[1], -_X4[0], _X4[3], -_X4[2]]),
        "restrict", "restriction lost integrability"),
    "degrees": (exceptional, "saturate", _saturated_as(lambda form: form * _X4[0]),
                "saturate", "saturated coefficients have degrees [4]"),
    "does-not-descend": (exceptional, "saturate",
                         _saturated_as(lambda form: _undescending_forms(7013, 1)[0]),
                         "saturate", "saturated form does not descend"),
    "not-integrable": (exceptional, "saturate",
                       _saturated_as(lambda form: _descending_forms(7012, 1)[0]),
                       "saturate", "saturated form is not integrable"),
}


@pytest.mark.parametrize("refusal", sorted(_DERIVE_REFUSALS))
def test_every_derive_refusal_fires(monkeypatch, refusal):
    # the library raises the stage's PipelineError, and `exceptional derive`
    # prints it and exits 4, a failed certificate, with no report
    module, name, replacement, stage, message = _DERIVE_REFUSALS[refusal]
    monkeypatch.setattr(module, name, replacement)
    with pytest.raises(PipelineError) as info:
        derive_omega_bar()
    assert (info.value.stage, str(info.value)) == (stage, "stage %r: %s" % (stage, message))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["exceptional", "derive"])
    assert (code, out.getvalue(), err.getvalue()) == (4, "", "error: %s\n" % info.value)

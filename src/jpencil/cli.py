"""Command-line driver tying the pipeline together.

Reports are plain "key: value" lines in a stable order, so runs can be
diffed byte for byte; --json swaps the same content into one JSON
document.  Exit codes are stable per failure class: 0 all verdicts
pass, 2 argument errors, 3 precondition failures (bad primes, unusable
input, a form a constructor refuses), 4 certification failures: a false
verdict (every boolean in a report is one) or a PipelineError.

Binary quartics are entered either as five comma-separated divided
coordinates (a0,a1,a2,a3,a4) or as a polynomial in t0, t1.  Forms
travel in the text format of form_to_text: a "vars:" line followed by
one "coeff NAME:" line per variable.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import binary, polytext
from .components import WeightError, build_linear_pullback, build_logarithmic, build_rational
from .exceptional import (
    PipelineError,
    affine_fields,
    build_omega4,
    check_double_tangency,
    contract_volume,
    derive_omega_bar,
    reference_form,
    tangent_system_dim,
)
from .exterior import (
    descends_check,
    euler_field,
    exterior_derivative,
    form_items,
    form_to_text,
    integrability_check,
    interior_product,
    lie_bracket,
    parse_form_text,
    saturate,
)
from .poly import BadPrimeError, MultiPoly
from .varietyprobe import compare_sets, stratum_points, zero_locus

DEFAULT_PRIMES = (5, 7, 11, 13)


# -- report plumbing -------------------------------------------------------

def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[%s]" % ",".join(str(v) for v in value)
    return str(value)


def _point_text(pt):
    return "(%s)" % ":".join(str(x) for x in pt)


def _emit(items, as_json):
    if as_json:
        # repeated keys (multi-prime probe blocks, witness lines) become lists
        doc = {}
        for key, value in items:
            if isinstance(value, Fraction):
                value = str(value)
            if key in doc:
                if not isinstance(doc[key], list):
                    doc[key] = [doc[key]]
                doc[key].append(value)
            else:
                doc[key] = value
        print(json.dumps(doc, indent=2))
    else:
        for key, value in items:
            print("%s: %s" % (key, _fmt(value)))


def _form_report(head, body, omega, var_names, out):
    """A report that ends in a 1-form: the head items, an "out" item when
    the form is also written to the file out, the body items, then the
    form itself."""
    if out:
        with open(out, "w") as fh:
            fh.write(form_to_text(omega, var_names))
        head = head + [("out", out)]
    return head + body + form_items(omega, var_names)


# -- input parsing ---------------------------------------------------------

def _parse_fraction(text):
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError("bad rational literal %r" % text)


def _parse_quartic(text):
    """Comma vector of divided coordinates, else a polynomial in t0, t1."""
    if "," in text:
        coords = [_parse_fraction(part) for part in text.split(",")]
        return binary.BinaryForm(coords)
    P = polytext.parse_poly(text, ("t0", "t1"))
    binary.require_quartic(P.homogeneous_degree())  # before from_poly builds r + 1 binomials
    return binary.BinaryForm.from_poly(P)


def _parse_point(text):
    parts = [part for part in text.split(",")]
    if len(parts) != 2:
        raise ValueError("a point of the line has two coordinates, got %r" % text)
    return (_parse_fraction(parts[0]), _parse_fraction(parts[1]))


def _parse_matrix(text):
    rows = []
    for row_text in text.split(";"):
        rows.append([_parse_fraction(part) for part in row_text.split(",")])
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise ValueError("ragged matrix rows")
    return rows


def _load_form(path):
    with open(path) as fh:
        return parse_form_text(fh.read())


def _infer_vars(texts):
    return polytext.variables_in(" + ".join("(%s)" % t for t in texts))


# -- binary quartic commands -----------------------------------------------

def _quartic_items(command, text, keys):
    """The report of a quartic command: the listed keys, in their order,
    of the quartic's invariants, root pattern and j-values."""
    F = _parse_quartic(text)
    inv = binary.invariants_qcd(F)
    pattern = binary.root_pattern(F)
    values = {
        "input": text,
        "divided": ",".join(str(c) for c in F.coeffs),
        "Q": inv.Q,
        "C": inv.C,
        "D": inv.D,
        "jRaw": binary.j_invariant(F, "RAW"),
        "jClassical": binary.j_invariant(F, "CLASSICAL"),
        "pattern": list(pattern.multiplicities),
        "class": pattern.orbit_class,
    }
    return [("command", command)] + [(key, values[key]) for key in keys]


def _cmd_invariants(args):
    return _quartic_items("invariants", args.quartic, (
        "input", "divided", "Q", "C", "D", "jRaw", "jClassical", "pattern", "class"))


def _cmd_classify(args):
    return _quartic_items("classify", args.quartic, (
        "input", "pattern", "class", "Q", "C", "D", "jClassical"))


def _cmd_veronese(args):
    point = _parse_point(args.point)
    F = binary.veronese(args.degree, point)
    return [
        ("command", "veronese"),
        ("point", args.point),
        ("degree", args.degree),
        ("divided", ",".join(str(c) for c in F.coeffs)),
    ]


# -- constructors ----------------------------------------------------------

# The constructors' own certificate: a form they return descends and is
# integrable, and one that fails either check is a ValueError (exit 3).
_CONSTRUCTOR_VERDICTS = [("descends", True), ("integrable", True)]


def _cmd_build_rational(args):
    var_names = _infer_vars([args.F1, args.F2])
    F1 = polytext.parse_poly(args.F1, var_names)
    F2 = polytext.parse_poly(args.F2, var_names)
    omega = build_rational(F1, F2)
    head = [("command", "build rational"),
            ("F1", polytext.poly_to_text(F1, var_names)),
            ("F2", polytext.poly_to_text(F2, var_names))]
    return _form_report(head, _CONSTRUCTOR_VERDICTS, omega, var_names, args.out)


def _cmd_build_log(args):
    if not args.factor:
        raise ValueError("need at least two --factor arguments")
    var_names = _infer_vars(args.factor)
    factors = [polytext.parse_poly(t, var_names) for t in args.factor]
    weights = [_parse_fraction(t) for t in args.weight or []]
    omega = build_logarithmic(factors, weights)
    head = [("command", "build log"),
            ("factors", len(factors)),
            ("weights", ",".join(str(w) for w in weights))]
    return _form_report(head, _CONSTRUCTOR_VERDICTS, omega, var_names, args.out)


def _cmd_build_pullback(args):
    eta, eta_vars = _load_form(args.form)
    matrix = _parse_matrix(args.matrix)
    omega = build_linear_pullback(matrix, eta)
    new_names = tuple("x%d" % i for i in range(omega.arity))
    head = [("command", "build pullback"),
            ("form", args.form),
            ("matrixRows", len(matrix)),
            ("matrixCols", len(matrix[0]))]
    return _form_report(head, _CONSTRUCTOR_VERDICTS, omega, new_names, args.out)


def _cmd_check(args):
    omega, var_names = _load_form(args.form)
    if omega.is_zero:
        raise ValueError("%s: the zero form defines no foliation" % args.form)
    dc = descends_check(omega)
    ic = integrability_check(omega)
    items = [
        ("command", "check"),
        ("form", args.form),
        ("arity", omega.arity),
        ("descends", dc.ok),
        ("integrable", ic.ok),
    ]
    if not dc.ok:
        items.append(("eulerResidual", polytext.poly_to_text(dc.residual, var_names)))
    if not ic.ok:
        idx, coeff = sorted(ic.residual.terms.items())[0]
        component = "^".join("d %s" % var_names[i] for i in idx)
        items.append(("firstResidualComponent", component))
        items.append(("firstResidualCoefficient", polytext.poly_to_text(coeff, var_names)))
    return items


# -- exceptional pipeline --------------------------------------------------

_A_NAMES = ("a0", "a1", "a2", "a3")
_QUARTIC_NAMES = ("a0", "a1", "a2", "a3", "a4")
_X_NAMES = ("x0", "x1", "x2", "x3")


def _cmd_exc_derive(args):
    report = derive_omega_bar()
    body = [("factor", polytext.poly_to_text(report.factor, _A_NAMES)),
            ("factorExact", polytext.poly_to_text(report.factor_exact, _A_NAMES)),
            ("factorDegree", report.certifications["factorDegree"]),
            ("coefficientDegree", report.certifications["coefficientDegree"]),
            ("descends", report.certifications["descends"]),
            ("integrable", report.certifications["integrable"])]
    for i, name in enumerate(_A_NAMES):
        coeff = report.omega_h.terms.get((i,), MultiPoly.zero(4))
        body.append(("hyperplane %s" % name, polytext.poly_to_text(coeff, _A_NAMES)))
    return _form_report([("command", "exceptional derive")], body,
                        report.omega_bar, _A_NAMES, args.out)


def _cmd_exc_paper_form(args):
    omega = reference_form()
    sat = saturate(omega)
    body = [("descends", descends_check(omega).ok),
            ("integrable", integrability_check(omega).ok),
            ("coefficientDegree", omega.coefficient_degrees()[0]),
            ("saturationFactorDegree", sat.factor.total_degree())]
    return _form_report([("command", "exceptional paper-form")], body,
                        omega, _X_NAMES, args.out)


def _cmd_exc_fields(args):
    fields = affine_fields(4)
    omega = contract_volume(fields.X, fields.Y)
    sat = saturate(omega)
    items = [("command", "exceptional fields")]
    for name, field in (("X", fields.X), ("Y", fields.Y), ("R", euler_field(4))):
        items.append((name, ", ".join(polytext.poly_to_text(c, _X_NAMES)
                                      for c in field.coeffs)))
    bracket_xy = lie_bracket(fields.X, fields.Y)
    items.append(("bracketXYisMinusY", bracket_xy == -fields.Y))
    bracket_xr = lie_bracket(fields.X, euler_field(4))
    items.append(("bracketXRisZero", all(c.is_zero for c in bracket_xr.coeffs)))
    for name, field in (("annihilatesX", fields.X), ("annihilatesY", fields.Y)):
        contracted = interior_product(field, omega)
        items.append((name, all(c.is_zero for c in contracted.terms.values())))
    # i_R(omega) is the descent residual: one check gives both verdicts
    descends = descends_check(omega).ok
    items += [("annihilatesR", descends), ("descends", descends),
              ("integrable", integrability_check(omega).ok)]
    items.append(("saturationFactor", polytext.poly_to_text(sat.factor, _X_NAMES)))
    return items + form_items(omega, _X_NAMES)


def _cmd_exc_tangent_dim(args):
    if args.form:
        omega, var_names = _load_form(args.form)
        label = args.form
    else:
        omega = reference_form()
        label = "reference"
    report = tangent_system_dim(omega)
    return [
        ("command", "exceptional tangent-dim"),
        ("form", label),
        ("ambientDim", report.ambient_dim),
        ("rawKernelDim", report.raw_kernel_dim),
        ("projectiveDim", report.projective_dim),
        ("containsOmegaBar", report.contains_omega_bar),
    ]


def _cmd_exc_double_tangency(args):
    report = check_double_tangency()
    return [
        ("command", "exceptional double-tangency"),
        ("constant", report.constant),
        ("identityOk", report.identity_ok),
        ("multiplicityExactlyTwo", report.multiplicity_exactly_two),
    ]


# -- finite-field probes ---------------------------------------------------

def _witness_items(label, points):
    items = []
    shown = list(points)[:20]
    for pt in shown:
        items.append((label, _point_text(pt)))
    if len(points) > 20:
        items.append(("%sTruncated" % label, True))
    return items


def _delta_and_partials():
    D = binary.invariant_polys().D
    return [D] + [D.partial_derivative(i) for i in range(5)]


# Each probe target: the builder of the polynomials whose common zeros it
# enumerates, the variable names the other commands print the same object
# in, and the strata whose union the locus is compared with, or None for
# the expected count 1.
_PROBES = {
    "sing-omega4": (lambda: build_omega4().coefficients(), _QUARTIC_NAMES, ("TBAR", "NBAR")),
    "sing-omega-bar": (lambda: derive_omega_bar().omega_bar.coefficients(), _A_NAMES,
                       ("P1P", "X2", "X3")),
    "sing-d-omega-bar": (lambda: list(exterior_derivative(reference_form()).terms.values()),
                         _X_NAMES, None),
    "base-locus": (lambda: list(binary.invariant_polys()[:2]), _QUARTIC_NAMES, ("TBAR",)),
    "delta-sing": (_delta_and_partials, _QUARTIC_NAMES, ("TBAR", "NBAR")),
}

PROBE_TARGETS = tuple(_PROBES)


def _probe_one(polys, names, strata, p):
    """One prime block: the locus against the union of the strata, or
    with strata None against the expected count 1.  Every input that
    vanishes identically mod p (a bad reduction, which imposes no
    condition on the locus) is named before the witnesses."""
    locus = zero_locus(polys, len(names) - 1, p)
    items = [("prime", p), ("locusCount", len(locus))]
    vanishing = [("vanishesModP", polytext.poly_to_text(P, names))
                 for P in polys if P.reduce_mod(p).is_zero]
    if strata is None:
        equal = len(locus) == 1
        items += [("expectedCount", 1), ("equal", equal)] + vanishing
        if not equal:
            items += _witness_items("witness", locus)
        return items
    point_sets = [stratum_points(name, p) for name in strata]
    union = point_sets[0]
    for other in point_sets[1:]:
        union = union.union(other)
    report = compare_sets(locus, union)
    items += [("stratumCount", len(union)), ("equal", report.equal)] + vanishing
    if not report.equal:
        items += _witness_items("onlyLocus", report.only_a)
        items += _witness_items("onlyStratum", report.only_b)
    return items


def _cmd_probe(args):
    primes = list(DEFAULT_PRIMES) if args.prime is None else [args.prime]
    build, names, strata = _PROBES[args.target]
    polys = build()
    items = [("command", "probe"), ("target", args.target)]
    for p in primes:
        items += _probe_one(polys, names, strata, p)
    return items


# -- argument grammar and dispatch -----------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """argparse reads only integer and decimal literals as negative numbers,
    so -1/2, -1/2,0,0,0,1 or -x0^2*x1 would be taken for an unknown option.
    No option here starts with a digit or a variable name (x, a, z or t and
    a digit, as in polytext), so an argument that starts with '-' and one of
    those is a value.  Subparsers are made with the same class.

    This replaces argparse's private _negative_number_matcher, which
    ArgumentParser sets in __init__ and reads in _parse_optional (checked
    on CPython 3.11); tests/test_cli.py fails by name if it is gone."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[xazt]?\d")


def build_parser():
    parser = _ArgumentParser(
        prog="jpencil",
        description="exact certificates for the quartic pencil and its exceptional form")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as one JSON document")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("invariants", help="Q, C, D, j and the root pattern of a quartic")
    p.add_argument("quartic", help="divided coordinates a0,a1,a2,a3,a4 or a polynomial in t0,t1")
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("classify", help="orbit class of a quartic by root multiplicities")
    p.add_argument("quartic")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("veronese", help="divided coordinates of a power of a linear form")
    p.add_argument("point", help="point of the line as c,d")
    p.add_argument("--degree", type=int, default=4)
    p.set_defaults(handler=_cmd_veronese)

    p = sub.add_parser("build", help="construct a certified integrable 1-form")
    build_sub = p.add_subparsers(dest="constructor", required=True)

    q = build_sub.add_parser("rational", help="from two homogeneous polynomials")
    q.add_argument("F1")
    q.add_argument("F2")
    q.add_argument("--out", help="write the form to this file")
    q.set_defaults(handler=_cmd_build_rational)

    q = build_sub.add_parser("log", help="weighted logarithmic combination of factors")
    q.add_argument("--factor", action="append", help="repeat for each factor")
    q.add_argument("--weight", action="append", help="repeat for each weight")
    q.add_argument("--out")
    q.set_defaults(handler=_cmd_build_log)

    q = build_sub.add_parser("pullback", help="pull an arity-3 form back along a linear map")
    q.add_argument("--form", required=True, help="form file for the arity-3 input")
    q.add_argument("--matrix", required=True,
                   help="rows separated by ';', entries by ','; one row per input variable")
    q.add_argument("--out")
    q.set_defaults(handler=_cmd_build_pullback)

    p = sub.add_parser("check", help="certify a form file: Euler descent and integrability")
    p.add_argument("--form", required=True)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("exceptional", help="the degree-two form on the hyperplane chart")
    exc_sub = p.add_subparsers(dest="step", required=True)

    q = exc_sub.add_parser("derive", help="restrict, saturate, and certify the pipeline")
    q.add_argument("--out", help="write the saturated form to this file")
    q.set_defaults(handler=_cmd_exc_derive)

    q = exc_sub.add_parser("paper-form", help="the fixed reference representative, certified")
    q.add_argument("--out")
    q.set_defaults(handler=_cmd_exc_paper_form)

    q = exc_sub.add_parser("fields", help="the affine symmetry fields and their volume contraction")
    q.set_defaults(handler=_cmd_exc_fields)

    q = exc_sub.add_parser("tangent-dim", help="dimension of the linearized deformation space")
    q.add_argument("--form", help="form file; default is the reference representative")
    q.set_defaults(handler=_cmd_exc_tangent_dim)

    q = exc_sub.add_parser("double-tangency", help="discriminant restriction identity")
    q.set_defaults(handler=_cmd_exc_double_tangency)

    p = sub.add_parser("probe", help="finite-field zero locus vs stratum comparisons")
    p.add_argument("--target", required=True, choices=PROBE_TARGETS)
    p.add_argument("--prime", type=int, default=None,
                   help="single prime; default runs %s" % (",".join(str(q) for q in DEFAULT_PRIMES)))
    p.set_defaults(handler=_cmd_probe)

    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        items = args.handler(args)
    except (BadPrimeError, PipelineError, WeightError, polytext.PolyParseError,
            ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4 if isinstance(exc, PipelineError) else 3
    _emit(items, args.json)
    return 4 if any(value is False for _, value in items) else 0


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed standard output: leave quietly, as a process
        # killed by SIGPIPE would, and point stdout at os.devnull so that
        # the flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    main()

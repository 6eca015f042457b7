"""Text grammar: canonical printing, parsing, round trips."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jpencil.poly import MultiPoly
from jpencil.polytext import PolyParseError, parse_poly, poly_to_text, variables_in


def test_parse_basic():
    P = parse_poly("x0^2 - 2*x0*x1 + x1^2", ("x0", "x1"))
    assert P == (MultiPoly.variable(2, 0) - MultiPoly.variable(2, 1)) ** 2


def test_parse_rational_coefficients():
    P = parse_poly("1/2*x0 + 3/4*x1", ("x0", "x1"))
    assert P.terms[(1, 0)] == Fraction(1, 2)
    assert P.terms[(0, 1)] == Fraction(3, 4)


def test_parse_parentheses_and_unary_minus():
    P = parse_poly("-(x0 - x1)*(x0 + x1)", ("x0", "x1"))
    assert P == MultiPoly.variable(2, 1) ** 2 - MultiPoly.variable(2, 0) ** 2


def test_variables_in():
    assert variables_in("a0*a3 + a1") == ("a0", "a1", "a2", "a3")
    assert variables_in("t1") == ("t0", "t1")
    with pytest.raises(PolyParseError):
        variables_in("x0 + a1")
    with pytest.raises(PolyParseError):
        variables_in("t2")


def test_print_canonical_order():
    # grlex descending, signs folded into separators, unit coefficients dropped
    x = [MultiPoly.variable(3, i) for i in range(3)]
    P = x[2] ** 3 - x[0] * x[1] + 2 * x[0] - x[2]
    assert poly_to_text(P, ("x0", "x1", "x2")) == "x2^3 - x0*x1 + 2*x0 - x2"
    assert poly_to_text(MultiPoly.zero(3), ("x0", "x1", "x2")) == "0"


# every alphabet of the grammar, at a few arities, and the binary pair
_ALPHABETS = [tuple("%s%d" % (letter, i) for i in range(n))
              for letter in "xaz" for n in (1, 3, 5)] + [("t0", "t1")]
_COEFFS = st.one_of(st.integers(-50, 50),
                    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)))


@st.composite
def _named_polys(draw):
    names = draw(st.sampled_from(_ALPHABETS))
    exps = st.tuples(*[st.integers(0, 3)] * len(names))
    return MultiPoly(len(names), draw(st.dictionaries(exps, _COEFFS, max_size=6))), names


@given(_named_polys())
def test_round_trip_random(named):
    # parse after print is the identity
    P, names = named
    assert parse_poly(poly_to_text(P, names), names) == P


def test_parse_errors():
    with pytest.raises(PolyParseError):
        parse_poly("x0 +", ("x0", "x1"))
    with pytest.raises(PolyParseError):
        parse_poly("x0 $ x1", ("x0", "x1"))
    with pytest.raises(PolyParseError):
        parse_poly("x9", ("x0", "x1"))
    with pytest.raises(PolyParseError):
        parse_poly("x0 x1", ("x0", "x1"))  # implicit product is not in the grammar

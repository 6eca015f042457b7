"""Polynomial text grammar: parser and canonical printer, round-trip exact.

Variables are x0..xN, a0..aN, z0..zN, or the binary pair t0, t1.  Literals are
integers or rationals p/q written between integer literals only.  Operators
are + - * ^ with parentheses; multiplication is always explicit, there is no
implicit juxtaposition.  Printing emits terms in the global graded-lex order,
highest first, and always round-trips through the parser to an equal value.
"""

import re
from fractions import Fraction

from .poly import MultiPoly, grlex_key


class PolyParseError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<rational>\d+\s*/\s*\d+)"
    r"|(?P<integer>\d+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^()])"
    r")"
)

_VAR_RE = re.compile(r"^([xazt])(\d+)$")


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PolyParseError("unexpected character %r at position %d" % (text[pos], pos))
        pos = m.end()
        if m.group("rational"):
            num, den = m.group("rational").split("/")
            d = int(den)
            if d == 0:
                raise PolyParseError("zero denominator in rational literal")
            tokens.append(("num", Fraction(int(num), d)))
        elif m.group("integer"):
            tokens.append(("num", int(m.group("integer"))))
        elif m.group("name"):
            tokens.append(("name", m.group("name")))
        else:
            tokens.append((m.group("op"), m.group("op")))
    return tokens


def variables_in(text):
    """The ordered variable list a polynomial string implies.

    All names must share one letter among x, a, z, t; arity is max index + 1
    (t is the two-variable binary alphabet and allows t0, t1 only).
    """
    letters = set()
    max_index = -1
    for kind, value in _tokenize(text):
        if kind != "name":
            continue
        m = _VAR_RE.match(value)
        if m is None:
            raise PolyParseError("unknown variable %r" % value)
        letters.add(m.group(1))
        max_index = max(max_index, int(m.group(2)))
    if not letters:
        raise PolyParseError("no variables found in %r" % text)
    if len(letters) > 1:
        raise PolyParseError("mixed variable alphabets %s" % sorted(letters))
    letter = letters.pop()
    if letter == "t" and max_index > 1:
        raise PolyParseError("the t alphabet has only t0 and t1")
    if letter == "t":
        max_index = 1
    return tuple("%s%d" % (letter, i) for i in range(max_index + 1))


class _Parser:
    def __init__(self, tokens, var_index, arity):
        self.tokens = tokens
        self.pos = 0
        self.var_index = var_index
        self.arity = arity

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise PolyParseError("expected %r, got %r" % (kind, tok[1]))
        return tok

    def parse_expression(self):
        kind, _ = self.peek()
        negate = False
        while kind in ("+", "-"):
            self.next()
            if kind == "-":
                negate = not negate
            kind, _ = self.peek()
        result = self.parse_term()
        if negate:
            result = -result
        while True:
            kind, _ = self.peek()
            if kind == "+":
                self.next()
                result = result + self.parse_term()
            elif kind == "-":
                self.next()
                result = result - self.parse_term()
            else:
                return result

    def parse_term(self):
        result = self.parse_factor()
        while self.peek()[0] == "*":
            self.next()
            result = result * self.parse_factor()
        return result

    def parse_factor(self):
        negate = False
        while self.peek()[0] == "-":
            self.next()
            negate = not negate
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.next()
            kind, value = self.next()
            if kind != "num" or value < 0 or value != int(value):
                raise PolyParseError("exponent must be a non-negative integer")
            base = base ** int(value)
        return -base if negate else base

    def parse_atom(self):
        kind, value = self.next()
        if kind == "num":
            return MultiPoly.constant(self.arity, value)
        if kind == "name":
            if value not in self.var_index:
                raise PolyParseError("variable %r not in scope %s" % (value, sorted(self.var_index)))
            return MultiPoly.variable(self.arity, self.var_index[value])
        if kind == "(":
            inner = self.parse_expression()
            self.expect(")")
            return inner
        raise PolyParseError("unexpected token %r" % (value,))


def parse_poly(text, var_names):
    """Parse a polynomial string over the given ordered variables."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial string")
    parser = _Parser(tokens, {name: i for i, name in enumerate(var_names)}, len(var_names))
    try:
        result = parser.parse_expression()
    except RecursionError:
        # the parser descends one level per open parenthesis
        raise PolyParseError("expression nested too deeply") from None
    if parser.pos != len(tokens):
        raise PolyParseError("trailing input %r" % (parser.tokens[parser.pos][1],))
    return result


def poly_to_text(P, var_names):
    """Canonical printing: graded-lex descending, explicit '*', '^' powers."""
    if len(var_names) != P.arity:
        raise ValueError("got %d names for arity %d" % (len(var_names), P.arity))
    if P.is_zero:
        return "0"
    pieces = []
    for exps in sorted(P.terms, key=grlex_key, reverse=True):
        c = P.terms[exps]
        vars_part = []
        for name, e in zip(var_names, exps):
            if e == 1:
                vars_part.append(name)
            elif e > 1:
                vars_part.append("%s^%d" % (name, e))
        negative = c < 0
        mag = -c if negative else c
        if not vars_part:
            body = str(mag)
        elif mag == 1:
            body = "*".join(vars_part)
        else:
            body = "*".join([str(mag)] + vars_part)
        pieces.append(("-" if negative else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += " %s %s" % (sign, body)
    return out

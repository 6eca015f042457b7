"""The four benchmark workloads: seeded inputs, certificates and their checks.

Each workload produces its inputs in passes.  Pass k is a pure function of
(workload, seed, k), made of plain integers and tuples, so that the same
seed always gives byte-identical inputs (`describe`).  A certificate is one
item of a pass: `run` makes the program calls for it and returns what the
program produced; `check` compares that with the known answer after the
timed loop and returns None or the reason it is wrong.

Every pass holds the same mix of certificate kinds, so the cost of a run
does not depend on which seed was drawn beyond the inputs themselves.  Where
one certificate costs seconds and a run holds only a few of them, the seed
moves a base input fixed in this file only along a symmetry that leaves the
program's work the same (`_flip_variables`, `_column_scales`): drawn freely,
the cost of such inputs ranged over 1.5x to 3x, which a run of a few
certificates cannot average out.
"""

import contextlib
import io
import os
import random
from fractions import Fraction
from itertools import combinations_with_replacement

from jpencil import binary, cli, components, exceptional, exterior, poly


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process `jpencil` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def reduce_mod(P, p):
    """The image of a rational polynomial in F_p[x], through the public
    MultiPoly and FpElement types; a denominator divisible by p is an error."""
    terms = {}
    for exps, c in P.terms.items():
        c = Fraction(c)
        if c.denominator % p == 0:
            raise ValueError("denominator %d vanishes mod %d" % (c.denominator, p))
        v = c.numerator * pow(c.denominator, -1, p) % p
        if v:
            terms[exps] = poly.FpElement(v, p)
    return poly.MultiPoly(P.arity, terms)


# -- seeded integer data -----------------------------------------------------

def _rng(workload, seed, k):
    return random.Random("%s:%d:%d" % (workload, seed, k))


def _monomials(n, d):
    out = []
    for combo in combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def _dense(rng, n, d, bound=3):
    """Integer coefficients on every monomial of degree d, not all zero."""
    while True:
        data = tuple((m, rng.randint(-bound, bound)) for m in _monomials(n, d))
        data = tuple((m, c) for m, c in data if c)
        if data:
            return data


def _sparse(rng, n, d, k):
    """k distinct monomials of degree d with coefficients in {-2,-1,1,2}."""
    chosen = rng.sample(_monomials(n, d), k)
    return tuple(sorted((m, rng.choice((-2, -1, 1, 2))) for m in chosen))


def _int_mul(a, b):
    out = {}
    for ea, ca in a:
        for eb, cb in b:
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return tuple(sorted((e, c) for e, c in out.items() if c))


def _proportional(a, b):
    """Whether two integer polynomials (as term tuples) are scalar multiples."""
    da, db = dict(a), dict(b)
    if set(da) != set(db):
        return False
    m = next(iter(da))
    return all(da[e] * db[m] == db[e] * da[m] for e in da)


def _int_rank(rows):
    """Fraction-free rank of an integer matrix (benchmark-side input check)."""
    rows = [list(r) for r in rows]
    rank, prev = 0, 1
    cols = len(rows[0])
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            rows[r] = [(rows[rank][c] * rows[r][j] - rows[r][c] * rows[rank][j]) // prev
                       for j in range(cols)]
        prev = rows[rank][c]
        rank += 1
    return rank


def _full_rank_matrix(rng, n_rows, n_cols, bound, nonzero=False):
    values = [v for v in range(-bound, bound + 1) if v or not nonzero]
    while True:
        m = tuple(tuple(rng.choice(values) for _ in range(n_cols)) for _ in range(n_rows))
        if _int_rank(m) == min(n_rows, n_cols):
            return m


def _fixed_rng(name):
    """A generator for base inputs that are the same for every seed."""
    return random.Random("perfbench-base:%s" % name)


def _column_scales(rng, matrix, scales):
    """matrix * diag(s) for seeded s drawn from `scales`.

    Precomposing with a diagonal map rescales each variable: the supports of
    every polynomial the program builds from the result, and so its work,
    stay those of the base matrix.
    """
    s = [rng.choice(scales) for _ in matrix[0]]
    return tuple(tuple(x * si for x, si in zip(row, s)) for row in matrix)


def _flip_variables(data, signs):
    """A polynomial (as a term tuple) after x_i -> signs[i] * x_i."""
    out = []
    for exps, c in data:
        for e, s in zip(exps, signs):
            c *= s ** e
        out.append((exps, c))
    return tuple(out)


def _quadric_pair(rng):
    """Two non-proportional four-term quadrics in four variables."""
    while True:
        f1, f2 = _sparse(rng, 4, 2, 4), _sparse(rng, 4, 2, 4)
        if not _proportional(f1, f2):
            return f1, f2


def _poly(arity, data):
    return poly.MultiPoly(arity, {e: Fraction(c) for e, c in data})


def _fractions(matrix):
    return [[Fraction(x) for x in row] for row in matrix]


def describe(items):
    """Canonical text of a pass, for the same-seed self-test."""
    return "\n".join(repr(item) for item in items) + "\n"


# -- workloads ---------------------------------------------------------------

class Workload:
    name = None

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root

    def setup(self):
        """Shared inputs, built once before the first timed certificate."""

    def inputs(self, k):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output, oracle):
        raise NotImplementedError

    def golden(self, name):
        with open(os.path.join(self.root, "tests", "data", name), encoding="ascii") as fh:
            return fh.read()


class ExceptionalWorkload(Workload):
    """Linear algebra over Q: the CLI goldens and exact tangent dimensions."""

    name = "exceptional"
    STEPS = ("derive", "paper-form", "fields", "tangent-dim", "double-tangency")

    # Base inputs of the rational and orbit certificates.  Their cost moves
    # with the draw (0.7 to 2.4 s for rational forms, 2.7 to 4.3 s for
    # orbit matrices with entries in -2..2), so the seed only flips the signs
    # of the variables, which leaves the elimination's work unchanged.
    RATIONAL_BASES = tuple(_quadric_pair(_fixed_rng("rational:%d" % i)) for i in range(7))
    ORBIT_BASES = tuple(_full_rank_matrix(_fixed_rng("orbit:%d" % i), 4, 4, 2) for i in range(2))

    def setup(self):
        self.goldens = {s: self.golden("cli_%s.txt" % s.replace("-", "_")) for s in self.STEPS}

    def inputs(self, k):
        # One pass of ten certificates fills a run: with fewer than 11 the
        # tail is the maximum (an orbit certificate) and the median is the
        # middle of the seven rational ones.  A second pass would make it 20,
        # and the tail rule would then pick the 10th smallest.
        rng = _rng(self.name, self.seed, k)
        items = [("cli",)]
        for f1, f2 in self.RATIONAL_BASES:
            signs = [rng.choice((-1, 1)) for _ in range(4)]
            items.append(("rational", _flip_variables(f1, signs), _flip_variables(f2, signs)))
        for base in self.ORBIT_BASES:
            items.append(("orbit", _column_scales(rng, base, (-1, 1))))
        return items

    def run(self, item):
        kind = item[0]
        if kind == "cli":
            return [run_cli(["exceptional", step]) for step in self.STEPS]
        if kind == "orbit":
            form = exterior.pullback_form(_fractions(item[1]), exceptional.reference_form(), 4)
        else:
            form = components.build_rational(_poly(4, item[1]), _poly(4, item[2]))
        return form, exceptional.tangent_system_dim(form)

    def check(self, item, output, oracle):
        kind = item[0]
        if kind == "cli":
            for step, (code, out, err) in zip(self.STEPS, output):
                if code != 0 or err:
                    return "exceptional %s: exit %d %r" % (step, code, err)
                if out != self.goldens[step]:
                    return "exceptional %s: output differs from golden" % step
            return None
        form, report = output
        if kind == "orbit":
            # GL(4) acts on the integrability equations, so a pullback of the
            # reference form has the reference dimensions.
            expected = (45, 14, 13, True)
        else:
            expected = oracle.tangent_dims(form)
        got = tuple(report)
        return None if got == expected else "%s tangent dims %r, expected %r" % (kind, got, expected)


class CertifyWorkload(Workload):
    """Q constructors, saturation with a planted factor, text round trip and
    binary-quartic invariants."""

    name = "certify"
    PATTERNS = ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
    QUARTICS = 16

    def setup(self):
        self.scale = binary.discriminant_scale()

    def inputs(self, k):
        rng = _rng(self.name, self.seed, k)
        items = []

        # Denser classes ((2,2) rational forms, (1,1,2) forms on four
        # variables, planted quadrics on pullbacks) made the Q gcd run from
        # seconds to minutes; see "Known gaps" in README.md.  Each class here
        # is certified with a planted linear and a planted quadratic factor in
        # every pass, so that the mix of gcd degrees does not depend on the seed.
        for degree in (1, 2):
            while True:
                f1, f2 = _dense(rng, 4, 1), _dense(rng, 4, 2)
                if not _proportional(_int_mul(f1, f1), f2):
                    break
            items.append(("rational", f1, f2, _dense(rng, 4, degree)))
        for degree in (1, 2):
            while True:
                factors = (_dense(rng, 3, 1), _dense(rng, 3, 1), _dense(rng, 3, 2))
                a, b = rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((-3, -2, -1, 1, 2, 3))
                if a != b and a + b and not _proportional(factors[0], factors[1]):
                    break
            # degrees (1, 1, 2): 2a + 2b - 2(a + b) = 0
            items.append(("logarithmic", factors, (2 * a, 2 * b, -(a + b)), _dense(rng, 3, degree)))

        while True:
            g1, g2 = _sparse(rng, 3, 1, 2), _sparse(rng, 3, 2, 2)
            if not _proportional(_int_mul(g1, g1), g2):
                break
        items.append(("pullback", g1, g2, _full_rank_matrix(rng, 3, 5, 1), _dense(rng, 5, 1)))

        coeffs = []
        for _ in range(4):
            chosen = rng.sample(_monomials(4, 3), 6)
            coeffs.append(tuple(sorted((m, rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
                                       for m in chosen)))
        items.append(("roundtrip", tuple(coeffs)))

        quartics = []
        for _ in range(self.QUARTICS):
            pattern = rng.choice(self.PATTERNS)
            roots = []
            while len(roots) < len(pattern):
                c, d = rng.randint(-3, 3), rng.randint(-3, 3)
                if (c or d) and all(c * d2 != d * c2 for c2, d2 in roots):
                    roots.append((c, d))
            quartics.append((pattern, tuple(roots)))
        items.append(("quartics", tuple(quartics)))
        return items

    def run(self, item):
        kind = item[0]
        if kind == "roundtrip":
            form = exterior.DiffForm.one_form([
                poly.MultiPoly(4, {e: Fraction(num, den) for e, num, den in data})
                for data in item[1]])
            names = ("x0", "x1", "x2", "x3")
            text = exterior.form_to_text(form, names)
            parsed, parsed_names = exterior.parse_form_text(text)
            return form, names, text, parsed, parsed_names
        if kind == "quartics":
            out = []
            for pattern, roots in item[1]:
                plain = [1]
                for (c, d), mult in zip(roots, pattern):
                    for _ in range(mult):
                        plain = [(plain[i] if i < len(plain) else 0) * c
                                 + (plain[i - 1] if i else 0) * d for i in range(len(plain) + 1)]
                F = binary.BinaryForm.from_plain(plain)
                out.append((binary.invariants_qcd(F), binary.root_pattern(F),
                            binary.discriminant_oracle(F)))
            return out
        if kind == "rational":
            form = components.build_rational(_poly(4, item[1]), _poly(4, item[2]))
            planted = _poly(4, item[3])
        elif kind == "logarithmic":
            form = components.build_logarithmic([_poly(3, f) for f in item[1]], list(item[2]))
            planted = _poly(3, item[3])
        else:
            eta = components.build_rational(_poly(3, item[1]), _poly(3, item[2]))
            form = components.build_linear_pullback(_fractions(item[3]), eta)
            planted = _poly(5, item[4])
        product = form * planted
        return product, planted, exterior.saturate(product)

    def check(self, item, output, oracle):
        kind = item[0]
        if kind == "roundtrip":
            form, names, text, parsed, parsed_names = output
            if parsed != form or tuple(parsed_names) != names:
                return "form text round trip changed the form"
            if exterior.form_to_text(parsed, parsed_names) != text:
                return "form text round trip changed the text"
            return None
        if kind == "quartics":
            for (pattern, _), (inv, pat, disc) in zip(item[1], output):
                if tuple(pat.multiplicities) != pattern:
                    return "root pattern %r, expected %r" % (pat.multiplicities, pattern)
                if disc != inv.D * self.scale:
                    return "Sylvester discriminant %s != D * scale" % disc
                if (inv.D == 0) != (pattern != (1, 1, 1, 1)):
                    return "D = %s for root pattern %r" % (inv.D, pattern)
            return None
        product, planted, sat = output
        return oracle.saturation(product, planted, sat)


class UnitGcdWorkload(Workload):
    """F_p gcd with a unit answer: restrictions of the pencil form to seeded
    hyperplanes, reduced mod p, have a constant coefficient gcd."""

    name = "unit-gcd"
    PRIMES = (5, 7, 11, 13, 31)
    # One rank-4 inclusion per prime, with nonzero entries so that every
    # restricted coefficient is dense.  The gcd cost of a drawn inclusion
    # ranged over 1.5x mod 13 and 31 and 5x mod 5 and 7, and a pass holds
    # one certificate per prime, so the seed only rescales the hyperplane's
    # coordinates by units mod p, which keeps every support the gcd meets.
    BASES = {p: _full_rank_matrix(_fixed_rng("unit-gcd:%d" % p), 5, 4, 3, nonzero=True)
             for p in PRIMES}
    SCALES = (-3, -2, -1, 1, 2, 3)

    def setup(self):
        self.omega4 = exceptional.build_omega4()

    def inputs(self, k):
        rng = _rng(self.name, self.seed, k)
        primes = list(self.PRIMES)
        rng.shuffle(primes)
        return [("restrict", p, _column_scales(rng, self.BASES[p], self.SCALES)) for p in primes]

    def run(self, item):
        _, p, inclusion = item
        restricted = exceptional.restrict_to_hyperplane(self.omega4, _fractions(inclusion))
        reduced = [reduce_mod(c, p) for c in restricted.coefficients()]
        g = poly.coefficient_gcd([P for P in reduced if not P.is_zero])
        return restricted, g

    def check(self, item, output, oracle):
        restricted, g = output
        if restricted.is_zero:
            return "restriction vanished"
        if g.total_degree() != 0:
            return "gcd mod %d has degree %d" % (item[1], g.total_degree())
        return None


class ProbeWorkload(Workload):
    """F_p enumeration: every probe target at the default primes and at
    primes above the zero-locus process-pool threshold."""

    name = "probe"
    TARGETS = ("sing-omega4", "sing-omega-bar", "sing-d-omega-bar", "base-locus", "delta-sing")
    SMALL = (5, 7, 11, 13)
    # Three samples of each small-prime probe per pass put the tail metric
    # (the 11th largest time) on a median of three rather than on one call.
    SMALL_REPEATS = 3
    # Above the pool threshold: 23 is the first prime past it, 31 the
    # largest the ROADMAP baseline times.  29 is left out to keep the four
    # workloads' runs within the time the benchmark is given.
    LARGE = (23, 31)
    GOLDENS = {
        ("base-locus", 5): "cli_probe_base_locus_p5.txt",
        ("sing-omega4", 5): "cli_probe_sing_omega4_p5.txt",
        ("sing-omega-bar", 5): "cli_probe_sing_omega_bar_p5.txt",
        ("delta-sing", 5): "cli_probe_delta_sing_p5.txt",
        ("sing-d-omega-bar", 7): "cli_probe_sing_d_p7.txt",
    }

    def setup(self):
        self.goldens = {key: self.golden(name) for key, name in self.GOLDENS.items()}

    def inputs(self, k):
        rng = _rng(self.name, self.seed, k)
        items = [("probe", t, p) for t in self.TARGETS for p in self.SMALL * self.SMALL_REPEATS + self.LARGE]
        rng.shuffle(items)
        return items

    def run(self, item):
        _, target, p = item
        return run_cli(["probe", "--target", target, "--prime", str(p)])

    def check(self, item, output, oracle):
        _, target, p = item
        code, out, err = output
        golden = self.goldens.get((target, p))
        if golden is not None:
            return None if code == 0 and out == golden else "probe %s p=%d differs from golden" % (target, p)
        fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        if target == "sing-d-omega-bar":
            # Several coefficients of d(omega-bar) are multiples of 5, so the
            # locus mod 5 is the documented six points and the command exits 4.
            want = (4, "6", "false") if p == 5 else (0, "1", "true")
            got = (code, fields.get("locusCount"), fields.get("equal"))
            return None if got == want else "probe %s p=%d gave %r, expected %r" % (target, p, got, want)
        if code != 0 or fields.get("equal") != "true" or fields.get("locusCount") != fields.get("stratumCount"):
            return "probe %s p=%d: exit %d, %r" % (target, p, code, fields)
        return None


WORKLOADS = {w.name: w for w in (ExceptionalWorkload, CertifyWorkload, UnitGcdWorkload, ProbeWorkload)}

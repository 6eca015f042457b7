"""Command-line surface: reports, exit codes, goldens, round trips."""

import argparse
import ast
import collections
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

from jpencil import cli

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def golden(name):
    with open(os.path.join(DATA, name), encoding="ascii") as fh:
        return fh.read()


def test_invariants_report():
    code, out, err = run_cli(["invariants", "0,1,0,-1,0"])
    assert code == 0 and err == ""
    assert out == ("command: invariants\n"
                   "input: 0,1,0,-1,0\n"
                   "divided: 0,1,0,-1,0\n"
                   "Q: 4\n"
                   "C: 0\n"
                   "D: 64\n"
                   "jRaw: 1\n"
                   "jClassical: 1728\n"
                   "pattern: [1,1,1,1]\n"
                   "class: SIMPLE\n")


def test_invariants_json():
    code, out, _ = run_cli(["--json", "invariants", "0,0,1,0,0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["Q"] == "3" and doc["C"] == "-1" and doc["D"] == "0"
    assert doc["jClassical"] == "INFINITY"


def test_classify_polynomial_input():
    code, out, _ = run_cli(["classify", "t0^3*t1"])
    assert code == 0
    assert "pattern: [3,1]\n" in out
    assert "class: TANGENT\n" in out
    assert "jClassical: INDETERMINATE\n" in out


# One quartic per kind of j-value: finite, INFINITY (D = 0) and
# INDETERMINATE (Q = C = 0); each value as the --json document holds it.
_QUARTIC_VALUES = ("divided", "Q", "C", "D", "jRaw", "jClassical", "pattern", "class")
_QUARTICS = {
    "0,1,0,-1,0": ("0,1,0,-1,0", "4", "0", "64", "1", "1728", [1, 1, 1, 1], "SIMPLE"),
    "0,0,1,0,0": ("0,0,1,0,0", "3", "-1", "0", "INFINITY", "INFINITY", [2, 2],
                  "BITANGENT-NODE"),
    "t0^3*t1": ("0,1/4,0,0,0", "0", "0", "0", "INDETERMINATE", "INDETERMINATE", [3, 1],
                "TANGENT"),
}


def test_quartic_reports_are_complete():
    keys = {"invariants": ("input", "divided", "Q", "C", "D", "jRaw", "jClassical",
                           "pattern", "class"),
            "classify": ("input", "pattern", "class", "Q", "C", "D", "jClassical")}
    for command, report_keys in keys.items():
        for quartic, values in _QUARTICS.items():
            value_of = dict(zip(_QUARTIC_VALUES, values), input=quartic)
            pairs = [("command", command)] + [(k, value_of[k]) for k in report_keys]
            plain = "".join("%s: %s\n" % (k, "[%s]" % ",".join(map(str, v))
                                          if isinstance(v, list) else v) for k, v in pairs)
            assert run_cli([command, quartic]) == (0, plain, ""), (command, quartic)
            doc = json.dumps(dict(pairs), indent=2) + "\n"
            assert run_cli(["--json", command, quartic]) == (0, doc, ""), (command, quartic)


def test_veronese():
    code, out, _ = run_cli(["veronese", "1,2"])
    assert code == 0
    assert out.endswith("divided: 1,2,4,8,16\n")


def test_exceptional_goldens():
    for argv, name in [
        (["exceptional", "derive"], "cli_derive.txt"),
        (["exceptional", "paper-form"], "cli_paper_form.txt"),
        (["exceptional", "tangent-dim"], "cli_tangent_dim.txt"),
        (["exceptional", "double-tangency"], "cli_double_tangency.txt"),
        (["exceptional", "fields"], "cli_fields.txt"),
    ]:
        code, out, err = run_cli(argv)
        assert code == 0 and err == "", argv
        assert out == golden(name), argv


def test_probe_goldens():
    for target, prime, name in [
        ("base-locus", "5", "cli_probe_base_locus_p5.txt"),
        ("sing-omega4", "5", "cli_probe_sing_omega4_p5.txt"),
        ("sing-omega-bar", "5", "cli_probe_sing_omega_bar_p5.txt"),
        ("delta-sing", "5", "cli_probe_delta_sing_p5.txt"),
        ("sing-d-omega-bar", "7", "cli_probe_sing_d_p7.txt"),
    ]:
        code, out, err = run_cli(["probe", "--target", target, "--prime", prime])
        assert code == 0 and err == "", target
        assert out == golden(name), target


def test_probe_reports_witnesses_on_failure():
    code, out, _ = run_cli(["probe", "--target", "sing-d-omega-bar", "--prime", "5"])
    assert code == 4
    assert "locusCount: 6\n" in out
    assert "expectedCount: 1\n" in out
    assert "equal: false\n" in out
    assert out.count("witness:") == 6
    assert "witness: (0:0:1:0)\n" in out
    # the bad reduction names its cause, before the witnesses
    vanishing = ("vanishesModP: -5*x1*x3\n"
                 "vanishesModP: 5*x0*x3\n"
                 "vanishesModP: -5*x3^2\n")
    assert "equal: false\n" + vanishing + "witness: " in out
    assert out.count("vanishesModP:") == 3
    code, out, _ = run_cli(["probe", "--target", "sing-d-omega-bar", "--prime", "7"])
    assert code == 0
    assert "vanishesModP" not in out


_RUN_ALL = """
import contextlib, io, json, sys
from jpencil import cli
results = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    results.append((code, out.getvalue()))
json.dump(results, sys.stdout)
"""


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _run_python(flags, argvs):
    """(exit code, stdout) of cli.run for each argv, in one fresh interpreter."""
    proc = subprocess.run([sys.executable] + flags + ["-c", _RUN_ALL], input=json.dumps(argvs),
                          capture_output=True, text=True, env=_subprocess_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [tuple(result) for result in json.loads(proc.stdout)]


def test_reports_do_not_depend_on_asserts():
    # python -O strips assert statements; no certificate may rest on one.
    # Every subcommand runs with and without -O, one interpreter per mode.
    with tempfile.TemporaryDirectory() as tmp:
        rational = os.path.join(tmp, "rational.form")
        # x1 dx0 does not descend: the pullback input is refused, not certified
        eta = os.path.join(tmp, "eta.form")
        with open(eta, "w") as fh:
            fh.write("vars: x0 x1 x2\ncoeff x0: x1\ncoeff x1: 0\ncoeff x2: 0\n")
        cases = [  # argv, exit code, golden stdout
            (["invariants", "0,1,0,-1,0"], 0, None),
            (["--json", "classify", "t0^3*t1"], 0, None),
            (["veronese", "1,2"], 0, None),
            (["build", "rational", "x0^2*x1 - x2^3", "x0*x1*x2", "--out", rational], 0, None),
            (["check", "--form", rational], 0, None),
            (["build", "log", "--factor", "x0", "--factor", "x1", "--factor", "x2",
              "--weight", "1", "--weight", "1", "--weight", "-2"], 0, None),
            (["build", "pullback", "--form", rational, "--matrix", "1,0,0,1;0,1,0,-1;0,0,1,2"],
             0, None),
            (["build", "pullback", "--form", eta, "--matrix", "1,0,0,0;0,1,0,0;0,0,1,0"], 3, ""),
            (["exceptional", "derive"], 0, golden("cli_derive.txt")),
            (["exceptional", "paper-form"], 0, golden("cli_paper_form.txt")),
            (["exceptional", "fields"], 0, golden("cli_fields.txt")),
            (["exceptional", "tangent-dim"], 0, golden("cli_tangent_dim.txt")),
            (["exceptional", "double-tangency"], 0, golden("cli_double_tangency.txt")),
            (["probe", "--target", "sing-d-omega-bar", "--prime", "5"], 4, None),
        ]
        argvs = [argv for argv, _, _ in cases]
        plain = _run_python([], argvs)
        for (argv, code, expected), (got_code, got_out) in zip(cases, plain):
            assert got_code == code, argv
            if expected is None:
                assert got_out, argv
            else:
                assert got_out == expected, argv
        assert "vanishesModP: -5*x3^2\n" in plain[-1][1]
        assert _run_python(["-O"], argvs) == plain


def _package_trees():
    """(file name, syntax tree) of every module of the package."""
    package = os.path.join(SRC, "jpencil")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), filename=name)


def test_package_has_no_asserts():
    # python -O strips assert statements, so the package holds none
    for name, tree in _package_trees():
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, "%s: assert at line %s" % (name, lines)


def _unseeded_random(node):
    """Whether node draws from the random module's shared generator or
    makes a generator without a seed."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "random" and any(a.name != "Random" for a in node.names)
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "random":
        name = func.attr
    elif isinstance(func, ast.Name) and func.id == "Random":
        name = "Random"
    else:
        return False
    return name != "Random" or not (node.args or node.keywords)


def test_package_randomness_is_seeded():
    # every certificate and witness is reproducible: the package draws only
    # from generators it makes with a fixed seed
    for name, tree in _package_trees():
        lines = [node.lineno for node in ast.walk(tree) if _unseeded_random(node)]
        assert not lines, "%s: unseeded randomness at line %s" % (name, lines)
    bad = ["random.shuffle(x)", "random.randint(0, 9)", "random.Random()",
           "from random import choice", "Random()"]
    good = ["random.Random(7)", "random.Random(x=7)", "Random(7)", "from random import Random",
            "rng.randint(0, 9)"]
    for text in bad + good:
        flagged = any(_unseeded_random(node) for node in ast.walk(ast.parse(text)))
        assert flagged == (text in bad), text


def _float_use(node):
    """Whether node is a float literal or reads the name float."""
    return (isinstance(node, ast.Constant) and isinstance(node.value, float)
            or isinstance(node, ast.Name) and node.id == "float")


def test_package_has_no_floats():
    # every certificate is exact: the package holds no float literal and
    # never names the float type
    for name, tree in _package_trees():
        lines = [node.lineno for node in ast.walk(tree) if _float_use(node)]
        assert not lines, "%s: float at line %s" % (name, lines)
    bad = ["x = 0.5", "y = 1e3", "float(x)", "isinstance(c, float)", "f = float"]
    good = ["x = 1", "Fraction(1, 2)", "'0.5'", "floats = 3", "x.float_part"]
    for text in bad + good:
        flagged = any(_float_use(node) for node in ast.walk(ast.parse(text)))
        assert flagged == (text in bad), text


def _integral_check(node):
    """Whether node compares a .denominator with the literal 1."""
    if not isinstance(node, ast.Compare):
        return False
    sides = [node.left] + node.comparators
    return (any(isinstance(n, ast.Attribute) and n.attr == "denominator" for n in sides)
            and any(isinstance(n, ast.Constant) and n.value == 1 for n in sides))


def test_only_poly_converts_integral_rationals():
    # the MultiPoly constructor owns the scalar format over Q: it stores a
    # Fraction with denominator 1 as an int, and no other module converts
    for name, tree in _package_trees():
        if name == "poly.py":
            continue
        lines = [node.lineno for node in ast.walk(tree) if _integral_check(node)]
        assert not lines, "%s: integral-rational check at line %s" % (name, lines)
    bad = ["c.denominator == 1", "x.denominator != 1", "1 == c.denominator",
           "if type(c) is Fraction and c.denominator == 1: pass"]
    good = ["c.denominator", "c.denominator == 2", "c.numerator == 1", "lcm(c.denominator, 1)"]
    for text in bad + good:
        flagged = any(_integral_check(node) for node in ast.walk(ast.parse(text)))
        assert flagged == (text in bad), text


# Functions, classes and methods in src/jpencil that neither the package
# nor the benchmark uses yet, each with the reason it stays.
_UNUSED_ALLOWED = {
    # the two-sided tangent-bound certificate on ROADMAP.md turns these
    # into pipeline code
    "lie_derivative", "in_tangent_kernel",
    # criterion 11, the orbit classification, is stated in its terms
    "form_from_divisor",
    # test_acceptance states X4 as the intersection of TBAR and NBAR
    "intersection",
}


def _names_used(node):
    """Counts of the names and attribute names read anywhere under node."""
    used = {}
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            key = sub.id
        elif isinstance(sub, ast.Attribute):
            key = sub.attr
        else:
            continue
        used[key] = used.get(key, 0) + 1
    return used


def test_package_has_no_test_only_code():
    # code only the tests call is not part of the program: each module-level
    # function or class, and each method other than a dunder, is used
    # outside its own definition, in the package or the benchmark, or
    # exported in __all__
    package = os.path.join(SRC, "jpencil")
    perfbench = os.path.join(os.path.dirname(SRC), "perfbench")
    used, defined, exported = {}, [], set()
    for directory in (package, perfbench):
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            for key, count in _names_used(tree).items():
                used[key] = used.get(key, 0) + count
            if directory != package:
                continue
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((name, node))
                    methods = node.body if isinstance(node, ast.ClassDef) else []
                    defined += [(name, m) for m in methods if isinstance(m, ast.FunctionDef)
                                and not (m.name.startswith("__") and m.name.endswith("__"))]
                elif isinstance(node, ast.Assign) and any(
                        getattr(t, "id", None) == "__all__" for t in node.targets):
                    exported.update(ast.literal_eval(node.value))
    unused = ["%s:%d %s" % (name, node.lineno, node.name) for name, node in defined
              if node.name not in exported and node.name not in _UNUSED_ALLOWED
              and used.get(node.name, 0) == _names_used(node).get(node.name, 0)]
    assert not unused, "used only by tests: %s" % ", ".join(unused)


def test_probe_multi_prime_json():
    code, out, _ = run_cli(["--json", "probe", "--target", "sing-omega-bar"])
    assert code == 0
    doc = json.loads(out)
    assert doc["prime"] == [5, 7, 11, 13]
    assert doc["locusCount"] == [16, 22, 34, 40]
    assert doc["equal"] == [True, True, True, True]


def test_build_check_round_trip():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.form")
        code, out, _ = run_cli(["build", "rational", "x0^2*x1 - x2^3", "x0*x1*x2",
                                "--out", path])
        assert code == 0
        assert "descends: true\n" in out and "integrable: true\n" in out
        code, out, _ = run_cli(["check", "--form", path])
        assert code == 0
        assert "arity: 3\n" in out


def test_derive_tangent_round_trip():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bar.form")
        assert run_cli(["exceptional", "derive", "--out", path])[0] == 0
        code, out, _ = run_cli(["exceptional", "tangent-dim", "--form", path])
        assert code == 0
        assert "projectiveDim: 13\n" in out
        assert "containsOmegaBar: true\n" in out


def test_check_failures_exit_4():
    with tempfile.TemporaryDirectory() as tmp:
        euler = os.path.join(tmp, "euler.form")
        with open(euler, "w", encoding="ascii") as fh:
            fh.write("vars: x0 x1 x2\ncoeff x0: x1\ncoeff x1: x0\ncoeff x2: 0\n")
        code, out, _ = run_cli(["check", "--form", euler])
        assert code == 4
        assert "descends: false\n" in out
        assert "eulerResidual: 2*x0*x1\n" in out

        frob = os.path.join(tmp, "frob.form")
        with open(frob, "w", encoding="ascii") as fh:
            fh.write("vars: x0 x1 x2 x3\ncoeff x0: x1\ncoeff x1: -x0\n"
                     "coeff x2: x3\ncoeff x3: -x2\n")
        code, out, _ = run_cli(["check", "--form", frob])
        assert code == 4
        assert "integrable: false\n" in out
        assert "firstResidualComponent: d x0^d x1^d x2\n" in out
        assert "firstResidualCoefficient: -2*x3\n" in out


def test_exit_code_of_every_subcommand():
    # 0 when every reported verdict holds, 4 when one is false, 3 when the
    # input is unusable
    with tempfile.TemporaryDirectory() as tmp:
        good = os.path.join(tmp, "good.form")
        bad = os.path.join(tmp, "bad.form")
        with open(bad, "w", encoding="ascii") as fh:
            fh.write("vars: x0 x1 x2\ncoeff x0: x1\ncoeff x1: x0\ncoeff x2: 0\n")
        table = [
            (["invariants", "0,1,0,-1,0"], 0),
            (["classify", "t0^3*t1"], 0),
            (["veronese", "1,2"], 0),
            (["build", "rational", "x0^2*x1 - x2^3", "x0*x1*x2", "--out", good], 0),
            (["build", "log", "--factor", "x0", "--factor", "x1", "--factor", "x2",
              "--weight", "1", "--weight", "1", "--weight", "-2"], 0),
            (["build", "pullback", "--form", good, "--matrix", "1,0,0,1;0,1,0,-1;0,0,1,2"], 0),
            (["check", "--form", good], 0),
            (["check", "--form", bad], 4),
            (["exceptional", "derive"], 0),
            (["exceptional", "paper-form"], 0),
            (["exceptional", "fields"], 0),
            (["exceptional", "tangent-dim"], 0),
            (["exceptional", "double-tangency"], 0),
            (["probe", "--target", "sing-omega4"], 0),
            (["probe", "--target", "sing-omega-bar"], 0),
            (["probe", "--target", "base-locus"], 0),
            (["probe", "--target", "delta-sing"], 0),
            # p = 5 is a bad reduction of d(omega bar)
            (["probe", "--target", "sing-d-omega-bar"], 4),
            (["probe", "--target", "sing-d-omega-bar", "--prime", "9"], 3),
        ]
        for argv, code in table:
            assert run_cli(argv)[0] == code, argv



def test_each_command_runs_each_check_once(monkeypatch, tmp_path):
    # the symbolic descent and integrability checks a command runs, counted
    # at every binding in the package: a constructor's verdicts are printed,
    # not checked again, and derive checks the restriction and the
    # saturated form on top of the pencil form's constructor
    form = str(tmp_path / "good.form")
    assert run_cli(["build", "rational", "x0^2*x1 - x2^3", "x0*x1*x2", "--out", form])[0] == 0
    counts = collections.Counter()
    for name in ("descends_check", "integrability_check"):
        check = getattr(sys.modules["jpencil.exterior"], name)

        def counted(omega, check=check, name=name):
            counts[name] += 1
            return check(omega)

        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "jpencil"]:
            if getattr(module, name, None) is check:
                monkeypatch.setattr(module, name, counted)
    table = [
        (["build", "rational", "x0^2*x1 - x2^3", "x0*x1*x2"], 1, 1),
        (["build", "log", "--factor", "x0", "--factor", "x1", "--factor", "x2",
          "--weight", "1", "--weight", "1", "--weight", "-2"], 1, 1),
        (["build", "pullback", "--form", form, "--matrix", "1,0,0,1;0,1,0,-1;0,0,1,2"], 2, 2),
        (["check", "--form", form], 1, 1),
        (["exceptional", "derive"], 2, 3),
        (["exceptional", "fields"], 1, 1),
        (["exceptional", "paper-form"], 1, 1),
    ]
    for argv, descends, integrable in table:
        counts.clear()
        assert run_cli(argv)[0] == 0, argv
        assert (counts["descends_check"], counts["integrability_check"]) == (descends, integrable), argv

def test_closed_stdout_exits_141_quietly():
    # a reader that leaves early (`jpencil exceptional derive | true`) ended
    # in a BrokenPipeError traceback and exit 1; the pipe here is closed
    # before the command starts, so every write to it fails
    with tempfile.TemporaryDirectory() as tmp:
        form = os.path.join(tmp, "good.form")
        assert run_cli(["build", "rational", "x0^2*x1 - x2^3", "x0*x1*x2", "--out", form])[0] == 0
        table = [  # one command of each subcommand group, and a bad input
            (["invariants", "0,1,0,-1,0"], 141),
            (["--json", "classify", "t0^3*t1"], 141),
            (["veronese", "1,2"], 141),
            (["build", "pullback", "--form", form, "--matrix", "1,0,0,1;0,1,0,-1;0,0,1,2"], 141),
            (["check", "--form", form], 141),
            (["exceptional", "derive"], 141),
            (["probe", "--target", "base-locus", "--prime", "5"], 141),
            (["probe", "--target", "base-locus", "--prime", "9"], 3),
        ]
        for argv, code in table:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run([sys.executable, "-m", "jpencil.cli"] + argv, stdout=write_end,
                                      stderr=subprocess.PIPE, text=True, env=_subprocess_env(),
                                      timeout=120)
            finally:
                os.close(write_end)
            assert proc.returncode == code, argv
            assert proc.stderr == ("" if code == 141 else "error: need a prime p >= 5, got 9\n"), argv


def test_probe_prime_is_admitted_before_any_enumeration():
    # --prime 0 is a prime given, not the default primes; a large prime is
    # over the point cap and a large composite fails Miller-Rabin, both at once
    for prime in (0, 2 ** 61 - 1, (2 ** 31 - 1) ** 2):
        start = time.perf_counter()
        code, out, err = run_cli(["probe", "--target", "base-locus", "--prime", str(prime)])
        assert (code, out) == (3, ""), prime
        assert err.startswith("error: "), prime
        assert time.perf_counter() - start < 1, prime


def test_precondition_errors_exit_3():
    code, out, err = run_cli(["probe", "--target", "base-locus", "--prime", "9"])
    assert code == 3 and out == ""
    assert "prime" in err
    code, _, err = run_cli(["build", "log", "--factor", "x0", "--factor", "x1",
                            "--factor", "x2", "--weight", "1", "--weight", "1",
                            "--weight", "1"])
    assert code == 3
    assert "weight condition" in err
    code, _, err = run_cli(["check", "--form", "/nonexistent/f.form"])
    assert code == 3
    code, _, err = run_cli(["invariants", "0,0,0,0,0"])
    assert code == 3
    # a parse nested deeper than the interpreter's recursion limit
    code, out, err = run_cli(["invariants", "(" * 600 + "t0^4" + ")" * 600])
    assert code == 3 and out == "" and "nested" in err
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "nested.form")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("vars: x0 x1\ncoeff x0: %sx1%s\ncoeff x1: 0\n" % ("(" * 600, ")" * 600))
        code, out, err = run_cli(["check", "--form", path])
        assert code == 3 and out == "" and "nested" in err
        # the zero form defines no foliation, so it is never certified
        with open(path, "w", encoding="ascii") as fh:
            fh.write("vars: x0 x1\ncoeff x0: 0\ncoeff x1: 0\n")
        code, out, err = run_cli(["check", "--form", path])
        assert code == 3 and out == "" and "zero form" in err
    for argv in (["build", "rational", "x0", "x0"],
                 ["build", "log", "--factor", "x0", "--factor", "x0", "--factor", "x0",
                  "--weight", "1", "--weight", "1", "--weight", "-2"]):
        code, out, err = run_cli(argv)
        assert code == 3 and out == "" and "zero form" in err


def test_a_non_quartic_is_refused_before_any_binomial(monkeypatch):
    # the degree is read from the parsed polynomial, so a high power costs
    # its parse only: from_plain's r + 1 binomials are never built
    from jpencil import binary

    def never(plain):
        raise AssertionError("from_plain reached for degree %d" % (len(plain) - 1))

    monkeypatch.setattr(binary.BinaryForm, "from_plain", never)
    for command in ("invariants", "classify"):
        for text, degree in (("t0^4*t1 + t1^5", 5), ("t0^12000", 12000), ("t0*t1", 2)):
            start = time.perf_counter()
            code, out, err = run_cli([command, text])
            assert (code, out) == (3, "")
            assert "invariants are defined for quartics, got degree %d" % degree in err
            assert time.perf_counter() - start < 1
        code, out, err = run_cli([command, "t0^3 + t1^4"])
        assert (code, out) == (3, "") and "not homogeneous" in err


def test_build_pullback():
    with tempfile.TemporaryDirectory() as tmp:
        eta = os.path.join(tmp, "eta.form")
        assert run_cli(["build", "rational", "z0", "z1*z2", "--out", eta])[0] == 0
        code, out, _ = run_cli(["build", "pullback", "--form", eta,
                                "--matrix", "1,0,0,1;0,1,0,-1;0,0,1,2"])
        assert code == 0
        assert "descends: true\n" in out and "integrable: true\n" in out
        code, _, err = run_cli(["build", "pullback", "--form", eta,
                                "--matrix", "1,0;2,0;3,0"])
        assert code == 3


def test_build_pullback_golden(tmp_path, monkeypatch):
    # the form file is named relative to the working directory, so that
    # the report's "form:" line does not depend on where the test runs
    monkeypatch.chdir(tmp_path)
    assert run_cli(["build", "rational", "x0^2*x1 - x2^3", "x0*x1*x2",
                    "--out", "rational.form"])[0] == 0
    argv = ["build", "pullback", "--form", "rational.form", "--matrix", "1,0,0,1;0,1,0,-1;0,0,1,2"]
    plain, as_json = run_cli(argv), run_cli(["--json"] + argv)
    assert (plain[0], plain[2], as_json[0], as_json[2]) == (0, "", 0, "")
    assert plain[1] + as_json[1] == golden("cli_build_pullback.txt")


def test_negative_fractions_are_values():
    # argparse reads only integer and decimal literals as negative numbers;
    # each spelling below exited 2 with a usage error, unlike its --opt=
    # (or, for a positional, its "--") spelling
    assert hasattr(argparse.ArgumentParser(), "_negative_number_matcher"), \
        "cli._ArgumentParser overrides an argparse attribute this Python lacks"
    factors = ["--factor", "x0", "--factor", "x1", "--factor", "x2"]
    with tempfile.TemporaryDirectory() as tmp:
        eta = os.path.join(tmp, "eta.form")
        assert run_cli(["build", "rational", "z0", "z1*z2", "--out", eta])[0] == 0
        matrix = "-1/2,0,0,1;0,1,0,-1;0,0,1,2"
        cases = [
            (["build", "log"] + factors + ["--weight", "1/2", "--weight", "-1/2", "--weight", "0"],
             ["build", "log"] + factors + ["--weight=1/2", "--weight=-1/2", "--weight=0"]),
            (["invariants", "-1/2,0,0,0,1"], ["invariants", "--", "-1/2,0,0,0,1"]),
            (["classify", "-1/2,0,0,0,1"], ["classify", "--", "-1/2,0,0,0,1"]),
            (["veronese", "-1/2,1"], ["veronese", "--", "-1/2,1"]),
            (["veronese", "-2/3,-1", "--degree", "3"], ["veronese", "--degree", "3", "--", "-2/3,-1"]),
            (["build", "pullback", "--form", eta, "--matrix", matrix],
             ["build", "pullback", "--form", eta, "--matrix=" + matrix]),
        ]
        for argv, spelled in cases:
            code, out, err = run_cli(argv)
            assert (code, err) == (0, ""), argv
            assert (code, out, err) == run_cli(spelled), argv
    assert "-1/2" in run_cli(cases[0][0])[1]
    # an option is still an option
    for argv in (["veronese", "1,0", "--bogus"], ["veronese", "-x"]):
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.run(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
            else:
                raise AssertionError(argv)


def test_negative_polynomials_are_values():
    # '-' and a variable name began an unknown option: both commands exited 2
    factors = ["--factor", "x1", "--factor", "x2", "--weight", "1", "--weight", "1",
               "--weight", "-2"]
    cases = [
        (["build", "rational", "-x0^2*x1", "x0*x1*x2"],
         ["build", "rational", "--", "-x0^2*x1", "x0*x1*x2"]),
        (["build", "log", "--factor", "-x0"] + factors,
         ["build", "log", "--factor=-x0"] + factors),
    ]
    for argv, spelled in cases:
        code, out, err = run_cli(argv)
        assert (code, err) == (0, ""), argv
        assert (code, out, err) == run_cli(spelled), argv
    assert "F1: -x0^2*x1\n" in run_cli(cases[0][0])[1]
    # -h is still the help option
    for argv in (["-h"], ["build", "rational", "-h"], ["build", "log", "-h"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                cli.run(argv)
            except SystemExit as exc:
                assert exc.code == 0, argv
            else:
                raise AssertionError(argv)
        assert out.getvalue().startswith("usage: jpencil"), argv

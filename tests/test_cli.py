"""Command-line surface: reports, exit codes, goldens, round trips."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

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


def _run_python(flags, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable] + flags + ["-m", "jpencil.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=300)
    return proc.returncode, proc.stdout


def test_reports_do_not_depend_on_asserts():
    # python -O strips assert statements; no certificate may rest on one
    tangent_argv = ["exceptional", "tangent-dim"]
    tangent = _run_python([], tangent_argv)
    assert tangent == (0, golden("cli_tangent_dim.txt"))
    assert _run_python(["-O"], tangent_argv) == tangent
    fields_argv = ["exceptional", "fields"]
    fields = _run_python([], fields_argv)
    assert fields == (0, golden("cli_fields.txt"))
    assert _run_python(["-O"], fields_argv) == fields
    probe_argv = ["probe", "--target", "sing-d-omega-bar", "--prime", "5"]
    probe = _run_python([], probe_argv)
    assert probe[0] == 4 and "vanishesModP: -5*x3^2\n" in probe[1]
    assert _run_python(["-O"], probe_argv) == probe
    # x1 dx0 does not descend: the pullback input is refused, not certified
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "eta.form")
        with open(path, "w") as fh:
            fh.write("vars: x0 x1 x2\ncoeff x0: x1\ncoeff x1: 0\ncoeff x2: 0\n")
        pullback_argv = ["build", "pullback", "--form", path,
                         "--matrix", "1,0,0,0;0,1,0,0;0,0,1,0"]
        assert _run_python([], pullback_argv) == (3, "")
        assert _run_python(["-O"], pullback_argv) == (3, "")


def test_package_has_no_asserts():
    # python -O strips assert statements, so the package holds none
    package = os.path.join(SRC, "jpencil")
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, "%s: assert at line %s" % (name, lines)


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

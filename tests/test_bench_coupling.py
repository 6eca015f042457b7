"""The benchmark's coupling to the package: every jpencil name that the
benchmark scripts read exists, so that removing one fails the suite."""

import ast
import importlib
import os

from jpencil import poly

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
# run.py is left out: spans.install skips a SPAN_TARGETS name that is missing
SCRIPTS = ("workloads.py", "oracle.py", "selftest.py")


def _jpencil_reads(path):
    """The dotted names, from "jpencil", that a script reads: each name it
    imports from jpencil, and each attribute chain it loads on one."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    bound, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").startswith("jpencil"):
            for alias in node.names:
                bound[alias.asname or alias.name] = "%s.%s" % (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "jpencil":
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = alias.name if alias.asname else name
    reads.update(bound.values())
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in bound:
            reads.add(".".join([bound[node.id]] + chain[::-1]))
    return reads


def _missing(dotted):
    """True when dotted names no module, class or attribute of jpencil."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            try:
                obj = importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return True
    return False


def test_every_jpencil_name_the_benchmark_reads_exists(monkeypatch):
    reads = set()
    for script in SCRIPTS:
        reads |= _jpencil_reads(os.path.join(BENCH, script))
    # the reader finds the names it exists for
    assert {"jpencil.poly.FpElement", "jpencil.poly.coefficient_gcd",
            "jpencil.exceptional.tangent_system_matrices",
            "jpencil.binary.discriminant_oracle", "jpencil.exterior.pullback_form"} <= reads
    assert sorted(name for name in reads if _missing(name)) == []
    # and a removed name fails it
    monkeypatch.delattr(poly, "FpElement")
    assert [name for name in sorted(reads) if _missing(name)] == ["jpencil.poly.FpElement"]

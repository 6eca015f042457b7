"""Self-tests of the benchmark: seeded inputs, oracle strength, metric names.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  The file is not named test_*.py,
so the repository's own pytest run does not collect it.
"""

import json
import os
import re
import subprocess
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from jpencil import exceptional, exterior, poly  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

DESCRIBE = """
import sys
sys.path[:0] = [%r, %r]
import workloads
wl = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), %r)
sys.stdout.write(workloads.describe(wl.inputs(0)) + workloads.describe(wl.inputs(1)))
""" % (os.path.join(ROOT, "src"), HERE, ROOT)


def describe_in_subprocess(name, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run([sys.executable, "-c", DESCRIBE, name, str(seed)], env=env,
                          capture_output=True, check=True).stdout


def flip_one_byte(text):
    i = len(text) // 2
    return text[:i] + ("0" if text[i] != "0" else "1") + text[i + 1:]


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        for name in run.WORKLOAD_NAMES:
            first = describe_in_subprocess(name, 7, 1)
            self.assertEqual(first, describe_in_subprocess(name, 7, 2), name)
            self.assertNotEqual(first, describe_in_subprocess(name, 8, 1), name)


class OracleRejectsMutations(unittest.TestCase):
    def workload(self, name):
        wl = workloads.WORKLOADS[name](1, ROOT)
        wl.setup()
        return wl

    def test_tangent_dimension_off_by_one(self):
        wl = self.workload("exceptional")
        items = wl.inputs(0)
        rational, orbit = items[1], items[-1]
        form = exterior.pullback_form(workloads._fractions(orbit[1]), exceptional.reference_form(), 4)
        good = exceptional.TangentReport(45, 14, 13, True)
        self.assertIsNone(wl.check(orbit, (form, good), oracle))
        self.assertIsNotNone(wl.check(orbit, (form, good._replace(raw_kernel_dim=15)), oracle))

        form, report = wl.run(rational)
        self.assertIsNone(wl.check(rational, (form, report), oracle))
        bad = report._replace(raw_kernel_dim=report.raw_kernel_dim + 1)
        self.assertIsNotNone(wl.check(rational, (form, bad), oracle))

    def test_non_constant_gcd(self):
        wl = self.workload("unit-gcd")
        item = wl.inputs(0)[0]
        restricted = exceptional.restrict_to_hyperplane(wl.omega4, workloads._fractions(item[2]))
        unit = poly.MultiPoly.constant(4, poly.FpElement(1, item[1]))
        self.assertIsNone(wl.check(item, (restricted, unit), oracle))
        self.assertIsNotNone(wl.check(item, (restricted, poly.MultiPoly.variable(4, 0)), oracle))

    def test_golden_with_one_byte_changed(self):
        wl = self.workload("exceptional")
        outputs = [(0, wl.goldens[step], "") for step in wl.STEPS]
        self.assertIsNone(wl.check(("cli",), outputs, oracle))
        outputs[3] = (0, flip_one_byte(outputs[3][1]), "")
        self.assertIsNotNone(wl.check(("cli",), outputs, oracle))

        wl = self.workload("probe")
        item = ("probe", "delta-sing", 5)
        golden = wl.goldens[("delta-sing", 5)]
        self.assertIsNone(wl.check(item, (0, golden, ""), oracle))
        self.assertIsNotNone(wl.check(item, (0, flip_one_byte(golden), ""), oracle))

    def test_six_point_locus_at_five_is_the_expected_answer(self):
        wl = self.workload("probe")
        item = ("probe", "sing-d-omega-bar", 5)
        self.assertIsNone(wl.check(item, wl.run(item), oracle))
        self.assertIsNotNone(wl.check(item, wl.run(("probe", "sing-d-omega-bar", 7)), oracle))

    def test_wrong_saturation_and_discriminant(self):
        wl = self.workload("certify")
        items = wl.inputs(0)
        rational, quartics = items[0], items[-1]
        product, planted, sat = wl.run(rational)
        self.assertIsNone(wl.check(rational, (product, planted, sat), oracle))
        x0 = poly.MultiPoly.variable(4, 0)
        self.assertIsNotNone(wl.check(rational, (product, planted,
                                                 sat._replace(factor=sat.factor * x0)), oracle))
        # a correct identity whose factor misses the planted factor
        unsaturated = exterior.SaturationResult(product, poly.MultiPoly.constant(4, Fraction(1)))
        self.assertIsNotNone(wl.check(rational, (product, planted, unsaturated), oracle))

        output = wl.run(quartics)
        self.assertIsNone(wl.check(quartics, output, oracle))
        inv, pattern, disc = output[0]
        self.assertIsNotNone(wl.check(quartics, [(inv, pattern, disc + 1)] + output[1:], oracle))


class MetricNames(unittest.TestCase):
    def test_names_and_units(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
        printed = dict(run.END_TO_END_UNITS)
        printed.update(run.per_layer_units())
        for name, unit in list(declared.items()) + list(printed.items()):
            self.assertRegex(name, NAME_RE)
            self.assertRegex(unit, UNIT_RE)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.per_layer_units())

    def test_tail(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), 3.0)
        times = [float(i) for i in range(30)]
        self.assertEqual(run.tail(times), 19.0)
        self.assertEqual(sum(1 for t in times if t > run.tail(times)), 10)


class ReferenceSpeed(unittest.TestCase):
    def test_stretches_are_scaled_by_the_samples_around_them(self):
        host = speed.Speed()
        ref = speed.REFERENCE_S
        # samples (start, end, reference time): before, inside, after
        for start, end, t in ((0.0, 1.0, ref), (3.0, 4.0, 2 * ref), (6.0, 7.0, ref)):
            host.starts.append(start)
            host.ends.append(end)
            host.seconds.append(t)
        seconds, scaled = host.measure(1.0, 6.0)
        # 1..3 and 4..6 run, each between samples of mean time 1.5 * ref
        self.assertAlmostEqual(seconds, 4.0)
        self.assertAlmostEqual(scaled, 4.0 / 1.5)
        self.assertAlmostEqual(host.measure(4.5, 5.5)[1], 1.0 / 1.5)
        with self.assertRaises(ValueError):
            host.measure(6.5, 8.0)


if __name__ == "__main__":
    unittest.main()

"""jpencil certificate benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; jpencil is imported from ./src.
A run is a closed loop in one process: one certificate at a time, whole
passes of the workload until the certificates have taken S seconds.  Time
is in seconds at a reference speed of the host, which is measured around
and during the certificates (speed.py).  Outputs are checked after the
loop.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Per-run records and, for traced runs,
the raw spans are written under perfbench/out/.
"""

import argparse
import contextlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 9
WORKLOAD_NAMES = ("exceptional", "certify", "unit-gcd", "probe")

END_TO_END_UNITS = {
    "certs_per_s": "1/s",
    "cert_p50_s": "s",
    "cert_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (owner, attribute): module functions, and one method given as module.Class.
# The span name is the module's short name and the attribute.
SPAN_TARGETS = [
    ("poly", "coefficient_gcd"), ("poly", "poly_gcd"), ("poly", "exact_divide"),
    ("poly.MultiPoly", "linear_substitute"),
    ("exterior", "integrability_check"), ("exterior", "descends_check"),
    ("exterior", "saturate"), ("exterior", "pullback_form"), ("exterior", "wedge"),
    ("linalg", "nullspace"), ("linalg", "bareiss_rank"),
    ("exceptional", "tangent_system_dim"), ("exceptional", "tangent_system_matrices"),
    ("exceptional", "derive_omega_bar"), ("exceptional", "restrict_to_hyperplane"),
    ("exceptional", "check_double_tangency"),
    ("components", "build_rational"), ("components", "build_logarithmic"),
    ("components", "build_linear_pullback"),
    ("binary", "invariant_polys"), ("binary", "invariants_qcd"), ("binary", "root_pattern"),
    ("binary", "discriminant_oracle"),
    ("varietyprobe", "zero_locus"), ("varietyprobe", "stratum_points"),
    ("varietyprobe", "compare_sets"),
    ("polytext", "parse_poly"), ("polytext", "poly_to_text"),
    ("cli", "run"),
]

LAYER_COUNTS = [  # (span, metric suffixes)
    ("poly.coefficient_gcd", ("calls", "busy_s")), ("poly.poly_gcd", ("calls", "busy_s")),
    ("poly.exact_divide", ("calls", "busy_s")), ("poly.linear_substitute", ("busy_s",)),
    ("exterior.integrability_check", ("calls", "busy_s")),
    ("exterior.descends_check", ("calls", "busy_s")),
    ("exterior.saturate", ("calls", "busy_s", "self_s")),
    ("exterior.pullback_form", ("calls", "busy_s")), ("exterior.wedge", ("calls", "busy_s")),
    ("linalg.nullspace", ("calls", "busy_s")), ("linalg.bareiss_rank", ("calls", "busy_s")),
    ("exceptional.tangent_system_dim", ("busy_s", "self_s")),
    ("exceptional.tangent_system_matrices", ("busy_s",)),
    ("exceptional.derive_omega_bar", ("busy_s",)),
    ("exceptional.restrict_to_hyperplane", ("busy_s",)),
    ("exceptional.check_double_tangency", ("busy_s",)),
    ("components.build_rational", ("calls", "busy_s")),
    ("components.build_logarithmic", ("calls", "busy_s")),
    ("components.build_linear_pullback", ("calls", "busy_s")),
    ("binary.invariant_polys", ("busy_s",)), ("binary.invariants_qcd", ("busy_s",)),
    ("binary.root_pattern", ("busy_s",)), ("binary.discriminant_oracle", ("busy_s",)),
    ("varietyprobe.zero_locus", ("calls", "busy_s")),
    ("varietyprobe.stratum_points", ("busy_s",)), ("varietyprobe.compare_sets", ("busy_s",)),
    ("polytext.parse_poly", ("busy_s",)), ("polytext.poly_to_text", ("busy_s",)),
    ("cli.run", ("calls", "busy_s", "self_s")),
    ("bench.reduce_mod", ("busy_s",)),
]

EXTRA_LAYER_UNITS = {
    "poly.coefficient_gcd.unit_ratio": "ratio",
    "poly.gcd_input_terms": "count",
    "linalg.entries_eliminated": "count",
    "varietyprobe.zero_locus.points": "count",
    "varietyprobe.zero_locus.points_per_s": "1/s",
    "varietyprobe.zero_locus.pool_calls": "count",
    "varietyprobe.pool_children_peak_rss_mb": "MB",
    "trace_overhead_ratio": "ratio",
    "bench.root_span_coverage": "ratio",
    "bench.traced_wall_s": "s",
    "bench.wall_certs_per_s": "1/s",
    "bench.wall_cert_p50_s": "s",
    "bench.wall_cert_tail_s": "s",
    "bench.speed_factor": "ratio",
}


def per_layer_units():
    units = {}
    for span, suffixes in LAYER_COUNTS:
        for suffix in suffixes:
            units["%s.%s" % (span, suffix)] = "count" if suffix == "calls" else "s"
    units.update(EXTRA_LAYER_UNITS)
    return units


def tail(times):
    """The time at the highest percentile with at least ten samples beyond
    it; the maximum when there are fewer than eleven samples."""
    xs = sorted(times)
    return xs[len(xs) - 11] if len(xs) >= 11 else xs[-1]


def run_record(args):
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        nproc = None
    sha = None
    if shutil.which("git"):
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            sha = lines[1]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "git_sha": sha,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import jpencil
    except ImportError as exc:
        sys.exit("perfbench: cannot import jpencil from %s/src: %s" % (ROOT, exc))
    src = os.path.join(ROOT, "src", "jpencil")
    if not os.path.isdir(src) or not os.path.samefile(os.path.dirname(jpencil.__file__), src):
        sys.exit("perfbench: jpencil was not imported from %s" % src)


def set_up(name, seed):
    """Everything before the first timed certificate."""
    from jpencil import binary, exceptional
    import workloads
    binary.invariant_polys()
    exceptional.build_omega4()
    wl = workloads.WORKLOADS[name](seed, ROOT)
    wl.setup()
    wl.inputs(0)
    return wl


def measure_setup(name, seed):
    """Median time at the reference speed of SETUP_REPEATS fresh
    interpreters doing set_up."""
    host = speed.Speed()
    host.sample()
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only",
                        "--workload", name, "--seed", str(seed)],
                       cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        t1 = time.perf_counter()
        host.sample()
        times.append(host.measure(t0, t1)[1])
    return statistics.median(times)


class Spool:
    """Certificate outputs kept on disk until they are checked, so that the
    benchmark's memory does not grow with the number of certificates in a
    run."""

    def __init__(self):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.fh = tempfile.TemporaryFile(dir=OUT_DIR)

    def add(self, output, error):
        pickle.dump((output, error), self.fh)

    def __iter__(self):
        self.fh.seek(0)
        while True:
            try:
                yield pickle.load(self.fh)
            except EOFError:
                return

    def close(self):
        self.fh.close()


def loop(wl, spool, seconds, passes=None, tracer=None):
    """Run whole passes until the certificates have taken `seconds` at the
    reference speed (or exactly `passes`), so that the work in a run does
    not follow the host's speed.

    Each certificate's (output or None, error or None) goes to `spool`.
    Returns (records, wall seconds, passes run, host speed samples); a
    record is (label, item, seconds, seconds at the reference speed).
    """
    host = speed.Speed()
    timed = []
    k = 0
    elapsed = 0.0  # certificate time at the reference speed, by the latest sample
    t_start = time.perf_counter()
    host.sample()
    # The traced loop samples only between certificates, so that no sample
    # falls inside a span.
    with host.inside() if tracer is None else contextlib.nullcontext():
        while True:
            for item in wl.inputs(k):
                cert_id = len(timed)
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        output = wl.run(item)
                    else:
                        output = tracer.certificate(cert_id, wl.run, item)
                    error = None
                except Exception as exc:  # a failed certificate is counted, not fatal
                    output, error = None, "%s: %s" % (type(exc).__name__, exc)
                t1 = time.perf_counter()
                timed.append((label(item), item, t0, t1))
                spool.add(output, error)
                host.sample_if_due(t1)
                elapsed += (t1 - t0) * speed.REFERENCE_S / host.seconds[-1]
            k += 1
            if (passes is not None and k >= passes) or (passes is None and elapsed >= seconds):
                break
    host.sample()
    wall = time.perf_counter() - t_start
    records = [(lab, item) + host.measure(t0, t1) for lab, item, t0, t1 in timed]
    return records, wall, k, host


def label(item):
    return " ".join(str(x) for x in item if isinstance(x, (str, int)))


def verify(wl, records, spool):
    import oracle
    failures = []
    for index, ((lab, item, _, _), (output, error)) in enumerate(zip(records, spool)):
        if error is None:
            try:
                error = wl.check(item, output, oracle)
            except Exception as exc:  # an output the check cannot read is wrong
                error = "check raised %s: %s" % (type(exc).__name__, exc)
        if error is not None:
            failures.append((index, lab, error))
    return failures


def traced_loop(wl, spool, passes):
    import spans
    import workloads
    import jpencil
    from jpencil import poly, varietyprobe

    tracer = spans.Tracer()
    modules = [jpencil] + [getattr(jpencil, m) for m in
                           ("poly", "polytext", "linalg", "exterior", "binary", "components",
                            "exceptional", "varietyprobe", "cli")]
    targets = []
    for owner, attr in SPAN_TARGETS:
        obj = poly.MultiPoly if owner == "poly.MultiPoly" else getattr(jpencil, owner)
        targets.append((obj, attr, "%s.%s" % (owner.split(".")[0], attr)))
    targets.append((workloads, "reduce_mod", "bench.reduce_mod"))

    counters = {"unit": 0, "gcd_terms": 0, "entries": 0, "points": 0, "pool": 0}

    def on_gcd(args, kwargs, result):
        counters["unit"] += result.total_degree() == 0

    def on_poly_gcd(args, kwargs, result):
        counters["gcd_terms"] += sum(len(P.terms) for P in args[:2])

    def on_matrix(args, kwargs, result):
        rows = args[0]
        counters["entries"] += len(rows) * len(rows[0]) if rows else 0

    def on_locus(args, kwargs, result):
        n, p = args[1], args[2]
        counters["points"] += (p ** (n + 1) - 1) // (p - 1)

    tracer.observers.update({
        "poly.coefficient_gcd": on_gcd, "poly.poly_gcd": on_poly_gcd,
        "linalg.nullspace": on_matrix, "linalg.bareiss_rank": on_matrix,
        "varietyprobe.zero_locus": on_locus,
    })
    pool_cls = getattr(varietyprobe, "ProcessPoolExecutor", None)
    if pool_cls is not None:
        class CountingPool(pool_cls):
            def __init__(self, *a, **kw):
                counters["pool"] += 1
                super().__init__(*a, **kw)
        varietyprobe.ProcessPoolExecutor = CountingPool

    tracer.install(targets, modules)
    try:
        records, wall, _, _ = loop(wl, spool, None, passes=passes, tracer=tracer)
    finally:
        tracer.uninstall()
        if pool_cls is not None:
            varietyprobe.ProcessPoolExecutor = pool_cls
    return tracer, counters, records, wall


def time_metrics(times, verified):
    """certs_per_s, cert_p50_s and cert_tail_s of one loop's times."""
    return {"certs_per_s": verified / sum(times), "cert_p50_s": statistics.median(times),
            "cert_tail_s": tail(times)}


def layer_metrics(tracer, counters, traced_wall, overhead):
    summary = tracer.summary()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    values = {}
    for span, suffixes in LAYER_COUNTS:
        row = summary.get(span, empty)
        for suffix in suffixes:
            values["%s.%s" % (span, suffix)] = row[suffix]
    gcd_calls = summary.get("poly.coefficient_gcd", empty)["calls"]
    locus_busy = summary.get("varietyprobe.zero_locus", empty)["busy_s"]
    values["poly.coefficient_gcd.unit_ratio"] = counters["unit"] / gcd_calls if gcd_calls else 0.0
    values["poly.gcd_input_terms"] = counters["gcd_terms"]
    values["linalg.entries_eliminated"] = counters["entries"]
    values["varietyprobe.zero_locus.points"] = counters["points"]
    values["varietyprobe.zero_locus.points_per_s"] = (
        counters["points"] / locus_busy if locus_busy else 0.0)
    values["varietyprobe.zero_locus.pool_calls"] = counters["pool"]
    values["varietyprobe.pool_children_peak_rss_mb"] = children_rss_mb()
    values["trace_overhead_ratio"] = overhead
    values["bench.root_span_coverage"] = tracer.root_time() / traced_wall
    values["bench.traced_wall_s"] = traced_wall
    return values


def _children_maxrss():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


# A process inherits its children counters across exec, so a value that
# has not risen above this one comes from before this run.
_CHILDREN_MAXRSS_AT_START = _children_maxrss()


def children_rss_mb():
    """Peak RSS of the largest child this run waited for, 0 when none did."""
    now = _children_maxrss()
    return now / 1024.0 if now > _CHILDREN_MAXRSS_AT_START else 0.0


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description="jpencil certificate benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=positive_int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    if args.setup_only:
        set_up(args.workload, args.seed)
        return 0

    wl = set_up(args.workload, args.seed)
    spool = Spool()
    records, wall, passes, host = loop(wl, spool, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pool_rss_mb = children_rss_mb()  # before this process starts any child of its own
    if args.trace:
        tracer, counters, traced_records, traced_wall = traced_loop(wl, spool, passes)
        # Certificate time at the reference speed, not wall time: only the
        # untraced loop samples the host inside certificates.
        overhead = sum(r[3] for r in traced_records) / sum(r[3] for r in records) - 1.0
        metrics = layer_metrics(tracer, counters, traced_wall, overhead)
        units = per_layer_units()
        checked = records + traced_records
    else:
        checked = records
    failures = verify(wl, checked, spool)
    spool.close()
    verified = len(records) - sum(1 for index, _, _ in failures if index < len(records))
    record = run_record(args)
    wall_metrics = time_metrics([r[2] for r in records], verified)
    speed_factor = statistics.median(speed.REFERENCE_S / t for t in host.seconds)
    if args.trace:
        for name, value in wall_metrics.items():
            metrics["bench.wall_" + name] = value
        metrics["bench.speed_factor"] = speed_factor
    else:
        metrics = time_metrics([r[3] for r in records], verified)
        metrics["setup_s"] = measure_setup(args.workload, args.seed)
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END_UNITS

    record.update({
        "passes": passes,
        "certificates": len(records),
        "wall_s": wall,
        "fail_ratio": len(failures) / len(checked),
        "pool_children_peak_rss_mb": pool_rss_mb,
        "setup_repeats": SETUP_REPEATS,
        "wall": wall_metrics,
        "speed_factor": speed_factor,
        "reference_s": speed.REFERENCE_S,
        "reference_samples": len(host.seconds),
    })
    print("record " + json.dumps(record, sort_keys=True))
    for name, value in metrics.items():
        print("%-44s %16.6f %-6s n=%d" % (name, value, units[name], len(records)))
    print("%-44s %16.6f %-6s (%d of %d)" % ("fail_ratio", record["fail_ratio"], "ratio",
                                            len(failures), len(checked)))
    for _, lab, reason in failures[:20]:
        print("FAILED %s: %s" % (lab, reason))

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    per_cert = [{"label": r[0], "seconds": r[2], "reference_seconds": r[3]} for r in records]
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump({"record": record, "metrics": metrics, "units": units,
                   "failures": failures, "certificates": per_cert}, fh, indent=1, sort_keys=True)
    if args.trace:
        tracer.write(os.path.join(OUT_DIR, stem + "-spans"),
                     {"record": record, "certificates": [r[0] for r in traced_records]})

    print(json.dumps({
        "correct": not failures,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer metrics of a traced run.

Layers are the modules under ``src/qmeasure``.  Workload spans give busy
time per op, and wrapped library functions (``COUNTED``) the library's
call and byte counts per op; three records do not depend on the workload:
interpreter and import cost, a dimension-scaling record, and the wall
time of each acceptance gate.
"""

import os
import re
import statistics
import subprocess
import sys
from time import perf_counter
from xml.etree import ElementTree

import inputs as gen
from qmeasure.channels import born, lueders_aggregate
from qmeasure.compatibility import condition1_holds
from qmeasure.linalg import eig_hermitian
from qmeasure.observables import spectral_decompose

CHANNEL_FNS = ("born", "lueders_select", "lueders_aggregate", "normalize", "von_neumann_aggregate",
               "rotated_theta_family", "theta_select", "theta_aggregate")
COMPAT_FNS = ("compat_report", "condition1_exact", "condition1_sampled", "condition2_exact",
              "condition2_sampled", "theta_condition1", "theta_condition2", "heisenberg_observable",
              "sector_rotated_family")
# Library functions whose calls a traced run counts, its internal calls
# included (tracing.count_library_calls); the *_calls and *_bytes metrics.
COUNTED = {
    "linalg.eig_hermitian": [("qmeasure.linalg", "eig_hermitian")],
    "linalg.commutes": [("qmeasure.linalg", "commutes")],
    "observables.spectral_decompose": [("qmeasure.observables", "spectral_decompose")],
    **{f"channels.{fn}": [("qmeasure.channels", fn)] for fn in CHANNEL_FNS},
    "matrixio.parse": [("qmeasure.matrixio", "parse_matrix"), ("qmeasure.matrixio", "parse_observable_text")],
    "matrixio.format": [("qmeasure.matrixio", "format_matrix")],
}
SIZED = {"matrixio.parse": lambda args, out: len(args[0]), "matrixio.format": lambda args, out: len(out)}
SCALE_DIMS = (2, 8, 32, 128)
# The condition routes on a simple spectrum cost ~2 s at d=32 and ~30 s at d=64.
CONDITION_DIMS = (2, 8, 32)
SCALE_FNS = ("eig_hermitian", "born", "lueders_aggregate", "condition1_exact", "condition1_sampled")
GATES = range(1, 10)
SCALE_REPEATS = 3
STARTUP_REPEATS = 5


def _span_metrics():
    """(metric, span or counter, kind) for every workload-span metric."""
    rows = [
        ("matrixio.parse", "ms"), ("matrixio.parse", "calls"), ("matrixio.parse_bytes", "count"),
        ("matrixio.format", "ms"), ("matrixio.format", "calls"), ("matrixio.format_bytes", "count"),
        ("cli.inproc_run", "ms"), ("demo.run_demo", "ms"),
        ("linalg.eig_hermitian", "ms"), ("linalg.eig_hermitian", "calls"),
        ("linalg.commutes", "ms"), ("linalg.commutes", "calls"),
        ("observables.spectral_decompose", "ms"), ("observables.spectral_decompose", "calls"),
        ("observables.observable_from_pairs", "ms"), ("observables.stored_bytes", "count"),
        ("states.validate", "ms"), ("states.random_density", "ms"),
    ]
    for fn in CHANNEL_FNS:
        rows += [(f"channels.{fn}", "ms"), (f"channels.{fn}", "calls")]
    rows += [(f"compatibility.{fn}", "ms") for fn in COMPAT_FNS]
    rows += [(f"constraints.{fn}", "ms")
             for fn in ("measurable_under", "preserves_constraint", "random_constrained_density")]
    out = []
    for source, kind in rows:
        if kind == "ms":
            out.append((f"{source}_ms", source, kind, "ms/op"))
        elif kind == "calls":
            out.append((f"{source}_calls", source, kind, "calls/op"))
        else:
            out.append((source, source, kind, "B/op"))
    return out


SPAN_METRICS = _span_metrics()


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: unit for name, _, _, unit in SPAN_METRICS}
    units.update({
        "cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.subprocess_overhead_ms": "ms/op",
        "channels.failed": "1/op", "compatibility.indeterminate_frac": "frac",
        "compatibility.disagreements": "1/op", "trace.overhead_frac": "frac",
    })
    for fn in SCALE_FNS:
        for d in CONDITION_DIMS if fn.startswith("condition") else SCALE_DIMS:
            units[f"scale.{fn}.d{d}_ms"] = "ms"
    units.update({f"gates.{n}_s": "s" for n in GATES})
    return units


def span_metrics(tr, ops: int, failed_measure: int) -> dict:
    """Busy time in the benchmark's calls, and the library's own call and
    byte counts, per op of the traced phase."""
    totals = tr.totals()
    out = {}
    for name, source, kind, unit in SPAN_METRICS:
        if kind == "ms":
            value = totals[source][0] * 1e3 / ops
        elif kind == "calls":
            value = tr.counts[f"{source}.calls"] / ops
        else:
            value = tr.counts[source] / ops
        out[name] = (value, unit, ops)
    subprocess_s = totals["cli.subprocess"][0] - tr.counts["cli.inproc_s"]
    reports = tr.counts["compatibility.reports"]
    out["cli.subprocess_overhead_ms"] = (subprocess_s * 1e3 / ops, "ms/op", ops)
    out["channels.failed"] = (failed_measure / ops, "1/op", ops)
    out["compatibility.indeterminate_frac"] = (
        tr.counts["compatibility.indeterminate"] / reports if reports else 0.0, "frac", ops)
    out["compatibility.disagreements"] = (tr.counts["compatibility.disagreements"] / ops, "1/op", ops)
    return out


def _median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append((perf_counter() - start) * 1e3)
    return statistics.median(times)


def startup_metrics(env, root) -> dict:
    """Bare interpreter start, and import of qmeasure.cli on top of it."""
    def python(code):
        return lambda: subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True)

    bare = _median_ms(python("pass"), STARTUP_REPEATS)
    full = _median_ms(python("import qmeasure.cli"), STARTUP_REPEATS)
    return {"cli.interpreter_ms": (bare, "ms", STARTUP_REPEATS),
            "cli.import_ms": (full - bare, "ms", STARTUP_REPEATS)}


def scale_metrics(seed) -> dict:
    """Per-call time of the core routes as d grows, simple spectrum R."""
    out = {}
    for d in SCALE_DIMS:
        g = gen.rng_for(seed, 7, d)
        m = gen.hermitian(gen.unitary(d, g), gen.distinct_spectrum(d, g))
        r = spectral_decompose(m)
        s = spectral_decompose(gen.hermitian(gen.unitary(d, g), gen.integer_spectrum(d, g)))
        z = gen.density(d, d, g)
        calls = {"eig_hermitian": lambda: eig_hermitian(m), "born": lambda: born(r, z),
                 "lueders_aggregate": lambda: lueders_aggregate(r, z)}
        if d in CONDITION_DIMS:
            calls["condition1_exact"] = lambda: condition1_holds(r, s, "exact")
            calls["condition1_sampled"] = lambda: condition1_holds(r, s, "sampled")
        for fn, call in calls.items():
            out[f"scale.{fn}.d{d}_ms"] = (_median_ms(call, SCALE_REPEATS), "ms", SCALE_REPEATS)
    return out


def gate_metrics(env, root, scratch) -> tuple[dict, list]:
    """Wall time of each acceptance gate, from a read-only pytest run.

    pytest's JUnit report gives each test's call time and outcome.
    Returns the metrics and the list of gates that did not pass.
    """
    report = os.path.join(root, scratch, "gates.xml")
    if os.path.exists(report):
        os.remove(report)
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "no:benchmark",
           f"--basetemp={os.path.join(root, scratch, 'pytest-tmp')}",
           f"--junitxml={report}", "-o", "junit_duration_report=call", "tests/test_acceptance.py"]
    subprocess.run(cmd, cwd=root, env={**env, "PYTHONDONTWRITEBYTECODE": "1"},
                   capture_output=True, timeout=150)
    times = {}
    for case in ElementTree.parse(report).iter("testcase"):
        found = re.match(r"test_criterion_(\d+)_", case.get("name", ""))
        if found:
            passed = not any(child.tag in ("failure", "error", "skipped") for child in case)
            times[int(found.group(1))] = (float(case.get("time")), passed)
    bad = [n for n in GATES if not times.get(n, (0, False))[1]]
    return {f"gates.{n}_s": (times.get(n, (0.0,))[0], "s", 1) for n in GATES}, bad

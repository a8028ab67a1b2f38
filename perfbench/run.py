"""Benchmark for qmeasure: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports qmeasure from ``src/``.
Each op starts after the previous one has finished.  The workload's
cycle of ops repeats whole until ``--seconds`` have passed.  Every output
is checked against how its input was generated; an op may fail only in
the way its known defect, if it has one, says.  Inputs come from
``--seed`` only.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
cycle untraced and then traced, half the time each, and reports the
per-layer metrics.  The last line of stdout is one JSON object; the full
results, with the environment, go to ``.perfbench/results/``.
"""

import os

# BLAS threads are fixed before numpy is imported: one thread keeps the
# timings steady on a small shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import math
import platform
import re
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = ".perfbench"
SETUP_REPEATS = 5


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def subprocess_env() -> dict:
    tmp = os.path.join(ROOT, SCRATCH, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return {**os.environ, "PYTHONPATH": SRC, "TMPDIR": tmp}


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(), "cpu": cpu, "commit": commit, "seed": seed,
    }


def build(workload: str, seed: int, env: dict):
    import workloads

    if workload == "measure-generic":
        return workloads.build_measure(seed, generic=True)
    if workload == "measure-degenerate":
        return workloads.build_measure(seed, generic=False)
    if workload == "verdicts":
        return workloads.build_verdicts(seed)
    return workloads.build_cli(seed, ROOT, env, os.path.join(SCRATCH, f"cli-s{seed}"))


def setup(workload: str, seed: int, env: dict):
    """Imports, input generation, file writing and warm-up, timed."""
    from tracing import Tracer

    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import qmeasure.cli"], cwd=ROOT, env=env, check=True)
    wl = build(workload, seed, env)
    off = Tracer(False)
    for op in wl.warm:
        problem = op.check(op.run(off), off)
        if problem:
            fail(f"warm-up op failed its check: {problem}", 1)
    return wl, perf_counter() - start


class Phase:
    def __init__(self):
        self.latencies = []
        self.failures = []  # (op kind, message, the known defect it shows, or None)
        self.failed_measure = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def rate(self) -> float:
        """Ops per second of op time.  A mean, not a median: the host's speed
        drifts by up to 1.5x over seconds, and a median over a run snaps to
        whichever speed held for most of it."""
        return self.attempted / sum(self.latencies)


def run_phase(ops, seconds: float, tr) -> Phase:
    """Repeat the whole cycle until ``seconds`` of wall time have passed."""
    from qmeasure.errors import VerdictDisagreement

    ph = Phase()
    start = perf_counter()
    while perf_counter() - start < seconds:
        for op in ops:
            op_id = ph.attempted
            span = tr.open(op.kind, op_id)
            began = perf_counter()
            try:
                with tr.counted():
                    out, problem = op.run(tr), None
            except Exception as exc:  # a failed op is counted, not fatal
                out, problem = None, f"{type(exc).__name__}: {exc}"
                if isinstance(exc, VerdictDisagreement):
                    tr.count("compatibility.disagreements")
            ended = perf_counter()
            tr.close(span, ended)
            ph.latencies.append(ended - began)
            if problem is None:
                span = tr.open("parts:" + op.kind, op_id)
                try:
                    problem = op.check(out, tr)
                    if tr.enabled:
                        op.parts(tr, out)
                except Exception as exc:
                    problem = problem or f"check raised {type(exc).__name__}: {exc}"
                tr.close(span)
            if problem:
                defect = op.known_defect
                known = defect is not None and re.fullmatch(defect[1], problem, re.DOTALL)
                ph.failures.append((op.kind, problem, defect[0] if known else None))
                ph.failed_measure += op.kind.startswith("measure-")
    return ph


def tail(latencies, pct: float):
    """The pct-th percentile by nearest rank, and how many samples lie above it."""
    n = len(latencies)
    rank = min(n - 1, max(0, math.ceil(pct / 100 * n) - 1))
    return sorted(latencies)[rank], n - 1 - rank


def end_to_end(ph: Phase, setup_times, workload: str, tail_pct: float) -> dict:
    n = ph.attempted
    tail_s, beyond = tail(ph.latencies, tail_pct)
    who = resource.RUSAGE_CHILDREN if workload == "cli-oneshot" else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "ops_per_s": (ph.rate(), "1/s", n),
        "latency_p50_ms": (statistics.median(ph.latencies) * 1e3, "ms", n),
        "latency_tail_ms": (tail_s * 1e3, "ms", n, tail_pct, beyond),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB", 1),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(SRC, "qmeasure", "__init__.py")):
        fail("no qmeasure sources under src/; run from the root of a checkout")
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    env = subprocess_env()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        wl, took = setup(args.workload, args.seed, env)
        setup_times.append(took)

    import selfcheck
    from tracing import Tracer, count_library_calls

    if args.trace:
        import layers

        base = run_phase(wl.ops, args.seconds / 2, Tracer(False))
        tr = Tracer(True)
        restore = count_library_calls(tr, layers.COUNTED, layers.SIZED)
        try:
            ph = run_phase(wl.ops, args.seconds / 2, tr)
        finally:
            restore()
        metrics = layers.span_metrics(tr, ph.attempted, ph.failed_measure)
        metrics["trace.overhead_frac"] = (1.0 - ph.rate() / base.rate(), "frac", ph.attempted)
        metrics.update(layers.startup_metrics(env, ROOT))
        metrics.update(layers.scale_metrics(args.seed))
        gates, bad_gates = layers.gate_metrics(env, ROOT, SCRATCH)
        metrics.update(gates)
        metrics = {name: metrics[name] for name in layers.per_layer_units()}
        failures = base.failures + ph.failures
        attempted = base.attempted + ph.attempted
        tr.write(os.path.join(SCRATCH, f"trace-{args.workload}-s{args.seed}.jsonl"))
    else:
        ph = run_phase(wl.ops, args.seconds, Tracer(False))
        metrics = end_to_end(ph, setup_times, args.workload, wl.tail_percentile)
        failures, attempted, bad_gates = ph.failures, ph.attempted, []

    unexpected = [f for f in failures if f[2] is None]
    metrics = {name: dict(zip(("value", "unit", "samples", "percentile", "beyond"), v))
               for name, v in metrics.items()}
    problems = selfcheck.problems(spec, args.workload, metrics, args.trace)
    if problems:
        fail("results do not match BENCHMARK.json: " + "; ".join(problems), 3)

    results = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": attempted, "failed": len(failures), "failed_frac": len(failures) / attempted,
        "known_defect_failures": len(failures) - len(unexpected),
        "failures": [{"op": k, "problem": m, "known_defect": d} for k, m, d in failures[:50]],
        "failed_gates": bad_gates,
        "metrics": metrics,
        "runs_per_op": ph.attempted / len(wl.ops),
    }
    os.makedirs(os.path.join(SCRATCH, "results"), exist_ok=True)
    out_path = os.path.join(SCRATCH, "results", f"{args.workload}-s{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)

    for name, m in metrics.items():
        extra = f", p{m['percentile']:g} with {m['beyond']} above" if "percentile" in m else ""
        print(f"{name} = {m['value']:.6g} {m['unit']} (n={m['samples']}{extra})")
    print(f"failed_frac = {results['failed_frac']:.6g} ({len(failures)} of {attempted}, "
          f"{results['known_defect_failures']} from known defects)")
    for kind, msg, _ in unexpected[:5]:
        print(f"unexpected failure: {kind}: {msg}")
    print(json.dumps({
        "correct": not unexpected and not bad_gates,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

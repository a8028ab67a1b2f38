"""Check the benchmark's own output against BENCHMARK.json.

Every run checks its own metrics before printing them.  Run as a script
after a set of runs, it checks that every workload has an untraced and a
traced results file under ``.perfbench/results/`` that passes the same test:

    python3 perfbench/selfcheck.py
"""

import glob
import json
import math
import os
import re
import sys

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def problems(spec: dict, workload: str, metrics: dict, trace: int) -> list:
    """Every metric BENCHMARK.json lists for this kind of run is present,
    with its unit, a finite value and a sample count; nothing else is."""
    listed = spec["per_layer" if trace else "end_to_end"]
    out = [] if workload in {w["name"] for w in spec["workloads"]} else [f"{workload} not listed"]
    for m in listed:
        got = metrics.get(m["name"])
        if got is None:
            out.append(f"{m['name']} missing")
        elif got["unit"] != m["unit"] or got["samples"] < 1 or not math.isfinite(got["value"]):
            out.append(f"{m['name']} reported as {got}, listed with unit {m['unit']}")
    out += [f"{name} not listed" for name in set(metrics) - {m["name"] for m in listed}]
    out += [f"bad metric name {name!r}" for name in metrics if not NAME_RE.match(name)]
    return out


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bad = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            files = sorted(glob.glob(os.path.join(".perfbench", "results", f"{w['name']}-s*-trace{trace}.json")))
            if not files:
                bad.append(f"{w['name']}: no results with --trace {trace}")
            for path in files:
                with open(path, encoding="utf-8") as fh:
                    res = json.load(fh)
                bad += [f"{path}: {p}" for p in problems(spec, res["workload"], res["metrics"], trace)]
    for line in bad:
        print(line)
    print(f"selfcheck: {'FAIL' if bad else 'ok'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

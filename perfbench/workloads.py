"""The four benchmark workloads as seeded cycles of ops.

An op is one client request in a closed loop.  ``run`` is the timed part
and calls only qmeasure; ``check`` compares the output with how the input
was generated; ``parts`` (traced runs only) times the public parts of the
composite calls on the same inputs.  A workload repeats its cycle whole,
so every run sees the same mix of op kinds in the same proportions.
"""

import io
import os
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np

import inputs as gen
from qmeasure import cli, demo
from qmeasure.channels import (
    born,
    lueders_aggregate,
    lueders_select,
    normalize,
    rotated_theta_family,
    theta_aggregate,
    theta_select,
    von_neumann_aggregate,
)
from qmeasure.compatibility import (
    FAILS,
    HOLDS,
    compat_report,
    condition1_holds,
    condition2_holds,
    heisenberg_observable,
    sector_rotated_family,
    theta_condition1,
    theta_condition2,
)
from qmeasure.config import RunConfig
from qmeasure.constraints import (
    measurable_under,
    preserves_constraint,
    random_constrained_density,
)
from qmeasure.errors import ParseError
from qmeasure.linalg import commutes, eig_hermitian
from qmeasure.matrixio import format_matrix, parse_matrix, parse_observable_text
from qmeasure.observables import observable_from_pairs, reconstruct, spectral_decompose
from qmeasure.states import random_density, validate

TOL = 1e-9

# Branches lighter than this are not normalized: their state is roundoff.
NORMALIZE_ABOVE = 1e-9

# ROADMAP "Recent": compat_report judges the commutator on an absolute
# scale, so on a commuting pair with R rescaled by 1e6 or more it gets
# verdict_commute wrong (the conditions, also judged on absolute scales,
# may go wrong with it, but agree with each other) or raises
# VerdictDisagreement.  An op carrying this defect may fail only that way;
# any other failure of it is unexpected.
UNIT_DEFECT = ("compat_report's commutator verdict is not scale invariant",
               r"VerdictDisagreement: .*|\S+: verdicts c1,c2,comm=\((True, True|False, False), False\) on a commuting pair")
RESCALE_FACTORS = (1e-3, 1e2, 1e6, 1e8)


def _none(*_):
    return None


@dataclass
class Op:
    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]
    parts: Callable[[Any, Any], None] = _none
    # (description, regular expression of the only failure it may cause)
    known_defect: tuple[str, str] | None = None


@dataclass
class Workload:
    ops: list
    warm: list  # ops run once during set-up, before timing starts
    # latency_tail_ms is this percentile, fixed per workload: the highest
    # percentile with ten samples above it would move with the number of
    # ops a run completes, so with the host's speed, from one cost class of
    # ops to another.  Each cycle is built so that the median and this
    # percentile fall inside one class each, away from its edges, and a
    # 25 s run leaves at least ten samples above it.
    tail_percentile: float = 90


def stored_bytes(obs) -> int:
    return sum(p.projector.nbytes for p in obs.pairs) + sum(b.nbytes for b in obs.basis)


def _worst(values) -> float:
    return max((float(v) for v in values), default=0.0)


# ---------------------------------------------------------------- measure-*


def measure_op(matrix, spectrum, states, ranks, seed, generic) -> Op:
    dim = len(spectrum)
    expect = np.unique(spectrum)

    def run(tr):
        obs = tr.call("observables.spectral_decompose", spectral_decompose, matrix)
        tr.count("observables.stored_bytes", stored_bytes(obs))
        fam = tr.call("channels.rotated_theta_family", rotated_theta_family, obs, seed)
        results = []
        for z in states:
            zv = tr.call("states.validate", validate, z)
            dist = tr.call("channels.born", born, obs, zv)
            sels = [tr.call("channels.lueders_select", lueders_select, obs, k, zv)
                    for k in range(obs.outcome_count)]
            normed = [tr.call("channels.normalize", normalize, s)
                      for s in sels if s.weight > NORMALIZE_ABOVE]
            agg = tr.call("channels.lueders_aggregate", lueders_aggregate, obs, zv)
            vn = tr.call("channels.von_neumann_aggregate", von_neumann_aggregate, obs, zv)
            tsels = [tr.call("channels.theta_select", theta_select, fam, k, zv)
                     for k in range(fam.outcome_count)]
            tagg = tr.call("channels.theta_aggregate", theta_aggregate, fam, zv)
            results.append((dist, sels, normed, agg, vn, tsels, tagg))
        return obs, results

    def check(out, tr):
        obs, results = out
        if obs.outcome_count != len(expect):
            return f"d={dim}: {obs.outcome_count} outcomes, generated {len(expect)}"
        if _worst(np.abs(np.asarray(obs.eigenvalues) - expect)) > 1e-8 * max(1.0, dim):
            return f"d={dim}: eigenvalues differ from the generated spectrum"
        for dist, sels, normed, agg, vn, tsels, tagg in results:
            total = np.zeros_like(agg.matrix)
            for s in sels:
                total += s.matrix
            if not np.array_equal(total, agg.matrix):
                return f"d={dim}: branch sum differs from lueders_aggregate bitwise"
            probs = np.asarray(dist.probabilities)
            if _worst(np.abs([s.weight for s in sels] - probs)) > TOL:
                return f"d={dim}: branch traces differ from born weights"
            if _worst(np.abs([t.weight for t in tsels] - probs)) > TOL:
                return f"d={dim}: theta branch traces differ from born weights"
            if _worst(abs(np.trace(n.matrix).real - 1.0) for n in normed) > TOL:
                return f"d={dim}: normalized branch trace is not 1"
            for name, m in (("aggregate", agg), ("von Neumann", vn), ("theta aggregate", tagg)):
                if abs(np.trace(m.matrix).real - 1.0) > TOL:
                    return f"d={dim}: {name} trace is not 1"
            if generic and _worst(np.abs(vn.matrix - agg.matrix).ravel()) > TOL:
                return f"d={dim}: von Neumann differs from Lueders on a simple spectrum"
        return None

    def parts(tr, out):
        obs = out[0]
        tr.call("linalg.eig_hermitian", eig_hermitian, matrix)
        for rank in ranks:
            tr.call("states.random_density", random_density, dim, rank, seed)
        # observable_from_pairs re-validates all K^2 projector products;
        # at K = 128 that alone would take tens of seconds per op.
        if obs.outcome_count <= 32:
            rebuilt = tr.call("observables.observable_from_pairs", observable_from_pairs,
                              [(p.eigenvalue, p.projector) for p in obs.pairs])
            tr.count("observables.stored_bytes", stored_bytes(rebuilt))

    return Op(f"measure-d{dim}", run, check, parts)


# Ops per cycle at each dimension.  The d=128 op is most of the cycle's
# time, so it drives ops_per_s.  The counts put the median (50%) in the
# middle of the d=8 class (29-71% of the ops) and the 90th percentile
# inside the d=32 class (71-98%), so a statistic never sits on the edge
# between two classes.  A cycle of ~1 s gives each op ~20 runs in 25 s.
MEASURE_MIX = ((2, 12), (8, 17), (32, 11), (128, 1))
STATES_PER_OP = 2


def build_measure(seed, generic) -> Workload:
    draw = gen.distinct_spectrum if generic else gen.integer_spectrum
    slots = []
    for dim, count in MEASURE_MIX:
        for i in range(count):
            rng = gen.rng_for(seed, dim, i)
            spectrum = draw(dim, rng)
            matrix = gen.hermitian(gen.unitary(dim, rng), spectrum)
            # Ranks rotate with the slot, not the seed: a rank-deficient state
            # makes validate re-orthonormalize its zero eigenspace, so a
            # rank drawn per seed would make the cost of a slot vary by seed.
            ranks = [(1, max(1, dim // 2), dim)[(i + j) % 3] for j in range(STATES_PER_OP)]
            states = [gen.density(dim, r, rng) for r in ranks]
            slots.append((i, measure_op(matrix, spectrum, states, ranks, seed * 1000 + i, generic)))
    # A fixed interleaving of the dimensions, the same for every seed: the
    # latency of a small op depends on what ran just before it.
    ops = [op for _, op in sorted(slots, key=lambda slot: slot[0])]
    warm = [next(op for op in ops if op.kind == f"measure-d{d}") for d, _ in MEASURE_MIX[:3]]
    return Workload(ops, warm)


# ---------------------------------------------------------------- verdicts


def compat_op(kind, r_m, s_m, u1, u2, commuting, known_defect=None) -> Op:
    def run(tr):
        r = tr.call("observables.spectral_decompose", spectral_decompose, r_m)
        s = tr.call("observables.spectral_decompose", spectral_decompose, s_m)
        return r, s, tr.call("compatibility.compat_report", compat_report, r, s, u1, u2, mode="both")

    def check(out, tr):
        rep = out[2]
        got = (rep.verdict_condition1, rep.verdict_condition2, rep.verdict_commute)
        if got != (commuting,) * 3:
            return f"{kind}: verdicts c1,c2,comm={got} on a {'' if commuting else 'non-'}commuting pair"
        return None

    def parts(tr, out):
        r, s, rep = out
        tr.count("compatibility.indeterminate", bool(rep.indeterminate))
        tr.count("compatibility.reports")
        if u1 is not None:
            r = tr.call("compatibility.heisenberg_observable", heisenberg_observable, r, u1)
        if u2 is not None:
            s = tr.call("compatibility.heisenberg_observable", heisenberg_observable, s, u2)
        for mode in ("exact", "sampled"):
            tr.call(f"compatibility.condition1_{mode}", condition1_holds, r, s, mode)
            tr.call(f"compatibility.condition2_{mode}", condition2_holds, r, s, mode)
        tr.call("linalg.commutes", commutes, reconstruct(r), reconstruct(s), TOL)

    return Op(kind, run, check, parts, known_defect)


def theta_op(kind, r_m, s_m, commuting, condition, mode, seed) -> Op:
    name, fn = {1: ("theta_condition1", theta_condition1), 2: ("theta_condition2", theta_condition2)}[condition]

    def run(tr):
        r = tr.call("observables.spectral_decompose", spectral_decompose, r_m)
        s = tr.call("observables.spectral_decompose", spectral_decompose, s_m)
        fam_r = tr.call("compatibility.sector_rotated_family", sector_rotated_family, r, s, seed)
        fam_s = tr.call("compatibility.sector_rotated_family", sector_rotated_family, s, r, seed + 1)
        return tr.call(f"compatibility.{name}", fn, fam_r, fam_s, mode)

    def check(res, tr):
        want = HOLDS if commuting else FAILS
        return None if res.verdict == want else f"{kind}: {name} {mode} says {res.verdict}, generated {want}"

    return Op(kind, run, check)


def constraint_op(kind, n_m, r_m, measurable, seed) -> Op:
    def run(tr):
        r = tr.call("observables.spectral_decompose", spectral_decompose, r_m)
        ok = tr.call("constraints.measurable_under", measurable_under, r, n_m)
        z = tr.call("constraints.random_constrained_density", random_constrained_density, n_m, seed)
        return ok, tr.call("constraints.preserves_constraint", preserves_constraint, r, n_m, z)

    def check(out, tr):
        ok, rows = out
        if ok != measurable:
            return f"{kind}: measurable_under={ok}, generated {measurable}"
        if measurable and not all(row.preserved for row in rows):
            return f"{kind}: a measurable observable moved the state out of the sector"
        return None

    return Op(kind, run, check)


def build_verdicts(seed) -> Workload:
    simple, ints = gen.distinct_spectrum, gen.integer_spectrum
    ops = []

    def rng():
        return gen.rng_for(seed, len(ops))

    def pair(dim, commuting, r_draw):
        draw = gen.commuting_pair if commuting else gen.noncommuting_pair
        return draw(dim, rng(), r_draw, ints)

    def displaced(dim, commuting, r_draw):
        """A commuting pair moved in time: u1 = u2 keeps it commuting,
        u2 alone (checked far from commuting) breaks it."""
        g = rng()
        r, s = gen.commuting_pair(dim, g, r_draw, ints)
        while True:
            v = gen.unitary(dim, g)
            if commuting or gen.max_commutator(r, v.conj().T @ s @ v) > 1e-3:
                return r, s, (v if commuting else None), v

    def compat(dim, commuting, r_draw, tag):
        r, s = pair(dim, commuting, r_draw)
        label = "comm" if commuting else "noncomm"
        ops.append(compat_op(f"compat-{tag}{dim}-{label}", r, s, None, None, commuting))

    def compat_displaced(dim, commuting, r_draw, tag):
        r, s, u1, u2 = displaced(dim, commuting, r_draw)
        label = "comm" if commuting else "noncomm"
        ops.append(compat_op(f"compat-{tag}{dim}-displaced-{label}", r, s, u1, u2, commuting))

    # Three cost classes of 8 ops each, so that the median falls in the
    # middle of the second and the 90th percentile inside the third:
    #   light (1-20 ms): theta, constraint and unit-rescaled verdicts;
    #   degenerate R at d=32 (~70 ms);
    #   simple R at d=16 (~95 ms, mostly sampled condition 1).
    # No op is longer than ~0.1 s, so each gets ~15 runs in 25 s and a slow
    # stretch of the host lands on a few runs of every op, not on all runs
    # of one (simple R at d=32 is ~1.4 s, degenerate R at d=64 ~0.45 s).
    # The traced run's scale record times both condition-1 routes on simple
    # R up to d=32.
    for draw, tag, dim in ((ints, "deg", 32), (simple, "simple", 16)):
        for commuting in (True, False, True, False, True, False):
            compat(dim, commuting, draw, tag)
        for commuting in (True, False):
            compat_displaced(dim, commuting, draw, tag)
    for commuting, condition, mode in ((True, 2, "sampled"), (False, 1, "exact")):
        r, s = pair(32, commuting, ints)
        tag = f"theta{condition}-{mode}-d32-{'comm' if commuting else 'noncomm'}"
        ops.append(theta_op(tag, r, s, commuting, condition, mode, seed + len(ops)))
    for local_dim, measurable in ((2, False), (5, True)):
        swap = gen.swap(local_dim)
        n_sym = (np.eye(local_dim ** 2) - swap) / 2.0
        g = rng()
        m = gen.hermitian(gen.unitary(local_dim ** 2, g), g.standard_normal(local_dim ** 2))
        if measurable:
            m = (m + swap @ m @ swap) / 2.0
        elif gen.max_commutator(m, swap) < 1e-3:
            raise RuntimeError("drew an exchange-symmetric observable by chance")
        tag = f"constraint-n{local_dim}-{'measurable' if measurable else 'not-measurable'}"
        ops.append(constraint_op(tag, n_sym, m, measurable, seed + len(ops)))
    # Unit-rescaled commuting pairs; the >= 1e6 ones fail today and are
    # counted as failed ops.
    r, s = gen.commuting_pair(8, rng(), ints, ints)
    for factor in RESCALE_FACTORS:
        ops.append(compat_op(f"compat-rescaled-x{factor:g}", factor * r, s, None, None, True,
                             UNIT_DEFECT if factor >= 1e6 else None))

    warm = [op for op in ops if not op.kind.startswith("compat-") or op.kind == "compat-rescaled-x0.001"]
    return Workload(ops, warm)


# ---------------------------------------------------------------- cli-oneshot


def _section(stdout: str) -> str | None:
    """The matrix block that ``measure`` prints last, from its ``dim`` line."""
    at = stdout.rfind("dim ")
    return stdout[at:] if at >= 0 else None


def cli_op(kind, argv, files, expect_code, env, root) -> Op:
    cmd = [sys.executable, "-m", "qmeasure", *argv]

    def run(tr):
        return tr.call("cli.subprocess", subprocess.run, cmd, cwd=root, env=env,
                       capture_output=True, timeout=120)

    def check(proc, tr):
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with tr.counted():  # the same parse and format calls the subprocess made
            code = tr.call("cli.inproc_run", cli.run, argv, out, err)
        tr.count("cli.inproc_s", perf_counter() - start)
        if proc.returncode != expect_code or code != expect_code:
            return f"{kind}: exit {proc.returncode} (in-process {code}), expected {expect_code}"
        if proc.stdout != out.getvalue().encode():
            return f"{kind}: subprocess stdout differs from in-process cli.run"
        return None

    def parts(tr, proc):
        for path, parse in files:
            with open(os.path.join(root, path), encoding="utf-8") as fh:
                text = fh.read()
            try:
                tr.call("matrixio.parse", parse, text)
            except ParseError:  # the malformed-file op's input; that is its point
                pass
        block = _section(proc.stdout.decode()) if "measure" in argv else None
        if block is not None:
            tr.call("matrixio.format", format_matrix, parse_matrix(block))
        if argv[0] == "demo":
            tr.call("demo.run_demo", demo.run_demo, RunConfig(), io.StringIO())

    return Op(kind, run, check, parts)


def build_cli(seed, root, env, data_dir) -> Workload:
    """Write the input files, then one cycle of ``python -m qmeasure`` calls."""
    os.makedirs(os.path.join(root, data_dir), exist_ok=True)

    def write(name, text):
        path = os.path.join(data_dir, name)
        with open(os.path.join(root, path), "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    # Each call runs at one size, so that a cycle is short (~3 s of ~0.2 s
    # processes) and every op gets several runs in which to find its best.
    calls_at = {
        4: ("decompose", "measure-theta-select", "compat"),
        16: ("decompose-spectral", "measure-lueders-select", "measure-theta-aggregate", "constraint"),
        64: ("decompose-spectral", "born", "measure-lueders-aggregate", "measure-vonneumann-aggregate"),
    }
    ops = []
    for slot, (dim, local_dim) in enumerate(((4, 2), (16, 4), (64, 8))):
        g = gen.rng_for(seed, slot)
        names = calls_at[dim]
        obs = write(f"obs_{dim}.txt", gen.matrix_text(
            gen.hermitian(gen.unitary(dim, g), gen.distinct_spectrum(dim, g))))
        z = write(f"z_{dim}.txt", gen.matrix_text(gen.density(dim, max(1, dim // 2), g)))
        k = str(int(g.integers(0, dim)))
        theta_seed = str(int(g.integers(0, 1000)))
        o, st = (obs, parse_observable_text), (z, parse_matrix)
        measure = ["measure", "--observable", obs, "--state", z]
        calls = {
            "decompose": (["decompose", obs], [o]),
            "born": (["born", "--observable", obs, "--state", z], [o, st]),
            "measure-lueders-select": (measure + ["--select", "--outcome", k, "--normalize"], [o, st]),
            "measure-lueders-aggregate": (measure + ["--aggregate"], [o, st]),
            "measure-vonneumann-aggregate": (measure + ["--rule", "vonneumann", "--aggregate"], [o, st]),
            "measure-theta-select": (measure + ["--rule", "theta", "--select", "--outcome", k,
                                                "--seed", theta_seed], [o, st]),
            "measure-theta-aggregate": (["--format", "machine"] + measure
                                        + ["--rule", "theta", "--aggregate", "--seed", theta_seed], [o, st]),
        }
        # Files only some sizes use are written only there.
        if "decompose-spectral" in names:
            spec = write(f"spec_{dim}.txt", gen.spectral_text(gen.unitary(dim, g), gen.integer_spectrum(dim, g)))
            calls["decompose-spectral"] = (["--format", "machine", "decompose", spec],
                                           [(spec, parse_observable_text)])
        if "compat" in names:
            r_m, s_m = gen.noncommuting_pair(dim, g, gen.distinct_spectrum, gen.integer_spectrum)
            r, s = write(f"r_{dim}.txt", gen.matrix_text(r_m)), write(f"s_{dim}.txt", gen.matrix_text(s_m))
            u = write(f"u_{dim}.txt", gen.matrix_text(gen.unitary(dim, g)))
            calls["compat"] = (["compat", "--r", r, "--s", s, "--u2", u],
                               [(r, parse_observable_text), (s, parse_observable_text), (u, parse_matrix)])
        if "constraint" in names:
            swap = gen.swap(local_dim)
            m = gen.hermitian(gen.unitary(dim, g), g.standard_normal(dim))
            sym = write(f"sym_{dim}.txt", gen.matrix_text((m + swap @ m @ swap) / 2.0))
            calls["constraint"] = (["constraint", "--exchange", "sym", "--localdim", str(local_dim),
                                    "--r", sym, "--random", "3"], [(sym, parse_observable_text)])
        ops += [cli_op(f"cli-{name}-d{dim}", *calls[name], 0, env, root) for name in names]
        if dim == 4:
            obs4 = obs

    g = gen.rng_for(seed, 9)
    ragged = write("ragged.txt", "dim 2\n1.0 2.0\n")
    skew = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
    nonherm = write("nonhermitian.txt", gen.matrix_text(skew))
    heavy = write("unnormalized.txt", gen.matrix_text(1.25 * gen.density(4, 2, g)))
    ops += [
        cli_op("cli-demo", ["demo"], [], 0, env, root),
        cli_op("cli-malformed", ["decompose", ragged], [(ragged, parse_observable_text)], 2, env, root),
        cli_op("cli-nonhermitian", ["decompose", nonherm], [(nonherm, parse_observable_text)], 2, env, root),
        cli_op("cli-unnormalized", ["born", "--observable", obs4, "--state", heavy],
               [(obs4, parse_observable_text), (heavy, parse_matrix)], 3, env, root),
    ]
    warm = [op for op in ops if op.kind == "cli-decompose-d4"]
    # ~100 ops in 25 s: the 75th percentile keeps ten or more above it.
    return Workload(ops, warm, tail_percentile=75)

"""File-driven command line front end.

Subcommands: decompose, measure, born, compat, constraint, demo.  All
input matrices come from files in the plain-text exchange format; an
observable file may also be an explicit ``spectral`` block.  Output is
deterministic for fixed arguments and seed, so runs can be diffed.

Exit codes: 0 success, 1 demo failures, 2 unreadable or malformed input
(including an observable file that is not Hermitian), 3 inputs that
parse but violate validation (bad density operator, bad index, non
unitary evolution, constraint-violating state), 4 broken internal
contracts (no eigensolver convergence, an eigenvalue or residual that
is not finite, cross-check disagreement, normalizing an impossible
outcome).
"""

import argparse
import sys

import numpy as np

from . import demo as demo_mod
from .channels import (
    born,
    lueders_aggregate,
    lueders_select,
    normalize,
    rotated_theta_family,
    theta_aggregate,
    theta_select,
    von_neumann_aggregate,
)
from .compatibility import compat_report
from .config import OUTPUT_FORMATS, RunConfig
from .constraints import (
    Constraint,
    make_exchange_constraint,
    measurable_under,
    preserves_constraint,
    random_constrained_density,
)
from .errors import BadArgument, DimMismatch, NotHermitian, ParseError, QMeasureError, ValidationError
from .linalg import DEFAULT_CLUSTER_TOL, DEFAULT_TOL
from .matrixio import format_matrix, read_matrix, read_observable_file
from .observables import Observable, observable_from_pairs, spectral_decompose
from .states import validate

__all__ = ["build_parser", "run", "main"]


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def load_observable(path, cfg: RunConfig) -> Observable:
    """Read an observable file (raw matrix or spectral block).

    A non-Hermitian operator here is treated as a malformed input file:
    the file never described an observable at all.
    """
    kind, payload = read_observable_file(path)
    try:
        if kind == "matrix":
            return spectral_decompose(payload, cfg.cluster_tol, cfg.tol)
        return observable_from_pairs(payload, cfg.tol)
    except NotHermitian as exc:
        raise ParseError(f"{path}: NotHermitian: {exc}") from exc


def load_state(path, cfg: RunConfig):
    return validate(read_matrix(path), cfg.tol)


def cmd_decompose(args, cfg: RunConfig, out) -> int:
    obs = load_observable(args.matrix, cfg)
    if cfg.output_format == "machine":
        print(f"outcomes={len(obs.pairs)}", file=out)
        for i, p in enumerate(obs.pairs):
            print(f"eigenvalue.{i}={_fmt(p.eigenvalue)}", file=out)
            print(f"multiplicity.{i}={p.multiplicity}", file=out)
            print(f"trace.{i}={_fmt(np.vdot(p.basis, p.basis).real)}", file=out)
    else:
        print("eigenvalue multiplicity trace", file=out)
        for p in obs.pairs:
            print(
                f"{_fmt(p.eigenvalue)} {p.multiplicity} {_fmt(np.vdot(p.basis, p.basis).real)}",
                file=out,
            )
    return 0


def _print_probabilities(dist, cfg: RunConfig, out) -> None:
    for i, (value, prob) in enumerate(dist.items()):
        if cfg.output_format == "machine":
            print(f"eigenvalue.{i}={_fmt(value)}", file=out)
            print(f"prob.{i}={_fmt(prob)}", file=out)
        else:
            print(f"r={_fmt(value)} p={_fmt(prob)}", file=out)


def cmd_born(args, cfg: RunConfig, out) -> int:
    obs = load_observable(args.observable, cfg)
    z = load_state(args.state, cfg)
    _print_probabilities(born(obs, z, cfg.tol), cfg, out)
    return 0


def cmd_measure(args, cfg: RunConfig, out) -> int:
    obs = load_observable(args.observable, cfg)
    z = load_state(args.state, cfg)
    if args.select and args.outcome is None:
        raise ValidationError("--select requires --outcome")
    if args.rule == "vonneumann" and args.select:
        raise ValidationError("the vonneumann rule defines only the aggregate update")

    if args.rule == "lueders":
        result = lueders_select(obs, args.outcome, z) if args.select else lueders_aggregate(obs, z)
    elif args.rule == "vonneumann":
        result = von_neumann_aggregate(obs, z, tol=cfg.tol)
    else:  # theta: eigenspace bases rotated pseudo-randomly from the run seed
        fam = rotated_theta_family(obs, cfg.seed)
        result = theta_select(fam, args.outcome, z) if args.select else theta_aggregate(fam, z)

    if args.normalize:
        result = normalize(result)
    _print_probabilities(born(obs, z, cfg.tol), cfg, out)
    if cfg.output_format == "machine":
        print(f"trace={_fmt(np.trace(result.matrix).real)}", file=out)
    print(format_matrix(result.matrix), end="", file=out)
    return 0


def cmd_compat(args, cfg: RunConfig, out) -> int:
    r = load_observable(args.r, cfg)
    s = load_observable(args.s, cfg)
    u1 = read_matrix(args.u1) if args.u1 else None
    u2 = read_matrix(args.u2) if args.u2 else None
    report = compat_report(r, s, u1=u1, u2=u2, config=cfg, mode=args.mode)
    if cfg.output_format == "machine":
        print(f"c1={_fmt_bool(report.verdict_condition1)}", file=out)
        print(f"c1_residual={_fmt(report.max_residual_c1)}", file=out)
        print(f"c2={_fmt_bool(report.verdict_condition2)}", file=out)
        print(f"c2_residual={_fmt(report.max_residual_c2)}", file=out)
        print(f"comm={_fmt_bool(report.verdict_commute)}", file=out)
        print(f"comm_residual={_fmt(report.commutator_residual)}", file=out)
        print(f"indeterminate={','.join(report.indeterminate) or 'none'}", file=out)
        at = report.witness or (None,) * 4
        print("witness=" + ",".join("-" if i is None else str(i) for i in at[1:]), file=out)
    else:
        print(
            f"condition1 holds={_fmt_bool(report.verdict_condition1)} "
            f"residual={_fmt(report.max_residual_c1)}",
            file=out,
        )
        print(
            f"condition2 holds={_fmt_bool(report.verdict_condition2)} "
            f"residual={_fmt(report.max_residual_c2)}",
            file=out,
        )
        print(
            f"commutator commute={_fmt_bool(report.verdict_commute)} "
            f"residual={_fmt(report.commutator_residual)}",
            file=out,
        )
        if report.indeterminate:
            print("indeterminate: " + " ".join(report.indeterminate), file=out)
    print(
        f"verdict c1={_fmt_bool(report.verdict_condition1)} "
        f"c2={_fmt_bool(report.verdict_condition2)} "
        f"comm={_fmt_bool(report.verdict_commute)}",
        file=out,
    )
    return 0


def cmd_constraint(args, cfg: RunConfig, out) -> int:
    if args.random is not None and args.random < 1:
        raise BadArgument(f"random must be at least 1, got {args.random}")
    r = load_observable(args.r, cfg)
    if args.exchange:
        if args.localdim**2 != r.dim:
            raise DimMismatch(f"constraint dim {args.localdim**2} does not match dim {r.dim}")
        constraint = make_exchange_constraint(args.localdim, symmetric=args.exchange == "sym")
    else:
        constraint = Constraint(read_matrix(args.n), label=str(args.n))
    measurable = measurable_under(r, constraint, cfg.tol)

    if args.state:
        states = [load_state(args.state, cfg)]
    else:
        rng = np.random.default_rng(cfg.seed)
        states = [random_constrained_density(constraint, rng, tol=cfg.tol) for _ in range(args.random)]

    # worst residual per outcome over all states, the first of equal ones
    table = [preserves_constraint(r, constraint, z, cfg.tol) for z in states]
    rows = [max(column, key=lambda row: row.residual) for column in zip(*table)]

    if cfg.output_format == "machine":
        print(f"measurable={_fmt_bool(measurable)}", file=out)
        print(f"states={len(states)}", file=out)
        for row in rows:
            print(f"outcome.{row.outcome}.eigenvalue={_fmt(row.eigenvalue)}", file=out)
            print(f"outcome.{row.outcome}.preserved={_fmt_bool(row.preserved)}", file=out)
            print(f"outcome.{row.outcome}.residual={_fmt(row.residual)}", file=out)
    else:
        print(f"measurable {_fmt_bool(measurable)} states {len(states)}", file=out)
        print("outcome eigenvalue preserved residual", file=out)
        for row in rows:
            print(
                f"{row.outcome} {_fmt(row.eigenvalue)} {_fmt_bool(row.preserved)} {_fmt(row.residual)}",
                file=out,
            )
    return 0


def cmd_demo(args, cfg: RunConfig, out) -> int:
    return demo_mod.run_demo(cfg, out)


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a value given before the subcommand from being clobbered
    # by the subparser's defaults; run() fills in the real defaults.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS, help="numeric tolerance")
    common.add_argument(
        "--cluster-tol", type=float, default=argparse.SUPPRESS,
        help="relative gap below which eigenvalues merge",
    )
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="seed for random draws")
    common.add_argument(
        "--samples", type=int, default=argparse.SUPPRESS, help="random states per sampled check"
    )
    common.add_argument(
        "--format", choices=OUTPUT_FORMATS, default=argparse.SUPPRESS, help="output style"
    )

    parser = argparse.ArgumentParser(
        prog="qmeasure",
        description="Measurement calculus on density operators: decompose, measure, check compatibility and constraints.",
        parents=[common],
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "decompose", parents=[common], allow_abbrev=False,
        help="spectral table of a Hermitian matrix file",
    )
    p.add_argument("matrix", help="matrix file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("born", parents=[common], allow_abbrev=False, help="outcome probabilities for observable and state")
    p.add_argument("--observable", required=True)
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_born)

    p = sub.add_parser("measure", parents=[common], allow_abbrev=False, help="apply a measurement update rule")
    p.add_argument("--observable", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--rule", choices=("lueders", "vonneumann", "theta"), default="lueders")
    p.add_argument("--outcome", type=int, default=None, help="outcome index, ascending eigenvalue order, 0-based")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--select", action="store_true", help="keep one outcome branch (unnormalized)")
    group.add_argument("--aggregate", action="store_true", help="recombine all branches")
    p.add_argument("--normalize", action="store_true", help="divide the result by its trace")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("compat", parents=[common], allow_abbrev=False, help="compatibility report for two observables")
    p.add_argument("--r", required=True, help="first observable file")
    p.add_argument("--s", required=True, help="second observable file")
    p.add_argument("--u1", default=None, help="unitary moving the first observable to its measurement time")
    p.add_argument("--u2", default=None, help="unitary moving the second observable to its measurement time")
    p.add_argument("--mode", choices=("exact", "sampled", "both"), default="both")
    p.set_defaults(func=cmd_compat)

    p = sub.add_parser("constraint", parents=[common], allow_abbrev=False, help="measurability and preservation under a constraint")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", default=None, help="constraint operator file")
    group.add_argument("--exchange", choices=("sym", "antisym"), default=None, help="two-particle exchange constraint")
    p.add_argument("--localdim", type=int, default=2, help="single-particle dimension for --exchange")
    p.add_argument("--r", required=True, help="observable file")
    state_group = p.add_mutually_exclusive_group(required=True)
    state_group.add_argument("--state", default=None, help="state file (must satisfy the constraint)")
    state_group.add_argument("--random", type=int, default=None, help="number of random constrained states")
    p.set_defaults(func=cmd_constraint)

    p = sub.add_parser("demo", parents=[common], allow_abbrev=False, help="replay the worked examples as an install check, printing PASS/FAIL")
    p.set_defaults(func=cmd_demo)

    return parser


def run(argv=None, out=None, err=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        cfg = RunConfig(
            tol=getattr(args, "tol", DEFAULT_TOL),
            cluster_tol=getattr(args, "cluster_tol", DEFAULT_CLUSTER_TOL),
            seed=getattr(args, "seed", 0),
            samples=getattr(args, "samples", 100),
            output_format=getattr(args, "format", "text"),
        )
        return args.func(args, cfg, out)
    except QMeasureError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=err)
        return exc.exit_code


def main() -> None:
    sys.exit(run())

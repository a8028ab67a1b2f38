"""Grammar fuzz of the command line, in process: every input ends in a
documented exit code with at most one error line, and no NaN or inf is
ever printed.  A ``constraint --random`` run never rejects its own
draws as violating the constraint.

Argv is drawn from the subcommands, the global flags (before or after
the subcommand) and generated files at d <= 4.  The global flags a
subcommand reads beyond the tolerances and the format (``--samples``
and ``--seed`` for sampled ``compat`` and ``demo``, ``--seed`` for
``measure --rule theta`` and ``constraint --random``) are also drawn
inside its own branch, so a crash tied to one value on one subcommand
is reached without an ``@example``.  File entries include values near
the largest double (1e308) and subnormals (1e-320).  Numpy warnings are
errors here, so finite input may not raise one either.
"""

import io
import re
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
from hypothesis import example, given, settings, strategies as st

from qmeasure import cli
from qmeasure.linalg import dagger, random_unitary
from qmeasure.matrixio import format_entry, format_matrix

# Hypothesis tries the first entries of a list most often, so the most hostile come first
REALS = [1e308, -1e308, 1.7e308, 1e-320, -5e-324, 0.0, 1.0, -1.0, 0.5, 2.0, -2.0, 0.25, 1e-9]
TOLS = ["1e-9", "inf", "nan", "0", "-1", "1e300", "1e-300", "1e-6"]
SEEDS = ["0", "-1", str(2**70), "3"]
SAMPLES = [str(2**64), "1", "0", "-2", "7"]
LOCALDIMS = ["100000", "2", "1", "3"]
ERROR_LINE = re.compile(r"error: [A-Za-z]+: [^\n]*\n")
# a non-finite float as repr prints it, also inside an a+bi entry
NON_FINITE = re.compile(r"(?<![a-z])(nan|inf)(?![a-hj-z])")


class File(NamedTuple):
    """An argv slot filled with the path of a file holding ``text``."""

    text: str


def _text(m) -> File:
    return File(format_matrix(np.asarray(m, dtype=complex)))


def _spectral(dim, pairs) -> File:
    lines = ["spectral", f"dim {dim}", f"pairs {len(pairs)}"]
    for value, p in pairs:
        lines.append(f"eigenvalue {value!r}")
        lines.extend(" ".join(format_entry(z) for z in row) for row in np.asarray(p, dtype=complex))
    return File("\n".join(lines) + "\n")


BIG = _text([[1e308, 1e308], [1e308, -1e308]])
PAULI_Z = _text(np.diag([1.0, -1.0]))
HUGE_OFF_DIAGONAL = _text([[0.5, 1e308], [1e308, 0.5]])
_U = random_unitary(3, 4)
LARGE_UNIT_N = _text(1e8 * (_U @ np.diag([1.0, 0.0, 2.0]) @ dagger(_U)))
# max|N| < 1 and a singular value near sqrt(tol), which a Gram-matrix kernel would count as kernel
SMALL_NEAR_SQRT_TOL_N = _text(2.0**-3 * (_U @ np.diag([1.0, 3e-5, 0.0]) @ dagger(_U)))

entries = st.builds(complex, st.sampled_from(REALS), st.sampled_from([0.0, *REALS]))


@st.composite
def hermitian(draw, dim):
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        m[i, i] = draw(st.sampled_from(REALS))
        for j in range(i):
            m[i, j] = draw(entries)
            m[j, i] = np.conj(m[i, j])
    return m


@st.composite
def observables(draw, dim):
    kind = draw(st.sampled_from(["hermitian", "diagonal", "spectral", "any", "garbage"]))
    if kind == "hermitian":
        return _text(draw(hermitian(dim)))
    if kind == "diagonal":
        return _text(np.diag(draw(st.lists(st.sampled_from(REALS), min_size=dim, max_size=dim))))
    if kind == "spectral":
        # eigenvalues on a partition of the standard basis, or a near miss of one
        labels = draw(st.lists(st.integers(0, dim - 1), min_size=dim, max_size=dim))
        values = draw(st.lists(st.sampled_from(REALS), min_size=dim, max_size=dim))
        pairs = [(values[k], np.diag([float(x == k) for x in labels])) for k in sorted(set(labels))]
        if draw(st.booleans()):
            pairs[0] = (pairs[0][0], pairs[0][1] + draw(hermitian(dim)))
        return _spectral(dim, pairs)
    if kind == "any":
        return _text(np.array(draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim))
    return File(draw(st.sampled_from(["", "dim 2\n1 2\n", "spectral\ndim 1\npairs 1\n", f"dim {dim}\n" + "x " * dim])))


@st.composite
def states(draw, dim):
    kind = draw(st.sampled_from(["mixed", "pure", "hermitian"]))
    if kind == "mixed":
        weights = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 1e-320]), min_size=dim, max_size=dim)))
        total = weights.sum()
        return _text(np.diag(weights / total if total > 0 else weights))
    if kind == "pure":
        v = np.array(draw(st.lists(entries, min_size=dim, max_size=dim)))
        with np.errstate(all="ignore"):
            z = np.outer(v, v.conj()) / np.vdot(v, v).real
        return _text(z) if np.isfinite(z).all() else _text(np.eye(dim) / dim)
    return _text(draw(hermitian(dim)))


@st.composite
def unitaries(draw, dim):
    kind = draw(st.sampled_from(["identity", "permutation", "any"]))
    if kind == "identity":
        return _text(np.eye(dim))
    if kind == "permutation":
        return _text(np.eye(dim)[draw(st.permutations(range(dim)))])
    return _text(draw(hermitian(dim)))


def _reads(draw, *flags) -> list:
    """Each (flag, values) a subcommand reads, drawn inside that subcommand's branch; left out comes last."""
    given = [(flag, draw(st.sampled_from([*values, None]))) for flag, values in flags]
    return [token for flag, value in given if value is not None for token in (flag, value)]


@st.composite
def invocations(draw):
    """One argv: a subcommand with its options, files and the global flags it reads, global flags on either side."""
    dim = draw(st.integers(1, 4))
    obs, state = observables(dim), states(dim)
    command = draw(st.sampled_from(["compat", "measure", "born", "decompose", "constraint", "demo"]))
    if command == "decompose":
        args = [draw(obs)]
    elif command == "born":
        args = ["--observable", draw(obs), "--state", draw(state)]
    elif command == "measure":
        rule = draw(st.sampled_from(["lueders", "vonneumann", "theta"]))
        args = ["--observable", draw(obs), "--state", draw(state), "--rule", rule]
        if rule == "theta":
            args += _reads(draw, ("--seed", SEEDS))
        if draw(st.booleans()):
            args += ["--outcome", str(draw(st.integers(-1, dim)))]
        args += [draw(st.sampled_from(["--select", "--aggregate"]))]
        if draw(st.booleans()):
            args += ["--normalize"]
    elif command == "compat":
        mode = draw(st.sampled_from(["both", "exact", "sampled"]))
        args = ["--r", draw(obs), "--s", draw(obs), "--mode", mode]
        if mode != "exact":
            args += _reads(draw, ("--samples", SAMPLES), ("--seed", SEEDS))
        for flag in ("--u1", "--u2"):
            if draw(st.booleans()):
                args += [flag, draw(unitaries(dim))]
    elif command == "constraint":
        if draw(st.booleans()):
            args = ["--exchange", draw(st.sampled_from(["sym", "antisym"])), "--localdim", draw(st.sampled_from(LOCALDIMS))]
        else:
            args = ["--n", draw(obs)]
        args += ["--r", draw(obs)]
        if draw(st.booleans()):
            args += ["--state", draw(state)]
        else:
            args += ["--random", draw(st.sampled_from(["2", "0"])), *_reads(draw, ("--seed", SEEDS))]
    else:
        args = _reads(draw, ("--samples", SAMPLES), ("--seed", SEEDS))
    flags = draw(
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from(["--tol", "--cluster-tol"]), st.sampled_from(TOLS)),
                st.tuples(st.just("--seed"), st.sampled_from(SEEDS)),
                st.tuples(st.just("--samples"), st.sampled_from(SAMPLES)),
                st.tuples(st.just("--format"), st.sampled_from(["text", "machine"])),
            ),
            max_size=3,
        )
    )
    before = draw(st.booleans())
    flat = [token for flag in flags for token in flag]
    return [*flat, command, *args] if before else [command, *args, *flat]


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(invocations())
@example(["compat", "--r", BIG, "--s", PAULI_Z])
@example(["compat", "--r", BIG, "--s", BIG, "--format", "machine"])
@example(["born", "--observable", PAULI_Z, "--state", HUGE_OFF_DIAGONAL])
@example(["constraint", "--n", BIG, "--r", PAULI_Z, "--random", "2"])
@example(["measure", "--observable", BIG, "--state", _text(np.diag([1e308, 1e308])), "--aggregate"])
@example(["demo", "--tol", "1e-300"])
@example(["constraint", "--n", LARGE_UNIT_N, "--r", LARGE_UNIT_N, "--random", "3"])
@example(["constraint", "--n", SMALL_NEAR_SQRT_TOL_N, "--r", SMALL_NEAR_SQRT_TOL_N, "--random", "3"])
@example(["constraint", "--exchange", "sym", "--localdim", "100000", "--r", _text(np.diag([1.0, 2.0, 3.0, 4.0])), "--random", "1"])
@example(["compat", "--r", PAULI_Z, "--s", BIG, "--mode", "sampled", "--samples", str(2**64)])
def test_every_argv_ends_in_a_documented_exit(argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, token in enumerate(argv):
            if isinstance(token, File):
                path = Path(tmp, f"{i}.txt")
                path.write_text(token.text, encoding="utf-8")
                token = str(path)
            paths.append(token)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.run(paths, out=out, err=err)
    out, err = out.getvalue(), err.getvalue()
    command = next(t for t in argv if t in ("compat", "measure", "born", "decompose", "constraint", "demo"))
    assert code in (0, 2, 3, 4) or (code == 1 and command == "demo"), (code, err)
    if code in (0, 1):
        assert err == ""
    else:
        assert ERROR_LINE.fullmatch(err), err
    assert not NON_FINITE.search(out.lower()), out
    # states drawn from the constraint's own kernel always satisfy it
    if "--random" in argv:
        assert "ConstraintViolatedOnInput" not in err, err

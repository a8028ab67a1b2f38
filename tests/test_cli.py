"""Command line behavior: output formats, flag handling, exit codes.

Most cases drive ``cli.run`` in process with StringIO capture so they
stay fast.  Determinism across processes and the module entry point are
checked through subprocess in TestSubprocess.
"""

import io
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qmeasure import cli, compatibility
from qmeasure.matrixio import parse_matrix, write_matrix

OBS225 = np.diag([2.0, 2.0, 5.0])
MIXED3 = np.eye(3) / 3.0
SZ = np.diag([1.0, -1.0])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def put(tmp_path):
    def _put(name, m):
        path = tmp_path / name
        write_matrix(path, np.asarray(m, dtype=complex))
        return str(path)

    return _put


class TestDecompose:
    def test_text_table(self, put):
        code, out, err = invoke(["decompose", put("m.txt", OBS225)])
        assert code == 0
        assert err == ""
        assert out.splitlines() == [
            "eigenvalue multiplicity trace",
            "2.0 2 2.0",
            "5.0 1 1.0",
        ]
        _, out, _ = invoke(["decompose", put("id.txt", np.eye(3))])
        assert out.splitlines()[1:] == ["1.0 3 3.0"]

    def test_machine_format(self, put):
        code, out, _ = invoke(["decompose", "--format", "machine", put("m.txt", OBS225)])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "outcomes=2"
        pairs = dict(line.split("=", 1) for line in lines)
        assert pairs["eigenvalue.0"] == "2.0"
        assert pairs["multiplicity.0"] == "2"
        assert pairs["eigenvalue.1"] == "5.0"
        assert pairs["trace.1"] == "1.0"

    @pytest.mark.parametrize("scale", [1e4, 1e6, 1e8])
    def test_large_scale_matrix_decomposes(self, put, scale):
        # Hermitian up to rounding relative to its scale, not absolutely
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        m = (q * (scale * np.arange(1.0, 17.0))) @ q.conj().T
        code, out, err = invoke(["decompose", put("big.txt", m)])
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 17

    def test_global_flag_before_subcommand(self, put):
        code, out, _ = invoke(["--format", "machine", "decompose", put("m.txt", OBS225)])
        assert code == 0
        assert out.splitlines()[0] == "outcomes=2"

    def test_spectral_observable_file(self, tmp_path):
        path = tmp_path / "spectral.txt"
        path.write_text(
            "spectral\ndim 2\npairs 2\n"
            "eigenvalue -1.0\n0.0+0.0i 0.0+0.0i\n0.0+0.0i 1.0+0.0i\n"
            "eigenvalue 1.0\n1.0+0.0i 0.0+0.0i\n0.0+0.0i 0.0+0.0i\n"
        )
        code, out, _ = invoke(["decompose", str(path)])
        assert code == 0
        assert out.splitlines()[1] == "-1.0 1 1.0"


class TestBorn:
    def test_worked_probabilities(self, put):
        code, out, _ = invoke(
            ["born", "--observable", put("o.txt", OBS225), "--state", put("z.txt", MIXED3)]
        )
        assert code == 0
        assert out.splitlines() == [
            "r=2.0 p=0.6666666666666666",
            "r=5.0 p=0.3333333333333333",
        ]

    def test_machine_keys(self, put):
        code, out, _ = invoke(
            [
                "born",
                "--format", "machine",
                "--observable", put("o.txt", OBS225),
                "--state", put("z.txt", MIXED3),
            ]
        )
        assert code == 0
        pairs = dict(line.split("=", 1) for line in out.splitlines())
        assert pairs["prob.0"] == "0.6666666666666666"
        assert pairs["eigenvalue.1"] == "5.0"


def matrix_tail(out: str) -> np.ndarray:
    """Parse the matrix block that follows the probability lines."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("dim "))
    return parse_matrix("\n".join(lines[start:]) + "\n")


class TestMeasure:
    def test_aggregate_diagonal_fixed_point(self, put):
        code, out, _ = invoke(
            [
                "measure",
                "--observable", put("o.txt", OBS225),
                "--state", put("z.txt", MIXED3),
                "--aggregate",
            ]
        )
        assert code == 0
        np.testing.assert_array_equal(matrix_tail(out), MIXED3.astype(complex))

    def test_select_normalize_is_pure(self, put):
        pure = np.full((3, 3), 1.0 / 3.0)
        code, out, _ = invoke(
            [
                "measure",
                "--observable", put("o.txt", OBS225),
                "--state", put("z.txt", pure),
                "--select", "--outcome", "0", "--normalize",
            ]
        )
        assert code == 0
        m = matrix_tail(out)
        np.testing.assert_allclose(np.trace(m @ m).real, 1.0, atol=1e-12)

    def test_machine_trace_line(self, put):
        code, out, _ = invoke(
            [
                "measure",
                "--format", "machine",
                "--observable", put("o.txt", OBS225),
                "--state", put("z.txt", MIXED3),
                "--aggregate",
            ]
        )
        assert code == 0
        assert "trace=1.0" in out.splitlines()

    def test_theta_rule_seed_dependence(self, put):
        args = [
            "measure",
            "--observable", put("o.txt", OBS225),
            "--state", put("z.txt", np.diag([1.0, 0.0, 0.0])),
            "--rule", "theta",
            "--select", "--outcome", "0", "--normalize",
        ]
        _, out_a, _ = invoke(args + ["--seed", "0"])
        _, out_a2, _ = invoke(args + ["--seed", "0"])
        _, out_b, _ = invoke(args + ["--seed", "1"])
        assert out_a == out_a2
        assert not np.allclose(matrix_tail(out_a), matrix_tail(out_b))

    def test_theta_aggregate_keeps_trace(self, put):
        code, out, _ = invoke(
            [
                "measure",
                "--observable", put("o.txt", OBS225),
                "--state", put("z.txt", MIXED3),
                "--rule", "theta", "--aggregate", "--seed", "5",
            ]
        )
        assert code == 0
        np.testing.assert_allclose(np.trace(matrix_tail(out)).real, 1.0, atol=1e-12)

    def test_vonneumann_breaks_degeneracy(self, put):
        pure = np.full((3, 3), 1.0 / 3.0)
        code, out, _ = invoke(
            [
                "measure",
                "--observable", put("o.txt", OBS225),
                "--state", put("z.txt", pure),
                "--rule", "vonneumann", "--aggregate",
            ]
        )
        assert code == 0
        np.testing.assert_allclose(matrix_tail(out), np.eye(3) / 3.0, atol=1e-12)
        # Lueders keeps the coherence inside the degenerate block
        code, out, _ = invoke(
            [
                "measure",
                "--observable", put("o.txt", OBS225),
                "--state", put("z.txt", pure),
                "--rule", "lueders", "--aggregate",
            ]
        )
        assert code == 0
        assert out.splitlines()[:2] == ["r=2.0 p=0.6666666666666666", "r=5.0 p=0.3333333333333333"]
        want = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]) / 3.0
        np.testing.assert_allclose(matrix_tail(out), want, atol=1e-12)


class TestCompat:
    def test_commuting_verdict_line(self, put):
        code, out, _ = invoke(
            ["compat", "--r", put("r.txt", SZ), "--s", put("s.txt", np.diag([3.0, 7.0]))]
        )
        assert code == 0
        assert out.splitlines()[-1] == "verdict c1=true c2=true comm=true"

    def test_conjugate_pair_fails_everything(self, put):
        code, out, _ = invoke(["compat", "--r", put("r.txt", SZ), "--s", put("s.txt", SX)])
        assert code == 0
        assert out.splitlines()[-1] == "verdict c1=false c2=false comm=false"

    def test_machine_residuals(self, put):
        code, out, _ = invoke(
            [
                "compat",
                "--format", "machine",
                "--r", put("r.txt", SZ),
                "--s", put("s.txt", SX),
            ]
        )
        assert code == 0
        pairs = dict(line.split("=", 1) for line in out.splitlines()[:-1])
        assert pairs["c1"] == "false"
        # Tr(P_k Pt_j P_l Pt_j P_k) = 1/4, and ||sum_k P_k Pt_j P_k - Pt_j||_F = sqrt(2)/2
        assert float(pairs["c1_residual"]) == pytest.approx(0.25, abs=1e-15)
        assert float(pairs["c2_residual"]) == pytest.approx(np.sqrt(0.5), abs=1e-15)
        assert float(pairs["comm_residual"]) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("mode", ["both", "exact", "sampled"])
    def test_machine_witness_and_indeterminate(self, put, mode):
        # the worst case of Z/X is condition 2, whose witness names only
        # the S outcome j; k and l print as "-"
        argv = ["compat", "--format", "machine", "--mode", mode, "--r", put("r.txt", SZ)]
        code, out, err = invoke(argv + ["--s", put("s.txt", SX)])
        assert code == 0 and err == ""
        pairs = dict(line.split("=", 1) for line in out.splitlines()[:-1])
        assert pairs["indeterminate"] == "none"
        k, j, l = pairs["witness"].split(",")
        assert (k, l) == ("-", "-") and j in ("0", "1")
        # a commuting pair: every verdict decisive, every index present
        code, out, _ = invoke(argv + ["--s", put("c.txt", np.diag([3.0, 7.0]))])
        assert code == 0
        pairs = dict(line.split("=", 1) for line in out.splitlines()[:-1])
        assert pairs["indeterminate"] == "none"
        assert all(i.isdigit() for i in pairs["witness"].split(","))

    def test_machine_names_indeterminate_checks(self, put):
        # S = Z + 1e-9 X sits inside the guard band (tol/10, 10 tol) on
        # condition 2 and the commutator, while condition 1 holds
        near = SZ + 1e-9 * SX
        code, out, _ = invoke(
            ["compat", "--format", "machine", "--r", put("r.txt", SZ), "--s", put("s.txt", near)]
        )
        assert code == 0
        pairs = dict(line.split("=", 1) for line in out.splitlines()[:-1])
        assert pairs["indeterminate"] == "condition2,commutator"
        # the text format keeps its own line and gains no machine keys
        code, text, _ = invoke(["compat", "--r", put("r.txt", SZ), "--s", put("s.txt", near)])
        assert "indeterminate: condition2 commutator" in text.splitlines()
        assert "witness" not in text

    def test_evolution_file_changes_verdict(self, put):
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        code, out, _ = invoke(
            [
                "compat",
                "--r", put("r.txt", SZ),
                "--s", put("s.txt", SZ),
                "--u2", put("u.txt", hadamard),
            ]
        )
        assert code == 0
        assert out.splitlines()[-1] == "verdict c1=false c2=false comm=false"

    def test_mode_exact_only(self, put):
        code, out, _ = invoke(
            [
                "compat",
                "--mode", "exact",
                "--r", put("r.txt", SZ),
                "--s", put("s.txt", SX),
            ]
        )
        assert code == 0
        assert "verdict" in out.splitlines()[-1]


class TestConstraint:
    def test_exchange_symmetric_report(self, put):
        total_z = np.diag([2.0, 0.0, 0.0, -2.0])
        code, out, _ = invoke(
            [
                "constraint",
                "--exchange", "sym",
                "--r", put("r.txt", total_z),
                "--random", "3",
            ]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "measurable true states 3"
        assert lines[1] == "outcome eigenvalue preserved residual"
        assert len(lines) == 5
        assert all(" true " in line for line in lines[2:])

    def test_single_particle_not_measurable(self, put):
        first_z = np.kron(np.diag([1.0, -1.0]), np.eye(2))
        code, out, _ = invoke(
            [
                "constraint",
                "--exchange", "sym",
                "--r", put("r.txt", first_z),
                "--random", "2",
            ]
        )
        assert code == 0
        assert out.splitlines()[0] == "measurable false states 2"

    def test_explicit_constraint_file_machine(self, put):
        singlet = np.zeros((4, 4))
        singlet[1, 1] = singlet[2, 2] = 0.5
        singlet[1, 2] = singlet[2, 1] = -0.5
        total_z = np.diag([2.0, 0.0, 0.0, -2.0])
        code, out, _ = invoke(
            [
                "constraint",
                "--format", "machine",
                "--n", put("n.txt", singlet),
                "--r", put("r.txt", total_z),
                "--random", "2",
            ]
        )
        assert code == 0
        pairs = dict(line.split("=", 1) for line in out.splitlines())
        assert pairs["measurable"] == "true"
        assert pairs["states"] == "2"
        assert pairs["outcome.0.preserved"] == "true"

    def test_explicit_state_row(self, put):
        total_z = np.diag([2.0, 0.0, 0.0, -2.0])
        sym_state = np.diag([0.5, 0.0, 0.0, 0.5])
        code, out, _ = invoke(
            [
                "constraint",
                "--exchange", "sym",
                "--r", put("r.txt", total_z),
                "--state", put("z.txt", sym_state),
            ]
        )
        assert code == 0
        assert out.splitlines()[0] == "measurable true states 1"


class TestExitCodes:
    def test_malformed_matrix_is_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("dim 2\n1.0 2.0\n")
        code, out, err = invoke(["decompose", str(bad)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ParseError:")

    def test_missing_file_is_2(self):
        code, _, err = invoke(["decompose", "/nonexistent/m.txt"])
        assert code == 2
        assert "error: ParseError:" in err

    @pytest.mark.parametrize("role", ["observable", "state"])
    def test_undecodable_file_is_2(self, put, tmp_path, role):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"dim 1\n\xff\n")
        files = {"observable": put("o.txt", SZ), "state": put("z.txt", np.eye(2) / 2.0), role: str(bad)}
        code, out, err = invoke(["born", "--observable", files["observable"], "--state", files["state"]])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ParseError: cannot read") and err.count("\n") == 1

    def test_non_hermitian_observable_is_2(self, put):
        code, _, err = invoke(["decompose", put("m.txt", np.array([[0.0, 1.0], [0.0, 0.0]]))])
        assert code == 2
        assert err.startswith("error: ParseError:")
        assert "NotHermitian" in err

    def test_bad_state_is_3(self, put):
        code, _, err = invoke(
            [
                "born",
                "--observable", put("o.txt", SZ),
                "--state", put("z.txt", np.diag([0.6, 0.6])),
            ]
        )
        assert code == 3
        assert err.startswith("error: NotNormalized:")

    def test_outcome_out_of_range_is_3(self, put):
        code, _, err = invoke(
            [
                "measure",
                "--observable", put("o.txt", SZ),
                "--state", put("z.txt", np.diag([1.0, 0.0])),
                "--select", "--outcome", "7",
            ]
        )
        assert code == 3
        assert "BadOutcomeIndex" in err

    def test_select_without_outcome_is_3(self, put):
        code, _, err = invoke(
            [
                "measure",
                "--observable", put("o.txt", SZ),
                "--state", put("z.txt", np.diag([1.0, 0.0])),
                "--select",
            ]
        )
        assert code == 3
        assert "requires --outcome" in err

    def test_vonneumann_select_is_3(self, put):
        code, _, err = invoke(
            [
                "measure",
                "--observable", put("o.txt", SZ),
                "--state", put("z.txt", np.diag([1.0, 0.0])),
                "--rule", "vonneumann", "--select", "--outcome", "0",
            ]
        )
        assert code == 3
        assert "aggregate" in err

    def test_normalize_impossible_branch_is_4(self, put):
        # outcome 0 is eigenvalue -1, orthogonal to the prepared state
        code, _, err = invoke(
            [
                "measure",
                "--observable", put("o.txt", SZ),
                "--state", put("z.txt", np.diag([1.0, 0.0])),
                "--select", "--outcome", "0", "--normalize",
            ]
        )
        assert code == 4
        assert err.startswith("error: ImpossibleOutcome:")

    def test_decompose_near_the_largest_double_prints_no_nan(self, put):
        big = put("big.txt", [[1e308, 1e308], [1e308, -1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(["decompose", big])
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "eigenvalue multiplicity trace",
            "-1.4142135623730951e+308 1 1.0",
            "1.4142135623730951e+308 1 1.0",
        ]

    @pytest.mark.parametrize("mode", ["exact", "sampled", "both"])
    @pytest.mark.parametrize("partner", ["sz", "same"])
    def test_overflowing_residual_is_4(self, put, mode, partner):
        # the name is kept from when an unscaled commutator overflowed and
        # exited 4; read from eigenvalues over their largest magnitude, it gives a verdict
        big = put("big.txt", [[1e308, 1e308], [1e308, -1e308]])
        s = big if partner == "same" else put("s.txt", SZ)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(["compat", "--r", big, "--s", s, "--mode", mode, "--format", "machine"])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        if partner == "same":
            assert lines[-1] == "verdict c1=true c2=true comm=true"
            assert "comm_residual=0.0" in lines
        else:
            assert lines[-1] == "verdict c1=false c2=false comm=false"
            assert "comm_residual=1.4142135623730951" in lines

    def test_state_with_entries_near_the_largest_double_is_3(self, put):
        # eigenvalues 0.5 -+ 1e308: not a state, and no warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(
                ["born", "--observable", put("o.txt", SZ), "--state", put("z.txt", [[0.5, 1e308], [1e308, 0.5]])]
            )
        assert (code, out) == (3, "")
        assert err == "error: NotPositive: most negative eigenvalue -1e+308\n"

    def test_constraint_near_the_largest_double_admits_no_states_3(self, put):
        big = put("n.txt", [[1e308, 1e308], [1e308, -1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(["constraint", "--n", big, "--r", put("r.txt", SZ), "--random", "2"])
        assert (code, out) == (3, "")
        assert err == "error: ValidationError: constraint admits no states (kernel is trivial)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["compat", "--mode", "sampled"],
            ["measure", "--rule", "theta", "--aggregate"],
        ],
    )
    def test_negative_seed_is_3(self, put, argv):
        files = {
            "compat": ["--r", put("r.txt", SZ), "--s", put("s.txt", SX)],
            "measure": ["--observable", put("o.txt", OBS225), "--state", put("z.txt", MIXED3)],
        }[argv[0]]
        code, out, err = invoke(argv + files + ["--seed", "-1"])
        assert code == 3
        assert out == ""
        assert err == "error: BadArgument: seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("flag", ["--tol", "--cluster-tol"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_tolerance_is_3(self, put, flag, value):
        # with --tol inf every residual would pass: Pauli Z and X "compatible"
        code, out, err = invoke(["compat", "--r", put("r.txt", SZ), "--s", put("s.txt", SX), flag, value])
        assert code == 3
        assert out == ""
        assert err == "error: BadArgument: tolerances must be positive and finite\n"

    def test_unknown_flag_is_2(self, put):
        code, _, _ = invoke(["decompose", "--bogus", put("m.txt", SZ)])
        assert code == 2

    def test_nonunitary_evolution_is_3(self, put):
        code, _, err = invoke(
            [
                "compat",
                "--r", put("r.txt", SZ),
                "--s", put("s.txt", SZ),
                "--u2", put("u.txt", np.diag([2.0, 1.0])),
            ]
        )
        assert code == 3
        assert "NotUnitary" in err

    def test_constraint_violating_state_is_3(self, put):
        product = np.diag([0.0, 1.0, 0.0, 0.0])
        code, _, err = invoke(
            [
                "constraint",
                "--exchange", "sym",
                "--r", put("r.txt", np.diag([2.0, 0.0, 0.0, -2.0])),
                "--state", put("z.txt", product),
            ]
        )
        assert code == 3
        assert "ConstraintViolatedOnInput" in err

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_constraint_nonpositive_random_is_3(self, put, count):
        code, out, err = invoke(
            [
                "constraint",
                "--exchange", "sym",
                "--r", put("r.txt", np.diag([2.0, 0.0, 0.0, -2.0])),
                "--random", count,
            ]
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: BadArgument: random must be at least 1")

    def test_exchange_of_the_wrong_dimension_is_3_before_it_is_built(self, put, monkeypatch):
        # the (localdim^2)^2 operator would need 1.6e21 bytes at localdim 100000
        def unbuilt(*args, **kwargs):
            raise AssertionError("exchange operator built before the dimension check")

        monkeypatch.setattr(cli, "make_exchange_constraint", unbuilt)
        r = put("r.txt", np.diag([2.0, 0.0, 0.0, -2.0]))
        code, out, err = invoke(["constraint", "--exchange", "sym", "--localdim", "100000", "--r", r, "--random", "1"])
        assert (code, out) == (3, "")
        assert err == "error: DimMismatch: constraint dim 10000000000 does not match dim 4\n"

    @pytest.mark.parametrize("samples", ["1000000000000000", str(2**64)])
    @pytest.mark.parametrize("mode", ["sampled", "both"])
    def test_sample_count_numpy_cannot_draw_is_3(self, put, samples, mode):
        argv = ["compat", "--r", put("r.txt", SZ), "--s", put("s.txt", SX), "--samples", samples, "--mode", mode]
        # numpy refuses both draws before it writes a byte: a memory error, and a shape it cannot index
        code, out, err = invoke(argv)
        assert (code, out) == (3, "")
        assert err == f"error: BadArgument: cannot draw {samples} random states of dim 2\n"

    def test_verdict_disagreement_is_4(self, put, monkeypatch):
        # a condition 1 route that fails a commuting pair breaks the
        # equivalence the report enforces
        kernel = compatibility._conditions

        def failing_condition1(*args):
            runs = kernel(*args)
            runs[1] = [compatibility.ConditionResult(False, 0.5, compatibility.FAILS, None)] * len(runs[1])
            return runs

        monkeypatch.setattr(compatibility, "_conditions", failing_condition1)
        code, out, err = invoke(
            ["compat", "--r", put("r.txt", SZ), "--s", put("s.txt", np.diag([3.0, 7.0]))]
        )
        assert code == 4
        assert out == ""
        assert err.startswith("error: VerdictDisagreement:")


class TestDemoCommand:
    def test_default_run_all_green(self):
        code, out, _ = invoke(["demo"])
        assert code == 0
        last = out.splitlines()[-1]
        assert last.startswith("demo: ")
        assert last.endswith("0 failed")
        assert "FAIL" not in out

    def test_absurd_tolerance_fails(self):
        code, out, _ = invoke(["demo", "--tol", "1e-30"])
        assert code == 1
        assert "FAIL" in out

    def test_seed_sweep_stays_green(self):
        for seed in ("1", "2", "3"):
            code, out, _ = invoke(["demo", "--seed", seed])
            assert code == 0, f"seed {seed}: {out.splitlines()[-1]}"


class TestSubprocess:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "qmeasure", *args],
            capture_output=True,
            timeout=120,
        )

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy.random is a large import, paid by every CLI start; commands
        # that draw load it when they draw
        code = "import sys, qmeasure.cli; sys.exit('numpy.random' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0

    def test_byte_identical_compat(self, put):
        r, s = put("r.txt", SZ), put("s.txt", SX)
        args = ("--seed", "7", "compat", "--r", r, "--s", s, "--mode", "both")
        first = self.run_cli(*args)
        second = self.run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_byte_identical_demo(self):
        first = self.run_cli("demo", "--seed", "2")
        second = self.run_cli("demo", "--seed", "2")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"0 failed\n")

    def test_constraint_random_reproducible(self, put):
        r = put("r.txt", np.diag([2.0, 0.0, 0.0, -2.0]))
        args = ("constraint", "--exchange", "sym", "--r", r, "--random", "4", "--seed", "3")
        first = self.run_cli(*args)
        second = self.run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout

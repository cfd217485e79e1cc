import ast
import dataclasses
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import llap.checks
import llap.cli
import llap.config
import llap.grid
import llap.kernels
import llap.solver
from llap.fieldio import load_field
from llap.cli import (
    EXIT_CERTIFICATE,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_INCONSISTENT,
    EXIT_NO_CONVERGENCE,
    main,
)
from llap.solver import ConsistencyError
from conftest import Runner, solves_of_run_sequence, traced_peak
from test_config import REFERENCE

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

RAW_GAUSSIAN = REFERENCE.replace(
    "family = difference\nwidth1 = 1.0\nwidth2 = 2.0\namplitude = 1.0",
    "family = gaussian\nwidth = 1.0\namplitude = 1.0",
)


def _box(d, n, L, project=False):
    """REFERENCE on another box; project swaps in a projected Gaussian, eta 0.05."""
    text = REFERENCE.replace("d = 1", f"d = {d}").replace("L = 20.0", f"L = {L}")
    text = text.replace("n = 1024", f"n = {n}")
    if project:
        text = text.replace("eps_user = 0.1", "eps_user = 0.1\neta = 0.05").replace(
            "family = difference\nwidth1 = 1.0\nwidth2 = 2.0\namplitude = 1.0",
            "family = gaussian\nwidth = 1.0\namplitude = 1.0\nproject = true\ntaper_width = 0.5",
        )
    return text


def _count_passes(monkeypatch):
    """Diagnostics passes computed, as (kernel, eta), and every NUDFT call as (fields, points).

    A pass a kernel already keeps is served without either.
    """
    passes, calls = [], []
    compute, batch = llap.kernels._diagnostics_pass, llap.grid._nudft

    def counted_pass(kernels, spec):
        passes.extend((G, spec.eta) for G in kernels)
        return compute(kernels, spec)

    def counted_batch(values, grid, points):
        calls.append((len(values), len(points)))
        return batch(values, grid, points)

    monkeypatch.setattr(llap.kernels, "_diagnostics_pass", counted_pass)
    monkeypatch.setattr(llap.kernels, "_nudft", counted_batch)
    monkeypatch.setattr(llap.checks, "_nudft", counted_batch)
    return passes, calls


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCertifyCommand:
    def test_pass_exit_zero(self, runner, tmp_path):
        cfg = _write(tmp_path, REFERENCE)
        result = runner.invoke(main, ["certify", cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == 0
        text = (tmp_path / "out" / "certificate.txt").read_text()
        assert "passed = true" in text
        assert "q = " in text

    def test_failing_certificate_exit_code(self, runner, tmp_path):
        cfg = _write(tmp_path, RAW_GAUSSIAN)
        result = runner.invoke(main, ["certify", cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == EXIT_CERTIFICATE
        text = (tmp_path / "out" / "certificate.txt").read_text()
        assert "passed = false" in text
        assert "divergence_indicator" in text

    def test_parse_error_exit_code(self, runner, tmp_path):
        cfg = _write(tmp_path, "[grid]\nd = 1\nmystery = 3\n")
        result = runner.invoke(main, ["certify", cfg])
        assert result.exit_code == EXIT_CONFIG
        assert "line 3" in result.output

    def test_precondition_violation_exit_code(self, runner, tmp_path):
        cfg = _write(tmp_path, REFERENCE.replace("n = 1024", "n = 1023"))
        result = runner.invoke(main, ["certify", cfg])
        assert result.exit_code == EXIT_CONFIG
        assert "even" in result.output


def _python(*args, cwd=None):
    """Run python with args in a fresh process that imports this llap."""
    src = str(Path(llap.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd
    )


def _llap(tmp_path, text, command):
    """Run one llap command on a config text in a fresh process.

    A fresh process, so that numpy's floating-point warnings would reach
    stderr as they do for a user rather than being raised by pytest.
    """
    cfg = _write(tmp_path, text)
    return _python("-m", "llap.cli", command, cfg, "-o", str(tmp_path / "out"))


@pytest.mark.parametrize(
    "args, line",
    [
        pytest.param(
            ["certify"], "usage error: the following arguments are required: CONFIG",
            id="missing-config",
        ),
        pytest.param(
            ["certify", "absent.cfg"],
            "config error: [Errno 2] No such file or directory: 'absent.cfg'",
            id="nonexistent-config",
        ),
        pytest.param(
            ["certfy", "absent.cfg"],
            "usage error: argument COMMAND: invalid choice: 'certfy' (choose from 'certify', "
            "'solve', 'sequence', 'verify', 'ft-selftest')",
            id="unknown-command",
        ),
        pytest.param(
            ["certify", str(CONFIGS / "reference.cfg"), "--bogus"],
            "usage error: unrecognized arguments: --bogus",
            id="unknown-option",
        ),
        pytest.param([], "usage error: the following arguments are required: COMMAND", id="no-command"),
    ],
)
def test_usage_error_in_one_line(tmp_path, args, line):
    result = _python("-m", "llap.cli", *args, cwd=tmp_path)
    assert result.returncode == EXIT_CONFIG
    assert result.stderr.splitlines() == [line]
    assert result.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_commands_load_neither_click_nor_numpy_random(tmp_path):
    # The sampled checks draw from grid._SplitMix64, and the front end is
    # argparse; numpy loads numpy.random lazily, on first use.
    code = (
        "import sys, llap.cli\n"
        "for command in ('certify', 'solve', 'sequence', 'verify'):\n"
        "    try:\n"
        "        llap.cli.main([command, sys.argv[1], '-o', sys.argv[2]])\n"
        "    except SystemExit as e:\n"
        "        assert not e.code, (command, e.code)\n"
        "print(sorted(m for m in sys.modules if m == 'click' or m.startswith('numpy.random')))\n"
    )
    result = _python("-c", code, str(CONFIGS / "reference.cfg"), str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("command", ["certify", "solve", "sequence", "verify"])
def test_overflowing_kernel_refused_in_one_line(tmp_path, command):
    result = _llap(tmp_path, REFERENCE.replace("amplitude = 1.0", "amplitude = 1e307"), command)
    assert result.returncode == EXIT_CONFIG
    assert result.stderr.splitlines() == [
        "config error: kernel norms overflow (||G||_1 = inf, || |x| G ||_1 = inf); "
        "G must be integrable"
    ]
    assert not (tmp_path / "out").exists()


RING_BEYOND_NYQUIST = (
    "config error: outer ring radius exp(a + 2 eta) = 80.869 lies outside the resolved "
    "frequency band (Nyquist 80.4248); raise n or shrink L"
)


@pytest.mark.parametrize(
    "kernel, old, new, line",
    [
        # The sphere (80.24) is resolved, the outer ring (80.87) is not.
        ("raw", "a = 0.0", "a = 4.385", RING_BEYOND_NYQUIST),
        ("reference", "a = 0.0", "a = 4.385", RING_BEYOND_NYQUIST),
        # exp(3 e^(2a) / 2) overflows for the second Gaussian's weight.
        (
            "reference",
            "a = 0.0",
            "a = 4.0",
            "config error: difference kernel's second coefficient overflows at shift 4 "
            "(widths 1, 2); lower the shift or bring the widths closer",
        ),
        # exp(-inf) made the default eta divide by zero.
        pytest.param(
            "reference", "a = 0.0", "a = -inf", "config error: line 8: a must be finite, got -inf",
            id="a-minus-inf",
        ),
        # e^a overflowed in the default eta (exit 1 and a traceback).
        pytest.param(
            "reference",
            "a = 0.0",
            "a = 1000",
            "config error: line 8: a must lie in [-709.78, 709.78], where e^a and e^-a are "
            "finite, got 1000",
            id="a-1000",
        ),
        # e^a underflowed to 0, and the default eta divided by it.
        pytest.param(
            "reference",
            "a = 0.0",
            "a = -1000",
            "config error: line 8: a must lie in [-709.78, 709.78], where e^a and e^-a are "
            "finite, got -1000",
            id="a-minus-1000",
        ),
        # The default eta of two mode spacings, 2 pi / L, puts the outer ring
        # at exp(1.3e13): compared in logarithms, not overflowing.
        pytest.param(
            "reference",
            "L = 20.0",
            "L = 1e-12",
            "config error: outer ring radius exp(a + 2 eta) = inf lies outside the resolved "
            "frequency band (Nyquist 1.6085e+15); raise n or shrink L",
            id="L-1e-12",
        ),
        # ||G||_1 is finite, its sum of squares is not.
        (
            "reference",
            "amplitude = 1.0",
            "amplitude = 1e306",
            "config error: kernel norms overflow (||G||_2 = inf, ||G||_1 = 3.48e+306); "
            "G must be square integrable",
        ),
    ],
)
@pytest.mark.parametrize("command", ["certify", "solve", "sequence", "verify"])
def test_unusable_symbol_or_kernel_refused_in_one_line(tmp_path, command, kernel, old, new, line):
    text = RAW_GAUSSIAN if kernel == "raw" else REFERENCE
    result = _llap(tmp_path, text.replace(old, new), command)
    assert result.returncode == EXIT_CONFIG
    assert result.stderr.splitlines() == [line]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["certify", "solve"])
def test_huge_offset_width_runs(tmp_path, command):
    # width**2 overflowed (exit 1 and a traceback); the offset is now the
    # constant h_amplitude, whose transform lives on the inactive DC mode.
    result = _llap(tmp_path, REFERENCE.replace("h_width = 1.0", "h_width = 1e300"), command)
    assert result.returncode == 0
    assert result.stderr == ""


class TestOutOfRangeSettings:
    @pytest.mark.parametrize(
        "command, old, new, what",
        [
            ("certify", "eps_user = 0.1", "eps_user = 1.5", "eps_user must lie in (0, 1)"),
            ("solve", "tol = 1e-10", "tol = 0", "tol must be positive"),
            ("solve", "max_iter = 200", "max_iter = 0", "max_iter must be at least 1"),
            ("certify", "seed = 0", "seed = -1", "seed must be non-negative"),
            ("ft-selftest", "seed = 0", "seed = -1", "seed must be non-negative"),
            (
                "solve",
                "seed = 0",
                "seed = 0\nv0 = random\nv0_scale = nan",
                "v0_scale must be finite and non-negative",
            ),
        ],
    )
    def test_config_error_in_one_line(self, runner, tmp_path, command, old, new, what):
        cfg = _write(tmp_path, REFERENCE.replace(old, new))
        result = runner.invoke(main, [command, cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == EXIT_CONFIG
        assert isinstance(result.exception, SystemExit)
        lines = result.output.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: line ")
        assert what in lines[0]
        assert not (tmp_path / "out").exists()


class TestSolveCommand:
    def test_reference_solve(self, runner, tmp_path):
        cfg = _write(tmp_path, REFERENCE.replace("seed = 0", "seed = 0\ndump_field = true"))
        out = tmp_path / "out"
        result = runner.invoke(main, ["solve", cfg, "-o", str(out)])
        assert result.exit_code == 0
        assert "converged" in result.output
        csv = (out / "iterations.csv").read_text().splitlines()
        assert csv[0] == "k,update_norm,ratio,apriori_bound"
        assert len(csv) >= 10
        summary = (out / "solve_summary.txt").read_text()
        assert "converged = true" in summary
        field = load_field(out / "field.llap")
        assert field.grid.n == 1024
        assert np.linalg.norm(field.values) > 0

    def test_refuses_failing_certificate(self, runner, tmp_path):
        cfg = _write(tmp_path, RAW_GAUSSIAN)
        result = runner.invoke(main, ["solve", cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == EXIT_CERTIFICATE
        assert "refused" in result.output
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["certificate.txt"]

    def test_nonconvergence_exit_code(self, runner, tmp_path):
        cfg = _write(tmp_path, REFERENCE.replace("max_iter = 200", "max_iter = 1"))
        result = runner.invoke(main, ["solve", cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == EXIT_NO_CONVERGENCE
        assert "NOT converged" in result.output

    def test_unknown_starting_field_is_config_error(self, runner, tmp_path):
        cfg = _write(tmp_path, REFERENCE.replace("seed = 0", "seed = 0\nv0 = bogus"))
        result = runner.invoke(main, ["solve", cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == EXIT_CONFIG
        assert "unknown starting field" in result.output
        assert not (tmp_path / "out").exists()

    def test_consistency_failure_exit_code(self, runner, tmp_path, monkeypatch):
        def violated(*args, **kwargs):
            raise ConsistencyError("a-priori contraction bound violated at iterate 3")

        monkeypatch.setattr(llap.cli, "picard_solve", violated)
        cfg = _write(tmp_path, REFERENCE)
        result = runner.invoke(main, ["solve", cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == EXIT_INCONSISTENT
        assert isinstance(result.exception, SystemExit)
        assert result.output.strip().splitlines()[-1] == (
            "internal consistency check failed: "
            "a-priori contraction bound violated at iterate 3"
        )
        # The certificate passed before the solve failed; nothing is written.
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("factor, code", [(0.9, EXIT_INCONSISTENT), (0.95, 0)])
    def test_apriori_bound_fails_with_q_too_small(
        self, runner, tmp_path, monkeypatch, factor, code
    ):
        # The real bound, not a stand-in: on reference.cfg the tail sums reach
        # 0.966 of their bounds, so a certificate claiming 0.9 q fails at
        # iterate 0 and one claiming 0.95 q passes.
        certify = llap.cli.compute_certificate

        def scaled(*args, **kwargs):
            cert = certify(*args, **kwargs)
            return dataclasses.replace(cert, q=factor * cert.q)

        monkeypatch.setattr(llap.cli, "compute_certificate", scaled)
        out = tmp_path / "out"
        result = runner.invoke(main, ["solve", str(CONFIGS / "reference.cfg"), "-o", str(out)])
        assert result.exit_code == code, result.output
        if code:
            assert result.output.strip().splitlines()[-1] == (
                "internal consistency check failed: a-priori contraction bound violated "
                "at iterate 0: tail sum 9.477e-01 > 9.469e-01"
            )
            assert not out.exists()

    def test_deterministic_tables(self, runner, tmp_path):
        cfg = _write(tmp_path, REFERENCE)
        runner.invoke(main, ["solve", cfg, "-o", str(tmp_path / "a")])
        runner.invoke(main, ["solve", cfg, "-o", str(tmp_path / "b")])
        assert (tmp_path / "a" / "iterations.csv").read_bytes() == (
            tmp_path / "b" / "iterations.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "solve_summary.txt").read_bytes() == (
            tmp_path / "b" / "solve_summary.txt"
        ).read_bytes()


class TestSequenceCommand:
    def test_sequence_outputs(self, runner, tmp_path):
        cfg = _write(tmp_path, REFERENCE)
        out = tmp_path / "out"
        result = runner.invoke(main, ["sequence", cfg, "-o", str(out)])
        assert result.exit_code == 0
        rows = (out / "sequence_rows.csv").read_text().splitlines()
        assert rows[0] == "m,l1_dist,wl1_dist,ratio_dist,gain,q,sol_dist,bound_rhs,bound_ok"
        assert len(rows) == 7
        assert all(line.endswith("true") for line in rows[1:])
        lemma = (out / "lemma_checks.csv").read_text().splitlines()
        assert len(lemma) == 7
        summary = (out / "sequence_summary.txt").read_text()
        assert "lemma_passed = true" in summary

    def test_failed_limit_checks_exit_code(self, runner, tmp_path, monkeypatch):
        real = llap.cli.run_sequence

        def failing(*args, **kwargs):
            study = real(*args, **kwargs)
            lemma = dataclasses.replace(study.lemma, gains_converge=False)
            return dataclasses.replace(study, lemma=lemma)

        monkeypatch.setattr(llap.cli, "run_sequence", failing)
        cfg = _write(tmp_path, REFERENCE)
        out = tmp_path / "out"
        result = runner.invoke(main, ["sequence", cfg, "-o", str(out)])
        assert result.exit_code == EXIT_CHECK_FAILED
        assert "limit checks FAIL" in result.output
        assert "lemma_passed = false" in (out / "sequence_summary.txt").read_text()
        assert (out / "lemma_checks.csv").exists()

    @pytest.mark.parametrize("max_iter", [1, 10])
    @pytest.mark.parametrize("fault", [None, "moved", "lemma"])
    def test_nonconvergence_exit_code(self, runner, tmp_path, monkeypatch, max_iter, fault):
        # The limit needs 17 iterations.  Short of that no solve reaches its
        # fixed point, so the bound and monotonicity checks, which compare
        # fixed points, are not made: a moved member solution (exit 6 when
        # converged) and failed limit checks (exit 5) both give way to exit 4.
        if fault == "moved":
            solves_of_run_sequence(monkeypatch, member=3, move=lambda um, u: um + 1.0)
        if fault == "lemma":
            real = llap.cli.run_sequence

            def failing(*args, **kwargs):
                study = real(*args, **kwargs)
                lemma = dataclasses.replace(study.lemma, gains_converge=False)
                return dataclasses.replace(study, lemma=lemma)

            monkeypatch.setattr(llap.cli, "run_sequence", failing)
        cfg = _write(tmp_path, REFERENCE.replace("max_iter = 200", f"max_iter = {max_iter}"))
        out = tmp_path / "out"
        result = runner.invoke(main, ["sequence", cfg, "-o", str(out)])
        assert result.exit_code == EXIT_NO_CONVERGENCE
        assert result.stderr == ""
        assert result.stdout.splitlines()[0] == (
            f"NOT converged: a solve reached max_iter = {max_iter}"
        )
        assert sorted(p.name for p in out.iterdir()) == [
            "lemma_checks.csv", "sequence_rows.csv", "sequence_summary.txt"
        ]
        summary = (out / "sequence_summary.txt").read_text()
        assert f"limit_iterations = {max_iter}\n" in summary

    def test_one_diagnostics_pass_per_kernel(self, runner, tmp_path, monkeypatch):
        # Six members plus the limit: each kernel's one pass serves the
        # admissibility check (limit) or the projector's residual check
        # (members), then its certificate, its sequence row and its lemma row.
        passes, nudft_calls = _count_passes(monkeypatch)
        result = runner.invoke(main, ["sequence", str(CONFIGS / "reference.cfg"),
                                      "-o", str(tmp_path / "out")])
        assert result.exit_code == 0
        assert len(passes) == 7
        assert len({id(G) for G, _ in passes}) == 7
        # The limit's pass (10 points in d = 1), the atoms' sphere system
        # (2 atoms at 2 points), the six members' sphere values, and one
        # pass over the six projected members.
        assert nudft_calls == [(1, 10), (2, 2), (6, 2), (6, 10)]

    def test_consistency_failure_exit_code(self, runner, tmp_path, monkeypatch):
        def violated(*args, **kwargs):
            raise ConsistencyError("member 2 violates the convergence bound")

        monkeypatch.setattr(llap.cli, "run_sequence", violated)
        cfg = _write(tmp_path, REFERENCE)
        result = runner.invoke(main, ["sequence", cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == EXIT_INCONSISTENT
        assert isinstance(result.exception, SystemExit)
        assert "internal consistency check failed: member 2" in result.output

    @pytest.mark.parametrize(
        "member, move, line",
        [
            pytest.param(
                3, lambda um, u: um + 1.0,
                r"member 3 violates the convergence bound: "
                r"sol_dist \d\.\d{3}e\+00 > bound 2\.472e-05",
                id="bound",
            ),
            pytest.param(
                1, lambda um, u: u,
                r"solution distances increase from member 1 to 2: 0\.000e\+00 -> 5\.971e-05",
                id="increasing",
            ),
        ],
    )
    def test_moved_solution_exit_code(self, runner, tmp_path, monkeypatch, member, move, line):
        solves_of_run_sequence(monkeypatch, member=member, move=move)
        cfg = _write(tmp_path, REFERENCE)
        result = runner.invoke(main, ["sequence", cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == EXIT_INCONSISTENT
        assert re.fullmatch(f"internal consistency check failed: {line}\n", result.stderr)

    def test_member_failure_refused_before_any_solve(self, runner, tmp_path, monkeypatch):
        # At l = 0.3385 the limit certifies (q = 0.8992 <= 0.9); member 1 does not.
        solved = solves_of_run_sequence(monkeypatch)
        cfg = _write(tmp_path, REFERENCE.replace("l = 0.1", "l = 0.3385"))
        result = runner.invoke(main, ["sequence", cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == EXIT_CERTIFICATE
        assert re.fullmatch(
            r"certificate failure at member 1: member 1 fails the uniform "
            r"certificate \(q = 0\.900255 > 1 - eps_user = 0\.9\)\n",
            result.stderr,
        )
        assert solved == []

    def test_member_failure_exit_code(self, runner, tmp_path):
        cfg = _write(tmp_path, REFERENCE.replace("l = 0.1", "l = 1.0"))
        result = runner.invoke(main, ["sequence", cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == EXIT_CERTIFICATE

    def test_limit_failure_names_the_limit_kernel(self, tmp_path):
        result = _llap(tmp_path, REFERENCE.replace("l = 0.1", "l = 1.0"), "sequence")
        assert result.returncode == EXIT_CERTIFICATE
        assert re.fullmatch(
            r"certificate failure at the limit kernel: limit kernel fails the uniform "
            r"certificate \(q = 2\.65651 > 1 - eps_user = 0\.9\)\n",
            result.stderr,
        )


class TestVerifyCommand:
    def test_reference_all_pass(self, runner, tmp_path):
        cfg = _write(tmp_path, REFERENCE)
        out = tmp_path / "out"
        result = runner.invoke(main, ["verify", cfg, "-o", str(out)])
        assert result.exit_code == 0
        assert "FAIL" not in result.output
        report = (out / "verify_report.csv").read_text().splitlines()
        assert report[0] == "check,passed,value,detail"
        assert all(",true," in line for line in report[1:])
        assert [line.split(",", 1)[0] for line in report[1:]] == [
            "ft_roundtrip",
            "ft_parseval",
            "ft_gaussian",
            "ft_convolution",
            "hat_bound",
            "derivative_bound",
            "na_dichotomy",
            "kernel_boundary_decay",
            "contraction_sampling",
            "norm_bound_sampling",
            "triviality_consistency",
            "growth_bound",
            "lipschitz_estimate",
        ]

    def test_understated_growth_constant_fails_its_row_alone(self, runner, tmp_path):
        # k = 0.01 under the sine's true slope 0.1: the growth row fails by
        # its worst sampled margin, and every other row still passes.
        cfg = _write(tmp_path, REFERENCE.replace("l = 0.1", "l = 0.1\nk = 0.01"))
        out = tmp_path / "out"
        result = runner.invoke(main, ["verify", cfg, "-o", str(out)])
        assert result.exit_code == EXIT_CHECK_FAILED
        report = (out / "verify_report.csv").read_text().splitlines()
        rows = [line.split(",") for line in report[1:]]
        failed = [(name, float(value)) for name, passed, value, *_ in rows if passed != "true"]
        assert failed == [("growth_bound", pytest.approx(-0.0847925, abs=1e-7))]

    def test_raw_gaussian_negative_control_passes(self, runner, tmp_path):
        # The dichotomy check must recognize the divergence as the expected
        # behaviour of an inadmissible kernel.
        cfg = _write(tmp_path, RAW_GAUSSIAN)
        result = runner.invoke(main, ["verify", cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == 0
        assert "na_dichotomy" in result.output

    def test_one_diagnostics_pass_per_eta(self, runner, tmp_path, monkeypatch):
        # eta = 0.05 is the dichotomy check's first eta, so its pass also
        # gives the grid gain of the sampled contraction check.
        # The projector makes the eta = 0.05 pass when the kernel is built.
        passes, nudft_calls = _count_passes(monkeypatch)
        result = runner.invoke(main, ["verify", str(CONFIGS / "projected_gaussian.cfg"),
                                      "-o", str(tmp_path / "out")])
        assert "na_dichotomy" in result.output
        assert [eta for _, eta in passes] == [0.05, 0.025, 0.0125]
        assert len({id(G) for G, _ in passes}) == 1
        assert nudft_calls.count((1, 10)) == 3

    def test_derivative_bound_in_one_nudft_call(self, runner, tmp_path, monkeypatch):
        # 96 radii on the axis and 48 on each of six rays, each at r +- step/2.
        _, nudft_calls = _count_passes(monkeypatch)
        result = runner.invoke(main, ["verify", str(CONFIGS / "reference.cfg"),
                                      "-o", str(tmp_path / "out")])
        assert result.exit_code == 0
        assert nudft_calls.count((1, 2 * (96 + 6 * 48))) == 1

    def test_picard_operator_built_at_most_twice(self, runner, tmp_path, monkeypatch):
        calls = []
        build = llap.solver._picard_operator

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(llap.solver, "_picard_operator", counted)
        monkeypatch.setattr(llap.checks, "_picard_operator", counted)
        cfg = _write(tmp_path, REFERENCE)
        result = runner.invoke(main, ["verify", cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == 0
        assert 1 <= len(calls) <= 2

    def test_consistency_failure_exit_code(self, runner, tmp_path, monkeypatch):
        # A non-finite reciprocal symbol makes the map's spectrum non-finite.
        build = llap.checks._picard_operator

        def poisoned(G, spec):
            op = build(G, spec)
            recip = op.recip.copy()
            recip[1] = np.nan
            return type(op)(**{**vars(op), "recip": recip})

        monkeypatch.setattr(llap.checks, "_picard_operator", poisoned)
        cfg = _write(tmp_path, REFERENCE)
        result = runner.invoke(main, ["verify", cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == EXIT_INCONSISTENT
        assert result.stderr.splitlines() == [
            "internal consistency check failed: "
            "non-finite spectral intermediate; certificate is unsound"
        ]

    def test_zero_kernel_degenerate_cases(self, runner, tmp_path):
        cfg = _write(
            tmp_path, RAW_GAUSSIAN.replace("amplitude = 1.0", "amplitude = 0.0")
        )
        result = runner.invoke(main, ["verify", cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == 0


class TestMemoryPreflight:
    def test_estimate_arithmetic(self, monkeypatch):
        # d=3, n=512: a real field is 2^30 bytes, a half spectrum
        # 16 * 512^2 * 257 bytes; five real fields, five half spectra and,
        # on two slabs, two one-row scratch blocks of 2 MiB; seven more real
        # fields for verify, and for sequence a real field and a half
        # spectrum per member plus six atoms.  ft-selftest holds two real
        # fields and three half spectra.
        monkeypatch.setattr(llap.grid, "_worker_count", lambda: 2)
        real, half, scratch = 2**30, 16 * 512**2 * 257, 2 * 8 * 512**2
        assert llap.solver._peak_bytes(3, 512, "solve") == 5 * real + 5 * half + scratch
        assert llap.solver._peak_bytes(3, 512, "certify") == 10_762_584_064
        assert llap.solver._peak_bytes(1, 1024, "ft-selftest") == 2 * 8 * 1024 + 3 * 16 * 513
        assert llap.solver._peak_bytes(3, 512, "verify") == 12 * real + 5 * half + scratch
        assert llap.solver._peak_bytes(3, 512, "solve", project=True) == (
            11 * real + 5 * half + scratch
        )
        assert llap.solver._peak_bytes(3, 512, "sequence", members=6) == (
            17 * real + 11 * half + scratch
        )
        assert llap.solver._peak_bytes(2, 512, "sequence", members=2, project=True) == (
            llap.solver._peak_bytes(2, 512, "sequence", members=2)
        )
        # A field of at most one block (d = 2, n = 256) keeps a whole field
        # of scratch; on two slabs, d = 3, n = 90 keeps two 6-row blocks of
        # its sixteen and d = 3, n = 96 two 6-row blocks, an eighth.
        assert llap.solver._scratch_bytes((256, 256)) == 8 * 256**2
        assert llap.solver._scratch_bytes((90, 90, 90)) == 2 * 6 * 8 * 90**2 == 777_600
        assert llap.solver._scratch_bytes((96, 96, 96)) == 8 * 96**3 // 8

    def test_readme_quotes_the_estimate(self, monkeypatch):
        # Every GiB figure in the README is the estimate of the command its
        # sentence names, at d=3, n=512 on two threads.
        monkeypatch.setattr(llap.grid, "_worker_count", lambda: 2)
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        at = r"\((\d+\.\d) GiB (?:for a six-member sequence )?at\s+d=3,\s+n=512\)"
        claims = {
            "solve": "A certify-and-solve run holds",
            "ft-selftest": "`ft-selftest` holds",
            "verify": "`verify` adds",
            "sequence": "`sequence` adds",
        }
        found = {c: re.search(re.escape(s) + ".*?" + at, readme, re.S) for c, s in claims.items()}
        assert all(found.values()), [c for c, m in found.items() if m is None]
        figures = {c: m.group(1) for c, m in found.items()}
        assert sorted(re.findall(r"(\d+(?:\.\d+)?) GiB", readme)) == sorted(figures.values())
        for command, figure in figures.items():
            estimate = llap.solver._peak_bytes(3, 512, command, members=6)
            assert figure == f"{estimate / 2**30:.1f}", command

    @staticmethod
    def _certify_and_solve(d, n, L):
        grid = llap.make_grid(d, L, n)
        spec = llap.SymbolSpec(0.0, llap.default_eta(grid, 0.0))
        K = llap.make_kernel(
            "difference", {"width1": 1.0, "width2": 2.0, "amplitude": 1.0, "shift": 0.0}, grid
        )
        offset = llap.sample(grid, lambda *xs: 0.3 * np.exp(-sum(x * x for x in xs) / 2.0))
        N = llap.make_nonlinearity("saturating_sine", lip=0.1, offset=offset)
        v0 = llap.RealField(np.random.default_rng(0).normal(0.0, 0.01, grid.shape), grid)
        cert = llap.certify(K, N, spec, eps_user=0.1)
        report = llap.picard_solve(K, N, spec, v0=v0, certificate=cert)
        assert report.converged
        report.final.l2_norm()  # as the solve summary does

    @classmethod
    def _sequence(cls, d, n, L):
        # What the sequence command builds and holds, with a projected limit.
        cfg = llap.config.parse_config(_box(d, n, L, project=True))
        grid = cfg.grid()
        spec = cfg.symbol_spec(grid)
        K = cfg.kernel(grid, spec)
        seq = llap.make_sequence(K, cfg.schedule(), spec, taper_width=cfg.taper_width)
        study = llap.run_sequence(seq, cfg.nonlinearity(grid), spec, eps=0.1, tol=1e-10, max_iter=200)
        assert study.lemma.passed

    @classmethod
    def _verify(cls, d, n, L):
        # What the verify command builds and holds: the run, then the suite.
        cfg = llap.config.parse_config(_box(d, n, L))
        grid, spec, K, N = llap.cli._build_run(cfg, "verify")
        llap.checks.run_property_suite(K, N, spec, cfg.seed, cfg.tau)

    @pytest.mark.parametrize("d,n", [(2, 256), (3, 48)])
    def test_estimate_bounds_a_traced_run(self, d, n):
        # A small run first imports every module, so that only arrays are
        # traced; the symbol cache (grid._half_modes) is then emptied, as in
        # a fresh process, whichever tests ran before.  Each command's
        # estimate must bound its trace without being loose.
        self._certify_and_solve(d, 32, 10.0)
        llap.grid._half_modes.cache_clear()
        for command, run in (
            ("solve", lambda: self._certify_and_solve(d, n, 13.0)),
            ("ft-selftest", lambda: llap.checks.ft_selftest(llap.make_grid(d, 14.0, n))),
        ):
            _, peak = traced_peak(run)
            estimate = llap.solver._peak_bytes(d, n, command)
            assert 0.8 * estimate <= peak <= estimate, (command, peak / estimate)

    @pytest.mark.parametrize("d,n,warm", [(2, 256, (32, 15.0)), (3, 48, (32, 10.0))])
    @pytest.mark.parametrize("command", ["sequence", "verify"])
    def test_command_estimate_bounds_a_traced_run(self, d, n, warm, command):
        # As above, for what sequence (with a projected limit) and verify
        # hold; the warm-up box is too small to be traced.
        if command == "sequence":
            L = 19.5 if d == 2 else 12.5
            run = lambda n, L: self._sequence(d, n, L)  # noqa: E731
        else:
            L = 17.0
            run = lambda n, L: self._verify(d, n, L)  # noqa: E731
        run(*warm)
        llap.grid._half_modes.cache_clear()
        _, peak = traced_peak(lambda: run(n, L))
        estimate = llap.solver._peak_bytes(d, n, command, members=6)
        assert 0.8 * estimate <= peak <= estimate, peak / estimate

    def test_available_memory_is_read(self):
        available = llap.cli._available_bytes()
        assert available is None or available > 0

    @pytest.mark.parametrize("command", ["certify", "solve", "sequence", "verify", "ft-selftest"])
    def test_refused_before_allocating(self, runner, tmp_path, monkeypatch, command):
        def never(*args, **kwargs):
            raise AssertionError("arrays allocated for a problem that cannot fit")

        monkeypatch.setattr(llap.cli, "_available_bytes", lambda: 2**30)
        monkeypatch.setattr(llap.grid, "_worker_count", lambda: 2)
        monkeypatch.setattr(llap.config.RunConfig, "kernel", never)
        monkeypatch.setattr(llap.cli, "ft_selftest", never)
        big = REFERENCE.replace("d = 1", "d = 3").replace("n = 1024", "n = 512")
        cfg = _write(tmp_path, big)
        result = runner.invoke(main, [command, cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == EXIT_CONFIG
        # verify holds seven more real fields; sequence its six members'
        # samples and hats and the six d = 3 atoms; ft-selftest two real
        # fields and three half spectra.
        need = {"verify": "17.0", "sequence": "28.0", "ft-selftest": "5.0"}.get(command, "10.0")
        assert result.output.strip().splitlines() == [
            f"memory preflight: d=3, n=512 needs an estimated {need} GiB of arrays, "
            "more than the 1.0 GiB available"
        ]

    def test_fitting_problem_runs(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(llap.cli, "_available_bytes", lambda: 2**30)
        cfg = _write(tmp_path, REFERENCE)
        assert runner.invoke(main, ["certify", cfg, "-o", str(tmp_path / "out")]).exit_code == 0


class TestFtSelftest:
    def test_default_grid(self, runner, tmp_path):
        result = runner.invoke(main, ["ft-selftest", "-o", str(tmp_path / "out")])
        assert result.exit_code == 0
        assert "ft_roundtrip" in result.output

    def test_with_config(self, runner, tmp_path):
        cfg = _write(tmp_path, REFERENCE)
        result = runner.invoke(main, ["ft-selftest", cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == 0

    @pytest.mark.parametrize("n", [8, 16, 24, 32, 40, 48])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_coarse_grids_pass(self, d, n):
        # The Gaussian oracle compared with the transform on R^d failed a
        # correct transform on coarse grids: ft_gaussian read 3.4e-3 (d = 2)
        # and 2.6e-2 (d = 3) at n = 32 with width max(L/8, 4h), and still
        # 1.1e-5, 4.3e-5 and 1.8e-4 (d = 1, 2, 3) at n = 16 with the width
        # that balanced periodization against aliasing.  The periodized and
        # aliased closed form is exact on any grid.
        results = llap.checks.ft_selftest(llap.make_grid(d, 20.0, n))
        assert [r.name for r in results if not r.passed] == []
        gaussian = next(r for r in results if r.name == "ft_gaussian")
        assert gaussian.value <= 1e-13


class TestExitCodeContract:
    def test_codes_are_distinct(self):
        codes = {
            EXIT_CONFIG,
            EXIT_CERTIFICATE,
            EXIT_NO_CONVERGENCE,
            EXIT_CHECK_FAILED,
            EXIT_INCONSISTENT,
        }
        assert len(codes) == 5
        assert 0 not in codes

    def test_one_writer_writes_prints_and_exits(self):
        # A command returns an _Outcome; _Main.__call__ alone turns it into
        # files, output and an exit, and _Parser.error alone exits beside it.
        uses = {"sys.exit": set(), "print": set(), "fieldio": set()}

        def visit(node, where):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                where = f"{where}.{node.name}".lstrip(".")
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.exit":
                uses["sys.exit"].add(where)
            if isinstance(node, ast.Name) and node.id in ("print", "fieldio"):
                uses[node.id].add(where)
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(Path(llap.cli.__file__).read_text()), "")
        writer, parser = "_Main.__call__", "_Parser.error"
        assert uses == {"sys.exit": {writer, parser}, "print": {writer, parser}, "fieldio": {writer}}

    def test_commands_contain_no_try(self):
        # _Main.__call__ is the one exit table: a command that caught its own
        # failures would decide an exit code in a second place.
        tree = ast.parse(Path(llap.cli.__file__).read_text())
        names = {cmd.callback.__name__ for cmd in main.commands.values()}
        commands = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name in names]
        assert {f.name for f in commands} == names
        for f in commands:
            assert not [n for n in ast.walk(f) if type(n).__name__ in ("Try", "TryStar")], f.name


def test_a_command_returns_its_outcome_and_creates_nothing(tmp_path):
    out = tmp_path / "out"
    outcome = main.commands["certify"].callback(str(CONFIGS / "reference.cfg"), str(out))
    assert list(outcome.files) == ["certificate.txt"]
    assert "passed = true" in outcome.files["certificate.txt"].splitlines()
    assert outcome.stdout[-1] == f"wrote {out / 'certificate.txt'}"
    assert (outcome.stderr, outcome.code) == ([], 0)
    assert list(tmp_path.iterdir()) == []


def test_memory_error_mid_command_in_one_line(runner, tmp_path, monkeypatch):
    # A MemoryError from an allocation ended in a traceback (exit 1).
    line = "Unable to allocate 8.00 GiB for an array with shape (1073741824,) and data type float64"

    def exhausted(*args, **kwargs):
        raise MemoryError(line)

    monkeypatch.setattr(llap.cli, "picard_solve", exhausted)
    cfg = _write(tmp_path, REFERENCE)
    result = runner.invoke(main, ["solve", cfg, "-o", str(tmp_path / "out")])
    assert result.exit_code == EXIT_CONFIG
    assert result.stderr.splitlines() == [line]
    assert result.stdout == ""
    assert not (tmp_path / "out").exists()


def test_reference_run_is_deterministic(runner, tmp_path):
    # Two runs of every command on each shipped reference config, d = 1 and
    # d = 2, give byte-identical out-dirs, the binary field dump included.
    for name in ("reference", "reference_2d"):
        cfg, a, b = str(CONFIGS / f"{name}.cfg"), tmp_path / name / "a", tmp_path / name / "b"
        for out in (a, b):
            for command in ("certify", "solve", "sequence", "verify"):
                result = runner.invoke(main, [command, cfg, "-o", str(out)])
                assert result.exit_code == 0, (name, result.output)
        files = sorted(p.relative_to(a) for p in a.rglob("*"))
        assert Path("field.llap") in files
        assert files == sorted(p.relative_to(b) for p in b.rglob("*"))
        for file in files:
            assert (a / file).read_bytes() == (b / file).read_bytes(), (name, file)


def test_projected_2d_sequence_is_deterministic(runner, tmp_path):
    # The d = 2 atoms' Bessel profiles come from BLAS matrix products; two
    # runs must still give byte-identical out-dirs.
    cfg = _write(tmp_path, _box(2, 64, 12.5, project=True))
    for out in ("a", "b"):
        result = runner.invoke(main, ["sequence", cfg, "-o", str(tmp_path / out)])
        assert result.exit_code == 0, result.output
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*"))
    assert len(files) == 3
    assert files == sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*"))
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# CLI totality: the shipped configs on a 128-point grid, with one or two
# values replaced by an extreme.
_SHIPPED = {
    name: (CONFIGS / f"{name}.cfg").read_text().replace("n = 1024", "n = 128")
    for name in ("reference", "raw_gaussian", "projected_gaussian")
}
_EXTREMES = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300")


def _mutated(name, edits):
    """The shipped config with the value of its value line k replaced, per (k, value)."""
    lines = _SHIPPED[name].splitlines()
    keyed = [i for i, line in enumerate(lines) if "=" in line and not line.startswith("#")]
    for k, value in edits:
        i = keyed[k % len(keyed)]
        lines[i] = f"{lines[i].split('=')[0].strip()} = {value}"
    return "\n".join(lines) + "\n"


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(_SHIPPED)),
    command=st.sampled_from(["certify", "solve", "sequence", "verify"]),
    edits=st.lists(
        st.tuples(st.integers(0, 40), st.sampled_from(_EXTREMES)), min_size=1, max_size=2
    ),
)
def test_every_mutated_config_ends_in_a_documented_exit(name, command, edits):
    # In process, where numpy's floating-point warnings raise: a warning
    # would have been a further stderr line.
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(_mutated(name, edits))
        result = Runner().invoke(main, [command, str(cfg), "-o", str(Path(tmp) / "out")])
        left = (Path(tmp) / "out").exists()
    assert result.exit_code in (0, 2, 3, 4, 5, 6)
    assert len(result.stderr.splitlines()) <= 1
    # A config error or a violated consistency check writes nothing.
    assert not (left and result.exit_code in (EXIT_CONFIG, EXIT_INCONSISTENT))


@pytest.mark.parametrize(
    "name, command, key, value, code, line",
    [
        # r^2 / (2 w^2) and the unit-mass factor overflowed (RuntimeWarnings).
        pytest.param(
            "reference", "certify", "width1", "1e-300", EXIT_CONFIG,
            "config error: difference kernel samples overflow; a width is too small to sample",
            id="width1-1e-300",
        ),
        pytest.param(
            "raw_gaussian", "solve", "width", "1e-300", EXIT_CONFIG,
            "config error: gaussian kernel samples overflow; a width is too small to sample",
            id="width-1e-300",
        ),
        # The sampled fields' scale 1/l underflowed, and the contraction
        # sampling divided by a zero norm (ZeroDivisionError, exit 1).  Now
        # lipschitz_estimate fails: the rounding of the sampled quotients
        # exceeds its absolute 1e-12 slack.
        pytest.param("reference", "verify", "l", "1e300", EXIT_CHECK_FAILED, None, id="l-1e300"),
        # estimate_lipschitz floored l at 1e-30 for its gaps but not for u,
        # and divided 0 by 0 (RuntimeWarning).
        pytest.param("reference", "certify", "l", "1e-300", 0, None, id="l-1e-300"),
        # The solve squared fields near 1e300 (RuntimeWarning).
        pytest.param(
            "reference", "solve", "h_amplitude", "1e300", EXIT_CONFIG,
            "config error: offset norm overflows (||h||_2 = inf); h must be square integrable",
            id="h_amplitude-1e300",
        ),
        # ((x - c) / width)^2 overflowed (RuntimeWarning); the bump is 0.3 at x = 0.
        pytest.param("reference", "certify", "h_width", "1e-300", 0, None, id="h_width-1e-300"),
        pytest.param(
            "reference", "sequence", "r_stop", "inf", EXIT_CONFIG,
            "config error: schedule radii and widths must be finite", id="r_stop-inf",
        ),
        pytest.param(
            "reference", "sequence", "cutoff_width", "0", EXIT_CONFIG,
            "config error: cutoff width must be positive", id="cutoff_width-0",
        ),
        pytest.param(
            "reference", "sequence", "cutoff_width", "nan", EXIT_CONFIG,
            "config error: schedule radii and widths must be finite", id="cutoff_width-nan",
        ),
        # The squared mode radii overflowed (RuntimeWarning).
        pytest.param(
            "projected_gaussian", "certify", "L", "1e-300", EXIT_CONFIG,
            "config error: box half-width 1e-300 is too small for n = 128: squared "
            "frequencies overflow",
            id="L-1e-300",
        ),
        pytest.param(
            "projected_gaussian", "certify", "taper_width", "inf", EXIT_CONFIG,
            "config error: taper_width must be finite, got inf", id="taper_width-inf",
        ),
        # The atoms' envelope overflowed its square (RuntimeWarning); it is
        # now 0 off the origin, and the floor envelope still projects.
        pytest.param(
            "projected_gaussian", "certify", "taper_width", "1e300", 0, None,
            id="taper_width-1e300",
        ),
    ],
)
def test_extreme_value_found_by_the_totality_property(
    runner, tmp_path, name, command, key, value, code, line
):
    text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", _SHIPPED[name])
    assert count == 1
    cfg = _write(tmp_path, text)
    result = runner.invoke(main, [command, cfg, "-o", str(tmp_path / "out")])
    assert result.exit_code == code
    assert result.stderr.splitlines() == ([] if line is None else [line])


def _missing_keys(name):
    """The (section, key) pairs of config._SCHEMA that a shipped config leaves out."""
    sections = llap.config.parse_config(_SHIPPED[name]).sections
    return [
        (section, key)
        for section, keys in llap.config._SCHEMA.items()
        for key in keys
        if key not in sections.get(section, {})
    ]


_MISSING = [(name, section, key) for name in sorted(_SHIPPED) for section, key in _missing_keys(name)]


def _inserted(name, section, key, value):
    """The shipped config with key = value first in its section, appended if absent.

    v0_scale comes with v0 = random, the start that reads it.
    """
    line = f"{key} = {value}" + ("\nv0 = random" if key == "v0_scale" else "")
    text = _SHIPPED[name]
    if f"[{section}]\n" in text:
        return text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    return f"{text}\n[{section}]\n{line}\n"


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    missing=st.sampled_from(_MISSING),
    value=st.sampled_from(_EXTREMES),
    command=st.sampled_from(["certify", "solve", "sequence", "verify"]),
)
def test_every_missing_key_at_an_extreme_ends_in_a_documented_exit(missing, value, command):
    # The keys the shipped configs leave to their defaults, which the
    # property above never reaches.
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(_inserted(*missing, value))
        result = Runner().invoke(main, [command, str(cfg), "-o", str(Path(tmp) / "out")])
        left = (Path(tmp) / "out").exists()
    assert result.exit_code in (0, 2, 3, 4, 5, 6)
    assert len(result.stderr.splitlines()) <= 1
    # A config error or a violated consistency check writes nothing.
    assert not (left and result.exit_code in (EXIT_CONFIG, EXIT_INCONSISTENT))


AMPLITUDE_ABOVE_L = "config error: family amplitude {} exceeds the declared Lipschitz constant l = 0.1"
V0_NORM_OVERFLOWS = (
    "config error: starting field norm overflows (||v0||_2 = inf); lower v0_scale"
)


@pytest.mark.parametrize(
    "command, key, value, line",
    [
        # A certificate from l = 0.1 passed (q = 0.27 for amplitude 5, whose
        # true q is 13); solve and sequence then failed the a-priori bound
        # (exit 6) and verify its growth and Lipschitz checks (exit 5).
        *[
            pytest.param(
                command, "amplitude", value, AMPLITUDE_ABOVE_L.format(shown),
                id=f"amplitude-{value}-{command}",
            )
            for value, shown in (("0.2", "0.2"), ("5", "5"), ("1e300", "1e+300"))
            for command in ("certify", "solve", "sequence", "verify")
        ],
        # Draws of 1e308 overflowed to inf (ValueError, exit 1); at 1e300 the
        # norm overflowed and the iteration estimate took the log of nan
        # (math domain error, exit 1).
        pytest.param("solve", "v0_scale", "1e308", V0_NORM_OVERFLOWS, id="v0_scale-1e308"),
        pytest.param("solve", "v0_scale", "1e300", V0_NORM_OVERFLOWS, id="v0_scale-1e300"),
    ],
)
def test_refused_where_it_enters(runner, tmp_path, command, key, value, line):
    section = "solver" if key == "v0_scale" else "nonlinearity"
    cfg = _write(tmp_path, _inserted("reference", section, key, value))
    result = runner.invoke(main, [command, cfg, "-o", str(tmp_path / "out")])
    assert result.exit_code == EXIT_CONFIG
    assert result.stderr.splitlines() == [line]
    assert result.stdout == ""
    assert not (tmp_path / "out").exists()


def test_large_random_start_still_converges(runner, tmp_path):
    text = REFERENCE.replace("seed = 0", "seed = 0\nv0 = random\nv0_scale = 1e150")
    result = runner.invoke(main, ["solve", _write(tmp_path, text), "-o", str(tmp_path / "out")])
    assert result.exit_code == 0
    assert result.stdout.startswith("converged in 17 iterations")


@pytest.mark.parametrize("command", ["certify", "solve", "sequence", "verify", "ft-selftest"])
@pytest.mark.parametrize(
    "below, error",
    [("", "[Errno 17] File exists: '{}'"), ("sub", "[Errno 20] Not a directory: '{}'")],
    ids=["existing-file", "below-a-file"],
)
def test_unusable_out_dir_in_one_line(runner, tmp_path, monkeypatch, command, below, error):
    # FileExistsError and NotADirectoryError from mkdir ended in tracebacks
    # (exit 1), and then came only after the command's whole computation.
    # They are raised before any kernel or self-test is built.
    def never(*args, **kwargs):
        raise AssertionError("computed before the out-dir was checked")

    monkeypatch.setattr(llap.config.RunConfig, "kernel", never)
    monkeypatch.setattr(llap.cli, "ft_selftest", never)
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / below if below else taken
    cfg = _write(tmp_path, _SHIPPED["reference"])
    result = runner.invoke(main, [command, cfg, "-o", str(out)])
    assert result.exit_code == EXIT_CONFIG
    assert result.stderr.splitlines() == ["config error: " + error.format(out)]
    assert result.stdout == ""
    assert taken.read_text() == ""

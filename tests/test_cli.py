import dataclasses
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import llap.checks
import llap.cli
import llap.config
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
from test_config import REFERENCE

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

RAW_GAUSSIAN = REFERENCE.replace(
    "family = difference\nwidth1 = 1.0\nwidth2 = 2.0\namplitude = 1.0",
    "family = gaussian\nwidth = 1.0\namplitude = 1.0",
)


@pytest.fixture()
def runner():
    return CliRunner()


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

    def test_one_diagnostics_pass_per_kernel(self, runner, tmp_path, monkeypatch):
        # Six members plus the limit: each kernel's one pass serves its
        # certificate, its sequence row and its lemma row.
        calls = []
        real = llap.kernels.inverse_symbol_gain

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if (name == "llap" or name.startswith("llap.")) and getattr(
                mod, "inverse_symbol_gain", None
            ) is real:
                monkeypatch.setattr(mod, "inverse_symbol_gain", counted)
        result = runner.invoke(main, ["sequence", str(CONFIGS / "reference.cfg"),
                                      "-o", str(tmp_path / "out")])
        assert result.exit_code == 0
        assert len(calls) == 7

    def test_consistency_failure_exit_code(self, runner, tmp_path, monkeypatch):
        def violated(*args, **kwargs):
            raise ConsistencyError("member 2 violates the convergence bound")

        monkeypatch.setattr(llap.cli, "run_sequence", violated)
        cfg = _write(tmp_path, REFERENCE)
        result = runner.invoke(main, ["sequence", cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == EXIT_INCONSISTENT
        assert isinstance(result.exception, SystemExit)
        assert "internal consistency check failed: member 2" in result.output

    def test_member_failure_exit_code(self, runner, tmp_path):
        cfg = _write(tmp_path, REFERENCE.replace("l = 0.1", "l = 1.0"))
        result = runner.invoke(main, ["sequence", cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == EXIT_CERTIFICATE


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
        calls = []
        real = llap.kernels.inverse_symbol_gain

        def counted(*args, **kwargs):
            calls.append(args[1].eta)
            return real(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if (name == "llap" or name.startswith("llap.")) and getattr(
                mod, "inverse_symbol_gain", None
            ) is real:
                monkeypatch.setattr(mod, "inverse_symbol_gain", counted)
        result = runner.invoke(main, ["verify", str(CONFIGS / "projected_gaussian.cfg"),
                                      "-o", str(tmp_path / "out")])
        assert "na_dichotomy" in result.output
        assert calls == [0.05, 0.025, 0.0125]

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

    def test_consistency_failure_exit_code(self, runner, tmp_path):
        # The kernel's spectrum overflows, so the map's spectrum goes non-finite.
        cfg = _write(tmp_path, REFERENCE.replace("amplitude = 1.0", "amplitude = 1e307"))
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
    def test_estimate_arithmetic(self):
        # d=3, n=512: a real field is 2^30 bytes, a half spectrum
        # 16 * 512^2 * 257 bytes; seven of each.
        assert llap.solver._peak_bytes(3, 512) == 7 * 2**30 + 7 * 16 * 512**2 * 257
        assert llap.solver._peak_bytes(3, 512) == 15_061_745_664
        assert llap.solver._peak_bytes(1, 1024) == 7 * 8 * 1024 + 7 * 16 * 513

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
        llap.norms(report.final)  # as the solve summary does

    @pytest.mark.parametrize("d,n", [(2, 256), (3, 48)])
    def test_estimate_bounds_a_traced_run(self, d, n):
        # A small run first imports every module, so that only arrays are
        # traced; the box sizes are used by no other test, so the grid's
        # caches start empty.  The estimate must bound both traces without
        # being loose.
        self._certify_and_solve(d, 32, 10.0)
        peaks = []
        for run in (
            lambda: self._certify_and_solve(d, n, 13.0),
            lambda: llap.checks.ft_selftest(llap.make_grid(d, 14.0, n)),
        ):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        estimate = llap.solver._peak_bytes(d, n)
        assert 0.8 * estimate <= max(peaks) <= estimate

    def test_available_memory_is_read(self):
        available = llap.cli._available_bytes()
        assert available is None or available > 0

    @pytest.mark.parametrize("command", ["certify", "solve", "sequence", "verify", "ft-selftest"])
    def test_refused_before_allocating(self, runner, tmp_path, monkeypatch, command):
        def never(*args, **kwargs):
            raise AssertionError("arrays allocated for a problem that cannot fit")

        monkeypatch.setattr(llap.cli, "_available_bytes", lambda: 2**30)
        monkeypatch.setattr(llap.config.RunConfig, "kernel", never)
        monkeypatch.setattr(llap.cli, "ft_selftest", never)
        big = REFERENCE.replace("d = 1", "d = 3").replace("n = 1024", "n = 512")
        cfg = _write(tmp_path, big)
        result = runner.invoke(main, [command, cfg, "-o", str(tmp_path / "out")])
        assert result.exit_code == EXIT_CONFIG
        assert result.output.strip().splitlines() == [
            "memory preflight: d=3, n=512 needs an estimated 14.0 GiB of arrays, "
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


def test_reference_run_is_deterministic(runner, tmp_path):
    # Two runs of every command on the shipped reference config give
    # byte-identical out-dirs, the binary field dump included.
    cfg = str(CONFIGS / "reference.cfg")
    for out in ("a", "b"):
        for command in ("certify", "solve", "sequence", "verify"):
            result = runner.invoke(main, [command, cfg, "-o", str(tmp_path / out)])
            assert result.exit_code == 0, result.output
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*"))
    assert Path("field.llap") in files
    assert files == sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*"))
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

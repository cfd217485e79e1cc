"""Command-line front end.

One command per process, driving the run described by a config file (see
``llap.config`` for the format).  Exit codes: 0 success, 2 usage or config
problem (including a grid whose estimated arrays exceed the available memory,
and an out-dir that cannot be made), 3 certificate failure, 4 non-convergence,
5 failed property checks (the ``verify`` suite, the transform self-tests, or
the kernel-level limit checks of ``sequence``), 6 internal consistency check
failed (a bound the theory makes unconditional was violated, or a spectral
intermediate went non-finite); every failure prints a one-line message, never
a traceback.  The commands raise, and ``_Main.__call__`` alone maps each
failure type to its exit code.

All output files are written atomically (temp file + rename) with LF line
endings and 17 significant digits, so identical configs and seeds produce
byte-identical tables.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from . import fieldio
from .checks import CheckResult, ft_selftest, run_property_suite
from .config import RunConfig, load_config
from .grid import make_grid
from .kernels import make_sequence
from .sequence import LemmaRow, MemberCertificateError, SequenceRow, run_sequence
from .solver import (
    ConsistencyError,
    ContractionCertificate,
    _peak_bytes,
    certify as compute_certificate,
    picard_solve,
)

EXIT_CONFIG = 2
EXIT_CERTIFICATE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_CHECK_FAILED = 5
EXIT_INCONSISTENT = 6


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _fail(code: int, what: str, e: Exception):
    print(f"{what}: {e}", file=sys.stderr)
    sys.exit(code)


def _available_bytes() -> int | None:
    """MemAvailable, capped by this process's cgroup v2 memory.max when set.

    Both are only read.  None when /proc/meminfo cannot be read.
    """
    try:
        meminfo = Path("/proc/meminfo").read_text()
        available = next(
            int(line.split()[1]) * 1024
            for line in meminfo.splitlines()
            if line.startswith("MemAvailable:")
        )
    except (OSError, ValueError, StopIteration):
        return None
    try:
        groups = Path("/proc/self/cgroup").read_text().splitlines()
        path = next(line[3:] for line in groups if line.startswith("0::"))
        limit = (Path("/sys/fs/cgroup") / path.lstrip("/") / "memory.max").read_text().strip()
        if limit != "max":
            available = min(available, int(limit))
    except (OSError, ValueError, StopIteration):
        pass
    return available


def _preflight(cfg: RunConfig | None, grid, command: str) -> None:
    """Refuse, with exit 2, a problem whose arrays cannot fit in memory.

    cfg supplies the member count and the projection flag; None stands for
    a command that builds no kernel.
    """
    members = cfg.schedule().members if command == "sequence" else 0
    project = cfg is not None and bool(cfg.get("kernel", "project", False))
    need = _peak_bytes(grid.d, grid.n, command, members, project)
    available = _available_bytes()
    if available is not None and need > available:
        print(
            f"memory preflight: d={grid.d}, n={grid.n} needs an estimated "
            f"{need / 2**30:.1f} GiB of arrays, more than the {available / 2**30:.1f} GiB available",
            file=sys.stderr,
        )
        sys.exit(EXIT_CONFIG)


def _build_run(cfg: RunConfig, command: str):
    grid = cfg.grid()
    _preflight(cfg, grid, command)
    spec = cfg.symbol_spec(grid)
    return grid, spec, cfg.kernel(grid, spec), cfg.nonlinearity(grid)


def _outdir(out_dir: str) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _refuse_unusable_outdir(out_dir: str) -> None:
    """Raise now, creating nothing, the error _outdir would raise for a non-directory
    at out_dir (errno 17) or at its nearest existing ancestor (errno 20)."""
    path = Path(out_dir)
    if not next((p for p in (path, *path.parents) if p.exists()), path).is_dir():
        path.mkdir()  # the mkdir _outdir tries first; here it fails and creates nothing


def _certificate_text(cert: ContractionCertificate) -> str:
    lines = ["[certificate]"]
    lines += [f"{f.name} = {_fmt(getattr(cert, f.name))}" for f in dataclasses.fields(cert)]
    return "\n".join(lines) + "\n"


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    fieldio.atomic_write_text(path, "\n".join(lines) + "\n")


def _write_rows(path: Path, row_type: type, rows) -> None:
    """A table of dataclass rows, one column per field in field order."""
    header = [f.name for f in dataclasses.fields(row_type)]
    _write_csv(path, header, [dataclasses.astuple(row) for row in rows])


@dataclasses.dataclass
class _Command:
    """A subcommand: its name and the callback that runs it on (config, out_dir)."""

    name: str
    callback: Callable[[str | None, str], None]
    config_required: bool = True


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # One line, as for every other failure; argparse would print the
        # usage block first.
        print(f"usage error: {message}", file=sys.stderr)
        sys.exit(EXIT_CONFIG)


class _Main:
    """The ``llap`` entry point: parse the arguments, run one command.

    ``commands`` maps each name to its ``_Command``, and a run calls the
    command's callback through that record, so a rebound callback is the one
    that runs.
    """

    def __init__(self):
        self.commands: dict[str, _Command] = {}

    def command(self, name: str, config_required: bool = True):
        def register(fn) -> _Command:
            self.commands[name] = _Command(name, fn, config_required)
            return self.commands[name]

        return register

    def __call__(self, args=None, prog_name: str = "llap", standalone_mode: bool = True) -> None:
        """Run the command that args (default: sys.argv[1:]) name.

        Returns on success and raises SystemExit with the command's exit code
        otherwise; a usage error exits 2.  standalone_mode is accepted for
        callers of click's calling convention and changes nothing.
        """
        parser = _Parser(
            prog=prog_name, description="Spectral fixed-point solver with solvability certificates."
        )
        commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
        for cmd in self.commands.values():
            doc = cmd.callback.__doc__
            sub = commands.add_parser(cmd.name, help=doc, description=doc)
            sub.add_argument("config", metavar="CONFIG", nargs=None if cmd.config_required else "?")
            sub.add_argument(
                "--out-dir", "-o", default="llap_out", help="report directory (default: llap_out)"
            )
        ns = parser.parse_args(args)
        try:
            _refuse_unusable_outdir(ns.out_dir)
            self.commands[ns.command].callback(ns.config, ns.out_dir)
        except MemberCertificateError as e:
            where = "the limit kernel" if e.member is None else f"member {e.member}"
            _fail(EXIT_CERTIFICATE, f"certificate failure at {where}", e)
        except ConsistencyError as e:
            _fail(EXIT_INCONSISTENT, "internal consistency check failed", e)
        except (ValueError, OSError) as e:  # ConfigError is a ValueError
            _fail(EXIT_CONFIG, "config error", e)


main = _Main()


@main.command("certify")
def certify(config: str, out_dir: str):
    """Compute the contraction certificate; exit 0 only if it passes."""
    cfg = load_config(config)
    grid, spec, kernel, nonlin = _build_run(cfg, "certify")
    cert = compute_certificate(kernel, nonlin, spec, cfg.eps_user, seed=cfg.seed)
    out = _outdir(out_dir)
    fieldio.atomic_write_text(out / "certificate.txt", _certificate_text(cert))
    print(
        f"q = {cert.q:.6g}, orthogonality residual = {cert.orth_residual:.3e}, "
        f"divergence indicator = {cert.divergence_indicator:.3e}: "
        + ("PASS" if cert.passed else "FAIL")
    )
    print(f"wrote {out / 'certificate.txt'}")
    if not cert.passed:
        sys.exit(EXIT_CERTIFICATE)


@main.command("solve")
def solve(config: str, out_dir: str):
    """Run the Picard iteration to its fixed point and write the report."""
    cfg = load_config(config)
    grid, spec, kernel, nonlin = _build_run(cfg, "solve")
    v0 = cfg.starting_field(grid)
    cert = compute_certificate(kernel, nonlin, spec, cfg.eps_user, seed=cfg.seed)
    out = _outdir(out_dir)
    fieldio.atomic_write_text(out / "certificate.txt", _certificate_text(cert))
    if not cert.passed:
        print(
            f"certificate failed (q = {cert.q:.6g}, residual = {cert.orth_residual:.3e}); "
            "solve refused",
            file=sys.stderr,
        )
        sys.exit(EXIT_CERTIFICATE)
    report = picard_solve(
        kernel, nonlin, spec, v0=v0, tol=cfg.tol, max_iter=cfg.max_iter, certificate=cert
    )
    rows = []
    for k in range(report.iterations):
        ratio = report.contraction_ratios[k - 1] if k >= 1 else ""
        rows.append([k + 1, report.update_norms[k], ratio, report.apriori_bounds[k + 1]])
    _write_csv(out / "iterations.csv", ["k", "update_norm", "ratio", "apriori_bound"], rows)
    summary = [
        "[solve]",
        f"converged = {_fmt(report.converged)}",
        f"iterations = {report.iterations}",
        f"predicted_iterations = {report.predicted_iterations}",
        f"residual = {_fmt(report.residual)}",
        f"masked_rhs_energy = {_fmt(report.masked_rhs_energy)}",
        f"solution_l2 = {_fmt(report.final.l2_norm())}",
        "",
        _certificate_text(report.certificate),
    ]
    fieldio.atomic_write_text(out / "solve_summary.txt", "\n".join(summary))
    if cfg.get("solver", "dump_field", False):
        fieldio.dump_field(report.final, out / "field.llap")
    print(
        f"{'converged' if report.converged else 'NOT converged'} in {report.iterations} "
        f"iterations, residual {report.residual:.3e}"
    )
    print(f"wrote {out / 'solve_summary.txt'}, {out / 'iterations.csv'}")
    if not report.converged:
        sys.exit(EXIT_NO_CONVERGENCE)


@main.command("sequence")
def sequence(config: str, out_dir: str):
    """Solve along a convergent kernel sequence and verify the limit claims."""
    cfg = load_config(config)
    grid, spec, kernel, nonlin = _build_run(cfg, "sequence")
    seq = make_sequence(kernel, cfg.schedule(), spec, taper_width=cfg.taper_width)
    study = run_sequence(seq, nonlin, spec, eps=cfg.eps_user, tol=cfg.tol, max_iter=cfg.max_iter)
    table = study.lemma
    out = _outdir(out_dir)
    _write_rows(out / "sequence_rows.csv", SequenceRow, study.rows)
    _write_rows(out / "lemma_checks.csv", LemmaRow, table.rows)
    summary = [
        "[sequence]",
        f"members = {len(study.rows)}",
        f"rhs_scale = {_fmt(study.rhs_scale)}",
        f"limit_gain = {_fmt(table.limit_gain)}",
        f"limit_iterations = {study.limit_report.iterations}",
        f"all_bounds_ok = {_fmt(all(r.bound_ok for r in study.rows))}",
        f"ratio_vanishes = {_fmt(table.ratio_vanishes)}",
        f"gains_converge = {_fmt(table.gains_converge)}",
        f"members_admissible = {_fmt(table.members_admissible)}",
        f"certificate_persists = {_fmt(table.certificate_persists)}",
        f"lemma_passed = {_fmt(table.passed)}",
    ]
    fieldio.atomic_write_text(out / "sequence_summary.txt", "\n".join(summary) + "\n")
    print(
        f"{len(study.rows)} members, final solution distance {study.rows[-1].sol_dist:.3e}, "
        f"limit checks {'PASS' if table.passed else 'FAIL'}"
    )
    print(f"wrote {out / 'sequence_rows.csv'}, {out / 'lemma_checks.csv'}")
    if not table.passed:
        sys.exit(EXIT_CHECK_FAILED)


def _report_checks(results: list[CheckResult], out: Path, name: str) -> bool:
    _write_csv(
        out / name,
        ["check", "passed", "value", "detail"],
        [[r.name, r.passed, r.value, r.detail.replace(",", ";")] for r in results],
    )
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name} (value = {r.value:.6g})")
    return all(r.passed for r in results)


@main.command("verify")
def verify(config: str, out_dir: str):
    """Run the full property suite for the configured problem."""
    cfg = load_config(config)
    grid, spec, kernel, nonlin = _build_run(cfg, "verify")
    # An overflow ends in ConsistencyError or a failed check; numpy's
    # floating-point warnings would only repeat it on stderr.
    with np.errstate(all="ignore"):
        results = run_property_suite(kernel, nonlin, spec, cfg.seed, cfg.tau)
    ok = _report_checks(results, _outdir(out_dir), "verify_report.csv")
    if not ok:
        sys.exit(EXIT_CHECK_FAILED)


@main.command("ft-selftest", config_required=False)
def ft_selftest_cmd(config: str | None, out_dir: str):
    """Transform self-tests on the configured grid (default d=1, L=20, n=1024)."""
    if config is not None:
        cfg = load_config(config)
        grid, seed = cfg.grid(), cfg.seed
        _preflight(None, grid, "ft-selftest")
    else:
        grid = make_grid(1, 20.0, 1024)
        seed = 0
    ok = _report_checks(ft_selftest(grid, seed), _outdir(out_dir), "ft_selftest.csv")
    if not ok:
        sys.exit(EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()

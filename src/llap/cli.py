"""Command-line front end.

One command per process, driving the run described by a config file (see
``llap.config`` for the format).  Exit codes: 0 success, 2 usage or config
problem (including a grid or an allocation too large for the available memory,
and an out-dir that cannot be made), 3 certificate failure, 4 non-convergence
(of ``solve``, or of any solve of ``sequence``, where it outranks 5 and 6),
5 failed property checks (the ``verify`` suite, the transform self-tests, or
the kernel-level limit checks of ``sequence``), 6 internal consistency check
failed (a bound the theory makes unconditional was violated, or a spectral
intermediate went non-finite); every failure prints a one-line message, never
a traceback.  A command returns an ``_Outcome`` or raises; ``_Main.__call__``
alone maps each failure type to its exit code, makes the out-dir, writes,
prints and exits, so a command that raises leaves no out-dir.

All output files are written atomically (temp file + rename) with LF line
endings and 17 significant digits, so identical configs and seeds produce
byte-identical tables.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import fieldio
from .checks import CheckResult, ft_selftest, run_property_suite
from .config import RunConfig, load_config
from .grid import RealField, make_grid
from .kernels import make_sequence
from .sequence import LemmaRow, MemberCertificateError, SequenceRow, run_sequence
from .solver import (
    ConsistencyError,
    _peak_bytes,
    certify as compute_certificate,
    picard_solve,
)

EXIT_CONFIG = 2
EXIT_CERTIFICATE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_CHECK_FAILED = 5
EXIT_INCONSISTENT = 6


class _Outcome(NamedTuple):
    """What a command leaves: each file's name, in write order, mapped to its
    text or to the field to dump; the stdout and stderr lines; the exit code."""

    files: dict[str, str | RealField]
    stdout: list[str]
    stderr: list[str]
    code: int


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


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
    """Raise MemoryError (exit 2) for a problem whose arrays cannot fit in memory.

    cfg supplies the member count and the projection flag; None stands for
    a command that builds no kernel.
    """
    members = cfg.schedule().members if command == "sequence" else 0
    project = cfg is not None and bool(cfg.get("kernel", "project", False))
    need = _peak_bytes(grid.d, grid.n, command, members, project)
    available = _available_bytes()
    if available is not None and need > available:
        raise MemoryError(
            f"memory preflight: d={grid.d}, n={grid.n} needs an estimated "
            f"{need / 2**30:.1f} GiB of arrays, more than the {available / 2**30:.1f} GiB available"
        )


def _build_run(cfg: RunConfig, command: str):
    grid = cfg.grid()
    _preflight(cfg, grid, command)
    spec = cfg.symbol_spec(grid)
    return grid, spec, cfg.kernel(grid, spec), cfg.nonlinearity(grid)


def _refuse_unusable_outdir(out_dir: str) -> None:
    """Raise now, creating nothing, the error the out-dir's mkdir would raise for a
    non-directory at out_dir (errno 17) or at its nearest existing ancestor (errno 20)."""
    path = Path(out_dir)
    if not next((p for p in (path, *path.parents) if p.exists()), path).is_dir():
        path.mkdir()  # the first mkdir of parents=True; here it fails and creates nothing


def _section(title: str, values: dict) -> str:
    """A ``[title]`` block of ``key = value`` lines."""
    return "\n".join([f"[{title}]", *(f"{k} = {_fmt(v)}" for k, v in values.items())]) + "\n"


def _csv(header: list[str], rows: list) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def _rows(row_type: type, rows) -> str:
    """A table of dataclass rows, one column per field in field order."""
    header = [f.name for f in dataclasses.fields(row_type)]
    return _csv(header, [dataclasses.astuple(row) for row in rows])


@dataclasses.dataclass
class _Command:
    """A subcommand: its name and the callback that runs it on (config, out_dir)."""

    name: str
    callback: Callable[[str | None, str], _Outcome]
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
            outcome = self.commands[ns.command].callback(ns.config, ns.out_dir)
            out = Path(ns.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            for name, content in outcome.files.items():
                if isinstance(content, RealField):
                    fieldio.dump_field(content, out / name)
                else:
                    fieldio.atomic_write_text(out / name, content)
        except MemberCertificateError as e:
            where = "the limit kernel" if e.member is None else f"member {e.member}"
            outcome = _Outcome({}, [], [f"certificate failure at {where}: {e}"], EXIT_CERTIFICATE)
        except ConsistencyError as e:
            outcome = _Outcome({}, [], [f"internal consistency check failed: {e}"], EXIT_INCONSISTENT)
        except MemoryError as e:
            outcome = _Outcome({}, [], [str(e)], EXIT_CONFIG)
        except (ValueError, OSError) as e:  # ConfigError is a ValueError
            outcome = _Outcome({}, [], [f"config error: {e}"], EXIT_CONFIG)
        for line in outcome.stdout:
            print(line)
        for line in outcome.stderr:
            print(line, file=sys.stderr)
        if outcome.code:
            sys.exit(outcome.code)


main = _Main()


@main.command("certify")
def certify(config: str, out_dir: str) -> _Outcome:
    """Compute the contraction certificate; exit 0 only if it passes."""
    cfg = load_config(config)
    grid, spec, kernel, nonlin = _build_run(cfg, "certify")
    cert = compute_certificate(kernel, nonlin, spec, cfg.eps_user, seed=cfg.seed)
    stdout = [
        f"q = {cert.q:.6g}, orthogonality residual = {cert.orth_residual:.3e}, "
        f"divergence indicator = {cert.divergence_indicator:.3e}: "
        + ("PASS" if cert.passed else "FAIL"),
        f"wrote {Path(out_dir) / 'certificate.txt'}",
    ]
    files = {"certificate.txt": _section("certificate", dataclasses.asdict(cert))}
    return _Outcome(files, stdout, [], 0 if cert.passed else EXIT_CERTIFICATE)


@main.command("solve")
def solve(config: str, out_dir: str) -> _Outcome:
    """Run the Picard iteration to its fixed point and write the report."""
    cfg = load_config(config)
    grid, spec, kernel, nonlin = _build_run(cfg, "solve")
    v0 = cfg.starting_field(grid)
    cert = compute_certificate(kernel, nonlin, spec, cfg.eps_user, seed=cfg.seed)
    certificate = _section("certificate", dataclasses.asdict(cert))
    if not cert.passed:
        refused = (
            f"certificate failed (q = {cert.q:.6g}, residual = {cert.orth_residual:.3e}); "
            "solve refused"
        )
        return _Outcome({"certificate.txt": certificate}, [], [refused], EXIT_CERTIFICATE)
    report = picard_solve(
        kernel, nonlin, spec, v0=v0, tol=cfg.tol, max_iter=cfg.max_iter, certificate=cert
    )
    rows = []
    for k in range(report.iterations):
        ratio = report.contraction_ratios[k - 1] if k >= 1 else ""
        rows.append([k + 1, report.update_norms[k], ratio, report.apriori_bounds[k + 1]])
    summary = {
        "converged": report.converged,
        "iterations": report.iterations,
        "predicted_iterations": report.predicted_iterations,
        "residual": report.residual,
        "masked_rhs_energy": report.masked_rhs_energy,
        "solution_l2": report.final.l2_norm(),
    }
    files = {
        "certificate.txt": certificate,
        "iterations.csv": _csv(["k", "update_norm", "ratio", "apriori_bound"], rows),
        "solve_summary.txt": _section("solve", summary) + "\n" + certificate,
    }
    if cfg.get("solver", "dump_field", False):
        files["field.llap"] = report.final
    out = Path(out_dir)
    stdout = [
        f"{'converged' if report.converged else 'NOT converged'} in {report.iterations} "
        f"iterations, residual {report.residual:.3e}",
        f"wrote {out / 'solve_summary.txt'}, {out / 'iterations.csv'}",
    ]
    return _Outcome(files, stdout, [], 0 if report.converged else EXIT_NO_CONVERGENCE)


@main.command("sequence")
def sequence(config: str, out_dir: str) -> _Outcome:
    """Solve along a convergent kernel sequence and verify the limit claims."""
    cfg = load_config(config)
    grid, spec, kernel, nonlin = _build_run(cfg, "sequence")
    seq = make_sequence(kernel, cfg.schedule(), spec, taper_width=cfg.taper_width)
    study = run_sequence(seq, nonlin, spec, eps=cfg.eps_user, tol=cfg.tol, max_iter=cfg.max_iter)
    table = study.lemma
    summary = {
        "members": len(study.rows),
        "rhs_scale": study.rhs_scale,
        "limit_gain": table.limit_gain,
        "limit_iterations": study.limit_report.iterations,
        "all_bounds_ok": all(r.bound_ok for r in study.rows),
        "ratio_vanishes": table.ratio_vanishes,
        "gains_converge": table.gains_converge,
        "members_admissible": table.members_admissible,
        "certificate_persists": table.certificate_persists,
        "lemma_passed": table.passed,
    }
    files = {
        "sequence_rows.csv": _rows(SequenceRow, study.rows),
        "lemma_checks.csv": _rows(LemmaRow, table.rows),
        "sequence_summary.txt": _section("sequence", summary),
    }
    out = Path(out_dir)
    stdout = [
        f"{len(study.rows)} members, final solution distance {study.rows[-1].sol_dist:.3e}, "
        f"limit checks {'PASS' if table.passed else 'FAIL'}",
        f"wrote {out / 'sequence_rows.csv'}, {out / 'lemma_checks.csv'}",
    ]
    if not study.converged:
        stdout.insert(0, f"NOT converged: a solve reached max_iter = {cfg.max_iter}")
        return _Outcome(files, stdout, [], EXIT_NO_CONVERGENCE)
    return _Outcome(files, stdout, [], 0 if table.passed else EXIT_CHECK_FAILED)


def _checks_outcome(results: list[CheckResult], name: str) -> _Outcome:
    table = _csv(
        ["check", "passed", "value", "detail"],
        [[r.name, r.passed, r.value, r.detail.replace(",", ";")] for r in results],
    )
    stdout = [f"{'PASS' if r.passed else 'FAIL'}  {r.name} (value = {r.value:.6g})" for r in results]
    code = 0 if all(r.passed for r in results) else EXIT_CHECK_FAILED
    return _Outcome({name: table}, stdout, [], code)


@main.command("verify")
def verify(config: str, out_dir: str) -> _Outcome:
    """Run the full property suite for the configured problem."""
    cfg = load_config(config)
    grid, spec, kernel, nonlin = _build_run(cfg, "verify")
    # An overflow ends in ConsistencyError or a failed check; numpy's
    # floating-point warnings would only repeat it on stderr.
    with np.errstate(all="ignore"):
        results = run_property_suite(kernel, nonlin, spec, cfg.seed, cfg.tau)
    return _checks_outcome(results, "verify_report.csv")


@main.command("ft-selftest", config_required=False)
def ft_selftest_cmd(config: str | None, out_dir: str) -> _Outcome:
    """Transform self-tests on the configured grid (default d=1, L=20, n=1024)."""
    if config is not None:
        cfg = load_config(config)
        grid, seed = cfg.grid(), cfg.seed
        _preflight(None, grid, "ft-selftest")
    else:
        grid = make_grid(1, 20.0, 1024)
        seed = 0
    return _checks_outcome(ft_selftest(grid, seed), "ft_selftest.csv")


if __name__ == "__main__":
    main()

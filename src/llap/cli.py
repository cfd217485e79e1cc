"""Command-line front end.

One command per process, driving the run described by a config file (see
``llap.config`` for the format).  Exit codes: 0 success, 2 config problem
(including a grid whose estimated arrays exceed the available memory),
3 certificate failure, 4 non-convergence, 5 failed property checks (the
``verify`` suite, the transform self-tests, or the kernel-level limit checks
of ``sequence``), 6 internal consistency check failed (a bound the theory
makes unconditional was violated, or a spectral intermediate went
non-finite); every failure prints a one-line message, never a traceback.

All output files are written atomically (temp file + rename) with LF line
endings and 17 significant digits, so identical configs and seeds produce
byte-identical tables.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import click
import numpy as np

from . import fieldio
from .checks import CheckResult, ft_selftest, run_property_suite
from .config import ConfigError, RunConfig, load_config
from .grid import make_grid, norms
from .kernels import make_sequence
from .sequence import MemberCertificateError, run_sequence
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
    click.echo(f"{what}: {e}", err=True)
    sys.exit(code)


def _load(config_path: str) -> RunConfig:
    try:
        return load_config(config_path)
    except (ConfigError, ValueError, OSError) as e:
        _fail(EXIT_CONFIG, "config error", e)


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


def _preflight(grid) -> None:
    """Refuse, with exit 2, a problem whose arrays cannot fit in memory."""
    need = _peak_bytes(grid.d, grid.n)
    available = _available_bytes()
    if available is not None and need > available:
        click.echo(
            f"memory preflight: d={grid.d}, n={grid.n} needs an estimated "
            f"{need / 2**30:.1f} GiB of arrays, more than the {available / 2**30:.1f} GiB available",
            err=True,
        )
        sys.exit(EXIT_CONFIG)


def _build_run(cfg: RunConfig):
    try:
        grid = cfg.grid()
    except (ConfigError, ValueError, OSError) as e:
        _fail(EXIT_CONFIG, "config error", e)
    _preflight(grid)
    try:
        spec = cfg.symbol_spec(grid)
        kernel = cfg.kernel(grid, spec)
        nonlin = cfg.nonlinearity(grid)
    except (ConfigError, ValueError, OSError) as e:
        _fail(EXIT_CONFIG, "config error", e)
    return grid, spec, kernel, nonlin


def _outdir(out_dir: str) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _certificate_text(cert: ContractionCertificate) -> str:
    lines = ["[certificate]"]
    lines += [f"{f.name} = {_fmt(getattr(cert, f.name))}" for f in dataclasses.fields(cert)]
    return "\n".join(lines) + "\n"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    fieldio.atomic_write_text(path, "\n".join(lines) + "\n")


@click.group()
def main():
    """Spectral fixed-point solver with solvability certificates."""


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", "-o", default="llap_out", show_default=True, help="Report directory")
def certify(config: str, out_dir: str):
    """Compute the contraction certificate; exit 0 only if it passes."""
    cfg = _load(config)
    grid, spec, kernel, nonlin = _build_run(cfg)
    cert = compute_certificate(kernel, nonlin, spec, cfg.eps_user, seed=cfg.seed)
    out = _outdir(out_dir)
    fieldio.atomic_write_text(out / "certificate.txt", _certificate_text(cert))
    click.echo(
        f"q = {cert.q:.6g}, orthogonality residual = {cert.orth_residual:.3e}, "
        f"divergence indicator = {cert.divergence_indicator:.3e}: "
        + ("PASS" if cert.passed else "FAIL")
    )
    click.echo(f"wrote {out / 'certificate.txt'}")
    if not cert.passed:
        sys.exit(EXIT_CERTIFICATE)


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", "-o", default="llap_out", show_default=True, help="Report directory")
def solve(config: str, out_dir: str):
    """Run the Picard iteration to its fixed point and write the report."""
    cfg = _load(config)
    grid, spec, kernel, nonlin = _build_run(cfg)
    cert = compute_certificate(kernel, nonlin, spec, cfg.eps_user, seed=cfg.seed)
    out = _outdir(out_dir)
    fieldio.atomic_write_text(out / "certificate.txt", _certificate_text(cert))
    if not cert.passed:
        click.echo(
            f"certificate failed (q = {cert.q:.6g}, residual = {cert.orth_residual:.3e}); "
            "solve refused",
            err=True,
        )
        sys.exit(EXIT_CERTIFICATE)
    try:
        v0 = cfg.starting_field(grid)
    except ConfigError as e:
        _fail(EXIT_CONFIG, "config error", e)
    try:
        report = picard_solve(
            kernel, nonlin, spec, v0=v0, tol=cfg.tol, max_iter=cfg.max_iter, certificate=cert
        )
    except ConsistencyError as e:
        _fail(EXIT_INCONSISTENT, "internal consistency check failed", e)
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
        f"solution_l2 = {_fmt(norms(report.final).l2)}",
        "",
        _certificate_text(report.certificate),
    ]
    fieldio.atomic_write_text(out / "solve_summary.txt", "\n".join(summary))
    if cfg.get("solver", "dump_field", False):
        fieldio.dump_field(report.final, out / "field.llap")
    click.echo(
        f"{'converged' if report.converged else 'NOT converged'} in {report.iterations} "
        f"iterations, residual {report.residual:.3e}"
    )
    click.echo(f"wrote {out / 'solve_summary.txt'}, {out / 'iterations.csv'}")
    if not report.converged:
        sys.exit(EXIT_NO_CONVERGENCE)


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", "-o", default="llap_out", show_default=True, help="Report directory")
def sequence(config: str, out_dir: str):
    """Solve along a convergent kernel sequence and verify the limit claims."""
    cfg = _load(config)
    grid, spec, kernel, nonlin = _build_run(cfg)
    try:
        schedule = cfg.schedule()
        seq = make_sequence(kernel, schedule, spec, taper_width=cfg.taper_width)
    except (ConfigError, ValueError) as e:
        _fail(EXIT_CONFIG, "config error", e)
    try:
        study = run_sequence(
            seq, nonlin, spec, eps=cfg.eps_user, tol=cfg.tol, max_iter=cfg.max_iter
        )
    except MemberCertificateError as e:
        click.echo(f"certificate failure at member {e.member}: {e}", err=True)
        sys.exit(EXIT_CERTIFICATE)
    except ConsistencyError as e:
        _fail(EXIT_INCONSISTENT, "internal consistency check failed", e)
    table = study.lemma
    out = _outdir(out_dir)
    _write_csv(
        out / "sequence_rows.csv",
        ["m", "l1_dist", "wl1_dist", "ratio_dist", "gain", "q", "sol_dist", "bound_rhs", "bound_ok"],
        [
            [r.m, r.l1_dist, r.wl1_dist, r.ratio_dist, r.gain, r.q, r.sol_dist, r.bound_rhs, r.bound_ok]
            for r in study.rows
        ],
    )
    _write_csv(
        out / "lemma_checks.csv",
        ["m", "ratio_dist", "gain", "orth_residual", "divergence_indicator", "admissible", "cert_ok"],
        [
            [r.m, r.ratio_dist, r.gain, r.orth_residual, r.divergence_indicator, r.admissible, r.cert_ok]
            for r in table.rows
        ],
    )
    summary = [
        "[sequence]",
        f"members = {len(study.rows)}",
        f"rhs_scale = {_fmt(study.rhs_scale)}",
        f"limit_gain = {_fmt(study.limit_gain)}",
        f"limit_iterations = {study.limit_report.iterations}",
        f"all_bounds_ok = {_fmt(all(r.bound_ok for r in study.rows))}",
        f"ratio_vanishes = {_fmt(table.ratio_vanishes)}",
        f"gains_converge = {_fmt(table.gains_converge)}",
        f"members_admissible = {_fmt(table.members_admissible)}",
        f"certificate_persists = {_fmt(table.certificate_persists)}",
        f"lemma_passed = {_fmt(table.passed)}",
    ]
    fieldio.atomic_write_text(out / "sequence_summary.txt", "\n".join(summary) + "\n")
    click.echo(
        f"{len(study.rows)} members, final solution distance {study.rows[-1].sol_dist:.3e}, "
        f"limit checks {'PASS' if table.passed else 'FAIL'}"
    )
    click.echo(f"wrote {out / 'sequence_rows.csv'}, {out / 'lemma_checks.csv'}")
    if not table.passed:
        sys.exit(EXIT_CHECK_FAILED)


def _report_checks(results: list[CheckResult], out: Path, name: str) -> bool:
    _write_csv(
        out / name,
        ["check", "passed", "value", "detail"],
        [[r.name, r.passed, r.value, r.detail.replace(",", ";")] for r in results],
    )
    for r in results:
        click.echo(f"{'PASS' if r.passed else 'FAIL'}  {r.name} (value = {r.value:.6g})")
    return all(r.passed for r in results)


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", "-o", default="llap_out", show_default=True, help="Report directory")
def verify(config: str, out_dir: str):
    """Run the full property suite for the configured problem."""
    cfg = _load(config)
    try:
        _preflight(cfg.grid())
        # An overflow ends in ConsistencyError or a failed check; numpy's
        # floating-point warnings would only repeat it on stderr.
        with np.errstate(all="ignore"):
            results = run_property_suite(cfg)
    except ConsistencyError as e:
        _fail(EXIT_INCONSISTENT, "internal consistency check failed", e)
    except (ConfigError, ValueError, OSError) as e:
        _fail(EXIT_CONFIG, "config error", e)
    ok = _report_checks(results, _outdir(out_dir), "verify_report.csv")
    if not ok:
        sys.exit(EXIT_CHECK_FAILED)


@main.command("ft-selftest")
@click.argument("config", type=click.Path(exists=True, dir_okay=False), required=False)
@click.option("--out-dir", "-o", default="llap_out", show_default=True, help="Report directory")
def ft_selftest_cmd(config: str | None, out_dir: str):
    """Transform self-tests on the configured grid (default d=1, L=20, n=1024)."""
    if config is not None:
        cfg = _load(config)
        try:
            grid, seed = cfg.grid(), cfg.seed
        except (ConfigError, ValueError) as e:
            _fail(EXIT_CONFIG, "config error", e)
        _preflight(grid)
    else:
        grid = make_grid(1, 20.0, 1024)
        seed = 0
    ok = _report_checks(ft_selftest(grid, seed), _outdir(out_dir), "ft_selftest.csv")
    if not ok:
        sys.exit(EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()

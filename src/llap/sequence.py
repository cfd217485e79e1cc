"""Convergence study: solve along a kernel sequence and check the bounds.

Given kernels G_m -> G in L1 and weighted L1, each member problem is solved
under a uniform certificate (2 pi)^(d/2) gain_m lip <= 1 - eps, and each
solution distance is compared against the explicit bound

    ||u_m - u||_2 <= (2 pi)^(d/2) / eps * ratio_dist(G_m, G) * ||F(u, .)||_2,

where ratio_dist is the sup of |G_m^ - G^| / |ln|p| - shift| over the same
evaluation set as the gains.  At the discrete level the bound is provable,
so every row must come out bound_ok; a failure indicates a bug, not noise.

The kernel-level limit statements form a LemmaTable: the symbol-ratio
distance vanishes along the sequence, the gains converge, the per-member
admissibility (without which the gains diverge as the annulus shrinks), and
persistence of the uniform certificate in the limit.  ``run_sequence`` fills
it from the same diagnostics pass per kernel that its certificates use;
``verify_lemmaA2`` builds it on its own, without solving.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import RealField, SymbolSpec, TWO_PI, norms
from .kernels import ADMISSIBLE_RTOL, Kernel, KernelDiagnostics, KernelSequence, inverse_symbol_gain
from .nonlinearity import Nonlinearity, estimate_lipschitz, eval_F
from .solver import (
    LIP_TRIALS,
    CertificateError,
    ConsistencyError,
    SolveReport,
    _certificate,
    picard_solve,
)

__all__ = [
    "SequenceRow",
    "SequenceStudy",
    "LemmaRow",
    "LemmaTable",
    "MemberCertificateError",
    "run_sequence",
    "verify_lemmaA2",
]


class MemberCertificateError(CertificateError):
    """A member (or the limit) kernel fails the uniform certificate."""

    def __init__(self, message: str, member: int | None):
        super().__init__(message)
        self.member = member


@dataclass(frozen=True)
class SequenceRow:
    m: int
    l1_dist: float
    wl1_dist: float
    ratio_dist: float
    gain: float
    q: float
    sol_dist: float
    bound_rhs: float
    bound_ok: bool


@dataclass(frozen=True)
class SequenceStudy:
    rows: tuple[SequenceRow, ...]
    limit_report: SolveReport
    limit_gain: float
    rhs_scale: float  # ||F(u, .)||_2 of the limit solution
    eps: float
    lemma: LemmaTable  # the kernel-level checks, from the same diagnostics


@dataclass(frozen=True)
class LemmaRow:
    m: int
    ratio_dist: float
    gain: float
    orth_residual: float
    divergence_indicator: float
    admissible: bool
    cert_ok: bool


@dataclass(frozen=True)
class LemmaTable:
    rows: tuple[LemmaRow, ...]
    limit_gain: float
    limit_residual: float
    scale: float
    ratio_vanishes: bool
    gains_converge: bool
    members_admissible: bool
    certificate_persists: bool

    @property
    def passed(self) -> bool:
        return (
            self.ratio_vanishes
            and self.gains_converge
            and self.members_admissible
            and self.certificate_persists
        )


def run_sequence(
    seq: KernelSequence,
    N: Nonlinearity,
    spec: SymbolSpec,
    eps: float,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> SequenceStudy:
    """Solve the limit problem and every member problem; fill both tables.

    Refuses with the offending member index as soon as any certificate
    fails the uniform bound.  The limit problem is solved first because the
    rows reference ||F(u, .)||_2 of its solution.  Each kernel gets one
    diagnostics pass, which serves its certificate, its row and its
    LemmaTable row (the table verify_lemmaA2 returns for N.lip and eps).
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    grid = seq.limit.grid
    lip_sampled = estimate_lipschitz(N, LIP_TRIALS, 0)

    diag_limit = inverse_symbol_gain(seq.limit, spec)
    cert_limit = _certificate(seq.limit, N, spec, eps, diag_limit, lip_sampled)
    if not cert_limit.passed:
        raise MemberCertificateError(
            f"limit kernel fails the uniform certificate (q = {cert_limit.q:.6g}, "
            f"residual = {cert_limit.orth_residual:.3e})",
            member=None,
        )
    limit_report = picard_solve(
        seq.limit, N, spec, tol=tol, max_iter=max_iter, certificate=cert_limit
    )
    rhs_scale = norms(eval_F(N, limit_report.final)).l2
    pref = TWO_PI ** (grid.d / 2.0)

    rows: list[SequenceRow] = []
    lemma_rows: list[LemmaRow] = []
    floor = 10.0 * tol * max(1.0, norms(limit_report.final).l2)
    for i, member in enumerate(seq.members):
        m = i + 1
        diag_m = inverse_symbol_gain(member, spec)
        cert_m = _certificate(member, N, spec, eps, diag_m, lip_sampled)
        if not cert_m.passed:
            raise MemberCertificateError(
                f"member {m} fails the uniform certificate (q = {cert_m.q:.6g}, "
                f"residual = {cert_m.orth_residual:.3e})",
                member=m,
            )
        report_m = picard_solve(member, N, spec, tol=tol, max_iter=max_iter, certificate=cert_m)
        sol_dist = norms(
            RealField(report_m.final.values - limit_report.final.values, grid)
        ).l2
        lemma_rows.append(_lemma_row(m, member, diag_m, diag_limit, N.lip, eps))
        ratio = lemma_rows[-1].ratio_dist
        bound_rhs = pref / eps * ratio * rhs_scale
        l1_dist, wl1_dist = seq.distances[i]
        rows.append(
            SequenceRow(
                m=m,
                l1_dist=l1_dist,
                wl1_dist=wl1_dist,
                ratio_dist=ratio,
                gain=cert_m.gain,
                q=cert_m.q,
                sol_dist=sol_dist,
                bound_rhs=bound_rhs,
                bound_ok=bool(sol_dist <= bound_rhs + 1e-10),
            )
        )

    for row in rows:
        if not row.bound_ok:
            raise ConsistencyError(
                f"member {row.m} violates the convergence bound: "
                f"sol_dist {row.sol_dist:.3e} > bound {row.bound_rhs:.3e}"
            )
    for prev, cur in zip(rows, rows[1:]):
        # Diagnostic, not a theorem claim: distances may wobble once they
        # hit the solver tolerance floor.
        if cur.sol_dist > 1.5 * prev.sol_dist + floor:
            raise ConsistencyError(
                f"solution distances increase from member {prev.m} to {cur.m}: "
                f"{prev.sol_dist:.3e} -> {cur.sol_dist:.3e}"
            )
    return SequenceStudy(
        rows=tuple(rows),
        limit_report=limit_report,
        limit_gain=cert_limit.gain,
        rhs_scale=rhs_scale,
        eps=eps,
        lemma=_lemma_table(seq, diag_limit, lemma_rows, N.lip, eps),
    )


def verify_lemmaA2(seq: KernelSequence, spec: SymbolSpec, lip: float, eps: float) -> LemmaTable:
    """Kernel-level convergence checks along the sequence.

    Verifies that the symbol-ratio distance to the limit vanishes, that the
    gains converge (each gap bounded by the ratio distance exactly), that
    every member satisfies the solvability conditions, and that the uniform
    certificate persists in the limit.  Failures are carried in the table,
    not raised; a member skipped by the projection shows up with a large
    divergence indicator.
    """
    limit = inverse_symbol_gain(seq.limit, spec)
    rows = [
        _lemma_row(m, member, inverse_symbol_gain(member, spec), limit, lip, eps)
        for m, member in enumerate(seq.members, start=1)
    ]
    return _lemma_table(seq, limit, rows, lip, eps)


def _lemma_row(
    m: int,
    member: Kernel,
    diag: KernelDiagnostics,
    limit: KernelDiagnostics,
    lip: float,
    eps: float,
) -> LemmaRow:
    """Member m's LemmaRow from its diagnostics pass and the limit's.

    Callers build each row as soon as the member's pass is made, so the
    member's diagnostics can be dropped before the next pass.
    """
    pref = TWO_PI ** (member.grid.d / 2.0)
    return LemmaRow(
        m=m,
        ratio_dist=diag.ratio_distance(limit),
        gain=diag.gain,
        orth_residual=diag.orth_residual,
        divergence_indicator=diag.divergence_indicator,
        admissible=bool(diag.orth_residual <= ADMISSIBLE_RTOL * max(1.0, member.l1)),
        cert_ok=bool(pref * diag.gain * lip <= 1.0 - eps),
    )


def _lemma_table(
    seq: KernelSequence,
    limit: KernelDiagnostics,
    rows: list[LemmaRow],
    lip: float,
    eps: float,
) -> LemmaTable:
    """The LemmaTable of seq from its member rows and the limit's pass."""
    pref = TWO_PI ** (seq.limit.grid.d / 2.0)
    scale = seq.limit.l1 / pref

    tiny = 1e-14 * max(1.0, scale)
    ratio_vanishes = bool(
        rows
        and rows[-1].ratio_dist <= 1e-6 * scale + tiny
        and all(b.ratio_dist <= 1.5 * a.ratio_dist + tiny for a, b in zip(rows, rows[1:]))
    )
    gains_converge = bool(
        rows
        and all(
            abs(r.gain - limit.gain) <= r.ratio_dist + 1e-12 * max(1.0, limit.gain)
            for r in rows
        )
        and abs(rows[-1].gain - limit.gain) <= 1e-6 * scale + tiny
    )
    members_admissible = all(r.admissible for r in rows)
    certificate_persists = (not all(r.cert_ok for r in rows)) or (
        pref * limit.gain * lip <= 1.0 - eps + 1e-12
    )
    return LemmaTable(
        rows=tuple(rows),
        limit_gain=limit.gain,
        limit_residual=limit.orth_residual,
        scale=scale,
        ratio_vanishes=ratio_vanishes,
        gains_converge=gains_converge,
        members_admissible=members_admissible,
        certificate_persists=certificate_persists,
    )

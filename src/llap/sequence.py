"""Convergence study: solve along a kernel sequence and check the bounds.

Given kernels G_m -> G in L1 and weighted L1, each member problem is solved
under a uniform certificate (2 pi)^(d/2) gain_m lip <= 1 - eps, and each
solution distance is compared against the explicit bound

    ||u_m - u||_2 <= (2 pi)^(d/2) / eps * ratio_dist(G_m, G) * ||F(u, .)||_2,

where ratio_dist is the sup of |G_m^ - G^| / |ln|p| - shift| over the same
evaluation set as the gains.  At the discrete level the bound is provable
for the fixed points, so once every solve has converged every row must come
out bound_ok; a failure indicates a bug, not noise.  A solve stopped by
max_iter has no fixed point to compare, and the study then reports that it
did not converge instead of checking the bound.

The kernel-level limit statements form a LemmaTable: the symbol-ratio
distance vanishes along the sequence, the gains converge, the per-member
admissibility (without which the gains diverge as the annulus shrinks), and
persistence of the uniform certificate in the limit.  ``verify_lemmaA2``
builds it without solving, and ``run_sequence`` reads it: the study first
certifies the limit and every member, refusing at the first failure before
any solve, and only then solves.  Both read the diagnostics passes the
kernels keep (``make_sequence`` made them), so neither computes a NUDFT.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import RealField, SymbolSpec, TWO_PI
from .kernels import KernelSequence, _admissible, inverse_symbol_gain
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
    rhs_scale: float  # ||F(u, .)||_2 of the limit solution
    lemma: LemmaTable  # the kernel-level checks, from the same diagnostics
    converged: bool  # whether the limit's solve and every member's converged


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
    """Certify the limit and every member, then solve them all.

    Refuses with the offending member index (None for the limit) at the
    first kernel, limit first, whose certificate fails the uniform bound;
    nothing is solved then.  The limit problem is solved first because the
    rows reference ||F(u, .)||_2 of its solution.  The rows' ratio
    distances are the LemmaTable's (verify_lemmaA2 for N.lip and eps).
    The bound and the monotonicity of the solution distances are checked,
    raising ConsistencyError, only when every solve converged.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    lemma = verify_lemmaA2(seq, spec, N.lip, eps)
    lip_sampled = estimate_lipschitz(N, LIP_TRIALS, 0)
    certs = []
    for m, kernel in enumerate((seq.limit, *seq.members)):
        cert = _certificate(kernel, N, spec, eps, inverse_symbol_gain(kernel, spec), lip_sampled)
        if not cert.passed:
            where = f"member {m}" if m else "limit kernel"
            raise MemberCertificateError(
                f"{where} fails the uniform certificate (q = {cert.q:.6g}, "
                f"residual = {cert.orth_residual:.3e})",
                member=m or None,
            )
        certs.append(cert)

    grid = seq.limit.grid
    limit_report = picard_solve(
        seq.limit, N, spec, tol=tol, max_iter=max_iter, certificate=certs[0]
    )
    converged = limit_report.converged
    rhs_scale = eval_F(N, limit_report.final).l2_norm()
    pref = TWO_PI ** (grid.d / 2.0)
    rows: list[SequenceRow] = []
    for member, cert, lemma_row, (l1_dist, wl1_dist) in zip(
        seq.members, certs[1:], lemma.rows, seq.distances
    ):
        report = picard_solve(member, N, spec, tol=tol, max_iter=max_iter, certificate=cert)
        converged = converged and report.converged
        sol_dist = RealField(report.final.values - limit_report.final.values, grid).l2_norm()
        # The member's final field must not live on through the next solve.
        del report
        bound_rhs = pref / eps * lemma_row.ratio_dist * rhs_scale
        rows.append(
            SequenceRow(
                m=lemma_row.m,
                l1_dist=l1_dist,
                wl1_dist=wl1_dist,
                ratio_dist=lemma_row.ratio_dist,
                gain=cert.gain,
                q=cert.q,
                sol_dist=sol_dist,
                bound_rhs=bound_rhs,
                bound_ok=bool(sol_dist <= bound_rhs + 1e-10),
            )
        )

    study = SequenceStudy(
        rows=tuple(rows),
        limit_report=limit_report,
        rhs_scale=rhs_scale,
        lemma=lemma,
        converged=converged,
    )
    if not converged:
        # Both checks compare fixed points, which an unconverged solve lacks.
        return study
    for row in rows:
        if not row.bound_ok:
            raise ConsistencyError(
                f"member {row.m} violates the convergence bound: "
                f"sol_dist {row.sol_dist:.3e} > bound {row.bound_rhs:.3e}"
            )
    floor = 10.0 * tol * max(1.0, limit_report.final.l2_norm())
    for prev, cur in zip(rows, rows[1:]):
        # Diagnostic, not a theorem claim: distances may wobble once they
        # hit the solver tolerance floor.
        if cur.sol_dist > 1.5 * prev.sol_dist + floor:
            raise ConsistencyError(
                f"solution distances increase from member {prev.m} to {cur.m}: "
                f"{prev.sol_dist:.3e} -> {cur.sol_dist:.3e}"
            )
    return study


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
    pref = TWO_PI ** (seq.limit.grid.d / 2.0)
    scale = seq.limit.l1 / pref
    rows = []
    for m, member in enumerate(seq.members, start=1):
        diag = inverse_symbol_gain(member, spec)
        rows.append(
            LemmaRow(
                m=m,
                ratio_dist=diag.ratio_distance(limit),
                gain=diag.gain,
                orth_residual=diag.orth_residual,
                divergence_indicator=diag.divergence_indicator,
                admissible=_admissible(member, spec),
                cert_ok=bool(pref * diag.gain * lip <= 1.0 - eps),
            )
        )

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
        scale=scale,
        ratio_vanishes=ratio_vanishes,
        gains_converge=gains_converge,
        members_admissible=members_admissible,
        certificate_persists=certificate_persists,
    )

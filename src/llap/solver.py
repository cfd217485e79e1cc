"""Picard iteration for the nonlocal equation and its contraction certificate.

One application of the map sends v to the solution u of the linear problem
whose right side is the convolution of the kernel with F(v, .):

    u^(p) = (2 pi)^(d/2) G^(p) w^(p) / (ln|p| - shift),   w = F(v, .),

with the reciprocal zeroed on the masked annulus and at the DC mode.  The
map contracts in L2 with factor q = (2 pi)^(d/2) * gain * lip, where gain is
the inverse-symbol gain of the kernel; the certificate computed here must
pass before any solve is attempted, mirroring the hypothesis of the
underlying fixed-point argument.  Solves with a failing certificate are
refused, not attempted.

The map, the equation residual and the triviality indicator share one
operator per (kernel, spec) that works on the half spectrum of real FFTs;
an iteration of picard_solve costs one rfftn and one irfftn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    GridSpec,
    RealField,
    SymbolSpec,
    TWO_PI,
    forward_ft,
    reciprocal_grid,
    symbol_grid,
)
from .kernels import Kernel, KernelDiagnostics, inverse_symbol_gain
from .nonlinearity import Nonlinearity, estimate_lipschitz, eval_F

__all__ = [
    "ContractionCertificate",
    "SolveReport",
    "ResidualReport",
    "CertificateError",
    "ConsistencyError",
    "certify",
    "picard_multiplier",
    "apply_picard_map",
    "picard_solve",
    "equation_residual",
    "triviality_indicator",
    "ORTH_RTOL",
]

# Relative orthogonality-residual threshold for a passing certificate.
ORTH_RTOL = 1e-6


class CertificateError(RuntimeError):
    """Raised when a solve is requested under a failing certificate."""


class ConsistencyError(RuntimeError):
    """Raised when a bound the theory makes unconditional is violated.

    This covers the a-priori contraction bound, the sequence bounds and
    non-finite spectral intermediates under a passing certificate; each
    points at an inconsistent computation, never at bad input data.
    """


@dataclass(frozen=True)
class ContractionCertificate:
    """Everything needed to decide whether the Picard map contracts.

    q uses the ring-refined gain and is the reported contraction factor;
    q_grid uses the exact finite maximum over unmasked grid modes and is the
    factor the discrete map provably satisfies.  passed requires both
    q <= 1 - eps_user and an orthogonality residual below the threshold;
    the divergence indicator (residual / eta) flags gains that are only
    finite because the grid is.
    """

    gain: float
    grid_gain: float
    q: float
    q_grid: float
    lip: float
    lip_sampled: float
    orth_residual: float
    orth_threshold: float
    divergence_indicator: float
    masked_modes: int
    eps_user: float
    shift: float
    eta: float
    passed: bool


@dataclass(frozen=True)
class ResidualReport:
    """L2 residual over active modes plus the masked right-side energy.

    The masked energy is the part of the right side that the annulus
    regularization discards; it is irreducible by iteration and reported
    separately from solver error.
    """

    value: float
    masked_rhs_energy: float


@dataclass(frozen=True)
class SolveReport:
    """Outcome of picard_solve.

    update_norms[k] = ||u_{k+1} - u_k||_2 for the iterates u_0 = v0, u_1, ...;
    apriori_bounds[k] = q^k / (1 - q) * ||u_1 - u_0||_2 and tail_sums[k] =
    sum_{j >= k} ||u_{j+1} - u_j||_2, both with one entry per iterate.  By the
    triangle inequality tail_sums[k] >= ||u_k - final||_2, and the solve checks
    tail_sums[k] <= apriori_bounds[k] + 10 tol.  Only the final iterate is kept,
    so memory does not grow with the number of iterations; each iteration
    costs two real FFTs.  residual and masked_rhs_energy describe final.
    """

    iterations: int
    update_norms: tuple[float, ...]
    contraction_ratios: tuple[float, ...]
    final: RealField
    residual: float
    masked_rhs_energy: float
    certificate: ContractionCertificate
    converged: bool
    apriori_bounds: tuple[float, ...]
    tail_sums: tuple[float, ...]
    predicted_iterations: int | None


def certify(
    G: Kernel,
    N: Nonlinearity,
    spec: SymbolSpec,
    eps_user: float,
    nsamples: int = 128,
    lip_trials: int = 4096,
    seed: int = 0,
) -> ContractionCertificate:
    """Compute the contraction certificate; failing certificates are returned.

    The certificate uses the declared Lipschitz constant; the sampled
    estimate is stored alongside as an advisory cross-check.
    """
    if not (0.0 < eps_user < 1.0):
        raise ValueError(f"eps_user must lie in (0, 1), got {eps_user}")
    if G.grid != N.grid:
        raise ValueError("kernel and nonlinearity live on different grids")
    return _certificate(
        G,
        N,
        spec,
        eps_user,
        inverse_symbol_gain(G, spec, nsamples),
        estimate_lipschitz(N, lip_trials, seed),
    )


def _certificate(
    G: Kernel,
    N: Nonlinearity,
    spec: SymbolSpec,
    eps_user: float,
    diag: KernelDiagnostics,
    lip_sampled: float,
) -> ContractionCertificate:
    """The certificate of G from its one diagnostics pass (see certify)."""
    _, masked = reciprocal_grid(G.grid, spec)
    pref = TWO_PI ** (G.grid.d / 2.0)
    threshold = ORTH_RTOL * G.l1
    q = pref * diag.gain * N.lip
    return ContractionCertificate(
        gain=diag.gain,
        grid_gain=diag.grid_gain,
        q=q,
        q_grid=pref * diag.grid_gain * N.lip,
        lip=N.lip,
        lip_sampled=lip_sampled,
        orth_residual=diag.orth_residual,
        orth_threshold=threshold,
        divergence_indicator=diag.divergence_indicator,
        masked_modes=int(np.count_nonzero(masked)),
        eps_user=eps_user,
        shift=spec.shift,
        eta=spec.eta,
        passed=bool(q <= 1.0 - eps_user and diag.orth_residual <= threshold),
    )


@dataclass(frozen=True)
class _PicardOperator:
    """The Picard map of one (kernel, spec) pair on the half spectrum.

    Real fields have conjugate-symmetric transforms, so every array here
    keeps only the last-axis modes 0..n/2 of numpy's rfftn layout.  weights
    counts each stored mode with its conjugate twin (1 on last-axis modes 0
    and n/2, 2 elsewhere), so a weighted half sum equals the full sum.

    Spectra handed in and out are raw rfftn outputs.  The transform's
    prefactors cancel in the step (irfftn(multiplier * rfftn(w)) equals
    inverse_ft of multiplier * forward_ft(w) in exact arithmetic), and its
    unit-modulus phase (-1)^k cancels in every modulus, so only the norms
    carry the scale.
    """

    grid: GridSpec
    multiplier: np.ndarray  # (2 pi)^(d/2) G^ / (ln|p| - shift), zero off the active modes
    rhs: np.ndarray  # (2 pi)^(d/2) G^, with the phase of forward_ft
    symbol: np.ndarray  # ln|p| - shift on the active modes, zero elsewhere
    active: np.ndarray  # unmasked, non-DC modes
    weights: np.ndarray
    scale: float  # (pi/L)^d times the squared forward_ft prefactor

    @property
    def axes(self) -> tuple[int, ...]:
        return tuple(range(self.grid.d))

    def transform(self, f: RealField) -> np.ndarray:
        return np.fft.rfftn(f.values, axes=self.axes)

    def apply(self, N: Nonlinearity, v: RealField) -> RealField:
        """One Picard step from v."""
        return self.step(self.transform(eval_F(N, v)))[1]

    def step(self, what: np.ndarray) -> tuple[np.ndarray, RealField]:
        """u^ = multiplier * w^ and the real field u it describes."""
        uhat = self.multiplier * what
        if not np.all(np.isfinite(uhat)):
            raise ConsistencyError("non-finite spectral intermediate; certificate is unsound")
        values = np.fft.irfftn(uhat, s=self.grid.shape, axes=self.axes)
        return uhat, RealField(values, self.grid)

    def residual(self, uhat: np.ndarray, what: np.ndarray) -> ResidualReport:
        """Equation residual of u^ against the right side built from w^ = (F(u))^."""
        diff = self.symbol * uhat
        diff -= self.rhs * what
        sq = np.abs(diff)
        sq *= sq
        sq *= self.weights
        return ResidualReport(
            value=math.sqrt(self.scale * float(np.sum(sq, where=self.active))),
            masked_rhs_energy=math.sqrt(self.scale * float(np.sum(sq, where=~self.active))),
        )


def _picard_operator(G: Kernel, spec: SymbolSpec) -> _PicardOperator:
    grid = G.grid
    half = (Ellipsis, slice(0, grid.n // 2 + 1))
    rhs = TWO_PI ** (grid.d / 2.0) * forward_ft(G.samples).coeffs[half]
    recip, _ = reciprocal_grid(grid, spec)
    t = symbol_grid(grid, spec.shift)[half]
    active = np.isfinite(t) & (np.abs(t) >= spec.eta)
    weights = np.full(t.shape, 2.0)
    weights[..., 0] = 1.0
    weights[..., -1] = 1.0
    pref = grid.h**grid.d / TWO_PI ** (grid.d / 2.0)
    return _PicardOperator(
        grid=grid,
        multiplier=rhs * recip[half],
        rhs=rhs,
        symbol=np.where(active, t, 0.0),
        active=active,
        weights=weights,
        scale=grid.mode_spacing**grid.d * pref * pref,
    )


def _hermitian_extension(half: np.ndarray, n: int) -> np.ndarray:
    """Full FFT-ordered array whose last-axis modes 0..n/2 are half."""
    twin = half[..., n // 2 - 1 : 0 : -1]
    for axis in range(half.ndim - 1):
        twin = np.roll(np.flip(twin, axis), 1, axis)
    return np.concatenate([half, twin.conj()], axis=-1)


def picard_multiplier(G: Kernel, spec: SymbolSpec) -> np.ndarray:
    """Spectral multiplier (2 pi)^(d/2) G^(p) / (ln|p| - shift), masked."""
    return _hermitian_extension(_picard_operator(G, spec).multiplier, G.grid.n)


def apply_picard_map(v: RealField, G: Kernel, N: Nonlinearity, spec: SymbolSpec) -> RealField:
    """One Picard step: solve the linear problem with right side G * F(v, .)."""
    if v.grid != G.grid:
        raise ValueError("field and kernel live on different grids")
    return _picard_operator(G, spec).apply(N, v)


def equation_residual(u: RealField, G: Kernel, N: Nonlinearity, spec: SymbolSpec) -> ResidualReport:
    """How far u is from solving the discrete equation.

    Over the active modes (unmasked, non-DC) the residual is the L2 norm of
    (ln|p| - shift) u^ - (2 pi)^(d/2) G^ (F(u, .))^, identical by unitarity
    to the physical-space norm of its inverse transform.  The right-side
    energy on the masked modes is reported separately.
    """
    if u.grid != G.grid:
        raise ValueError("field and kernel live on different grids")
    op = _picard_operator(G, spec)
    return op.residual(op.transform(u), op.transform(eval_F(N, u)))


def triviality_indicator(G: Kernel, N: Nonlinearity, spec: SymbolSpec, tau: float) -> float:
    """Fraction of active modes where G^ and (F(0, .))^ overlap above tau.

    A positive fraction predicts a nontrivial fixed point at the discrete
    level: the first Picard step from zero already excites those modes, and
    a fixed point of zero would force that step to vanish.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    op = _picard_operator(G, spec)
    ghat = np.abs(op.rhs)
    w0hat = np.abs(op.transform(eval_F(N, RealField.zeros(G.grid))))
    both = (ghat > tau * ghat.max()) & (w0hat > tau * w0hat.max()) & op.active
    return float(np.sum(op.weights, where=both)) / float(np.sum(op.weights, where=op.active))


def _l2(values: np.ndarray, grid: GridSpec) -> float:
    return math.sqrt(grid.h**grid.d * float(np.sum(values * values)))


def _geometric_prediction(first_update: float, ratios: np.ndarray, stop: float) -> int | None:
    usable = ratios[(ratios > 0.0) & (ratios < 1.0)]
    if first_update <= stop:
        return 1
    if usable.size == 0:
        return None
    rate = float(np.exp(np.mean(np.log(usable))))
    if not (0.0 < rate < 1.0):
        return None
    return 1 + max(0, math.ceil(math.log(stop / first_update) / math.log(rate)))


def picard_solve(
    G: Kernel,
    N: Nonlinearity,
    spec: SymbolSpec,
    v0: RealField | None = None,
    tol: float = 1e-10,
    max_iter: int = 200,
    eps_user: float = 0.1,
    certificate: ContractionCertificate | None = None,
) -> SolveReport:
    """Iterate the Picard map to its fixed point.

    Stops when the relative update norm or the equation residual falls below
    tol, whichever happens first.  Requires a passing certificate (computed
    here when not supplied); refuses to iterate otherwise.  Exceeding
    max_iter returns a report flagged non-converged rather than raising.
    A tail sum of update norms above its a-priori bound raises
    ConsistencyError.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    cert = certificate if certificate is not None else certify(G, N, spec, eps_user)
    if not cert.passed:
        raise CertificateError(
            f"contraction certificate failed (q = {cert.q:.6g}, "
            f"orthogonality residual = {cert.orth_residual:.3e}, "
            f"divergence indicator = {cert.divergence_indicator:.3e}); solve refused"
        )
    grid = G.grid
    v = v0 if v0 is not None else RealField.zeros(grid)
    if v.grid != grid:
        raise ValueError("starting field lives on a different grid")
    op = _picard_operator(G, spec)

    # Each iteration costs one irfftn (the step) and one rfftn (F of the new
    # iterate); the residual reuses that u^ and w^, and w^ feeds the next step.
    what = op.transform(eval_F(N, v))
    updates: list[float] = []
    converged = False
    stop_threshold = tol
    for _ in range(max_iter):
        uhat, u = op.step(what)
        upd = _l2(u.values - v.values, grid)
        updates.append(upd)
        v = u
        what = op.transform(eval_F(N, v))
        res = op.residual(uhat, what)
        stop_threshold = tol * max(1.0, _l2(v.values, grid))
        if upd <= stop_threshold or res.value <= tol:
            converged = True
            break

    ratios = tuple(
        updates[i + 1] / updates[i] for i in range(len(updates) - 1) if updates[i] > 0.0
    )
    first = updates[0]
    bounds = tuple(cert.q**k / (1.0 - cert.q) * first for k in range(len(updates) + 1))
    tails = [0.0]
    for upd in reversed(updates):
        tails.append(tails[-1] + upd)
    tail_sums = tuple(reversed(tails))
    for k, (tail, bound) in enumerate(zip(tail_sums, bounds)):
        # The contraction makes this bound unconditional, and the tail sum
        # dominates the distance to the final iterate; a violation means the
        # iteration state is inconsistent, not that the data are bad.
        if tail > bound + 10.0 * tol:
            raise ConsistencyError(
                f"a-priori contraction bound violated at iterate {k}: "
                f"tail sum {tail:.3e} > {bound:.3e}"
            )
    return SolveReport(
        iterations=len(updates),
        update_norms=tuple(updates),
        contraction_ratios=ratios,
        final=v,
        residual=res.value,
        masked_rhs_energy=res.masked_rhs_energy,
        certificate=cert,
        converged=converged,
        apriori_bounds=bounds,
        tail_sums=tail_sums,
        predicted_iterations=_geometric_prediction(first, np.array(ratios), stop_threshold),
    )

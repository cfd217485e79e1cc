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

The map, the equation residual and the triviality indicator work on the
half spectrum of real FFTs, from the kernel's hat and grid._half_modes.
The Picard step is computed in one place, _Iterate.step: one irfftn, one
rfftn and every pointwise pass of an iteration, fused into three passes
over slabs that run on worker threads when the grid is large and give the
same bits however many threads there are (see grid._Slabs).  Between steps
a solve carries q = (2 pi)^(d/2) G^ w^, the right side of the linear
problem; the operator holds the real reciprocal of the symbol, and the step
never reads the symbol itself.  A solve lives in three buffers, one real
field and two half spectra, plus one cache-sized scratch block of rows per
slab, and hands its last iterate to the report without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import (
    GridSpec,
    RealField,
    SymbolSpec,
    TWO_PI,
    _HalfModes,
    _half_modes,
    _irfft_rows,
    _pairwise_total,
    _rfft_rows,
    _rfftn,
    _slabs,
)
from .kernels import Kernel, KernelDiagnostics, _admissible, inverse_symbol_gain
from .nonlinearity import Nonlinearity, _eval_F_into, estimate_lipschitz, eval_F

__all__ = [
    "ContractionCertificate",
    "SolveReport",
    "ResidualReport",
    "CertificateError",
    "ConsistencyError",
    "certify",
    "apply_picard_map",
    "picard_solve",
    "equation_residual",
    "triviality_indicator",
    "LIP_TRIALS",
]

# Samples behind a certificate's advisory Lipschitz estimate, lip_sampled.
LIP_TRIALS = 4096


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
    q <= 1 - eps_user and the sphere-residual rule (kernels._admissible):
    an orthogonality residual at most orth_threshold, ADMISSIBLE_RTOL times
    ||G||_1.  The divergence indicator (residual / eta) flags gains that
    are only finite because the grid is.
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

    value sums weights |(ln|p| - shift) u^ - (2 pi)^(d/2) G^ w^|^2 over the
    active half-spectrum modes (see _Iterate.residual).  The masked energy
    is the part of the right side that the annulus regularization discards;
    it is irreducible by iteration and reported separately from solver error.
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
    costs two real FFTs.  residual and masked_rhs_energy describe final and
    equal equation_residual(final) to roundoff (see _Iterate.step).
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
        inverse_symbol_gain(G, spec),
        estimate_lipschitz(N, LIP_TRIALS, seed),
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
    pref = TWO_PI ** (G.grid.d / 2.0)
    admissible, threshold = _admissible(G, spec)
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
        masked_modes=diag.modes.masked_modes,
        eps_user=eps_user,
        shift=spec.shift,
        eta=spec.eta,
        passed=bool(q <= 1.0 - eps_user and admissible),
    )


def _refusal(cert: ContractionCertificate, G: Kernel, spec: SymbolSpec) -> str:
    """The conditions G's failing certificate misses, each with its limit."""
    failed = []
    if not cert.q <= 1.0 - cert.eps_user:
        failed.append(f"q = {cert.q:.6g} > 1 - eps_user = {1.0 - cert.eps_user:.6g}")
    if not _admissible(G, spec)[0]:
        residual = f"{cert.orth_residual:.3e} > orth_threshold {cert.orth_threshold:.3e}"
        failed.append(f"orthogonality residual {residual}")
    return " and ".join(failed)


@dataclass(frozen=True)
class _PicardOperator:
    """The Picard map of one (kernel, spec) pair on the half spectrum (see grid._HalfModes).

    Spectra handed in and out are raw rfftn outputs.  The prefactors of the
    transform quadratures (see grid) cancel in the step: in exact arithmetic
    irfftn(recip * rhs * rfftn(w)) is the inverse quadrature of the Picard
    multiplier times the forward quadrature of w.  The phase (-1)^k has unit
    modulus and cancels in every modulus, so only the norms carry the scale.
    """

    grid: GridSpec
    recip: np.ndarray  # 1 / (ln|p| - shift), zero off the active modes
    rhs: np.ndarray  # the kernel's hat, (2 pi)^(d/2) G^ with its phase (-1)^k
    modes: _HalfModes
    scale: float  # (pi/L)^d times the squared forward prefactor h^d (2 pi)^(-d/2)

    def apply(self, N: Nonlinearity, v: RealField) -> RealField:
        """One Picard step from v."""
        it = _Iterate(self, N, np.array(v.values))
        it.step(last=True)
        return RealField._adopt(it.v, self.grid)

    def equation_residual(self, N: Nonlinearity, u: RealField) -> ResidualReport:
        """Residual of u, from u^ and q = rhs (F(u))^ (see equation_residual)."""
        it = _Iterate(self, N, u.values)
        symbol, uhat, q = self.modes.symbol, _rfftn(u.values, out=it.work), it.q
        value = it.residual(
            lambda c: np.subtract(np.multiply(symbol[c], uhat[c], out=uhat[c]), q[c], out=uhat[c])
        )
        return ResidualReport(value, it.masked_energy())


def _scratch_rows(blocks: list[slice]) -> int:
    return max(b.stop - b.start for b in blocks)


def _scratch_bytes(shape: tuple[int, ...]) -> int:
    """Bytes of the scratch blocks a step on a field of this shape holds, one per slab."""
    slabs = _slabs(shape, shape[:-1] + (shape[-1] // 2 + 1,))
    return 8 * math.prod(shape[1:]) * sum(_scratch_rows(b) for b in slabs.blocks)


class _Iterate:
    """The current iterate of one solve, its three buffers and the fused Picard step.

    The calling thread allocates every buffer once, and the stages write into
    them through out=, so worker threads allocate nothing of field size:
    glibc gives each thread its own arena, and arrays freed there would
    raise the peak RSS.

      v        the current iterate, the array the caller hands over, which
               a step overwrites (one that never steps only reads it); within
               a step, each row block takes the next iterate from the inverse
               transform
      q        between steps, q_k = (2 pi)^(d/2) G^ w^ with w = F(v), the
               right side of the linear problem; a step reads it in stage 1
               and overwrites it in stage 3 with the residual's difference
               q_k - q_{k+1}, zero on the masked modes
      work     within a step, u^ = recip q and the inverse transform's work
               space, F's scratch, then the forward transform of F(u) and
               (2 pi)^(d/2) G^ times it, q_{k+1}, which becomes q
      scratch  one block of rows per slab: the old iterate, the update's and
               the new iterate's squares, then F(u)
    """

    def __init__(self, op: _PicardOperator, N: Nonlinearity, v: np.ndarray):
        grid = op.grid
        if N.grid != grid:
            raise ValueError("field and nonlinearity live on different grids")
        self.op, self.N = op, N
        self.slabs = _slabs(grid.shape, op.rhs.shape)
        self.v = v
        self.q = np.empty(op.rhs.shape, dtype=complex)
        self.work = np.empty_like(self.q)
        scratch = [np.empty((_scratch_rows(b),) + grid.shape[1:]) for b in self.slabs.blocks]
        self.rows = list(zip(self.slabs.blocks, scratch))
        loaded = self.slabs.map(lambda slab: self._load_rows(*slab), self.rows)
        if not all(loaded):
            raise ValueError(_NONFINITE_F)
        self.slabs.map(lambda c: self._forward_cols(c, self.q), self.slabs.cols)

    def step(self, last: bool = False) -> tuple[float, float, float] | None:
        """Advance v by one Picard step, in three passes over the slabs.

        Returns the sums of squares of the update and of the new iterate,
        each the row blocks' sums added pairwise (see grid._Slabs), and the
        new iterate's residual, the norm of q_k - q_{k+1} on the active modes
        (see residual): there symbol * recip = 1, so q_k is (ln|p| - shift) u^
        up to roundoff.  With last, the step stops once v holds the new
        iterate and returns None.  A non-finite iterate, seen in its norm sums,
        raises ConsistencyError if recip * q was non-finite, else ValueError.
        """
        slabs, recip, q = self.slabs, self.op.recip, self.q
        slabs.map(self._spectral_cols, slabs.cols)
        rows = slabs.map(lambda slab: self._physical_rows(*slab, last), self.rows)
        if not all(r[2] for r in rows):
            uhat = slabs.map(
                lambda c: _all_finite(np.multiply(recip[c], q[c], out=self.work[c])), slabs.cols
            )
            if all(uhat):
                raise ValueError("field contains non-finite entries")
            raise ConsistencyError("non-finite spectral intermediate; certificate is unsound")
        if last:
            return None
        if not all(r[3] for r in rows):
            raise ValueError(_NONFINITE_F)
        res = self.residual(self._next_rhs_cols)
        self.q, self.work = self.work, self.q
        update = _pairwise_total([s for r in rows for s in r[0]])
        return update, _pairwise_total([s for r in rows for s in r[1]]), res

    # Stage 1, on an axis-1 slab: u^ = recip * q into work, then the axis-0
    # stage of the inverse transform.
    def _spectral_cols(self, c: tuple) -> None:
        uhat = np.multiply(self.op.recip[c], self.q[c], out=self.work[c])
        if uhat.ndim > 1:
            np.fft.ifft(uhat, axis=0, out=uhat)

    # Stage 2, on an axis-0 slab, one row block at a time: the rest of the
    # inverse transform into v, the update's and u's sums of squares, then
    # (unless last) F(u) and the inner stages of its forward transform.
    # Returns (update sums, u sums, u finite, F finite), the sums per block.
    # A block with non-finite F does not stop the later blocks, whose
    # non-finite u takes precedence.
    def _physical_rows(
        self, blocks: list[slice], scratch: np.ndarray, last: bool
    ) -> tuple[list[float], list[float], bool, bool]:
        updates: list[float] = []
        norms: list[float] = []
        finite_F = True
        for rows in blocks:
            u, s = self.v[rows], scratch[: rows.stop - rows.start]
            np.copyto(s, u)
            _irfft_rows(self.work[rows], u)
            # (v - u)^2 has the bits of (u - v)^2.
            np.subtract(s, u, out=s)
            np.multiply(s, s, out=s)
            updates.append(float(np.sum(s)))
            np.multiply(u, u, out=s)
            norms.append(float(np.sum(s)))
            # Non-finite u makes the sum non-finite; so does an overflow.
            if not math.isfinite(norms[-1]) and not np.isfinite(u).all():
                return updates, norms, False, True
            if not last:
                finite_F = self._forward_rows(rows, s, self.work) and finite_F
        return updates, norms, True, finite_F

    def _load_rows(self, blocks: list[slice], scratch: np.ndarray) -> bool:
        """F(v) and the inner forward stages into q, block by block, on an axis-0 slab."""
        return all([self._forward_rows(b, scratch[: b.stop - b.start], self.q) for b in blocks])

    def _forward_rows(self, rows: slice, out: np.ndarray, spectrum: np.ndarray) -> bool:
        """F(v) into out, then the inner forward stages into spectrum, on a row block.

        F's scratch is the block of spectrum, which the transform then overwrites.
        """
        slab = spectrum[rows]
        scratch = slab.reshape(-1).view(float)[: out.size].reshape(out.shape)
        _eval_F_into(self.N, self.v[rows], self.N.offset.values[rows], out, scratch)
        if not _all_finite(out):
            return False
        _rfft_rows(out, slab)
        return True

    def _forward_cols(self, c: tuple, spectrum: np.ndarray) -> None:
        """The axis-0 forward stage, then (2 pi)^(d/2) G^ times the transform, on an axis-1 slab."""
        if spectrum.ndim > 1:
            np.fft.fft(spectrum[c], axis=0, out=spectrum[c])
        np.multiply(self.op.rhs[c], spectrum[c], out=spectrum[c])

    # Stage 3, on an axis-1 slab: the right side of the next step into work,
    # then the residual's difference into q.
    def _next_rhs_cols(self, c: tuple) -> np.ndarray:
        self._forward_cols(c, self.work)
        return np.subtract(self.q[c], self.work[c], out=self.q[c])

    def residual(self, difference: Callable[[tuple], np.ndarray]) -> float:
        """sqrt(scale * sum of weights |diff|^2 over the active modes), in one pass over the slabs.

        difference(c) gives slab c of diff.  Its masked modes are zeroed, and
        each float of the plane that axis 0 leaves is summed down axis 0 on
        its own, so the bits do not depend on where the slabs cut axis 1 (at
        d = 2, the half axis); the weights apply on the whole plane.
        """
        modes = self.op.modes
        weights = modes.weights[0] if modes.weights.ndim > 1 else modes.weights
        squares = np.empty(weights.shape + (2,))

        def sum_squares(c: tuple) -> None:
            diff = difference(c)
            np.copyto(diff, 0.0, where=modes.inactive[c])
            out = squares[c[1:]].reshape(-1)
            rows = diff.view(float).reshape(-1, out.size)
            np.einsum("im,im->m", rows, rows, out=out)

        self.slabs.map(sum_squares, self.slabs.cols)
        moduli = squares[..., 0] + squares[..., 1]
        return math.sqrt(self.op.scale * float(np.sum(moduli * weights)))

    def masked_energy(self) -> float:
        """The right side's energy on the masked modes, from q."""
        modes = self.op.modes
        rhs, weights = self.q[modes.inactive], modes.weights[modes.inactive]
        return math.sqrt(self.op.scale * float(np.sum(weights * (rhs.real**2 + rhs.imag**2))))


_NONFINITE_F = "nonlinearity produced non-finite values"


def _all_finite(x: np.ndarray) -> bool:
    # A sum of finite terms is finite unless it overflows, and any non-finite
    # term makes it non-finite; only an overflow needs the elementwise test.
    return bool(np.isfinite(np.sum(x))) or bool(np.isfinite(x).all())


def _peak_bytes(d: int, n: int, command: str, members: int = 0, project: bool = False) -> int:
    """Estimated peak bytes of the arrays the CLI command holds on (d, n).

    certify and solve: five real fields (kernel samples, offset, starting
    field, the iterate, which becomes the report's final field, and
    transients such as the |x| mesh that each reader builds afresh), the
    step's scratch blocks (_scratch_bytes) and five half spectra (the
    kernel's hat, q and work, the symbol with the operator's reciprocal,
    and the masks and transients such as numpy's FFT plans).  ft-selftest:
    two real fields (the random field and the Gaussian's samples) and three
    half spectra (the Gaussian's transform, which its scaling and the
    difference overwrite, its closed form, and the difference's magnitude
    with numpy's transients).  verify adds seven real fields to certify and
    solve: the property suite's random pairs, their images and differences
    beside a map application's buffers.  sequence adds, per member kernel,
    its samples and hat, and the projection's atoms (2, 4 or 6 real fields at
    d = 1, 2, 3), which make_sequence always builds; the atoms also count
    for any command whose kernel is projected.  Traced with tracemalloc, a
    certify-and-solve run peaks at 9.45 real fields at d = 2 (n = 256, one
    block, a whole field of scratch) and 8.97 at d = 3 (n = 48, two blocks)
    against 11.0 and 10.7 here, ft_selftest at 4.60 and 4.62 against 5.02
    and 5.13, verify at 15.4 and 15.0 against 18.0 and 17.7, and a
    six-member sequence at 23.3 and 23.9 against 27.1 and 29.0.  The
    interpreter and modules come on top.
    """
    real = 8 * n**d
    half = 16 * n ** (d - 1) * (n // 2 + 1)
    if command == "ft-selftest":
        return 2 * real + 3 * half
    total = 5 * real + 5 * half + _scratch_bytes((n,) * d)
    if command == "verify":
        total += 7 * real
    if command == "sequence":
        total += members * (real + half)
    if command == "sequence" or project:
        total += 2 * d * real
    return total


def _picard_operator(G: Kernel, spec: SymbolSpec) -> _PicardOperator:
    grid = G.grid
    modes = _half_modes(grid, spec)
    recip = np.divide(1.0, modes.symbol, out=np.zeros(modes.symbol.shape), where=modes.active)
    pref = grid.h**grid.d / TWO_PI ** (grid.d / 2.0)
    return _PicardOperator(grid, recip, G.hat, modes, grid.mode_spacing**grid.d * pref * pref)


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
    energy on the masked modes is reported separately.  Both are the sums
    picard_solve reports (see _Iterate.residual), with the left side from u^.
    """
    if u.grid != G.grid:
        raise ValueError("field and kernel live on different grids")
    return _picard_operator(G, spec).equation_residual(N, u)


def triviality_indicator(G: Kernel, N: Nonlinearity, spec: SymbolSpec, tau: float) -> float:
    """Fraction of active modes where G^ and (F(0, .))^ overlap above tau.

    A positive fraction predicts a nontrivial fixed point at the discrete
    level: the first Picard step from zero already excites those modes, and
    a fixed point of zero would force that step to vanish.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    modes = _half_modes(G.grid, spec)
    ghat = np.abs(G.hat)
    w0hat = np.abs(_rfftn(eval_F(N, RealField.zeros(G.grid)).values))
    both = (ghat > tau * ghat.max()) & (w0hat > tau * w0hat.max()) & modes.active
    return float(np.sum(modes.weights, where=both)) / float(np.sum(modes.weights, where=modes.active))


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
        raise CertificateError(f"certificate failed ({_refusal(cert, G, spec)}); solve refused")
    grid = G.grid
    if v0 is not None and v0.grid != grid:
        raise ValueError("starting field lives on a different grid")
    it = _Iterate(
        _picard_operator(G, spec), N, np.zeros(grid.shape) if v0 is None else np.array(v0.values)
    )
    updates: list[float] = []
    converged = False
    stop_threshold = tol
    weight = grid.h**grid.d
    for _ in range(max_iter):
        update_sq, norm_sq, residual = it.step()
        upd = math.sqrt(weight * update_sq)
        updates.append(upd)
        stop_threshold = tol * max(1.0, math.sqrt(weight * norm_sq))
        if upd <= stop_threshold or residual <= tol:
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
        final=RealField._adopt(it.v, grid),
        residual=residual,
        masked_rhs_energy=it.masked_energy(),
        certificate=cert,
        converged=converged,
        apriori_bounds=bounds,
        tail_sums=tail_sums,
        predicted_iterations=_geometric_prediction(first, np.array(ratios), stop_threshold),
    )

"""Property suite behind the verify command.

Each check is a deterministic computation on the configured run: transform
self-tests, the two transform bounds, the annulus-refinement dichotomy, the
sampled contraction and norm bounds, and the nonlinearity's declared
constants.  Each row of the report is computed and judged here, as one
CheckResult that carries the observed value, so failures are diagnosable
from the report alone.

The dichotomy check adapts to the kernel at hand: an admissible kernel must
show a gain stable under halving the annulus width, an inadmissible one
must show the 1/eta divergence with gain * eta tracking the orthogonality
residual.  A raw Gaussian therefore passes the suite as a negative control,
with the divergence detected as expected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .grid import (
    RealField,
    SymbolSpec,
    TWO_PI,
    _SplitMix64,
    _convolution,
    _half_ft,
    _half_weights,
    _irfftn,
    _nudft,
    _rfftn,
    boundary_decay,
    make_grid,
)
from .kernels import Kernel, _admissible, inverse_symbol_gain
from .nonlinearity import Nonlinearity, _sample_u, estimate_lipschitz, eval_F
from .solver import _picard_operator, triviality_indicator

__all__ = ["CheckResult", "run_property_suite", "ft_selftest"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    detail: str


def _direct_convolution(f: RealField, g: RealField) -> RealField:
    # O(n^2d) reference convolution; only run on small grids.
    grid = f.grid
    n, d = grid.n, grid.d
    fv = f.values.reshape(-1)
    gv = g.values
    idx = np.indices(grid.shape).reshape(d, -1)
    out = np.zeros(grid.npoints)
    for j in range(grid.npoints):
        shifted = tuple((idx[a, j] - idx[a] + n // 2) % n for a in range(d))
        out[j] = np.sum(fv * gv[shifted])
    return RealField(grid.h**d * out.reshape(grid.shape), grid)


def _relative_l2(values: np.ndarray, ref: np.ndarray) -> float:
    # On bare arrays rather than fields, so that a transform that went
    # non-finite fails its check (nan compares false) instead of raising.
    return float(np.linalg.norm(values - ref)) / max(float(np.linalg.norm(ref)), 1e-300)


def ft_selftest(grid, seed: int = 0) -> list[CheckResult]:
    """Transform fidelity: roundtrip, Parseval, Gaussian oracle, convolution.

    Every check runs the half-spectrum transforms the solver runs (_rfftn,
    _irfftn and _half_ft), in the slabs a run on this grid would use.
    """
    rng = _SplitMix64(seed)
    results = []
    pref = TWO_PI ** (grid.d / 2.0)

    f = RealField(rng.normal(size=grid.shape), grid)
    l2 = f.l2_norm()
    err = _relative_l2(_irfftn(_rfftn(f.values), np.empty(grid.shape)), f.values)
    results.append(CheckResult("ft_roundtrip", err <= 1e-12, err, "relative L2 roundtrip error"))

    energy = float(np.sum(_half_weights(grid) * np.abs(_half_ft(f)) ** 2))
    par = abs(math.sqrt(grid.mode_spacing**grid.d * energy) / pref - l2) / l2
    results.append(CheckResult("ft_parseval", par <= 1e-12, par, "relative Parseval defect"))

    # The samples are the Gaussian periodized over the box, and the oracle is
    # its transform on R^d summed over the aliases p + 2 pi r / h (Poisson
    # summation), so the two agree on any grid up to rounding.  Per axis, at
    # width L/8, the terms left out (|m|, |r| >= 5) are below exp(-100) of
    # the peak from n = 8 on.
    width = grid.L / 8.0
    shifts = np.arange(-4, 5)
    x = grid.axis_coords()[:, None] + 2.0 * grid.L * shifts
    axis = np.sum(np.exp(-(x * x) / (2.0 * width**2)), axis=1)
    p = grid.mode_axis()[:, None] + grid.n * grid.mode_spacing * shifts
    hat = width * np.sum(np.exp(-((width * p) ** 2) / 2.0), axis=1)
    gauss = RealField(reduce(np.multiply.outer, [axis] * grid.d), grid)
    oracle = reduce(np.multiply.outer, [hat] * (grid.d - 1) + [hat[: grid.n // 2 + 1]])
    gerr = float(np.max(np.abs(_half_ft(gauss) / pref - oracle)))
    results.append(
        CheckResult("ft_gaussian", gerr <= 1e-8, gerr, f"max error vs closed form, width {width:.3g}")
    )

    small = make_grid(grid.d, grid.L, min(grid.n, 16 if grid.d == 3 else 32))
    a = RealField(rng.normal(size=small.shape), small)
    b = RealField(rng.normal(size=small.shape), small)
    ref = _direct_convolution(a, b)
    cerr = _relative_l2(_convolution(_half_ft(a), _half_ft(b), small), ref.values)
    results.append(
        CheckResult(
            "ft_convolution",
            cerr <= 1e-10,
            cerr,
            "spectral vs direct periodic convolution, fixes the (2 pi)^(d/2) factor",
        )
    )
    return results


def _hat_bound(K: Kernel) -> CheckResult:
    """max |G^| <= (2 pi)^(-d/2) ||G||_1, over all grid modes (K.hat)."""
    pref = TWO_PI ** (K.grid.d / 2.0)
    observed = float(np.max(np.abs(K.hat))) / pref
    bound = K.l1 / pref
    return CheckResult(
        "hat_bound",
        observed <= bound + 1e-10,
        observed,
        f"max |G^| = {observed:.6g} vs (2 pi)^(-d/2) ||G||_1 = {bound:.6g}",
    )


def _derivative_bound(K: Kernel, seed: int) -> CheckResult:
    """|d G^ / d|p|| <= (2 pi)^(-d/2) || |x| G ||_1 along axes and random rays.

    Central differences (step 1e-5) of the nonuniform quadrature with a
    discretization slack of 1e-6 on the bound, at 96 radii along each axis
    and 48 along each of six random rays.  Radii are geometrically spaced so
    the low-frequency region, where kernel transforms vary fastest, is
    sampled densely.
    """
    step, naxis, nrays, nradii = 1e-5, 96, 6, 48
    grid = K.grid
    bound = K.weighted_l1 / TWO_PI ** (grid.d / 2.0)
    rng = _SplitMix64(seed)
    dirs = [np.eye(grid.d)[i] for i in range(grid.d)]
    for _ in range(nrays):
        v = rng.normal(size=grid.d)
        dirs.append(v / np.linalg.norm(v))
    radii_axis = np.geomspace(grid.mode_spacing, 0.9 * grid.nyquist_radius, naxis)
    radii_ray = np.geomspace(grid.mode_spacing, 0.9 * grid.nyquist_radius, nradii)
    radii = [radii_axis] * grid.d + [radii_ray] * nrays
    # Every direction's points at r + step/2, then all at r - step/2, so that
    # one NUDFT call computes each chunk's phases once for the whole check.
    points = [np.outer(r + s, u) for s in (step / 2.0, -step / 2.0) for r, u in zip(radii, dirs)]
    plus, minus = _nudft([K.samples.values], grid, np.concatenate(points))[0].reshape(2, -1)
    observed = float(np.max(np.abs(plus - minus) / step))
    return CheckResult(
        "derivative_bound",
        observed <= bound + 1e-6,
        observed,
        f"max radial |dG^| = {observed:.6g} vs bound {bound:.6g} + 1e-6",
    )


# Random draws behind the growth and Lipschitz rows.
_TRIALS = 20000


def _growth_bound(N: Nonlinearity, seed: int) -> CheckResult:
    """|F(u, x)| <= k |u| + h(x) on _TRIALS random (u, x) pairs, by the smallest margin."""
    rng = _SplitMix64(seed)
    u = _sample_u(N, rng, _TRIALS)
    h = N.offset.values.reshape(-1)[rng.integers(0, N.grid.npoints, size=_TRIALS)]
    margin = float(np.min(N.growth * np.abs(u) + h + 1e-12 - np.abs(N.base(u) + h)))
    return CheckResult(
        "growth_bound", margin >= 0.0, margin, "slackest margin of |F(u,x)| <= k |u| + h(x)"
    )


def _dichotomy_check(K, spec: SymbolSpec) -> CheckResult:
    """The annulus-refinement dichotomy over eta0 = min(eta, 0.1), eta0 / 2 and eta0 / 4."""
    eta0 = min(spec.eta, 0.1)
    etas = (eta0, eta0 / 2.0, eta0 / 4.0)
    diagnostics = [inverse_symbol_gain(K, SymbolSpec(spec.shift, eta)) for eta in etas]
    residual = diagnostics[0].orth_residual
    gains = [diag.gain for diag in diagnostics]
    if _admissible(K, SymbolSpec(spec.shift, eta0))[0]:
        if max(gains) == 0.0:
            return CheckResult("na_dichotomy", True, 0.0, "zero kernel, gain identically 0")
        spread = (max(gains) - min(gains)) / max(gains)
        return CheckResult(
            "na_dichotomy",
            spread <= 0.05,
            spread,
            f"admissible kernel: gain varies {spread:.2%} across eta halvings",
        )
    products = [g * eta for g, eta in zip(gains, etas)]
    ok = all(0.8 * residual <= p <= 1.25 * residual for p in products)
    worst = max(abs(p / residual - 1.0) for p in products)
    return CheckResult(
        "na_dichotomy",
        ok,
        worst,
        "inadmissible kernel: gain * eta tracks the orthogonality residual "
        f"{residual:.3e} (1/eta divergence detected, expected)",
    )


def run_property_suite(
    K: Kernel, N: Nonlinearity, spec: SymbolSpec, seed: int, tau: float
) -> list[CheckResult]:
    """The verify suite for kernel K, nonlinearity N and symbol spec on K's grid."""
    grid = K.grid
    rng = _SplitMix64(seed + 1)

    results = ft_selftest(grid, seed)

    results += [_hat_bound(K), _derivative_bound(K, seed), _dichotomy_check(K, spec)]

    bd = boundary_decay(K.samples)
    results.append(
        CheckResult(
            "kernel_boundary_decay",
            bd <= 1e-10,
            bd,
            "kernel boundary values relative to peak; the box must contain the kernel",
        )
    )

    grid_gain = inverse_symbol_gain(K, spec).grid_gain
    pref = TWO_PI ** (grid.d / 2.0)
    q_grid = pref * grid_gain * N.lip
    worst_ratio = 0.0
    worst_norm_excess = -math.inf
    # Clamped so that the sampled fields and their squares stay normal floats.
    scale = 1.0 / min(max(N.lip, 1e-3), 1e3)
    op = _picard_operator(K, spec)
    for _ in range(20):
        v = RealField(rng.normal(0.0, scale, grid.shape), grid)
        w = RealField(rng.normal(0.0, scale, grid.shape), grid)
        tv = op.apply(N, v)
        tw = op.apply(N, w)
        gap = RealField(tv.values - tw.values, grid).l2_norm()
        ref = RealField(v.values - w.values, grid).l2_norm()
        worst_ratio = max(worst_ratio, gap / ref)
        bound = pref * grid_gain * eval_F(N, v).l2_norm()
        worst_norm_excess = max(worst_norm_excess, tv.l2_norm() - bound)
    results.append(
        CheckResult(
            "contraction_sampling",
            worst_ratio <= q_grid + 1e-10,
            worst_ratio,
            f"worst sampled map ratio vs q_grid = {q_grid:.6g}",
        )
    )
    results.append(
        CheckResult(
            "norm_bound_sampling",
            worst_norm_excess <= 1e-10,
            worst_norm_excess,
            "worst excess of ||T v||_2 over (2 pi)^(d/2) gain ||F(v)||_2",
        )
    )

    frac = triviality_indicator(K, N, spec, tau)
    first_step = op.apply(N, RealField.zeros(grid))
    step_nontrivial = first_step.l2_norm() > 1e-12
    results.append(
        CheckResult(
            "triviality_consistency",
            (frac > 0.0) == step_nontrivial,
            frac,
            "spectral overlap fraction agrees with the first Picard step from zero",
        )
    )

    results.append(_growth_bound(N, seed))
    lip_hat = estimate_lipschitz(N, trials=_TRIALS, seed=seed)
    results.append(
        CheckResult(
            "lipschitz_estimate",
            lip_hat <= N.lip + 1e-12,
            lip_hat,
            f"sampled Lipschitz constant vs declared {N.lip:.6g}",
        )
    )
    return results

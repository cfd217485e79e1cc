"""Property suite behind the verify command.

Each check is a deterministic computation on the configured run: transform
self-tests, the two transform bounds, the annulus-refinement dichotomy, the
sampled contraction and norm bounds, and the nonlinearity's declared
constants.  Results carry the observed value so failures are diagnosable
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

import numpy as np

from .config import RunConfig
from .grid import (
    RealField,
    SymbolSpec,
    TWO_PI,
    boundary_decay,
    forward_ft,
    inverse_ft,
    make_grid,
    norms,
    periodic_convolution,
    sample,
    spectral_l2,
)
from .kernels import (
    ADMISSIBLE_RTOL,
    KernelDiagnostics,
    inverse_symbol_gain,
    verify_derivative_bound,
    verify_hat_bound,
)
from .nonlinearity import estimate_lipschitz, eval_F, verify_growth
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


def ft_selftest(grid, seed: int = 0) -> list[CheckResult]:
    """Transform fidelity: roundtrip, Parseval, Gaussian oracle, convolution."""
    rng = np.random.default_rng(seed)
    results = []

    f = RealField(rng.normal(size=grid.shape), grid)
    back = inverse_ft(forward_ft(f))
    err = norms(RealField(back.values - f.values, grid)).l2 / norms(f).l2
    results.append(CheckResult("ft_roundtrip", err <= 1e-12, err, "relative L2 roundtrip error"))

    par = abs(spectral_l2(forward_ft(f)) - norms(f).l2) / norms(f).l2
    results.append(CheckResult("ft_parseval", par <= 1e-12, par, "relative Parseval defect"))

    width = max(grid.L / 8.0, 4.0 * grid.h)
    gauss = sample(grid, lambda *xs: np.exp(-sum(x * x for x in xs) / (2.0 * width**2)))
    ghat = forward_ft(gauss)
    pr = grid.mode_radius_mesh()
    oracle = width**grid.d * np.exp(-(width * pr) ** 2 / 2.0)
    gerr = float(np.max(np.abs(ghat.coeffs - oracle)))
    results.append(
        CheckResult("ft_gaussian", gerr <= 1e-8, gerr, f"max error vs closed form, width {width:.3g}")
    )

    small = make_grid(grid.d, grid.L, min(grid.n, 16 if grid.d == 3 else 32))
    a = RealField(rng.normal(size=small.shape), small)
    b = RealField(rng.normal(size=small.shape), small)
    ref = _direct_convolution(a, b)
    fast = periodic_convolution(a, b)
    cerr = norms(RealField(fast.values - ref.values, small)).l2 / max(norms(ref).l2, 1e-300)
    results.append(
        CheckResult(
            "ft_convolution",
            cerr <= 1e-10,
            cerr,
            "spectral vs direct periodic convolution, fixes the (2 pi)^(d/2) factor",
        )
    )
    return results


def _dichotomy_check(K, spec: SymbolSpec) -> tuple[CheckResult, KernelDiagnostics]:
    """The dichotomy check and the diagnostics pass at its first eta, min(eta, 0.1)."""
    eta0 = min(spec.eta, 0.1)
    etas = (eta0, eta0 / 2.0, eta0 / 4.0)
    diagnostics = [inverse_symbol_gain(K, SymbolSpec(spec.shift, eta)) for eta in etas]
    residual = diagnostics[0].orth_residual
    gains = [diag.gain for diag in diagnostics]
    if residual <= ADMISSIBLE_RTOL * max(1.0, K.l1):
        if max(gains) <= 1e-30:
            zero = CheckResult("na_dichotomy", True, 0.0, "zero kernel, gain identically 0")
            return zero, diagnostics[0]
        spread = (max(gains) - min(gains)) / max(gains)
        return CheckResult(
            "na_dichotomy",
            spread <= 0.05,
            spread,
            f"admissible kernel: gain varies {spread:.2%} across eta halvings",
        ), diagnostics[0]
    products = [g * eta for g, eta in zip(gains, etas)]
    ok = all(0.8 * residual <= p <= 1.25 * residual for p in products)
    worst = max(abs(p / residual - 1.0) for p in products)
    return CheckResult(
        "na_dichotomy",
        ok,
        worst,
        "inadmissible kernel: gain * eta tracks the orthogonality residual "
        f"{residual:.3e} (1/eta divergence detected, expected)",
    ), diagnostics[0]


def run_property_suite(cfg: RunConfig) -> list[CheckResult]:
    grid = cfg.grid()
    spec = cfg.symbol_spec(grid)
    K = cfg.kernel(grid, spec)
    N = cfg.nonlinearity(grid)
    seed = cfg.seed
    rng = np.random.default_rng(seed + 1)

    results = ft_selftest(grid, seed)

    hb = verify_hat_bound(K)
    results.append(
        CheckResult(
            "hat_bound",
            hb.passed,
            hb.observed,
            f"max |G^| = {hb.observed:.6g} vs (2 pi)^(-d/2) ||G||_1 = {hb.bound:.6g}",
        )
    )
    db = verify_derivative_bound(K, seed=seed)
    results.append(
        CheckResult(
            "derivative_bound",
            db.passed,
            db.observed,
            f"max radial |dG^| = {db.observed:.6g} vs bound {db.bound:.6g} + 1e-6",
        )
    )
    dichotomy, first = _dichotomy_check(K, spec)
    results.append(dichotomy)

    bd = boundary_decay(K.samples)
    results.append(
        CheckResult(
            "kernel_boundary_decay",
            bd <= 1e-10,
            bd,
            "kernel boundary values relative to peak; the box must contain the kernel",
        )
    )

    grid_gain = (first if first.eta == spec.eta else inverse_symbol_gain(K, spec)).grid_gain
    pref = TWO_PI ** (grid.d / 2.0)
    q_grid = pref * grid_gain * N.lip
    worst_ratio = 0.0
    worst_norm_excess = -math.inf
    scale = 1.0 / max(N.lip, 1e-3)
    op = _picard_operator(K, spec)
    for _ in range(20):
        v = RealField(rng.normal(0.0, scale, grid.shape), grid)
        w = RealField(rng.normal(0.0, scale, grid.shape), grid)
        tv = op.apply(N, v)
        tw = op.apply(N, w)
        gap = norms(RealField(tv.values - tw.values, grid)).l2
        ref = norms(RealField(v.values - w.values, grid)).l2
        worst_ratio = max(worst_ratio, gap / ref)
        bound = pref * grid_gain * norms(eval_F(N, v)).l2
        worst_norm_excess = max(worst_norm_excess, norms(tv).l2 - bound)
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

    frac = triviality_indicator(K, N, spec, cfg.tau)
    first_step = op.apply(N, RealField.zeros(grid))
    step_nontrivial = norms(first_step).l2 > 1e-12
    results.append(
        CheckResult(
            "triviality_consistency",
            (frac > 0.0) == step_nontrivial,
            frac,
            "spectral overlap fraction agrees with the first Picard step from zero",
        )
    )

    gr = verify_growth(N, trials=20000, seed=seed)
    results.append(
        CheckResult(
            "growth_bound",
            gr.passed,
            gr.worst_margin,
            "slackest margin of |F(u,x)| <= k |u| + h(x)",
        )
    )
    lip_hat = estimate_lipschitz(N, trials=20000, seed=seed)
    results.append(
        CheckResult(
            "lipschitz_estimate",
            lip_hat <= N.lip + 1e-12,
            lip_hat,
            f"sampled Lipschitz constant vs declared {N.lip:.6g}",
        )
    )
    return results

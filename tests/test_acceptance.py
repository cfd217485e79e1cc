"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import math
import time

import numpy as np

from llap.grid import (
    RealField,
    SymbolSpec,
    _half_ft,
    _half_radius,
    _half_weights,
    default_eta,
    make_grid,
    sample,
)
from llap.kernels import (
    KernelSequence,
    Schedule,
    _truncation_cutoff,
    inverse_symbol_gain,
    kernel_from_field,
    make_kernel,
    make_sequence,
    project_orthogonal,
)
from llap.checks import _derivative_bound, _hat_bound
from llap.nonlinearity import Nonlinearity, eval_F, make_nonlinearity
from llap.solver import (
    apply_picard_map,
    certify,
    picard_solve,
    triviality_indicator,
)
from llap.sequence import run_sequence, verify_lemmaA2
from llap.cli import EXIT_CERTIFICATE, main

from conftest import SQRT_2PI, ft, full_multiplier, ift, l2_gap, symbol

EXP_HALF = math.exp(-0.5)


def _verdict(n, label, ok):
    print(f"ACCEPTANCE {n} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} failed: {label}"


class TestAcceptance:
    def test_1_ft_fidelity(self, grid1):
        t0 = time.perf_counter()
        f = sample(grid1, lambda x: np.exp(-(x**2) / 2.0))
        F = _half_ft(f) / SQRT_2PI
        p = _half_radius(grid1)
        gauss_err = float(np.max(np.abs(F - np.exp(-(p**2) / 2.0))))
        rng = np.random.default_rng(0)
        g = RealField(rng.normal(size=grid1.shape), grid1)
        energy = float(np.sum(_half_weights(grid1) * np.abs(_half_ft(g) / SQRT_2PI) ** 2))
        par_err = abs(math.sqrt(grid1.mode_spacing * energy) - g.l2_norm()) / g.l2_norm()
        elapsed = time.perf_counter() - t0
        _verdict(
            1,
            f"FT fidelity: gaussian {gauss_err:.2e} <= 1e-8, "
            f"Parseval {par_err:.2e} <= 1e-12, runtime {elapsed:.3f}s < 0.1s",
            gauss_err <= 1e-8 and par_err <= 1e-12 and elapsed < 0.1,
        )

    def test_2_transform_bounds_all_dims(self):
        ok = True
        details = []
        for d, n, L in ((1, 1024, 20.0), (2, 64, 10.0), (3, 32, 8.0)):
            g = make_grid(d, L, n)
            for family, params in (
                ("gaussian", {"width": 1.0, "amplitude": 1.0}),
                ("bump", {"radius": 2.0, "amplitude": 1.0}),
                ("difference", {"width1": 1.0, "width2": 2.0, "amplitude": 1.0, "shift": 0.0}),
            ):
                K = make_kernel(family, params, g)
                hb = _hat_bound(K)
                db = _derivative_bound(K, 0)
                ok = ok and hb.passed and db.passed
                details.append(f"d={d} {family}: hat {hb.passed}, deriv {db.passed}")
        _verdict(2, "transform bounds for all built-in kernels, d = 1, 2, 3", ok)

    def test_3_annulus_dichotomy(self, grid1, gauss_kernel):
        t0 = time.perf_counter()
        raw_ok = True
        for eta in (0.1, 0.05, 0.025):
            est = inverse_symbol_gain(gauss_kernel, SymbolSpec(0.0, eta))
            raw_ok = raw_ok and (0.8 * EXP_HALF <= est.gain * eta <= 1.2 * EXP_HALF)
        projected = project_orthogonal(gauss_kernel, SymbolSpec(0.0, 0.025), taper_width=0.25)
        gains = [
            inverse_symbol_gain(projected, SymbolSpec(0.0, eta)).gain
            for eta in (0.1, 0.05, 0.025)
        ]
        proj_spread = (max(gains) - min(gains)) / max(gains)
        elapsed = time.perf_counter() - t0
        _verdict(
            3,
            f"dichotomy: raw gain*eta within 20% of exp(-1/2), projected gain "
            f"spread {proj_spread:.2%} <= 5%, runtime {elapsed:.2f}s < 5s",
            raw_ok and proj_spread <= 0.05 and elapsed < 5.0,
        )

    def test_4_contraction_and_norm_bounds(self, diff_kernel, sine_nonlinearity, spec1, grid1):
        cert = certify(diff_kernel, sine_nonlinearity, spec1, eps_user=0.1)
        rng = np.random.default_rng(1)
        contraction_ok = True
        norm_ok = True
        for _ in range(100):
            v = RealField(rng.normal(0.0, 5.0, grid1.shape), grid1)
            w = RealField(rng.normal(0.0, 5.0, grid1.shape), grid1)
            tv = apply_picard_map(v, diff_kernel, sine_nonlinearity, spec1)
            tw = apply_picard_map(w, diff_kernel, sine_nonlinearity, spec1)
            ratio = l2_gap(tv, tw) / l2_gap(v, w)
            contraction_ok = contraction_ok and ratio <= cert.q_grid + 1e-10
            bound = SQRT_2PI * cert.grid_gain * eval_F(sine_nonlinearity, v).l2_norm()
            norm_ok = norm_ok and tv.l2_norm() <= bound + 1e-10
        _verdict(
            4,
            f"contraction over 100 pairs <= q_grid = {cert.q_grid:.4f}, norm bound holds",
            contraction_ok and norm_ok,
        )

    def test_5_fixed_point_reference(self, diff_kernel, sine_nonlinearity, spec1, grid1):
        t0 = time.perf_counter()
        report = picard_solve(diff_kernel, sine_nonlinearity, spec1, tol=1e-10)
        rng = np.random.default_rng(2)
        other = picard_solve(
            diff_kernel,
            sine_nonlinearity,
            spec1,
            v0=RealField(rng.normal(0.0, 0.5, grid1.shape), grid1),
            tol=1e-10,
        )
        elapsed = time.perf_counter() - t0
        q = report.certificate.q
        ratios_ok = all(r <= q + 1e-8 for r in report.contraction_ratios)
        residual_ok = report.residual <= 10.0 * 1e-10
        agree = l2_gap(report.final, other.final)
        pred = report.predicted_iterations
        iter_ok = pred is not None and abs(report.iterations - pred) <= 2
        _verdict(
            5,
            f"fixed point: converged {report.converged} in {report.iterations} its "
            f"(geometric prediction {pred}), residual {report.residual:.2e} <= 1e-9, "
            f"two starts agree {agree:.2e} <= 1e-9, runtime {elapsed:.2f}s < 1s",
            report.converged
            and other.converged
            and ratios_ok
            and residual_ok
            and agree <= 10.0 * 1e-10
            and iter_ok
            and elapsed < 1.0,
        )

    def test_6_linear_oracle(self, diff_kernel, spec1, grid1, bump_offset):
        lip = 0.1
        N = Nonlinearity(
            lip=lip,
            growth=lip,
            offset=bump_offset,
            base=lambda u: lip * u,
        )
        report = picard_solve(diff_kernel, N, spec1, tol=1e-13, max_iter=400)
        M = full_multiplier(diff_kernel, spec1)
        hhat = ft(bump_offset)
        direct = ift(M * hhat / (1.0 - lip * M), grid1)
        gap = l2_gap(report.final, direct)
        _verdict(6, f"linear oracle: Picard vs direct solution {gap:.2e} <= 1e-10", gap <= 1e-10)

    def _sequence_criterion(self, d, n, L, amplitude, budget):
        t0 = time.perf_counter()
        g = make_grid(d, L, n)
        spec = SymbolSpec(0.0, default_eta(g, 0.0))
        K = make_kernel(
            "difference",
            {"width1": 1.0, "width2": 2.0, "amplitude": amplitude, "shift": 0.0},
            g,
        )
        h = sample(g, lambda *xs: 0.3 * np.exp(-sum(x * x for x in xs) / 2.0))
        N = make_nonlinearity("saturating_sine", lip=0.1, offset=h)
        sched = Schedule(kind="truncate", members=6, r_start=6.0, r_stop=14.0, cutoff_width=2.0)
        seq = make_sequence(K, sched, spec, taper_width=0.5)
        study = run_sequence(seq, N, spec, eps=0.1, tol=1e-10, max_iter=300)
        elapsed = time.perf_counter() - t0
        scale = study.rhs_scale
        rows = study.rows
        bounds_ok = all(r.bound_ok for r in rows)
        ratio_dec = all(b.ratio_dist < a.ratio_dist for a, b in zip(rows, rows[1:]))
        sol_dec = all(b.sol_dist < a.sol_dist for a, b in zip(rows, rows[1:]))
        small = rows[-1].ratio_dist <= 1e-6 * scale and rows[-1].sol_dist <= 1e-6 * scale
        gain_gap_ok = all(
            abs(r.gain - study.lemma.limit_gain) <= r.ratio_dist + 1e-12 for r in rows
        )
        return (
            bounds_ok and ratio_dec and sol_dec and small and gain_gap_ok and elapsed < budget,
            f"bounds ok {bounds_ok}, decreasing to ratio {rows[-1].ratio_dist:.1e} / "
            f"sol {rows[-1].sol_dist:.1e} <= 1e-6 * {scale:.2f}, gain gaps bounded "
            f"{gain_gap_ok}, runtime {elapsed:.1f}s < {budget:.0f}s",
        )

    def test_7a_sequence_convergence_1d(self):
        ok, detail = self._sequence_criterion(1, 1024, 20.0, 1.0, 10.0)
        _verdict(7, f"kernel-sequence convergence d=1: {detail}", ok)

    def test_7b_sequence_convergence_2d(self):
        ok, detail = self._sequence_criterion(2, 256, 20.0, 0.6, 120.0)
        _verdict(7, f"kernel-sequence convergence d=2 (n=256): {detail}", ok)

    def test_8_triviality(self, diff_kernel, sine_nonlinearity, zero_offset_nonlinearity, spec1, grid1):
        frac0 = triviality_indicator(diff_kernel, zero_offset_nonlinearity, spec1, tau=1e-8)
        rep0 = picard_solve(diff_kernel, zero_offset_nonlinearity, spec1, tol=1e-10)
        trivial_ok = frac0 == 0.0 and rep0.final.l2_norm() <= 1e-12

        frac1 = triviality_indicator(diff_kernel, sine_nonlinearity, spec1, tau=1e-8)
        rep1 = picard_solve(diff_kernel, sine_nonlinearity, spec1, tol=1e-10)
        nontrivial_ok = frac1 > 0.0 and rep1.final.l2_norm() > 1e-12

        t = symbol(grid1, spec1.shift)
        coeffs = np.where(np.isfinite(t) & (np.abs(t) < spec1.eta), 1.0, 0.0).astype(complex)
        annulus = kernel_from_field(ift(coeffs, grid1))
        frac2 = triviality_indicator(annulus, sine_nonlinearity, spec1, tau=1e-8)
        rng = np.random.default_rng(3)
        image = apply_picard_map(
            RealField(rng.normal(size=grid1.shape), grid1), annulus, sine_nonlinearity, spec1
        )
        masked_ok = frac2 == 0.0 and image.l2_norm() <= 1e-12
        _verdict(
            8,
            f"triviality: h=0 gives u=0 ({trivial_ok}), overlap gives |u| > 0 "
            f"({nontrivial_ok}), masked supports give u = 0 ({masked_ok})",
            trivial_ok and nontrivial_ok and masked_ok,
        )

    def test_9_negative_controls(
        self, diff_kernel, sine_nonlinearity, spec1, grid1, tmp_path, runner
    ):
        sched = Schedule(kind="truncate", members=3, r_start=6.0, r_stop=10.0)
        seq = make_sequence(diff_kernel, sched, spec1, taper_width=0.5)
        cut = _truncation_cutoff(grid1.radius_mesh(), 4.0, 1.0)
        raw = kernel_from_field(RealField(cut * diff_kernel.samples.values, grid1))
        members = list(seq.members)
        members[1] = raw
        tampered = KernelSequence(members=tuple(members), limit=seq.limit, distances=seq.distances)
        table = verify_lemmaA2(tampered, spec1, lip=0.1, eps=0.1)
        lemma_ok = (
            not table.passed
            and not table.rows[1].admissible
            and table.rows[0].admissible
            and table.rows[2].admissible
        )

        from test_config import REFERENCE

        raw_cfg = REFERENCE.replace(
            "family = difference\nwidth1 = 1.0\nwidth2 = 2.0\namplitude = 1.0",
            "family = gaussian\nwidth = 1.0\namplitude = 1.0",
        )
        path = tmp_path / "raw.cfg"
        path.write_text(raw_cfg)
        result = runner.invoke(main, ["solve", str(path), "-o", str(tmp_path / "out")])
        refusal_ok = result.exit_code == EXIT_CERTIFICATE
        _verdict(
            9,
            f"negative controls: tampered member flagged at m=2 ({lemma_ok}), "
            f"solve refused with exit {result.exit_code} ({refusal_ok})",
            lemma_ok and refusal_ok,
        )

import dataclasses
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import llap.grid
from llap.grid import RealField, SymbolSpec, _half_modes, default_eta, make_grid, sample
from llap.kernels import (
    Schedule,
    inverse_symbol_gain,
    kernel_from_field,
    make_kernel,
    make_sequence,
)
from llap.checks import _hat_bound
from llap.nonlinearity import Nonlinearity, eval_F, make_nonlinearity
from llap.config import load_config
from llap.solver import (
    CertificateError,
    ConsistencyError,
    _picard_operator,
    apply_picard_map,
    certify,
    equation_residual,
    picard_solve,
    triviality_indicator,
)
from llap.sequence import run_sequence, verify_lemmaA2
from conftest import (
    SQRT_2PI,
    ft,
    full_multiplier,
    full_spectrum_residual,
    ift,
    l2_gap,
    reciprocal,
    symbol,
    traced_peak,
)


def linear_nonlinearity(grid, lip, offset):
    """F(u, x) = lip * u + h(x); violates the growth family set on purpose
    and exists only as the independent oracle for the whole pipeline."""
    return Nonlinearity(
        lip=lip,
        growth=lip,
        offset=offset,
        base=lambda u: lip * u,
    )


def annulus_kernel(grid, spec):
    """Kernel whose grid spectrum lives entirely inside the masked annulus."""
    t = symbol(grid, spec.shift)
    coeffs = np.where(np.isfinite(t) & (np.abs(t) < spec.eta), 1.0, 0.0).astype(complex)
    samples = ift(coeffs, grid)
    return kernel_from_field(samples)


class TestCertify:
    def test_reference_certificate(self, diff_kernel, sine_nonlinearity, spec1):
        cert = certify(diff_kernel, sine_nonlinearity, spec1, eps_user=0.1)
        assert cert.passed
        assert cert.q == cert.gain * SQRT_2PI * 0.1
        assert cert.q_grid <= cert.q
        assert cert.lip_sampled <= cert.lip + 1e-12
        assert cert.masked_modes == 8  # default eta of two mode spacings

    def test_formula_example(self):
        # gain 0.1 and lip 0.5 in one dimension give q = sqrt(2 pi) / 20.
        q = SQRT_2PI * 0.1 * 0.5
        assert q == pytest.approx(0.12533141373155, abs=1e-12)
        assert q <= 1.0 - 0.5

    def test_single_mode_kernel_exact_gain(self, grid1, spec1, bump_offset):
        # A kernel carrying one spectral pair has grid gain exactly
        # |G^(p0)| / |ln p0|.
        k0 = 40
        p0 = grid1.mode_axis()[k0]
        coeffs = np.zeros(grid1.shape, dtype=complex)
        coeffs[k0] = 0.25
        coeffs[-k0] = 0.25
        K = kernel_from_field(ift(coeffs, grid1))
        N = make_nonlinearity("saturating_sine", lip=0.1, offset=bump_offset)
        cert = certify(K, N, spec1, eps_user=0.1)
        assert cert.grid_gain == pytest.approx(0.25 / abs(math.log(p0)), rel=1e-12)

    def test_raw_gaussian_fails_on_residual(self, gauss_kernel, sine_nonlinearity, spec1):
        cert = certify(gauss_kernel, sine_nonlinearity, spec1, eps_user=0.1)
        assert not cert.passed
        assert cert.orth_residual == pytest.approx(math.exp(-0.5), abs=1e-6)
        assert cert.divergence_indicator > 1.0

    def test_zero_kernel_passes(self, grid1, sine_nonlinearity, spec1):
        K = make_kernel("gaussian", {"width": 1.0, "amplitude": 0.0}, grid1)
        cert = certify(K, sine_nonlinearity, spec1, eps_user=0.5)
        assert cert.passed
        assert cert.q == 0.0

    def test_eps_validation(self, diff_kernel, sine_nonlinearity, spec1):
        with pytest.raises(ValueError):
            certify(diff_kernel, sine_nonlinearity, spec1, eps_user=0.0)
        with pytest.raises(ValueError):
            certify(diff_kernel, sine_nonlinearity, spec1, eps_user=1.0)


class TestApplyMap:
    def test_zero_fixed_point(self, diff_kernel, zero_offset_nonlinearity, spec1, grid1):
        u = apply_picard_map(RealField.zeros(grid1), diff_kernel, zero_offset_nonlinearity, spec1)
        assert np.all(u.values == 0.0)

    def test_single_mode_linearization(self, diff_kernel, zero_offset_nonlinearity, spec1, grid1):
        # For v = delta cos(p0 x), the first-order response is
        # (2 pi)^(1/2) G^(p0) lip delta cos(p0 x) / (ln p0), error O(delta^3).
        # p0 sits inside the kernel's spectral band and outside the annulus.
        k0 = 4
        p0 = grid1.mode_axis()[k0]
        x = grid1.axis_coords()
        ghat = ft(diff_kernel.samples)[k0].real
        gain = SQRT_2PI * ghat / math.log(p0) * 0.1
        errs = []
        for delta in (1e-3, 5e-4):
            v = RealField(delta * np.cos(p0 * x), grid1)
            u = apply_picard_map(v, diff_kernel, zero_offset_nonlinearity, spec1)
            pred = RealField(gain * delta * np.cos(p0 * x), grid1)
            errs.append(l2_gap(u, pred) / pred.l2_norm())
        assert errs[0] <= 1e-5
        # cubic absolute error means quadratic relative error in delta
        assert errs[1] <= errs[0] / 3.0

    def test_masked_only_kernel_maps_to_zero(self, grid1, spec1, sine_nonlinearity):
        K = annulus_kernel(grid1, spec1)
        rng = np.random.default_rng(0)
        v = RealField(rng.normal(size=grid1.shape), grid1)
        u = apply_picard_map(v, K, sine_nonlinearity, spec1)
        assert u.l2_norm() <= 1e-14

    def test_multiplier_zero_on_masked_and_dc(self, diff_kernel, spec1, grid1):
        op = _picard_operator(diff_kernel, spec1)
        M = op.rhs * op.recip
        _, masked = reciprocal(grid1, spec1)
        assert np.all(M[masked[..., : grid1.n // 2 + 1]] == 0.0)
        assert np.all(M[_half_modes(grid1, spec1).inactive] == 0.0)
        assert M[0] == 0.0


class TestPicardSolve:
    @pytest.fixture(scope="class")
    @staticmethod
    def reference_report(diff_kernel, sine_nonlinearity, spec1):
        return picard_solve(diff_kernel, sine_nonlinearity, spec1, tol=1e-10)

    def test_converges(self, reference_report):
        assert reference_report.converged
        assert reference_report.residual <= 10.0 * 1e-10

    def test_ratios_below_q(self, reference_report):
        q = reference_report.certificate.q
        assert all(r <= q + 1e-8 for r in reference_report.contraction_ratios)

    def test_updates_positive_until_convergence(self, reference_report):
        assert all(u > 0.0 for u in reference_report.update_norms)

    def test_apriori_bound_dominates(self, reference_report):
        # The tail sums dominate the distances to the final iterate, so this
        # is stricter than bounding the distances themselves.
        assert len(reference_report.tail_sums) == len(reference_report.apriori_bounds)
        for tail, bound in zip(reference_report.tail_sums, reference_report.apriori_bounds):
            assert tail <= bound + 1e-9

    def test_tail_sums_dominate_distance(
        self, diff_kernel, sine_nonlinearity, spec1, grid1, reference_report
    ):
        tails = reference_report.tail_sums
        assert all(b <= a for a, b in zip(tails, tails[1:]))
        assert tails[-1] == 0.0
        assert tails[0] >= l2_gap(RealField.zeros(grid1), reference_report.final)
        rng = np.random.default_rng(5)
        v0 = RealField(rng.normal(0.0, 0.5, grid1.shape), grid1)
        other = picard_solve(diff_kernel, sine_nonlinearity, spec1, v0=v0, tol=1e-10)
        assert other.tail_sums[0] >= l2_gap(v0, other.final)

    def test_reported_residual_matches_equation_residual(
        self, diff_kernel, sine_nonlinearity, spec1, reference_report
    ):
        res = equation_residual(reference_report.final, diff_kernel, sine_nonlinearity, spec1)
        assert abs(reference_report.residual - res.value) <= 1e-13
        assert reference_report.masked_rhs_energy == pytest.approx(
            res.masked_rhs_energy, rel=1e-12, abs=1e-15
        )

    def test_first_iterate_is_one_map_application(
        self, diff_kernel, sine_nonlinearity, spec1, grid1
    ):
        rng = np.random.default_rng(11)
        v0 = RealField(rng.normal(0.0, 0.5, grid1.shape), grid1)
        first = picard_solve(diff_kernel, sine_nonlinearity, spec1, v0=v0, max_iter=1).final
        mapped = apply_picard_map(v0, diff_kernel, sine_nonlinearity, spec1)
        assert l2_gap(first, mapped) <= 1e-14 * mapped.l2_norm()

    def test_iterations_match_geometric_prediction(self, reference_report):
        assert reference_report.predicted_iterations is not None
        assert abs(reference_report.iterations - reference_report.predicted_iterations) <= 2

    def test_unique_fixed_point_from_two_starts(
        self, diff_kernel, sine_nonlinearity, spec1, grid1, reference_report
    ):
        rng = np.random.default_rng(42)
        v0 = RealField(rng.normal(0.0, 0.5, grid1.shape), grid1)
        other = picard_solve(diff_kernel, sine_nonlinearity, spec1, v0=v0, tol=1e-10)
        assert l2_gap(other.final, reference_report.final) <= 10.0 * 1e-10

    def test_restart_at_fixed_point_takes_one_iteration(
        self, diff_kernel, sine_nonlinearity, spec1, reference_report
    ):
        again = picard_solve(
            diff_kernel, sine_nonlinearity, spec1, v0=reference_report.final, tol=1e-10
        )
        assert again.iterations == 1
        assert again.update_norms[0] <= 1e-10 * max(1.0, again.final.l2_norm())

    def test_trivial_problem_one_iteration(self, diff_kernel, zero_offset_nonlinearity, spec1):
        report = picard_solve(diff_kernel, zero_offset_nonlinearity, spec1, tol=1e-10)
        assert report.iterations == 1
        assert report.final.l2_norm() == 0.0

    def test_zero_start_holds_no_field_of_its_own(self):
        # Without v0 the iterate starts at zero in the solve's own buffer:
        # the solve holds no more than one from a caller's zero field, and
        # computes the same bits.
        grid = make_grid(2, 13.0, 256)
        spec = SymbolSpec(0.0, default_eta(grid, 0.0))
        K = make_kernel(
            "difference", {"width1": 1.0, "width2": 2.0, "amplitude": 1.0, "shift": 0.0}, grid
        )
        offset = sample(grid, lambda *xs: 0.3 * np.exp(-sum(x * x for x in xs) / 2.0))
        N = make_nonlinearity("saturating_sine", lip=0.1, offset=offset)
        cert = certify(K, N, spec, eps_user=0.1)
        zero = RealField.zeros(grid)
        picard_solve(K, N, spec, v0=zero, certificate=cert)  # warm up
        given, given_peak = traced_peak(lambda: picard_solve(K, N, spec, v0=zero, certificate=cert))
        report, peak = traced_peak(lambda: picard_solve(K, N, spec, certificate=cert))
        real = 8 * grid.npoints
        assert peak <= given_peak + real / 8, (peak - given_peak) / real
        assert report.update_norms == given.update_norms
        assert report.residual == given.residual
        assert np.array_equal(report.final.values, given.final.values)

    def test_certificate_failure_refused(self, gauss_kernel, sine_nonlinearity, spec1):
        with pytest.raises(CertificateError, match="refused"):
            picard_solve(gauss_kernel, sine_nonlinearity, spec1)

    def test_max_iter_flags_nonconverged(self, diff_kernel, sine_nonlinearity, spec1):
        report = picard_solve(diff_kernel, sine_nonlinearity, spec1, tol=1e-10, max_iter=1)
        assert not report.converged
        assert report.iterations == 1

    def test_validation(self, diff_kernel, sine_nonlinearity, spec1):
        with pytest.raises(ValueError):
            picard_solve(diff_kernel, sine_nonlinearity, spec1, tol=0.0)
        with pytest.raises(ValueError):
            picard_solve(diff_kernel, sine_nonlinearity, spec1, max_iter=0)


class TestAprioriBoundCanFail:
    """The a-priori contraction bound catches a q that is too small.

    On configs/reference.cfg its tail sums reach 0.966 of their bounds, so
    the bound must fail with q scaled by 0.9 and hold with 0.95.
    """

    @pytest.fixture(scope="class")
    @staticmethod
    def reference():
        cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "reference.cfg")
        grid = cfg.grid()
        spec = cfg.symbol_spec(grid)
        K, N = cfg.kernel(grid, spec), cfg.nonlinearity(grid)
        cert = certify(K, N, spec, cfg.eps_user, seed=cfg.seed)
        return K, N, spec, cfg.starting_field(grid), cfg.tol, cert

    def _solve(self, reference, factor):
        K, N, spec, v0, tol, cert = reference
        cert = dataclasses.replace(cert, q=factor * cert.q)
        return picard_solve(K, N, spec, v0=v0, tol=tol, certificate=cert)

    def test_tails_come_close_to_the_bound(self, reference):
        report = self._solve(reference, 1.0)
        peak = max(t / b for t, b in zip(report.tail_sums, report.apriori_bounds))
        assert 0.95 < peak < 1.0

    def test_raises_with_q_scaled_by_0_9(self, reference):
        with pytest.raises(ConsistencyError, match="at iterate 0: tail sum 9.477e-01 > 9.469e-01"):
            self._solve(reference, 0.9)

    def test_holds_with_q_scaled_by_0_95(self, reference):
        assert self._solve(reference, 0.95).converged


class TestContractionSampling:
    def test_hundred_random_pairs(self, diff_kernel, sine_nonlinearity, spec1, grid1):
        cert = certify(diff_kernel, sine_nonlinearity, spec1, eps_user=0.1)
        pref = SQRT_2PI
        rng = np.random.default_rng(7)
        worst_ratio = 0.0
        for _ in range(100):
            v = RealField(rng.normal(0.0, 10.0, grid1.shape), grid1)
            w = RealField(rng.normal(0.0, 10.0, grid1.shape), grid1)
            tv = apply_picard_map(v, diff_kernel, sine_nonlinearity, spec1)
            tw = apply_picard_map(w, diff_kernel, sine_nonlinearity, spec1)
            ratio = l2_gap(tv, tw) / l2_gap(v, w)
            worst_ratio = max(worst_ratio, ratio)
            bound = pref * cert.grid_gain * eval_F(sine_nonlinearity, v).l2_norm()
            assert tv.l2_norm() <= bound + 1e-10
        assert worst_ratio <= cert.q_grid + 1e-10


class TestResidual:
    def test_converged_residual_small(self, diff_kernel, sine_nonlinearity, spec1):
        report = picard_solve(diff_kernel, sine_nonlinearity, spec1, tol=1e-10)
        res = equation_residual(report.final, diff_kernel, sine_nonlinearity, spec1)
        assert res.value <= 10.0 * 1e-10

    def test_zero_field_zero_offset(self, diff_kernel, zero_offset_nonlinearity, spec1, grid1):
        res = equation_residual(
            RealField.zeros(grid1), diff_kernel, zero_offset_nonlinearity, spec1
        )
        assert res.value == 0.0
        assert res.masked_rhs_energy == 0.0

    def test_zero_field_with_offset_formula(self, diff_kernel, sine_nonlinearity, spec1, grid1):
        # At u = 0 the residual is the unmasked L2 mass of
        # (2 pi)^(d/2) G^ h^.
        res = equation_residual(RealField.zeros(grid1), diff_kernel, sine_nonlinearity, spec1)
        ghat = ft(diff_kernel.samples)
        hhat = ft(sine_nonlinearity.offset)
        t = symbol(grid1, spec1.shift)
        active = np.isfinite(t) & (np.abs(t) >= spec1.eta)
        expected = math.sqrt(
            grid1.mode_spacing * float(np.sum(np.abs(SQRT_2PI * ghat * hhat)[active] ** 2))
        )
        assert res.value == pytest.approx(expected, rel=1e-12)

    def test_spectral_equals_physical_norm(self, diff_kernel, sine_nonlinearity, spec1, grid1):
        # The reported spectral-side norm equals the physical L2 norm of the
        # transformed-back residual field, by unitarity.
        rng = np.random.default_rng(3)
        u = RealField(rng.normal(0.0, 0.3, grid1.shape), grid1)
        res = equation_residual(u, diff_kernel, sine_nonlinearity, spec1)
        t = symbol(grid1, spec1.shift)
        active = np.isfinite(t) & (np.abs(t) >= spec1.eta)
        uhat = ft(u)
        what = ft(eval_F(sine_nonlinearity, u))
        ghat = ft(diff_kernel.samples)
        diff = np.zeros(grid1.shape, dtype=complex)
        diff[active] = t[active] * uhat[active] - SQRT_2PI * (ghat * what)[active]
        back = ift(diff, grid1)
        assert res.value == pytest.approx(back.l2_norm(), rel=1e-10)

    def test_residual_reads_its_field_in_place(self):
        # The residual never steps, so it reads u where it lies: its peak is
        # the step's buffers (two half spectra, one scratch block) and the
        # operator's reciprocal, under four real fields at d=2, n=256.
        grid = make_grid(2, 12.0, 256)
        spec = SymbolSpec(0.0, default_eta(grid, 0.0))
        K = make_kernel(
            "difference", {"width1": 1.0, "width2": 2.0, "amplitude": 1.0, "shift": 0.0}, grid
        )
        offset = sample(grid, lambda *xs: 0.3 * np.exp(-sum(x * x for x in xs) / 2.0))
        N = make_nonlinearity("saturating_sine", lip=0.1, offset=offset)
        u = RealField(np.random.default_rng(2).normal(0.0, 0.5, grid.shape), grid)
        before = u.values.copy()
        first = equation_residual(u, K, N, spec)  # warm up
        res, peak = traced_peak(lambda: equation_residual(u, K, N, spec))
        assert peak <= 4.0 * 8 * grid.npoints, peak / (8 * grid.npoints)
        assert res == first
        assert np.array_equal(u.values, before)


class TestTriviality:
    def test_zero_offset_trivial(self, diff_kernel, zero_offset_nonlinearity, spec1):
        frac = triviality_indicator(diff_kernel, zero_offset_nonlinearity, spec1, tau=1e-8)
        assert frac == 0.0
        report = picard_solve(diff_kernel, zero_offset_nonlinearity, spec1, tol=1e-10)
        assert report.final.l2_norm() <= 1e-12

    def test_overlapping_supports_nontrivial(self, diff_kernel, sine_nonlinearity, spec1):
        frac = triviality_indicator(diff_kernel, sine_nonlinearity, spec1, tau=1e-8)
        assert frac > 0.0
        report = picard_solve(diff_kernel, sine_nonlinearity, spec1, tol=1e-10)
        assert report.final.l2_norm() > 1e-12

    def test_masked_supports_trivial(self, grid1, spec1, sine_nonlinearity):
        K = annulus_kernel(grid1, spec1)
        frac = triviality_indicator(K, sine_nonlinearity, spec1, tau=1e-8)
        assert frac == 0.0
        # every Picard step maps to zero, so the fixed point is zero
        u = apply_picard_map(
            RealField(np.random.default_rng(1).normal(size=grid1.shape), grid1),
            K,
            sine_nonlinearity,
            spec1,
        )
        assert u.l2_norm() <= 1e-12

    def test_tau_validation(self, diff_kernel, sine_nonlinearity, spec1):
        with pytest.raises(ValueError):
            triviality_indicator(diff_kernel, sine_nonlinearity, spec1, tau=0.0)


class TestLinearOracle:
    def test_picard_matches_direct_spectral_solution(
        self, diff_kernel, spec1, grid1, bump_offset
    ):
        # With F(u, x) = lip u + h(x) the fixed point solves a linear system
        # mode by mode: u^ = M h^ / (1 - lip M).
        lip = 0.1
        N = linear_nonlinearity(grid1, lip, bump_offset)
        report = picard_solve(diff_kernel, N, spec1, tol=1e-13, max_iter=400)
        M = full_multiplier(diff_kernel, spec1)
        hhat = ft(bump_offset)
        direct = ift(M * hhat / (1.0 - lip * M), grid1)
        assert l2_gap(report.final, direct) <= 1e-10


class TestHalfSpectrumHigherDimensions:
    """The half-spectrum operator and diagnostics against full-spectrum formulas.

    n = 16 keeps the grids small; the half spectrum then has an odd last
    axis (9 modes), whose first and last planes carry Hermitian weight 1.
    The widths are close enough for the coarse sampling to resolve the
    narrow Gaussian, so the difference kernel certifies.
    """

    @pytest.fixture(scope="class", params=[1, 2, 3])
    @staticmethod
    def problem(request):
        grid = make_grid(request.param, 10.0, 16)
        spec = SymbolSpec(shift=0.0, eta=0.3)
        K = make_kernel(
            "difference",
            {"width1": 1.4, "width2": 2.0, "amplitude": 0.5, "shift": 0.0},
            grid,
        )
        offset = sample(grid, lambda *xs: 0.3 * np.exp(-sum(x * x for x in xs) / 2.0))
        N = make_nonlinearity("saturating_sine", lip=0.1, offset=offset)
        return grid, spec, K, N

    def test_multiplier_matches_full_spectrum(self, problem):
        grid, spec, K, N = problem
        full = full_multiplier(K, spec)
        op = _picard_operator(K, spec)
        M = op.rhs * op.recip
        assert M.shape == grid.shape[:-1] + (grid.n // 2 + 1,)
        assert np.max(np.abs(M - full[..., : grid.n // 2 + 1])) <= 1e-14 * np.max(np.abs(full))

    def test_map_matches_full_spectrum_step(self, problem):
        grid, spec, K, N = problem
        v = RealField(np.random.default_rng(1).normal(0.0, 0.5, grid.shape), grid)
        M = full_multiplier(K, spec)
        expected = ift(M * ft(eval_F(N, v)), grid)
        mapped = apply_picard_map(v, K, N, spec)
        assert l2_gap(mapped, expected) <= 1e-13 * expected.l2_norm()

    def test_residual_matches_full_spectrum(self, problem):
        grid, spec, K, N = problem
        u = RealField(np.random.default_rng(2).normal(0.0, 0.3, grid.shape), grid)
        res = equation_residual(u, K, N, spec)
        expected = full_spectrum_residual(u, K, N, spec)
        assert (res.value, res.masked_rhs_energy) == pytest.approx(expected, rel=1e-12)

    def test_triviality_counts_full_modes(self, problem):
        grid, spec, K, N = problem
        t = symbol(grid, spec.shift)
        active = np.isfinite(t) & (np.abs(t) >= spec.eta)
        ghat = np.abs(ft(K.samples))
        w0hat = np.abs(ft(eval_F(N, RealField.zeros(grid))))
        both = (ghat > 1e-8 * ghat.max()) & (w0hat > 1e-8 * w0hat.max()) & active
        expected = np.count_nonzero(both) / np.count_nonzero(active)
        assert triviality_indicator(K, N, spec, tau=1e-8) == pytest.approx(expected, rel=1e-12)

    def test_diagnostics_match_full_spectrum(self, problem):
        grid, spec, K, N = problem
        other = make_kernel("gaussian", {"width": 1.0, "amplitude": 0.5}, grid)
        recip, masked = reciprocal(grid, spec)
        ghat = ft(K.samples)
        diag, diag_other = inverse_symbol_gain(K, spec), inverse_symbol_gain(other, spec)
        grid_gain = np.max(np.abs(ghat * recip))
        ring_distance = np.max(np.abs(diag.ring_hat - diag_other.ring_hat) / diag.ring_denom)
        distance = max(
            np.max(np.abs((ghat - ft(other.samples)) * recip)), ring_distance
        )
        assert diag.grid_gain == pytest.approx(grid_gain, rel=1e-14)
        assert diag.gain == pytest.approx(max(grid_gain, diag.ring_gain), rel=1e-14)
        assert diag.ratio_distance(diag_other) == pytest.approx(distance, rel=1e-14)
        assert _hat_bound(K).value == pytest.approx(np.max(np.abs(ghat)), rel=1e-14)
        assert certify(K, N, spec, eps_user=0.1).masked_modes == np.count_nonzero(masked)

    def test_operator_reads_the_kernel_spectrum(self, problem):
        grid, spec, K, N = problem
        op = _picard_operator(K, spec)
        assert op.rhs is K.hat
        assert op.modes is _half_modes(grid, spec)
        assert not K.hat.flags.writeable
        weights = op.modes.weights
        assert weights.strides[:-1] == (0,) * (grid.d - 1)
        assert np.sum(weights) == grid.npoints

    def test_solve_residual_and_tail_sums(self, problem):
        grid, spec, K, N = problem
        cert = certify(K, N, spec, eps_user=0.1)
        assert cert.passed
        v0 = RealField(np.random.default_rng(3).normal(0.0, 0.5, grid.shape), grid)
        report = picard_solve(K, N, spec, v0=v0, tol=1e-12, certificate=cert)
        assert report.converged
        res = equation_residual(report.final, K, N, spec)
        assert abs(report.residual - res.value) <= 1e-13
        assert report.tail_sums[0] >= l2_gap(v0, report.final)
        assert all(
            tail <= bound + 1e-11 for tail, bound in zip(report.tail_sums, report.apriori_bounds)
        )


def _llap_bindings(real):
    """(module, name) of every binding of the function real in the llap modules."""
    return [
        (mod, name)
        for modname, mod in list(sys.modules.items())
        if modname == "llap" or modname.startswith("llap.")
        for name, obj in list(vars(mod).items())
        if obj is real
    ]


class TestOneKernelTransform:
    def test_certify_and_solve_transform_the_kernel_once(
        self, grid1, spec1, sine_nonlinearity, monkeypatch
    ):
        inputs = []

        def recorder(real):
            def recorded(a, *args, **kwargs):
                inputs.append(a)
                return real(a, *args, **kwargs)

            return recorded

        for mod, name in _llap_bindings(llap.grid._rfftn):
            monkeypatch.setattr(mod, name, recorder(llap.grid._rfftn))
        K = make_kernel(
            "difference", {"width1": 1.0, "width2": 2.0, "amplitude": 1.0, "shift": 0.0}, grid1
        )
        cert = certify(K, sine_nonlinearity, spec1, eps_user=0.1)
        report = picard_solve(K, sine_nonlinearity, spec1, certificate=cert)
        assert report.converged
        assert sum(a is K.samples.values for a in inputs) == 1

    def test_no_full_complex_transform_in_the_library(self):
        # Every transform the library runs is a half-spectrum one (grid._rfftn,
        # grid._irfftn); numpy's complex n-D transforms serve only the tests'
        # oracle in conftest.
        src = Path(llap.grid.__file__).parent
        found = [
            f"{path.name}:{number}"
            for path in sorted(src.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            if re.search(r"fft\.i?fftn\b", line)
        ]
        assert found == []

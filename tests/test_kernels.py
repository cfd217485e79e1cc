import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from llap.grid import RealField, SymbolSpec, default_eta, make_grid
from llap.kernels import (
    Schedule,
    difference_coefficient,
    inverse_symbol_gain,
    kernel_from_field,
    make_kernel,
    make_sequence,
    project_orthogonal,
    sphere_points,
)
from llap import kernels
from llap.checks import _derivative_bound, _direct_convolution, _hat_bound
from conftest import SQRT_2PI, dense_l1_norms, ft, mode_radius, sphere_residual

EXP_HALF = math.exp(-0.5)  # |G^| of the unit Gaussian on the unit sphere


class TestMakeKernel:
    def test_gaussian_l1(self, gauss_kernel):
        assert gauss_kernel.l1 == pytest.approx(SQRT_2PI, abs=1e-8)

    def test_cached_norms_match_quadrature(self, diff_kernel):
        l1, weighted_l1 = dense_l1_norms(diff_kernel.samples)
        assert diff_kernel.l1 == pytest.approx(l1, rel=1e-10)
        assert diff_kernel.weighted_l1 == pytest.approx(weighted_l1, rel=1e-10)

    def test_zero_amplitude(self, grid1):
        K = make_kernel("gaussian", {"width": 1.0, "amplitude": 0.0}, grid1)
        assert K.l1 == 0.0
        assert K.weighted_l1 == 0.0

    def test_difference_coefficient_closed_form(self):
        # c1 exp(-w1^2 r^2/2) = c2 exp(-w2^2 r^2/2) at r = exp(shift)
        c2 = difference_coefficient(1.0, 2.0, 0.0)
        assert c2 == pytest.approx(math.exp(1.5))
        assert 1.0 * math.exp(-0.5) == pytest.approx(c2 * math.exp(-2.0))

    def test_difference_admissible(self, diff_kernel):
        assert sphere_residual(diff_kernel, 0.0) <= 1e-8

    def test_invalid_params(self, grid1):
        with pytest.raises(ValueError):
            make_kernel("gaussian", {"width": -1.0}, grid1)
        with pytest.raises(ValueError):
            make_kernel("bump", {"radius": 0.0}, grid1)
        with pytest.raises(ValueError):
            make_kernel("difference", {"width1": 1.0, "width2": 1.0}, grid1)
        with pytest.raises(ValueError, match="family"):
            make_kernel("sinc", {}, grid1)

    def test_difference_coefficient_overflow_refused(self, grid1):
        # exp(3 e^(2 shift) / 2) overflows a double from shift ~ 3.1 on.
        with pytest.raises(ValueError, match="second coefficient overflows at shift 4"):
            make_kernel("difference", {"width1": 1.0, "width2": 2.0, "shift": 4.0}, grid1)

    def test_overflowing_sum_of_squares_refused(self, grid1):
        K = make_kernel("gaussian", {"width": 1.0, "amplitude": 1e150}, grid1)
        assert math.isfinite(K.samples.l2_norm())
        with pytest.raises(ValueError, match=r"\|\|G\|\|_2 = inf.*square integrable"):
            make_kernel("gaussian", {"width": 1.0, "amplitude": 1e160}, grid1)

    def test_bump_support(self, grid1):
        K = make_kernel("bump", {"radius": 2.0, "amplitude": 1.0}, grid1)
        outside = np.abs(grid1.axis_coords()) >= 2.0
        assert np.all(K.samples.values[outside] == 0.0)
        assert K.samples.values[grid1.n // 2] == pytest.approx(1.0)


class TestHatOnSphere:
    """|G^| on the singular sphere: the orthogonality residual of the diagnostics pass."""

    def test_gaussian_residual_closed_form(self, gauss_kernel):
        assert inverse_symbol_gain(gauss_kernel, SymbolSpec(0.0, 0.05)).orth_residual == (
            pytest.approx(EXP_HALF, abs=1e-6)
        )
        assert np.allclose(np.linalg.norm(sphere_points(1, 1.0), axis=1), 1.0, rtol=1e-12)

    def test_gaussian_residual_d2(self):
        g = make_grid(2, 12.0, 128)
        K = make_kernel("gaussian", {"width": 1.0, "amplitude": 1.0}, g)
        assert inverse_symbol_gain(K, SymbolSpec(0.0, 0.05)).orth_residual == pytest.approx(
            EXP_HALF, abs=1e-6
        )

    def test_zero_kernel(self, grid1):
        K = make_kernel("gaussian", {"width": 1.0, "amplitude": 0.0}, grid1)
        assert inverse_symbol_gain(K, SymbolSpec(0.0, 0.05)).orth_residual == 0.0

    def test_d1_two_points(self):
        r = math.exp(0.5)
        assert sphere_points(1, r).tolist() == [[r], [-r]]

    def test_sphere_outside_band_rejected(self, gauss_kernel):
        with pytest.raises(ValueError, match="sphere radius 100 lies outside the resolved"):
            inverse_symbol_gain(gauss_kernel, SymbolSpec(math.log(100.0), 0.01))

    def test_sphere_points_on_sphere(self):
        for d in (2, 3):
            pts = sphere_points(d, 2.5)
            assert pts.shape == (kernels.SPHERE_SAMPLES, d)
            assert np.allclose(np.linalg.norm(pts, axis=1), 2.5, rtol=1e-12)


class TestProjection:
    def test_gaussian_residual_drops(self, gauss_kernel, grid1):
        spec = SymbolSpec(0.0, 0.05)
        proj = project_orthogonal(gauss_kernel, spec, taper_width=0.25)
        before = sphere_residual(gauss_kernel, 0.0)
        after = sphere_residual(proj, 0.0)
        assert before == pytest.approx(EXP_HALF, abs=1e-6)
        assert after <= 1e-10 * gauss_kernel.l1

    def test_idempotent(self, gauss_kernel, grid1):
        spec = SymbolSpec(0.0, 0.05)
        once = project_orthogonal(gauss_kernel, spec, taper_width=0.25)
        twice = project_orthogonal(once, spec, taper_width=0.25)
        gap = dense_l1_norms(RealField(twice.samples.values - once.samples.values, grid1))[0]
        assert gap <= 1e-12 * once.l1

    def test_admissible_kernel_barely_changes(self, diff_kernel, grid1):
        spec = SymbolSpec(0.0, 0.05)
        proj = project_orthogonal(diff_kernel, spec, taper_width=0.25)
        rel_change = (
            dense_l1_norms(RealField(proj.samples.values - diff_kernel.samples.values, grid1))[0]
            / diff_kernel.l1
        )
        # Bounded by the kernel's spectral mass in the taper band; for an
        # already-admissible kernel the change tracks its tiny residual.
        band = np.abs(np.abs(mode_radius(grid1)) - 1.0) <= 0.25
        ghat = np.abs(ft(diff_kernel.samples))
        band_energy = math.sqrt(float(np.sum(ghat[band] ** 2) / np.sum(ghat**2)))
        assert rel_change <= band_energy
        assert rel_change <= 1e-8

    def test_zero_kernel_unchanged(self, grid1):
        K = make_kernel("gaussian", {"width": 1.0, "amplitude": 0.0}, grid1)
        proj = project_orthogonal(K, SymbolSpec(0.0, 0.05), taper_width=0.25)
        assert np.all(proj.samples.values == 0.0)

    def test_taper_narrower_than_eta_rejected(self, gauss_kernel):
        with pytest.raises(ValueError, match="narrower"):
            project_orthogonal(gauss_kernel, SymbolSpec(0.0, 0.3), taper_width=0.2)

    def test_taper_too_narrow_for_grid_rejected(self, gauss_kernel):
        with pytest.raises(ValueError, match="taper too narrow"):
            project_orthogonal(gauss_kernel, SymbolSpec(0.0, 0.001), taper_width=0.01)

    def test_projection_d2_radial(self):
        g = make_grid(2, 20.0, 128)
        K = make_kernel("gaussian", {"width": 1.0, "amplitude": 1.0}, g)
        proj = project_orthogonal(K, SymbolSpec(0.0, 0.05), taper_width=0.25)
        assert sphere_residual(proj, 0.0) <= 1e-10 * K.l1

    def test_projection_d3_cubic(self):
        g = make_grid(3, 12.0, 32)
        K = make_kernel("gaussian", {"width": 1.0, "amplitude": 1.0}, g)
        proj = project_orthogonal(K, SymbolSpec(0.0, 0.05), taper_width=0.5)
        assert sphere_residual(proj, 0.0) <= 1e-10 * K.l1

    def test_projection_nonradial_d1(self, grid1):
        # Off-center kernels have complex G^ on the sphere; both parts go.
        x = grid1.axis_coords()
        vals = np.exp(-((x - 1.5) ** 2) / 2.0)
        K = kernel_from_field(RealField(vals, grid1))
        proj = project_orthogonal(K, SymbolSpec(0.0, 0.05), taper_width=0.25)
        assert sphere_residual(proj, 0.0) <= 1e-10 * K.l1


@pytest.fixture(scope="module")
def special():
    return pytest.importorskip("scipy.special")


class TestBesselProfiles:
    """The atoms' radial profiles against scipy.special, the reference."""

    # Subnormal radii are left out: scipy's spherical_jn returns nan there
    # (l = 4 at 5e-324), and a grid radius is 0 or at least a grid spacing.
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 80.0, allow_subnormal=False), min_size=1, max_size=40))
    def test_match_scipy(self, special, zs):
        z = np.array([0.0, *zs])
        J = kernels._bessel_j((0, 4, 8, 12), z)
        for i, k in enumerate((0, 4, 8, 12)):
            assert np.max(np.abs(J[:, i] - special.jv(k, z))) <= 1e-14
        j = kernels._spherical_bessel_j((0, 4, 6, 8, 10), z)
        for i, ell in enumerate((0, 4, 6, 8, 10)):
            assert np.max(np.abs(j[:, i] - special.spherical_jn(ell, z))) <= 1e-14

    def test_odd_spherical_orders(self, special):
        # The sine branch of the Legendre integral; the atoms use even orders.
        z = np.linspace(0.0, 80.0, 801)
        j = kernels._spherical_bessel_j((1, 3, 4), z)
        for i, ell in enumerate((1, 3, 4)):
            assert np.max(np.abs(j[:, i] - special.spherical_jn(ell, z))) <= 1e-14

    def test_blocks_cover_every_radius(self, monkeypatch):
        z = np.linspace(0.0, 30.0, 1001)
        whole = kernels._bessel_j((0, 4), z), kernels._spherical_bessel_j((0, 4), z)
        monkeypatch.setattr(kernels, "_QUADRATURE_ELEMENTS", 1000)
        blocked = kernels._bessel_j((0, 4), z), kernels._spherical_bessel_j((0, 4), z)
        for a, b in zip(whole, blocked):
            assert np.max(np.abs(a - b)) <= 1e-15


def test_projection_imports_no_scipy():
    code = (
        "import sys\n"
        "from llap.grid import SymbolSpec, make_grid\n"
        "from llap.kernels import make_kernel, project_orthogonal\n"
        "for d, n, L in ((2, 64, 20.0), (3, 32, 12.0)):\n"
        "    K = make_kernel('gaussian', {'width': 1.0}, make_grid(d, L, n))\n"
        "    project_orthogonal(K, SymbolSpec(0.0, 0.05), taper_width=0.5)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(kernels.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


class TestInverseSymbolGain:
    def test_zero_kernel(self, grid1):
        K = make_kernel("gaussian", {"width": 1.0, "amplitude": 0.0}, grid1)
        assert inverse_symbol_gain(K, SymbolSpec(0.0, 0.05)).gain == 0.0

    def test_admissible_gain_stable_under_refinement(self, diff_kernel):
        g1 = inverse_symbol_gain(diff_kernel, SymbolSpec(0.0, 0.05)).gain
        g2 = inverse_symbol_gain(diff_kernel, SymbolSpec(0.0, 0.025)).gain
        assert abs(g2 - g1) <= 0.05 * g1

    def test_raw_gaussian_diverges_like_residual_over_eta(self, gauss_kernel):
        # Near the sphere |G^(p)| / |ln r| ~ residual / eta, so gain * eta
        # tracks the residual within 20% as eta halves.
        residual = sphere_residual(gauss_kernel, 0.0)
        for eta in (0.1, 0.05, 0.025):
            est = inverse_symbol_gain(gauss_kernel, SymbolSpec(0.0, eta))
            assert 0.8 * residual <= est.gain * eta <= 1.25 * residual
            assert est.divergence_indicator == pytest.approx(residual / eta)

    def test_divergence_indicator_small_for_admissible(self, diff_kernel):
        est = inverse_symbol_gain(diff_kernel, SymbolSpec(0.0, 0.05))
        assert est.divergence_indicator <= 1e-8

    def test_one_pass_kept_per_spec(self, grid1):
        K = make_kernel("gaussian", {"width": 1.0, "amplitude": 1.0}, grid1)
        first = inverse_symbol_gain(K, SymbolSpec(0.0, 0.05))
        assert inverse_symbol_gain(K, SymbolSpec(0.0, 0.05)) is first
        other = inverse_symbol_gain(K, SymbolSpec(0.0, 0.025))
        assert other is not first and other.eta == 0.025
        assert first.grid_hat is K.hat
        fresh = make_kernel("gaussian", {"width": 1.0, "amplitude": 1.0}, grid1)
        assert inverse_symbol_gain(fresh, SymbolSpec(0.0, 0.05)) is not first

    def test_outer_ring_outside_band_rejected(self, gauss_kernel, grid1):
        # The sphere sits just inside the Nyquist radius, the outer ring
        # exp(2 eta) further out does not.
        shift = math.log(0.999 * grid1.nyquist_radius)
        assert inverse_symbol_gain(gauss_kernel, SymbolSpec(shift, 1e-6)).orth_residual >= 0.0
        with pytest.raises(ValueError, match="outer ring radius .* lies outside the resolved"):
            inverse_symbol_gain(gauss_kernel, SymbolSpec(shift, 0.01))

    def test_ring_contributes(self, gauss_kernel):
        # For the raw Gaussian the sup lives on the off-grid ring, not on
        # the surviving grid modes.
        est = inverse_symbol_gain(gauss_kernel, SymbolSpec(0.0, 0.05))
        assert est.ring_gain > est.grid_gain


class TestTransformBounds:
    """The verify suite's hat_bound and derivative_bound rows."""

    def test_hat_bound_gaussian_equality(self, gauss_kernel):
        # Nonnegative kernel: the sup of |G^| is attained at p = 0 with
        # equality in the L1 bound.
        check = _hat_bound(gauss_kernel)
        bound = gauss_kernel.l1 / SQRT_2PI
        assert check.name == "hat_bound" and check.passed
        assert check.value == pytest.approx(bound, rel=1e-12)
        assert check.detail == (
            f"max |G^| = {check.value:.6g} vs (2 pi)^(-d/2) ||G||_1 = {bound:.6g}"
        )

    def test_hat_bound_single_signed_equality(self, diff_kernel):
        # With width2/width1 = 2 the wide Gaussian dominates pointwise, the
        # kernel is single-signed, and the bound is attained at p = 0.
        check = _hat_bound(diff_kernel)
        assert check.passed
        assert check.value == pytest.approx(diff_kernel.l1 / SQRT_2PI, rel=1e-12)

    def test_hat_bound_sign_changing_margin(self, grid1):
        # Narrow widths flip the sign near the origin; cancellation in the
        # transform leaves a strict margin under the L1 bound.
        K = make_kernel(
            "difference", {"width1": 0.5, "width2": 0.6, "amplitude": 1.0, "shift": 0.0}, grid1
        )
        assert np.any(K.samples.values > 0) and np.any(K.samples.values < 0)
        check = _hat_bound(K)
        assert check.passed
        assert check.value < 0.9 * K.l1 / SQRT_2PI

    def test_hat_bound_zero_kernel(self, grid1):
        K = make_kernel("gaussian", {"width": 1.0, "amplitude": 0.0}, grid1)
        check = _hat_bound(K)
        assert check.passed and check.value == 0.0

    def test_derivative_bound_gaussian(self, gauss_kernel):
        # d/dp exp(-p^2/2) peaks at p = 1 with value exp(-1/2); the bound
        # (2 pi)^(-1/2) ||x G||_1 = 2 / sqrt(2 pi), up to the O(h^2)
        # quadrature error of the kinked weight |x|.
        check = _derivative_bound(gauss_kernel, 0)
        bound = gauss_kernel.weighted_l1 / SQRT_2PI
        assert check.name == "derivative_bound" and check.passed
        assert bound == pytest.approx(2.0 / SQRT_2PI, abs=1e-3)
        assert check.detail == f"max radial |dG^| = {check.value:.6g} vs bound {bound:.6g} + 1e-6"
        assert check.value == pytest.approx(EXP_HALF, abs=5e-3)
        assert check.value <= EXP_HALF + 1e-10

    def test_derivative_bound_zero_and_bump(self, grid1):
        K0 = make_kernel("gaussian", {"width": 1.0, "amplitude": 0.0}, grid1)
        assert _derivative_bound(K0, 0).passed
        Kb = make_kernel("bump", {"radius": 2.0, "amplitude": 0.7}, grid1)
        assert _derivative_bound(Kb, 0).passed

    @pytest.mark.parametrize("d,n,L", [(1, 1024, 20.0), (2, 64, 10.0), (3, 32, 8.0)])
    def test_bounds_all_families_all_dims(self, d, n, L):
        g = make_grid(d, L, n)
        kernels = [
            make_kernel("gaussian", {"width": 1.0, "amplitude": 1.0}, g),
            make_kernel("bump", {"radius": 2.0, "amplitude": 1.0}, g),
            make_kernel(
                "difference",
                {"width1": 1.0, "width2": 2.0, "amplitude": 1.0, "shift": 0.0},
                g,
            ),
        ]
        for K in kernels:
            assert _hat_bound(K).passed
            assert _derivative_bound(K, 0).passed


class TestSequences:
    @pytest.fixture(scope="class")
    @staticmethod
    def truncate_seq(diff_kernel, spec1):
        sched = Schedule(kind="truncate", members=6, r_start=6.0, r_stop=14.0, cutoff_width=2.0)
        return make_sequence(diff_kernel, sched, spec1, taper_width=0.5)

    def test_distances_decreasing_to_zero(self, truncate_seq):
        l1 = [d[0] for d in truncate_seq.distances]
        wl1 = [d[1] for d in truncate_seq.distances]
        assert all(b < a for a, b in zip(l1, l1[1:]))
        assert all(b < a for a, b in zip(wl1, wl1[1:]))
        assert l1[-1] <= 1e-6
        assert wl1[-1] <= 1e-6

    def test_members_admissible(self, truncate_seq, spec1):
        for member in truncate_seq.members:
            assert sphere_residual(member, spec1.shift) <= 1e-8 * max(1.0, member.l1)

    def test_distances_recomputable(self, truncate_seq):
        g = truncate_seq.limit.grid
        for member, (l1, wl1) in zip(truncate_seq.members, truncate_seq.distances):
            diff = RealField(member.samples.values - truncate_seq.limit.samples.values, g)
            dense_l1, dense_wl1 = dense_l1_norms(diff)
            assert l1 == pytest.approx(dense_l1, rel=1e-10, abs=1e-300)
            assert wl1 == pytest.approx(dense_wl1, rel=1e-10, abs=1e-300)

    def test_limit_orthogonality_inherited(self, truncate_seq, spec1):
        # Member residuals plus the L1 gap control the limit's residual.
        d = truncate_seq.limit.grid.d
        rho = max(
            sphere_residual(m, spec1.shift) for m in truncate_seq.members
        )
        min_l1 = min(dd[0] for dd in truncate_seq.distances)
        limit_res = sphere_residual(truncate_seq.limit, spec1.shift)
        assert limit_res <= rho + min_l1 / (2.0 * math.pi) ** (d / 2.0)

    def test_single_member(self, diff_kernel, spec1):
        sched = Schedule(kind="truncate", members=1, r_start=8.0, r_stop=8.0)
        seq = make_sequence(diff_kernel, sched, spec1, taper_width=0.5)
        assert len(seq.members) == 1
        assert seq.distances[0][0] > 0.0

    def test_mollify_distances_shrink(self, diff_kernel, spec1):
        sched = Schedule(kind="mollify", members=4, moll_scale=0.5)
        seq = make_sequence(diff_kernel, sched, spec1, taper_width=0.5)
        l1 = [d[0] for d in seq.distances]
        assert all(b < a for a, b in zip(l1, l1[1:]))

    @pytest.mark.parametrize("d, n", [(1, 64), (2, 32)])
    def test_mollified_members_are_direct_convolutions(self, d, n):
        # Each mollified member is the limit convolved with its unit-mass
        # Gaussian, checked against the O(n^2d) direct sum.
        grid = make_grid(d, 8.0, n)
        G = make_kernel("difference", {"width1": 1.0, "width2": 2.0, "shift": 0.0}, grid)
        sched = Schedule(kind="mollify", members=3, moll_scale=0.5)
        for m in range(1, sched.members + 1):
            member = kernels._member_samples(G, sched, m)
            gauss = kernels._unit_mass_gaussian_field(grid, sched.moll_scale / m)
            ref = _direct_convolution(G.samples, gauss)
            assert RealField(member.values - ref.values, grid).l2_norm() <= 1e-10 * ref.l2_norm()

    def test_zero_kernel_schedule(self, grid1, spec1):
        K = make_kernel("gaussian", {"width": 1.0, "amplitude": 0.0}, grid1)
        seq = make_sequence(K, Schedule(kind="truncate", members=3), spec1, taper_width=0.5)
        assert all(d == (0.0, 0.0) for d in seq.distances)
        assert all(m.l1 == 0.0 for m in seq.members)

    def test_inadmissible_limit_rejected(self, gauss_kernel, spec1):
        with pytest.raises(ValueError, match="inadmissible"):
            make_sequence(gauss_kernel, Schedule(kind="truncate", members=2), spec1, 0.5)

    def test_atoms_built_once(self, diff_kernel, spec1, monkeypatch):
        calls = []
        build = kernels._atom_fields

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(kernels, "_atom_fields", counted)
        sched = Schedule(kind="truncate", members=4, r_start=6.0, r_stop=14.0)
        seq = make_sequence(diff_kernel, sched, spec1, taper_width=0.5)
        assert len(seq.members) == 4
        assert len(calls) == 1

    @pytest.mark.parametrize("d, n, L", [(1, 1024, 20.0), (2, 128, 20.0)])
    def test_members_match_per_member_projection(self, d, n, L):
        g = make_grid(d, L, n)
        spec = SymbolSpec(0.0, default_eta(g, 0.0))
        K = make_kernel(
            "difference", {"width1": 1.0, "width2": 2.0, "amplitude": 1.0, "shift": 0.0}, g
        )
        sched = Schedule(kind="truncate", members=3, r_start=6.0, r_stop=12.0, cutoff_width=2.0)
        seq = make_sequence(K, sched, spec, taper_width=0.5)
        radii = np.linspace(sched.r_start, sched.r_stop, sched.members)
        for m, member in enumerate(seq.members, start=1):
            cut = kernels._truncation_cutoff(g.radius_mesh(), float(radii[m - 1]), sched.cutoff_width)
            raw = kernel_from_field(RealField(cut * K.samples.values, g))
            ref = project_orthogonal(raw, spec, taper_width=0.5)
            assert np.array_equal(member.samples.values, ref.samples.values)
            assert np.array_equal(member.hat, ref.hat)

    def test_refuses_the_first_failing_member_as_alone(self, monkeypatch):
        # On a coarse d = 3 grid the three narrowest truncations leave sphere
        # residuals above their targets.  Built widest first, the batch
        # refuses member 4 with the message projecting it alone gives.
        g = make_grid(3, 14.0, 40)
        spec = SymbolSpec(0.0, default_eta(g, 0.0))
        K = make_kernel(
            "difference", {"width1": 1.0, "width2": 2.0, "amplitude": 1.0, "shift": 0.0}, g
        )
        sched = Schedule(kind="truncate", members=6, r_start=6.0, r_stop=14.0, cutoff_width=2.0)
        build = kernels._member_samples
        monkeypatch.setattr(
            kernels, "_member_samples", lambda G, s, m: build(G, s, s.members + 1 - m)
        )
        refusals = []
        for m in range(1, sched.members + 1):
            raw = kernel_from_field(kernels._member_samples(K, sched, m))
            try:
                project_orthogonal(raw, spec, taper_width=0.5)
            except ValueError as e:
                refusals.append((m, str(e)))
        assert [m for m, _ in refusals] == [4, 5, 6]
        with pytest.raises(ValueError) as info:
            make_sequence(K, sched, spec, taper_width=0.5)
        assert str(info.value) == refusals[0][1]

    def test_six_members_take_four_nudft_calls(self, monkeypatch):
        # The limit's pass, the atoms' sphere system, the members' sphere
        # values and one pass over the projected members, as (fields, points).
        calls = []
        batch = kernels._nudft

        def counted(values, grid, points):
            calls.append((len(values), len(points)))
            return batch(values, grid, points)

        monkeypatch.setattr(kernels, "_nudft", counted)
        g = make_grid(2, 20.0, 128)
        spec = SymbolSpec(0.0, default_eta(g, 0.0))
        K = make_kernel(
            "difference", {"width1": 1.0, "width2": 2.0, "amplitude": 1.0, "shift": 0.0}, g
        )
        sched = Schedule(kind="truncate", members=6, r_start=6.0, r_stop=14.0, cutoff_width=2.0)
        seq = make_sequence(K, sched, spec, taper_width=0.5)
        assert calls == [(1, 640), (4, 128), (6, 128), (6, 640)]
        assert len(seq.members) == 6

    def test_bad_schedule(self):
        with pytest.raises(ValueError):
            Schedule(kind="shrink", members=2)
        with pytest.raises(ValueError):
            Schedule(kind="truncate", members=0)


class TestSymbolRatioDistance:
    # sup |G1^(p) - G2^(p)| / |ln|p| - shift|, from the kernels' diagnostics passes.
    @staticmethod
    def _distance(G1, G2, spec):
        return inverse_symbol_gain(G1, spec).ratio_distance(inverse_symbol_gain(G2, spec))

    def test_identical_kernels(self, diff_kernel, spec1):
        assert self._distance(diff_kernel, diff_kernel, spec1) == 0.0

    def test_members_approach_limit(self, diff_kernel, spec1):
        sched = Schedule(kind="truncate", members=4, r_start=6.0, r_stop=12.0)
        seq = make_sequence(diff_kernel, sched, spec1, taper_width=0.5)
        dists = [self._distance(m, diff_kernel, spec1) for m in seq.members]
        assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_triangle_inequality(self, grid1, spec1, diff_kernel):
        K2 = make_kernel(
            "difference", {"width1": 0.8, "width2": 1.6, "amplitude": 0.9, "shift": 0.0}, grid1
        )
        K3 = make_kernel(
            "difference", {"width1": 1.2, "width2": 2.4, "amplitude": 1.1, "shift": 0.0}, grid1
        )
        d13 = self._distance(diff_kernel, K3, spec1)
        d12 = self._distance(diff_kernel, K2, spec1)
        d23 = self._distance(K2, K3, spec1)
        assert d13 <= d12 + d23 + 1e-12

    def test_grid_mismatch_rejected(self, diff_kernel, spec1):
        other = make_grid(1, 20.0, 512)
        K = make_kernel("gaussian", {"width": 1.0, "amplitude": 1.0}, other)
        with pytest.raises(ValueError, match="grid"):
            self._distance(diff_kernel, K, spec1)

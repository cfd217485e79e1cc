import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from llap.grid import (
    RealField,
    SpectralField,
    SymbolSpec,
    forward_ft,
    inverse_ft,
    make_grid,
    norms,
    nudft,
    periodic_convolution,
    reciprocal_grid,
    sample,
    spectral_l2,
    symbol_grid,
)
from conftest import SQRT_2PI, l2_gap


class TestMakeGrid:
    def test_basic_1d(self):
        g = make_grid(1, 10.0, 64)
        assert g.h == pytest.approx(0.3125)
        assert g.mode_spacing == pytest.approx(math.pi / 10.0)
        assert g.axis_coords()[0] == -10.0
        assert g.npoints == 64

    def test_3d_point_count(self):
        assert make_grid(3, 5.0, 16).npoints == 4096

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            make_grid(2, 10.0, 7)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="at least 8"):
            make_grid(1, 10.0, 6)

    def test_nonpositive_L_rejected(self):
        with pytest.raises(ValueError):
            make_grid(1, 0.0, 64)
        with pytest.raises(ValueError):
            make_grid(1, -3.0, 64)

    def test_unsupported_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            make_grid(4, 10.0, 16)

    def test_mode_layout(self):
        g = make_grid(1, 10.0, 64)
        p = g.mode_axis()
        assert p[0] == 0.0
        assert p[1] == pytest.approx(math.pi / 10.0)
        assert p.min() == pytest.approx(-math.pi / 10.0 * 32)
        assert p.max() == pytest.approx(math.pi / 10.0 * 31)


class TestFourierTransform:
    def test_gaussian_forward_oracle(self, grid1):
        # Unit-width Gaussian is its own transform under the unitary
        # convention: closed-form integral, evaluated analytically.
        f = sample(grid1, lambda x: np.exp(-(x**2) / 2.0))
        F = forward_ft(f)
        p = grid1.mode_axis()
        assert np.max(np.abs(F.coeffs - np.exp(-(p**2) / 2.0))) <= 1e-8

    def test_gaussian_inverse_oracle(self, grid1):
        p = grid1.mode_axis()
        F = SpectralField(np.exp(-(p**2) / 2.0).astype(complex), grid1)
        f = inverse_ft(F)
        x = grid1.axis_coords()
        assert np.max(np.abs(f.values - np.exp(-(x**2) / 2.0))) <= 1e-8

    def test_zero_field(self, grid1):
        F = forward_ft(RealField.zeros(grid1))
        assert np.all(F.coeffs == 0)
        assert np.all(inverse_ft(F).values == 0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_roundtrip_random(self, grid1, seed):
        rng = np.random.default_rng(seed)
        f = RealField(rng.normal(size=grid1.shape), grid1)
        back = inverse_ft(forward_ft(f))
        assert l2_gap(back, f) <= 1e-12 * norms(f).l2

    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_parseval(self, grid1, seed):
        rng = np.random.default_rng(seed)
        f = RealField(rng.normal(size=grid1.shape), grid1)
        assert spectral_l2(forward_ft(f)) == pytest.approx(norms(f).l2, rel=1e-12)

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_roundtrip_higher_dims(self, d, n):
        g = make_grid(d, 5.0, n)
        rng = np.random.default_rng(5)
        f = RealField(rng.normal(size=g.shape), g)
        assert l2_gap(inverse_ft(forward_ft(f)), f) <= 1e-12 * norms(f).l2
        assert spectral_l2(forward_ft(f)) == pytest.approx(norms(f).l2, rel=1e-12)

    def test_single_mode_pair_gives_cosine(self, grid1):
        k0 = 12
        coeffs = np.zeros(grid1.shape, dtype=complex)
        coeffs[k0] = 1.0
        coeffs[-k0] = 1.0
        f = inverse_ft(SpectralField(coeffs, grid1))
        p0 = grid1.mode_axis()[k0]
        x = grid1.axis_coords()
        expected = grid1.mode_spacing / SQRT_2PI * 2.0 * np.cos(p0 * x)
        assert np.max(np.abs(f.values - expected)) <= 1e-12

    def test_nonsymmetric_input_rejected(self, grid1):
        coeffs = np.zeros(grid1.shape, dtype=complex)
        coeffs[3] = 1.0  # no conjugate partner
        with pytest.raises(ValueError, match="conjugate-symmetric"):
            inverse_ft(SpectralField(coeffs, grid1))

    def test_nonfinite_field_rejected(self, grid1):
        vals = np.zeros(grid1.shape)
        vals[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            RealField(vals, grid1)

    def test_nudft_matches_fft_at_grid_modes(self, grid1):
        rng = np.random.default_rng(11)
        cases = [
            (grid1, [(0,), (1,), (17,), (500,), (-300,)]),
            (make_grid(2, 6.0, 32), [(0, 0), (1, -3), (15, 7), (-16, 2), (5, 5)]),
            (make_grid(3, 5.0, 16), [(0, 0, 0), (1, 2, -3), (7, -8, 5), (-8, -8, -8)]),
        ]
        for grid, ks in cases:
            f = RealField(rng.normal(size=grid.shape), grid)
            F = forward_ft(f)
            pts = np.array([[grid.mode_axis()[k] for k in idx] for idx in ks])
            vals = nudft(f, pts)
            ref = np.array([F.coeffs[idx] for idx in ks])
            assert np.max(np.abs(vals - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_nudft_empty_and_bad_points(self, grid1):
        f = RealField(np.ones(grid1.shape), grid1)
        assert nudft(f, np.empty((0, 1))).shape == (0,)
        with pytest.raises(ValueError, match="shape"):
            nudft(f, np.zeros((3, 2)))


def _brute_force_nudft(f: RealField, pts: np.ndarray) -> np.ndarray:
    g = f.grid
    pref = g.h**g.d / (2.0 * math.pi) ** (g.d / 2.0)
    return pref * (np.exp(-1j * (pts @ g.flat_coords().T)) @ f.values.ravel())


@st.composite
def _nudft_problems(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.sampled_from([8, 10, 12, 14, 16]))
    L = draw(st.floats(min_value=0.5, max_value=50.0))
    grid = make_grid(d, L, n)
    # Counts up to 3n straddle the chunk size n/2 and its multiples.
    m = draw(st.integers(min_value=1, max_value=3 * n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    off_grid = rng.uniform(-grid.nyquist_radius, grid.nyquist_radius, size=(m, d))
    on_grid = grid.mode_spacing * rng.integers(-n // 2, n // 2, size=(m, d))
    pts = np.where(rng.random((m, 1)) < 0.5, on_grid, off_grid)
    return RealField(rng.normal(size=grid.shape), grid), pts


class TestNudftProperties:
    @settings(max_examples=60, deadline=None)
    @given(_nudft_problems())
    def test_matches_brute_force_phase_sum(self, problem):
        f, pts = problem
        g = f.grid
        vals = nudft(f, pts)
        ref = _brute_force_nudft(f, pts)
        # |value| <= pref * ||f||_1 bounds every point, so it is the scale
        # against which the quadrature's roundoff is measured.
        scale = g.h**g.d / (2.0 * math.pi) ** (g.d / 2.0) * float(np.sum(np.abs(f.values)))
        assert vals.shape == (pts.shape[0],)
        assert np.max(np.abs(vals - ref)) <= 1e-13 * scale


def _first_mode_at(radius: float):
    # Mode spacing pi/L = radius puts the first positive mode (index 1) on
    # that radius.
    return make_grid(1, math.pi / radius, 8)


class TestSymbol:
    def test_zero_at_unit_radius(self):
        g = _first_mode_at(1.0)
        assert g.mode_axis()[1] == 1.0
        assert symbol_grid(g, 0.0)[1] == 0.0

    def test_zero_at_shifted_radius(self):
        g = _first_mode_at(math.e)
        assert symbol_grid(g, 1.0)[1] == pytest.approx(0.0, abs=1e-15)

    def test_dc_sentinel(self):
        t1 = symbol_grid(_first_mode_at(1.0), 0.0)
        assert t1[0] == -math.inf
        t3 = symbol_grid(make_grid(3, 5.0, 8), 5.0)
        assert t3[0, 0, 0] == -math.inf
        assert np.count_nonzero(np.isinf(t3)) == 1

    def test_reciprocal_outside_annulus(self):
        values, masked = reciprocal_grid(_first_mode_at(math.e**2), SymbolSpec(0.0, 0.1))
        assert values[1] == pytest.approx(0.5)
        assert not masked[1]

    def test_reciprocal_masked(self):
        values, masked = reciprocal_grid(_first_mode_at(1.0001), SymbolSpec(0.0, 0.01))
        assert values[1] == 0.0
        assert masked[1]

    def test_reciprocal_dc(self):
        values, masked = reciprocal_grid(_first_mode_at(1.0), SymbolSpec(0.0, 0.01))
        assert values[0] == 0.0
        assert not masked[0]

    def test_reciprocal_grid_matches_symbol(self, grid1):
        spec = SymbolSpec(0.0, 0.05)
        recip, masked = reciprocal_grid(grid1, spec)
        t = symbol_grid(grid1, 0.0)
        active = np.isfinite(t) & ~masked
        active[grid1.dc_index] = False
        assert np.allclose(recip[active] * t[active], 1.0, rtol=1e-15)
        assert np.all(recip[masked] == 0.0)
        assert recip[grid1.dc_index] == 0.0
        assert np.all(np.abs(t[masked]) < spec.eta)

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError):
            SymbolSpec(0.0, 0.0)


class TestNorms:
    def test_indicator_l1(self):
        g = make_grid(1, 10.0, 256)
        f = sample(g, lambda x: (np.abs(x) <= 1.0).astype(float))
        assert abs(norms(f).l1 - 2.0) <= g.h

    def test_gaussian_l1(self, grid1):
        f = sample(grid1, lambda x: np.exp(-(x**2) / 2.0))
        assert norms(f).l1 == pytest.approx(SQRT_2PI, abs=1e-8)

    def test_zero(self, grid1):
        assert norms(RealField.zeros(grid1)) == (0.0, 0.0, 0.0)

    def test_weighted_l1_gaussian(self, grid1):
        # integral of |x| exp(-x^2/2) over R is 2; the kink of |x| at the
        # origin limits the quadrature to O(h^2) here.
        f = sample(grid1, lambda x: np.exp(-(x**2) / 2.0))
        assert norms(f).weighted_l1 == pytest.approx(2.0, abs=grid1.h**2)


class TestConvolution:
    @pytest.mark.parametrize("d,n", [(1, 64), (2, 16)])
    def test_convolution_theorem(self, d, n):
        # Direct periodic convolution vs the spectral product; this pins the
        # (2 pi)^(d/2) factor carried by the transform convention.
        g = make_grid(d, 3.0, n)
        rng = np.random.default_rng(3)
        f = RealField(rng.normal(size=g.shape), g)
        h = RealField(rng.normal(size=g.shape), g)
        idx = np.indices(g.shape).reshape(g.d, -1)
        direct = np.zeros(g.npoints)
        fv = f.values.reshape(-1)
        for j in range(g.npoints):
            shifted = tuple((idx[a, j] - idx[a] + n // 2) % n for a in range(g.d))
            direct[j] = np.sum(fv * h.values[shifted])
        direct_field = RealField(g.h**g.d * direct.reshape(g.shape), g)

        conv = periodic_convolution(f, h)
        assert l2_gap(conv, direct_field) <= 1e-10 * norms(direct_field).l2

        lhs = forward_ft(direct_field).coeffs
        rhs = (2.0 * math.pi) ** (g.d / 2.0) * forward_ft(f).coeffs * forward_ft(h).coeffs
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))

    def test_grid_mismatch_rejected(self, grid1):
        other = make_grid(1, 20.0, 512)
        with pytest.raises(ValueError, match="grid"):
            periodic_convolution(RealField.zeros(grid1), RealField.zeros(other))

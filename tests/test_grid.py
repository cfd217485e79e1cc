import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import llap.grid as grid_mod
from llap.grid import (
    RealField,
    SymbolSpec,
    _SplitMix64,
    _convolution,
    _half_ft,
    _half_modes,
    _half_radius,
    _half_weights,
    _irfftn,
    _nudft,
    _rfftn,
    boundary_decay,
    make_grid,
    nudft,
    sample,
)
from llap.kernels import kernel_from_field, make_kernel
from conftest import SQRT_2PI, dense_l1_norms, ft, ift, l2_gap, symbol, traced_peak


def _roundtrip(f: RealField) -> RealField:
    return RealField(_irfftn(_rfftn(f.values), np.empty(f.grid.shape)), f.grid)


def _spectral_l2(f: RealField) -> float:
    """The quadrature L2 norm of F over every grid mode, from the weighted half spectrum."""
    g = f.grid
    energy = float(np.sum(_half_weights(g) * np.abs(_half_ft(f)) ** 2))
    return math.sqrt(g.mode_spacing**g.d * energy) / (2.0 * math.pi) ** (g.d / 2.0)


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

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3]),
        half_n=st.integers(min_value=4, max_value=20),
        L=st.floats(min_value=0.5, max_value=50.0),
    )
    def test_radius_mesh_is_the_dense_formula(self, d, half_n, L):
        g = make_grid(d, L, 2 * half_n)
        r = g.radius_mesh()
        assert np.array_equal(r, np.sqrt(sum(m * m for m in g.coord_meshes())))
        assert g.radius_mesh() is not r

    def test_no_mesh_outlives_a_kernel_build(self):
        # Nothing the build of a kernel makes stays alive once the kernel is
        # dropped; a cached |x| mesh would keep one whole real field.
        params = {"width1": 1.0, "width2": 2.0, "amplitude": 1.0, "shift": 0.0}
        make_kernel("difference", params, make_grid(3, 5.0, 8))  # warm up
        grid = make_grid(3, 7.25, 32)
        tracemalloc.start()
        try:
            make_kernel("difference", params, grid)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        real = 8 * grid.npoints
        assert current < real / 8, current / real

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
        F = _half_ft(f) / SQRT_2PI
        p = _half_radius(grid1)
        assert np.max(np.abs(F - np.exp(-(p**2) / 2.0))) <= 1e-8

    def test_gaussian_inverse_oracle(self, grid1):
        p = grid1.mode_axis()
        f = ift(np.exp(-(p**2) / 2.0).astype(complex), grid1)
        x = grid1.axis_coords()
        assert np.max(np.abs(f.values - np.exp(-(x**2) / 2.0))) <= 1e-8

    def test_zero_field(self, grid1):
        assert np.all(_half_ft(RealField.zeros(grid1)) == 0)
        assert np.all(_roundtrip(RealField.zeros(grid1)).values == 0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_roundtrip_random(self, grid1, seed):
        rng = np.random.default_rng(seed)
        f = RealField(rng.normal(size=grid1.shape), grid1)
        back = _roundtrip(f)
        assert l2_gap(back, f) <= 1e-12 * f.l2_norm()

    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_parseval(self, grid1, seed):
        rng = np.random.default_rng(seed)
        f = RealField(rng.normal(size=grid1.shape), grid1)
        assert _spectral_l2(f) == pytest.approx(f.l2_norm(), rel=1e-12)

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_roundtrip_higher_dims(self, d, n):
        g = make_grid(d, 5.0, n)
        rng = np.random.default_rng(5)
        f = RealField(rng.normal(size=g.shape), g)
        assert l2_gap(_roundtrip(f), f) <= 1e-12 * f.l2_norm()
        assert _spectral_l2(f) == pytest.approx(f.l2_norm(), rel=1e-12)

    @pytest.mark.parametrize("d,n", [(1, 64), (2, 16), (3, 8)])
    def test_half_spectrum_is_the_oracle_on_half_the_modes(self, d, n):
        g = make_grid(d, 5.0, n)
        f = RealField(np.random.default_rng(d).normal(size=g.shape), g)
        full = (2.0 * math.pi) ** (d / 2.0) * ft(f)
        assert np.max(np.abs(_half_ft(f) - full[..., : n // 2 + 1])) <= 1e-13 * np.max(np.abs(full))

    def test_single_mode_pair_gives_cosine(self, grid1):
        k0 = 12
        coeffs = np.zeros(grid1.shape, dtype=complex)
        coeffs[k0] = 1.0
        coeffs[-k0] = 1.0
        f = ift(coeffs, grid1)
        p0 = grid1.mode_axis()[k0]
        x = grid1.axis_coords()
        expected = grid1.mode_spacing / SQRT_2PI * 2.0 * np.cos(p0 * x)
        assert np.max(np.abs(f.values - expected)) <= 1e-12

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
            F = ft(f)
            pts = np.array([[grid.mode_axis()[k] for k in idx] for idx in ks])
            vals = nudft(f, pts)
            ref = np.array([F[idx] for idx in ks])
            assert np.max(np.abs(vals - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_nudft_empty_and_bad_points(self, grid1):
        f = RealField(np.ones(grid1.shape), grid1)
        assert nudft(f, np.empty((0, 1))).shape == (0,)
        with pytest.raises(ValueError, match="shape"):
            nudft(f, np.zeros((3, 2)))


    def test_nudft_chunks_share_one_set_of_buffers(self):
        # Three fields over five and a half chunks at d = 2 hold no more than
        # one field over one chunk does, apart from the larger output.
        grid = make_grid(2, 10.0, 128)
        rng = np.random.default_rng(3)
        stack = [rng.normal(size=grid.shape) for _ in range(3)]
        chunk = grid.n // 2
        one = rng.uniform(-5.0, 5.0, size=(chunk, 2))
        many = rng.uniform(-5.0, 5.0, size=(11 * chunk // 2, 2))
        _nudft(stack, grid, many)
        peaks = [
            traced_peak(lambda: _nudft(values, grid, pts))[1]
            for values, pts in (([stack[0]], one), (stack, many))
        ]
        assert peaks[1] <= peaks[0] + len(stack) * many.shape[0] * 16


def _brute_force_nudft(f: RealField, pts: np.ndarray) -> np.ndarray:
    g = f.grid
    pref = g.h**g.d / (2.0 * math.pi) ** (g.d / 2.0)
    coords = np.stack([m.ravel() for m in g.coord_meshes()], axis=1)
    return pref * (np.exp(-1j * (pts @ coords.T)) @ f.values.ravel())


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

    @settings(max_examples=60, deadline=None)
    @given(_nudft_problems(), st.integers(min_value=1, max_value=3))
    def test_stacked_fields_match_one_call_each(self, problem, k):
        # Point counts up to 3n leave a partial last chunk (one point per
        # chunk in d = 1); each field's row is its own call, bit for bit.
        f, pts = problem
        g = f.grid
        stack = [f.values] + [f.values * (j + 2.0) - j for j in range(k - 1)]
        vals = _nudft(stack, g, pts)
        assert vals.shape == (k, pts.shape[0])
        for row, values in zip(vals, stack):
            assert np.array_equal(row, nudft(RealField(values, g), pts))


def _first_mode_at(radius: float):
    # Mode spacing pi/L = radius puts the first positive mode (index 1) on
    # that radius.
    return make_grid(1, math.pi / radius, 8)


class TestSymbol:
    """The symbol ln|p| - shift on the half spectrum, as _half_modes keeps it."""

    def test_zero_at_unit_radius(self):
        g = _first_mode_at(1.0)
        assert g.mode_axis()[1] == 1.0
        modes = _half_modes(g, SymbolSpec(0.0, 1e-300))
        assert modes.inactive[1] and modes.masked_modes == 2

    def test_zero_at_shifted_radius(self):
        modes = _half_modes(_first_mode_at(math.e), SymbolSpec(1.0, 1e-15))
        assert modes.inactive[1] and modes.masked_modes == 2

    def test_dc_sentinel(self):
        modes = _half_modes(make_grid(3, 5.0, 8), SymbolSpec(5.0, 0.01))
        assert modes.inactive[0, 0, 0] and modes.symbol[0, 0, 0] == 0.0
        assert np.count_nonzero(modes.inactive) == 1

    def test_reciprocal_outside_annulus(self):
        modes = _half_modes(_first_mode_at(math.e**2), SymbolSpec(0.0, 0.1))
        assert 1.0 / modes.symbol[1] == pytest.approx(0.5)
        assert modes.active[1]

    def test_reciprocal_masked(self):
        modes = _half_modes(_first_mode_at(1.0001), SymbolSpec(0.0, 0.01))
        assert modes.symbol[1] == 0.0
        assert modes.inactive[1] and modes.masked_modes == 2

    def test_reciprocal_dc(self):
        # DC is left out of the active modes without counting as masked.
        modes = _half_modes(_first_mode_at(1.0), SymbolSpec(0.0, 0.01))
        assert modes.symbol[0] == 0.0 and modes.inactive[0]
        assert modes.masked_modes == 2

    def test_reciprocal_grid_matches_symbol(self, grid1):
        spec = SymbolSpec(0.0, 0.05)
        modes = _half_modes(grid1, spec)
        t = symbol(grid1, 0.0)
        half = t[: grid1.n // 2 + 1]
        active = np.isfinite(half) & (np.abs(half) >= spec.eta)
        assert np.array_equal(modes.active, active)
        assert np.array_equal(modes.symbol[active], half[active])
        assert np.all(modes.symbol[~active] == 0.0)
        assert modes.masked_modes == np.count_nonzero(np.abs(t) < spec.eta)

    def test_eta_must_be_positive(self):
        with pytest.raises(ValueError):
            SymbolSpec(0.0, 0.0)


class TestNorms:
    # A field's L2 norm is RealField.l2_norm(); the L1 and |x|-weighted L1
    # norms are the kernel's, computed when it is built.
    def test_indicator_l1(self):
        g = make_grid(1, 10.0, 256)
        f = sample(g, lambda x: (np.abs(x) <= 1.0).astype(float))
        assert abs(kernel_from_field(f).l1 - 2.0) <= g.h

    def test_gaussian_l1(self, grid1):
        f = sample(grid1, lambda x: np.exp(-(x**2) / 2.0))
        assert kernel_from_field(f).l1 == pytest.approx(SQRT_2PI, abs=1e-8)

    def test_zero(self, grid1):
        zero = RealField.zeros(grid1)
        K = kernel_from_field(zero)
        assert (zero.l2_norm(), K.l1, K.weighted_l1) == (0.0, 0.0, 0.0)

    def test_weighted_l1_gaussian(self, grid1):
        # integral of |x| exp(-x^2/2) over R is 2; the kink of |x| at the
        # origin limits the quadrature to O(h^2) here.
        f = sample(grid1, lambda x: np.exp(-(x**2) / 2.0))
        assert kernel_from_field(f).weighted_l1 == pytest.approx(2.0, abs=grid1.h**2)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3]),
        half_n=st.integers(min_value=4, max_value=20),
        L=st.floats(min_value=0.5, max_value=50.0),
        exponent=st.integers(min_value=-150, max_value=150),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_norms_match_the_dense_formulas(self, d, half_n, L, exponent, seed):
        # Bit for bit: squaring v sums the same products as squaring |v|.
        g = make_grid(d, L, 2 * half_n)
        f = RealField(10.0**exponent * np.random.default_rng(seed).normal(size=g.shape), g)
        a = np.abs(f.values)
        assert f.l2_norm() == math.sqrt(g.h**g.d * np.sum(a * a))
        K = kernel_from_field(f)
        assert (K.l1, K.weighted_l1) == dense_l1_norms(f)

    def test_l2_norm_holds_one_field(self):
        grid = make_grid(3, 5.0, 32)
        f = RealField(np.random.default_rng(0).normal(size=grid.shape), grid)
        f.l2_norm()  # warm up
        _, peak = traced_peak(f.l2_norm)
        real = 8 * grid.npoints
        assert peak <= 1.1 * real, peak / real


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_boundary_decay_is_the_outer_layer_over_the_whole(d, seed):
    g = make_grid(d, 5.0, 8)
    rng = np.random.default_rng(seed)
    # Mostly zeros, so the outer layer's maximum is often on one face alone.
    f = RealField(np.where(rng.random(g.shape) < 0.9, 0.0, rng.normal(size=g.shape)), g)
    outer = np.zeros(g.shape, dtype=bool)
    for axis in range(d):
        np.moveaxis(outer, axis, 0)[[0, -1]] = True
    a = np.abs(f.values)
    expected = float(np.max(a[outer])) / float(np.max(a)) if np.any(a) else 0.0
    assert boundary_decay(f) == expected


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

        conv = RealField(_convolution(_half_ft(f), _half_ft(h), g), g)
        assert l2_gap(conv, direct_field) <= 1e-10 * direct_field.l2_norm()

        lhs = ft(direct_field)
        rhs = (2.0 * math.pi) ** (g.d / 2.0) * ft(f) * ft(h)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def _splitmix64(seed: int, count: int) -> list[int]:
    """The reference SplitMix64 stream, one Python int at a time."""
    mask, state, out = 2**64 - 1, seed, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestSplitMix64:
    @pytest.mark.parametrize("seed", [0, 1234567, 2**64 - 1])
    def test_matches_the_reference_stream(self, seed):
        rng = _SplitMix64(seed)
        first, rest = rng._bits(3), rng._bits(97)
        assert [int(z) for z in np.concatenate([first, rest])] == _splitmix64(seed, 100)
        # The published first output for seed 1234567.
        if seed == 1234567:
            assert int(first[0]) == 6457827717110365317

    @pytest.mark.parametrize("method, args", [
        ("random", ()), ("uniform", (-2.0, 3.0)), ("normal", (1.0, 0.5)), ("integers", (3, 10)),
    ])
    def test_same_seed_same_draws(self, method, args):
        a = getattr(_SplitMix64(7), method)(*args, size=(40, 25))
        b = getattr(_SplitMix64(7), method)(*args, size=(40, 25))
        c = getattr(_SplitMix64(8), method)(*args, size=(40, 25))
        assert a.shape == (40, 25)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 1000])
    def test_values_do_not_depend_on_the_chunk_size(self, monkeypatch, chunk):
        def draws():
            rng = _SplitMix64(11)
            return [rng.normal(size=4099), rng.uniform(-1.0, 1.0, 4097), rng.integers(0, 5, 33),
                    rng.random(1)]

        expected = draws()
        monkeypatch.setattr(grid_mod, "_DRAW_CHUNK", chunk)
        for a, b in zip(draws(), expected):
            assert np.array_equal(a, b)

    def test_ranges(self):
        rng = _SplitMix64(5)
        u = rng.random(100_000)
        assert 0.0 <= u.min() and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.005
        v = rng.uniform(-3.0, -1.0, 100_000)
        assert -3.0 <= v.min() and v.max() < -1.0
        k = rng.integers(-2, 5, 100_000)
        assert k.dtype == np.int64
        assert set(np.unique(k)) == set(range(-2, 5))

    def test_normal_moments(self):
        z = _SplitMix64(2).normal(1.5, 2.0, 100_000)
        # Five standard errors: 2 / sqrt(1e5) for the mean, and about
        # 4 sqrt(2 / 1e5) for the variance.
        assert abs(z.mean() - 1.5) < 5 * 2.0 / math.sqrt(1e5)
        assert abs(z.var() - 4.0) < 5 * 4.0 * math.sqrt(2.0 / 1e5)

    def test_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in (0, 2**63, 2**64 - 1):
                rng = _SplitMix64(seed)
                rng.normal(size=70_000)
                rng.uniform(0.0, 1.0, 10)
                rng.integers(0, 2**62, 10)
                rng.random(())

    def test_field_sized_draw_holds_its_output_and_chunk_scratch(self):
        size = 2**20
        _SplitMix64(0).normal(size=1000)  # warm up
        z, peak = traced_peak(lambda: _SplitMix64(0).normal(size=size))
        assert peak <= z.nbytes + 2**20, (peak - z.nbytes) / 2**20

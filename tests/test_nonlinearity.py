import math

import numpy as np
import pytest

from llap.grid import RealField, make_grid
from llap.nonlinearity import estimate_lipschitz, eval_F, make_nonlinearity, verify_growth
from conftest import l2_gap


class TestEval:
    def test_sine_at_zero(self, grid1):
        N = make_nonlinearity("saturating_sine", lip=0.1, offset=RealField.zeros(grid1))
        out = eval_F(N, RealField.zeros(grid1))
        assert np.all(out.values == 0.0)

    def test_sine_at_half_pi_with_offset(self, grid1):
        h = RealField(np.full(grid1.shape, 0.3), grid1)
        N = make_nonlinearity("saturating_sine", lip=0.1, offset=h)
        v = RealField(np.full(grid1.shape, math.pi / 2.0), grid1)
        assert np.allclose(eval_F(N, v).values, 0.4, atol=1e-15)

    def test_rational_at_one(self, grid1):
        h = RealField(np.full(grid1.shape, 0.05), grid1)
        N = make_nonlinearity("rational", lip=0.2, offset=h)
        v = RealField(np.ones(grid1.shape), grid1)
        assert np.allclose(eval_F(N, v).values, 0.2 / 2.0 + 0.05, atol=1e-15)

    def test_clipped_linear(self, grid1):
        N = make_nonlinearity("clipped_linear", lip=0.5, offset=RealField.zeros(grid1), knee=2.0)
        v = RealField(np.full(grid1.shape, 5.0), grid1)
        assert np.allclose(eval_F(N, v).values, 1.0)

    def test_grid_mismatch_rejected(self, grid1):
        other = make_grid(1, 20.0, 512)
        N = make_nonlinearity("saturating_sine", lip=0.1, offset=RealField.zeros(grid1))
        with pytest.raises(ValueError, match="grid"):
            eval_F(N, RealField.zeros(other))

    def test_validation(self, grid1):
        with pytest.raises(ValueError):
            make_nonlinearity("saturating_sine", lip=0.0, offset=RealField.zeros(grid1))
        with pytest.raises(ValueError, match="nonnegative"):
            make_nonlinearity(
                "saturating_sine",
                lip=0.1,
                offset=RealField(np.full(grid1.shape, -1.0), grid1),
            )
        with pytest.raises(ValueError, match="family"):
            make_nonlinearity("cubic", lip=0.1, offset=RealField.zeros(grid1))

    def test_amplitude_above_lip_refused(self, grid1):
        # The certificate rests on lip; a larger amplitude is the true constant.
        for amplitude, shown in [(0.2, "0.2"), (5.0, "5"), (1e300, "1e\\+300")]:
            with pytest.raises(ValueError, match=f"amplitude {shown} exceeds .* l = 0.1$"):
                make_nonlinearity(
                    "saturating_sine", lip=0.1, amplitude=amplitude, offset=RealField.zeros(grid1)
                )
        for amplitude in (0.0, 0.05, 0.1):
            N = make_nonlinearity(
                "saturating_sine", lip=0.1, amplitude=amplitude, offset=RealField.zeros(grid1)
            )
            assert N.lip == 0.1


class TestGrowth:
    def test_sine_passes_with_k_equal_l(self, sine_nonlinearity):
        report = verify_growth(sine_nonlinearity, trials=50000, seed=0)
        assert report.passed
        assert report.witness is None

    def test_understated_k_fails_with_witness(self, grid1):
        # Declared growth below the true slope; any u below the knee is a
        # violation and the report carries one.
        N = make_nonlinearity(
            "clipped_linear",
            lip=0.5,
            growth=0.1,
            offset=RealField.zeros(grid1),
            knee=3.0,
        )
        report = verify_growth(N, trials=20000, seed=1)
        assert not report.passed
        u, h, f = report.witness
        assert f > 0.1 * abs(u) + h

    def test_offset_dominated_at_zero(self, grid1, bump_offset):
        N = make_nonlinearity("saturating_sine", lip=0.1, offset=bump_offset)
        zero = RealField.zeros(grid1)
        assert np.allclose(eval_F(N, zero).values, bump_offset.values)
        assert verify_growth(N, trials=1000, seed=2).passed

    def test_needs_trials(self, sine_nonlinearity):
        with pytest.raises(ValueError):
            verify_growth(sine_nonlinearity, trials=0, seed=0)


class TestLipschitz:
    def test_sine_estimate_tight(self, sine_nonlinearity):
        est = estimate_lipschitz(sine_nonlinearity, trials=100000, seed=0)
        assert 0.099 <= est <= 0.1 + 1e-12

    def test_rational_estimate(self, grid1):
        N = make_nonlinearity("rational", lip=0.2, offset=RealField.zeros(grid1))
        est = estimate_lipschitz(N, trials=100000, seed=3)
        assert est <= 0.2 + 1e-12
        assert est >= 0.199

    def test_degenerate_constant_family(self, grid1):
        N = make_nonlinearity(
            "saturating_sine", lip=1e-9, amplitude=0.0, offset=RealField.zeros(grid1)
        )
        assert estimate_lipschitz(N, trials=1000, seed=4) == 0.0

    @pytest.mark.parametrize("family,lip", [("saturating_sine", 0.1), ("rational", 0.3), ("clipped_linear", 0.7)])
    def test_estimate_never_exceeds_declared(self, grid1, family, lip):
        N = make_nonlinearity(family, lip=lip, offset=RealField.zeros(grid1))
        assert estimate_lipschitz(N, trials=50000, seed=5) <= lip + 1e-12

    def test_sampled_continuity(self, grid1):
        # |F(u + e, x) - F(u, x)| <= lip * e for each family.
        eps = 1e-6
        rng = np.random.default_rng(6)
        u = rng.uniform(-20.0, 20.0, size=256)
        for family, lip in [("saturating_sine", 0.1), ("rational", 0.4), ("clipped_linear", 0.9)]:
            N = make_nonlinearity(family, lip=lip, offset=RealField.zeros(grid1))
            gap = np.abs(N.base(u + eps) - N.base(u))
            # absolute slack absorbs cancellation noise of the evaluation
            assert np.all(gap <= lip * eps + 1e-12)


class TestFieldLipschitz:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_l2_contraction_of_eval(self, grid1, sine_nonlinearity, seed):
        rng = np.random.default_rng(seed)
        v = RealField(rng.normal(0, 3.0, grid1.shape), grid1)
        w = RealField(rng.normal(0, 3.0, grid1.shape), grid1)
        gap = l2_gap(eval_F(sine_nonlinearity, v), eval_F(sine_nonlinearity, w))
        assert gap <= sine_nonlinearity.lip * l2_gap(v, w) * (1.0 + 1e-12)

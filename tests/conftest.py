import math

import numpy as np
import pytest

from llap.grid import (
    TWO_PI,
    RealField,
    SymbolSpec,
    default_eta,
    forward_ft,
    make_grid,
    norms,
    reciprocal_grid,
    sample,
)
from llap.kernels import make_kernel
from llap.nonlinearity import make_nonlinearity

SQRT_2PI = math.sqrt(2.0 * math.pi)


@pytest.fixture(scope="session")
def grid1():
    return make_grid(1, 20.0, 1024)


@pytest.fixture(scope="session")
def spec1(grid1):
    return SymbolSpec(shift=0.0, eta=default_eta(grid1, 0.0))


@pytest.fixture(scope="session")
def diff_kernel(grid1):
    return make_kernel(
        "difference",
        {"width1": 1.0, "width2": 2.0, "amplitude": 1.0, "shift": 0.0},
        grid1,
    )


@pytest.fixture(scope="session")
def gauss_kernel(grid1):
    return make_kernel("gaussian", {"width": 1.0, "amplitude": 1.0}, grid1)


@pytest.fixture(scope="session")
def bump_offset(grid1):
    return sample(grid1, lambda x: 0.3 * np.exp(-(x**2) / 2.0))


@pytest.fixture(scope="session")
def sine_nonlinearity(grid1, bump_offset):
    return make_nonlinearity("saturating_sine", lip=0.1, offset=bump_offset)


@pytest.fixture(scope="session")
def zero_offset_nonlinearity(grid1):
    return make_nonlinearity("saturating_sine", lip=0.1, offset=RealField.zeros(grid1))


def full_multiplier(K, spec) -> np.ndarray:
    """The Picard multiplier (2 pi)^(d/2) G^ / (ln|p| - shift) on the full grid, from forward_ft."""
    recip, _ = reciprocal_grid(K.grid, spec)
    return TWO_PI ** (K.grid.d / 2.0) * forward_ft(K.samples).coeffs * recip


def l2_gap(a: RealField, b: RealField) -> float:
    return norms(RealField(a.values - b.values, a.grid)).l2

import contextlib
import dataclasses
import io
import math
import tracemalloc
from dataclasses import dataclass
from functools import reduce

import numpy as np
import pytest

from llap.grid import (
    TWO_PI,
    RealField,
    SymbolSpec,
    default_eta,
    make_grid,
    nudft,
    sample,
)
import llap.sequence
from llap.kernels import make_kernel, sphere_points
from llap.nonlinearity import make_nonlinearity

SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Invocation:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved in the order written
    exception: SystemExit | None  # the SystemExit of a nonzero exit


class _Tee(io.TextIOBase):
    def __init__(self, *sinks):
        self.sinks = sinks

    def write(self, text):
        for sink in self.sinks:
            sink.write(text)
        return len(text)


class Runner:
    """Runs an llap entry point in this process and captures what it prints."""

    def invoke(self, main, args) -> Invocation:
        out, err, both = io.StringIO(), io.StringIO(), io.StringIO()
        exception = None
        with contextlib.redirect_stdout(_Tee(out, both)), contextlib.redirect_stderr(
            _Tee(err, both)
        ):
            try:
                main(args)
                code = 0
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
                exception = e if code else None
        return Invocation(code, out.getvalue(), err.getvalue(), both.getvalue(), exception)


@pytest.fixture()
def runner():
    return Runner()


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


def traced_peak(fn):
    """fn() and the peak bytes that tracemalloc traced while it ran, as (result, peak)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


# An independent full-spectrum oracle, on numpy's complex n-D transforms,
# for the half-spectrum transforms the library runs.


def _phase(grid) -> np.ndarray:
    sign = np.where(np.arange(grid.n) % 2 == 0, 1.0, -1.0)
    return reduce(np.multiply.outer, [sign] * grid.d)


def ft(f: RealField) -> np.ndarray:
    """The quadrature F(p_k) of the unitary transform on every grid mode, in FFT ordering."""
    g = f.grid
    return g.h**g.d / TWO_PI ** (g.d / 2.0) * _phase(g) * np.fft.fftn(f.values)


def ift(coeffs: np.ndarray, grid) -> RealField:
    """The inverse quadrature of conjugate-symmetric coefficients on every grid mode."""
    pref = grid.mode_spacing**grid.d / TWO_PI ** (grid.d / 2.0) * grid.npoints
    vals = pref * np.fft.ifftn(_phase(grid) * coeffs)
    assert np.max(np.abs(vals.imag)) <= 1e-10 * max(np.max(np.abs(vals)), 1e-300)
    return RealField(vals.real, grid)


def mode_radius(grid) -> np.ndarray:
    """|p_k| on every grid mode."""
    return np.sqrt(sum(m * m for m in np.meshgrid(*([grid.mode_axis()] * grid.d), indexing="ij")))


def symbol(grid, shift: float) -> np.ndarray:
    """ln|p_k| - shift on every grid mode; -inf at the DC mode."""
    with np.errstate(divide="ignore"):
        return np.log(mode_radius(grid)) - shift


def reciprocal(grid, spec) -> tuple[np.ndarray, np.ndarray]:
    """(1/(ln|p| - shift) with 0 on the masked annulus and at DC, the annulus mask)."""
    t = symbol(grid, spec.shift)
    masked = np.abs(t) < spec.eta
    masked[(0,) * grid.d] = False
    values = np.zeros(grid.shape)
    active = ~masked & np.isfinite(t)
    values[active] = 1.0 / t[active]
    return values, masked


def sphere_residual(K, shift: float) -> float:
    """max |G^| over the sphere |p| = exp(shift), by nonuniform quadrature."""
    return float(np.max(np.abs(nudft(K.samples, sphere_points(K.grid.d, math.exp(shift))))))


def full_multiplier(K, spec) -> np.ndarray:
    """The Picard multiplier (2 pi)^(d/2) G^ / (ln|p| - shift) on the full grid, from ft."""
    recip, _ = reciprocal(K.grid, spec)
    return TWO_PI ** (K.grid.d / 2.0) * ft(K.samples) * recip


def l2_gap(a: RealField, b: RealField) -> float:
    return RealField(a.values - b.values, a.grid).l2_norm()


def dense_l1_norms(f: RealField) -> tuple[float, float]:
    """h^d sum |v| and h^d sum |x| |v|, with |x| from the dense coordinate meshes."""
    g = f.grid
    w = g.h**g.d
    a = np.abs(f.values)
    r = np.sqrt(sum(m * m for m in g.coord_meshes()))
    return w * float(np.sum(a)), w * float(np.sum(r * a))


def solves_of_run_sequence(monkeypatch, member=None, move=None) -> list:
    """Count run_sequence's solves; optionally move one member's solution.

    Returns the list of kernels solved for, in call order (the limit's solve
    is the first).  With member (1-based) and move, that member's solution
    u_m is replaced by move(u_m, u), u the limit's solution, both as arrays.
    """
    solve = llap.sequence.picard_solve
    kernels, finals = [], []

    def counted(K, *args, **kwargs):
        report = solve(K, *args, **kwargs)
        kernels.append(K)
        finals.append(report.final)
        if member is not None and len(kernels) == member + 1:
            moved = move(report.final.values, finals[0].values)
            report = dataclasses.replace(report, final=RealField(moved, report.final.grid))
        return report

    monkeypatch.setattr(llap.sequence, "picard_solve", counted)
    return kernels

"""Truncated periodic discretization of R^d and the unitary Fourier transform.

Everything in this package lives on a uniform grid over the box [-L, L)^d
with n points per axis and spacing h = 2L/n.  Frequency modes are

    p_k = (pi / L) * k,   k in {-n/2, ..., n/2 - 1}  per axis,

stored in numpy's native FFT ordering.  The transform pair is the unitary
convention

    F(p) = (2 pi)^(-d/2) * integral f(x) exp(-i p.x) dx,
    f(x) = (2 pi)^(-d/2) * integral F(p) exp(+i p.x) dp,

approximated by the quadratures

    F(p_k) = (2 pi)^(-d/2) * h^d       * sum_j f(x_j) exp(-i p_k.x_j),
    f(x_j) = (2 pi)^(-d/2) * (pi/L)^d  * sum_k F(p_k) exp(+i p_k.x_j).

Under this pairing the discrete Parseval identity

    h^d sum_j |f_j|^2  =  (pi/L)^d sum_k |F_k|^2

holds exactly, and the periodic convolution theorem carries the factor
(2 pi)^(d/2):  ft(conv(f, g)) = (2 pi)^(d/2) ft(f) ft(g).

All quantitative claims made by this package are about the discrete problem
on the box.  Periodization stands in for R^d; L should be chosen so that the
fields of interest decay below roughly 1e-10 of their peak at the boundary
(``boundary_decay`` reports this ratio as a diagnostic).

Every operation here is a pure function of its inputs, and field values are
frozen at construction, so grids, fields and spectra are safe to share
across threads.

Large real transforms (``_rfftn``) and the Picard step run in slabs on a pool
of worker threads.  They run numpy's own 1-D transforms in numpy's axis
order, so a transform equals numpy's n-D transform bit for bit, however many
threads there are.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "GridSpec",
    "RealField",
    "SpectralField",
    "SymbolSpec",
    "Norms",
    "make_grid",
    "sample",
    "forward_ft",
    "inverse_ft",
    "symbol_grid",
    "reciprocal_grid",
    "default_eta",
    "norms",
    "spectral_l2",
    "periodic_convolution",
    "nudft",
    "boundary_decay",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L, L)^d with n points per axis."""

    d: int
    L: float
    n: int

    @property
    def h(self) -> float:
        """Grid spacing 2L/n."""
        return 2.0 * self.L / self.n

    @property
    def mode_spacing(self) -> float:
        """Frequency spacing pi/L."""
        return math.pi / self.L

    @property
    def npoints(self) -> int:
        return self.n**self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def nyquist_radius(self) -> float:
        """Largest resolved frequency magnitude per axis, pi*n/(2L)."""
        return math.pi * self.n / (2.0 * self.L)

    @property
    def dc_index(self) -> tuple[int, ...]:
        return (0,) * self.d

    def axis_coords(self) -> np.ndarray:
        """Sample coordinates -L + j*h for one axis."""
        return -self.L + self.h * np.arange(self.n)

    def coord_meshes(self) -> tuple[np.ndarray, ...]:
        x = self.axis_coords()
        return np.meshgrid(*([x] * self.d), indexing="ij")

    def flat_coords(self) -> np.ndarray:
        """All grid points as an (npoints, d) array, row-major."""
        return np.stack([m.ravel() for m in self.coord_meshes()], axis=1)

    def mode_axis(self) -> np.ndarray:
        """Frequency values (pi/L)*k for one axis in FFT ordering."""
        return self.mode_spacing * np.fft.fftfreq(self.n, d=1.0 / self.n)

    def mode_radius_mesh(self) -> np.ndarray:
        return _mode_radius(self)

    def radius_mesh(self) -> np.ndarray:
        """Euclidean |x| at every grid point."""
        return _coord_radius(self)


class Norms(NamedTuple):
    l2: float
    l1: float
    weighted_l1: float


def make_grid(d: int, L: float, n: int) -> GridSpec:
    """Validate parameters and build a GridSpec.

    d must be 1, 2 or 3; n must be even and at least 8; L positive.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"points per axis must be an integer, got {n!r}")
    if n % 2 != 0:
        raise ValueError(f"points per axis must be even, got {n}")
    if n < 8:
        raise ValueError(f"need at least 8 points per axis, got {n}")
    if not (np.isfinite(L) and L > 0):
        raise ValueError(f"box half-width must be positive and finite, got {L}")
    return GridSpec(d=int(d), L=float(L), n=int(n))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RealField:
    """Real samples over a grid, immutable after construction."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite entries")
        object.__setattr__(self, "values", _freeze(vals))

    @classmethod
    def zeros(cls, grid: GridSpec) -> "RealField":
        return cls(np.zeros(grid.shape), grid)


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients in FFT ordering, immutable."""

    coeffs: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.shape != self.grid.shape:
            raise ValueError(
                f"coefficient shape {c.shape} does not match grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "coeffs", _freeze(c))


@dataclass(frozen=True)
class SymbolSpec:
    """Location and regularization of the singular sphere of the symbol.

    The inverse multiplier 1/(ln|p| - shift) is singular on |p| = exp(shift).
    Modes with |ln|p| - shift| < eta fall in a thin annulus around that
    sphere and are zeroed rather than inverted; eta is measured in
    log-radius units.
    """

    shift: float
    eta: float

    def __post_init__(self):
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not np.isfinite(self.shift):
            raise ValueError(f"shift must be finite, got {self.shift}")

    @property
    def sphere_radius(self) -> float:
        return math.exp(self.shift)


def default_eta(grid: GridSpec, shift: float) -> float:
    """Two mode spacings in radius, expressed in log-radius units."""
    return 2.0 * grid.mode_spacing / math.exp(shift)


def sample(grid: GridSpec, fn: Callable[..., np.ndarray]) -> RealField:
    """Sample fn(x1, ..., xd) on the grid."""
    return RealField(np.asarray(fn(*grid.coord_meshes()), dtype=float), grid)


def _phase(grid: GridSpec, last: int) -> np.ndarray:
    # exp(+i pi k) = (-1)^k per axis relates samples on [-L, L) to the
    # index-space DFT; the last axis keeps its first `last` modes.
    sign = np.where(np.arange(grid.n) % 2 == 0, 1.0, -1.0)
    return reduce(np.multiply.outer, [sign] * (grid.d - 1) + [sign[:last]])


@lru_cache(maxsize=32)
def _mode_radius(grid: GridSpec) -> np.ndarray:
    meshes = np.meshgrid(*([grid.mode_axis()] * grid.d), indexing="ij")
    return _freeze(np.sqrt(sum(m * m for m in meshes)))


@lru_cache(maxsize=32)
def _coord_radius(grid: GridSpec) -> np.ndarray:
    meshes = grid.coord_meshes()
    return _freeze(np.sqrt(sum(m * m for m in meshes)))


# Slabs go to worker threads only for arrays of at least this many points
# with a second axis to split.  Below it the hand-off costs more than the
# second core saves: at d=2, n=256 (65,536 points) a two-thread rfftn took
# 0.6 ms against numpy's 0.34 ms.  2^19 points is d=3 from n=81 and d=2 from
# n=725.
_POOL_MIN_POINTS = 2**19
_pool = None

# numpy sums a contiguous float array pairwise: a stretch longer than this
# block is split at half its length, rounded down to a multiple of 8, and the
# sums of the two parts are added.
_PAIRWISE_BLOCK = 128


def _worker_count() -> int:
    return len(os.sched_getaffinity(0))


def _row_bounds(shape: tuple[int, ...], parts: int) -> list[int]:
    """Axis-0 slab bounds at the split points of numpy's pairwise summation.

    The flat array is halved the way np.sum halves it until there are at
    least parts pieces, so per-slab sums added pairwise in slab order equal
    np.sum of the whole array bit for bit.  Where a split point falls
    inside a row, the previous, coarser split is used.
    """
    row = math.prod(shape[1:])
    bounds = [0, math.prod(shape)]
    while len(bounds) - 1 < parts:
        finer = [0]
        for lo, hi in zip(bounds, bounds[1:]):
            half = (hi - lo) // 2
            mid = lo + half - half % 8
            if hi - lo <= _PAIRWISE_BLOCK or mid % row:
                return [b // row for b in bounds]
            finer += [mid, hi]
        bounds = finer
    return [b // row for b in bounds]


def _pairwise_total(sums: list[float]) -> float:
    """Add per-slab sums from _row_bounds the way np.sum adds its halves."""
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return sums[0]


class _Slabs(NamedTuple):
    """How a transform or a Picard step is split between threads.

    rows slice axis 0 of a field and of its spectrum, for the stages along
    the other axes; cols index slabs of axis 1 of the spectrum, for the
    stage along axis 0.  Slabs of axis 1 rather than of the last axis keep
    each thread's share of a row contiguous, with no cache line written by
    both.  There are as many cols as rows, and a single slab (the whole
    array) runs inline on the calling thread.
    """

    rows: tuple[slice, ...]
    cols: tuple[tuple, ...]

    def map(self, fn: Callable, items) -> list:
        """fn over items, in the worker pool unless there is one slab.

        Every item finishes before this returns or raises, and the error
        raised is the first item's in order, so neither results nor errors
        depend on thread scheduling.
        """
        if len(self.rows) == 1:
            return [fn(item) for item in items]
        global _pool
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_worker_count(), thread_name_prefix="llap-slab")
        futures = [_pool.submit(fn, item) for item in items]
        for future in futures:
            future.exception()
        return [future.result() for future in futures]


_WHOLE = _Slabs((slice(None),), ((Ellipsis,),))


def _slabs(shape: tuple[int, ...], spectrum: tuple[int, ...]) -> _Slabs:
    """Slabs for a field of this shape and its spectrum of the given shape."""
    if len(shape) < 2 or math.prod(shape) < _POOL_MIN_POINTS:
        return _WHOLE
    rows = _row_bounds(shape, _worker_count())
    count = len(rows) - 1
    if count == 1:
        return _WHOLE
    cols = [spectrum[1] * k // count for k in range(count + 1)]
    return _Slabs(
        tuple(slice(a, b) for a, b in zip(rows, rows[1:])),
        tuple((slice(None), slice(a, b)) for a, b in zip(cols, cols[1:])),
    )


def _rfft_rows(a: np.ndarray, out: np.ndarray) -> None:
    """The stages of rfftn inside an axis-0 slab: the last axis, then axes d-2..1."""
    np.fft.rfft(a, axis=-1, out=out)
    for axis in range(a.ndim - 2, 0, -1):
        np.fft.fft(out, axis=axis, out=out)


def _irfft_rows(a: np.ndarray, out: np.ndarray) -> None:
    """The stages of irfftn inside an axis-0 slab; a is overwritten when d >= 3."""
    for axis in range(1, a.ndim - 1):
        np.fft.ifft(a, axis=axis, out=a)
    np.fft.irfft(a, n=out.shape[-1], axis=-1, out=out)


def _rfftn(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.fft.rfftn(a) over every axis, bit for bit, in slabs."""
    half = a.shape[:-1] + (a.shape[-1] // 2 + 1,)
    out = np.empty(half, dtype=complex) if out is None else out
    slabs = _slabs(a.shape, half)
    slabs.map(lambda rows: _rfft_rows(a[rows], out[rows]), slabs.rows)
    if a.ndim > 1:
        slabs.map(lambda cols: np.fft.fft(out[cols], axis=0, out=out[cols]), slabs.cols)
    return out


def forward_ft(f: RealField) -> SpectralField:
    """Quadrature approximation of the unitary Fourier transform."""
    g = f.grid
    pref = g.h**g.d / TWO_PI ** (g.d / 2.0)
    coeffs = pref * _phase(g, g.n) * np.fft.fftn(f.values)
    return SpectralField(coeffs, g)


def _half_ft(f: RealField) -> np.ndarray:
    """(2 pi)^(d/2) forward_ft(f) on the half spectrum: h^d (-1)^k rfftn(f), read-only."""
    g = f.grid
    out = _rfftn(f.values)
    np.multiply(out, g.h**g.d * _phase(g, g.n // 2 + 1), out=out)
    return _freeze(out)


def inverse_ft(F: SpectralField) -> RealField:
    """Invert forward_ft; raises if the input is not conjugate-symmetric.

    A genuinely real field has conjugate-symmetric coefficients; an
    imaginary residue above 1e-10 of the spectral norm signals misuse.
    """
    g = F.grid
    pref = (g.mode_spacing**g.d / TWO_PI ** (g.d / 2.0)) * g.npoints
    vals = pref * np.fft.ifftn(_phase(g, g.n) * F.coeffs)
    scale = spectral_l2(F)
    imag_max = float(np.max(np.abs(vals.imag))) if scale > 0 else 0.0
    if imag_max > 1e-10 * scale:
        raise ValueError(
            "coefficients are not conjugate-symmetric: "
            f"imaginary residue {imag_max:.3e} exceeds 1e-10 * {scale:.3e}"
        )
    return RealField(vals.real, g)


def symbol_grid(grid: GridSpec, shift: float) -> np.ndarray:
    """ln|p_k| - shift on all modes; -inf at the DC mode."""
    r = grid.mode_radius_mesh()
    with np.errstate(divide="ignore"):
        return np.log(r) - shift


def reciprocal_grid(grid: GridSpec, spec: SymbolSpec) -> tuple[np.ndarray, np.ndarray]:
    """Regularized reciprocal 1/(ln|p| - shift) on all modes.

    Returns (values, masked).  The value is 0 on the annulus
    |ln|p| - shift| < eta, which masked flags, and at the DC mode, where the
    reciprocal tends to 0 continuously and masked is False.
    """
    t = symbol_grid(grid, spec.shift)
    masked = np.abs(t) < spec.eta
    masked[grid.dc_index] = False
    values = np.zeros(grid.shape)
    active = ~masked & np.isfinite(t)
    values[active] = 1.0 / t[active]
    return values, masked


class _HalfModes(NamedTuple):
    """The symbol ln|p| - shift of one (grid, spec) on the half spectrum.

    A real field's transform is conjugate-symmetric, so a half spectrum keeps
    the last-axis modes 0..n/2 of numpy's rfftn layout.  weights counts each
    mode with its twin, which has the same radial symbol, so weighted half
    sums and counts equal those over the full grid.
    """

    symbol: np.ndarray  # ln|p| - shift on the active modes, zero elsewhere
    active: np.ndarray  # unmasked, non-DC modes
    inactive: np.ndarray  # ~active: the masked annulus and DC
    weights: np.ndarray  # 1 on last-axis modes 0 and n/2, else 2; a broadcast view
    masked_modes: int  # modes of the full grid with |ln|p| - shift| < eta


@lru_cache(maxsize=32)
def _half_modes(grid: GridSpec, spec: SymbolSpec) -> _HalfModes:
    axes = [grid.mode_axis()] * (grid.d - 1) + [grid.mode_axis()[: grid.n // 2 + 1]]
    with np.errstate(divide="ignore"):
        t = np.log(np.sqrt(sum(m * m for m in np.meshgrid(*axes, indexing="ij", sparse=True))))
    t -= spec.shift
    active = np.isfinite(t) & (np.abs(t) >= spec.eta)
    weights = np.broadcast_to(np.where(np.arange(grid.n // 2 + 1) % (grid.n // 2), 2.0, 1.0), t.shape)
    masked = int(np.sum(weights, where=np.abs(t) < spec.eta))
    symbol = _freeze(np.where(active, t, 0.0))
    return _HalfModes(symbol, _freeze(active), _freeze(~active), weights, masked)


def norms(f: RealField) -> Norms:
    """Quadrature L2, L1 and |x|-weighted L1 norms of a field."""
    g = f.grid
    w = g.h**g.d
    a = np.abs(f.values)
    return Norms(
        l2=math.sqrt(w * float(np.sum(a * a))),
        l1=w * float(np.sum(a)),
        weighted_l1=w * float(np.sum(g.radius_mesh() * a)),
    )


def spectral_l2(F: SpectralField) -> float:
    """Quadrature L2 norm in frequency; equals norms(f).l2 by Parseval."""
    g = F.grid
    return math.sqrt(g.mode_spacing**g.d * float(np.sum(np.abs(F.coeffs) ** 2)))


def periodic_convolution(f: RealField, g: RealField) -> RealField:
    """Periodic convolution h^d sum_m f(x_m) g(x_j - x_m) on the box."""
    if f.grid != g.grid:
        raise ValueError("convolution operands live on different grids")
    d = f.grid.d
    chat = TWO_PI ** (d / 2.0) * forward_ft(f).coeffs * forward_ft(g).coeffs
    return inverse_ft(SpectralField(chat, f.grid))


def nudft(f: RealField, points: np.ndarray) -> np.ndarray:
    """Fourier transform quadrature of a field at arbitrary frequencies.

    points has shape (m, d); returns the m complex values

        (2 pi)^(-d/2) h^d sum_j f(x_j) exp(-i p.x_j),

    an exact quadrature, not an interpolation.  The phase separates over
    axes, so the sum is a chunked separable contraction: for a chunk of
    points, the axis-0 phases E_0 = exp(-i p_0 x) (chunk x n) multiply the
    samples viewed as an (n, n^(d-1)) matrix, as two real matrix products
    (cosine and sine), and every further axis is contracted row by row
    with its own phases.  A chunk holds at most min(n/2, n^(d-1)) points,
    so neither the complex intermediate (chunk x n^(d-1)) nor a phase
    matrix exceeds the bytes of one real n^d field; in one dimension that
    means one point at a time.
    """
    g = f.grid
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != g.d:
        raise ValueError(f"points must have shape (m, {g.d}), got {pts.shape}")
    x = g.axis_coords()
    pref = g.h**g.d / TWO_PI ** (g.d / 2.0)
    samples = f.values.reshape(g.n, -1)
    out = np.empty(pts.shape[0], dtype=complex)
    chunk = min(g.n // 2, g.n ** (g.d - 1))
    for start in range(0, pts.shape[0], chunk):
        p = pts[start : start + chunk]
        c = p.shape[0]
        theta = np.multiply.outer(p[:, 0], x)
        both = np.concatenate([np.cos(theta), np.sin(theta)]) @ samples
        acc = both[:c] - 1j * both[c:]
        for axis in range(1, g.d):
            phase = np.exp(-1j * np.multiply.outer(p[:, axis], x))
            acc = np.einsum("cj,cjk->ck", phase, acc.reshape(c, g.n, -1))
        out[start : start + c] = pref * acc[:, 0]
    return out


def boundary_decay(f: RealField) -> float:
    """Max |f| on the outermost grid layer relative to the global max.

    Diagnoses whether the box is large enough for the periodization to be
    harmless; values near 1 mean the field does not fit in the box.
    """
    peak = float(np.max(np.abs(f.values)))
    if peak == 0.0:
        return 0.0
    mask = np.zeros(f.grid.shape, dtype=bool)
    for axis in range(f.grid.d):
        sl_lo = [slice(None)] * f.grid.d
        sl_lo[axis] = 0
        mask[tuple(sl_lo)] = True
        sl_hi = [slice(None)] * f.grid.d
        sl_hi[axis] = f.grid.n - 1
        mask[tuple(sl_hi)] = True
    return float(np.max(np.abs(f.values[mask]))) / peak

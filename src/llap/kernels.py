"""Integral kernels, solvability diagnostics and convergent kernel sequences.

The solvability theory for the nonlocal equation hinges on the behaviour of
the kernel's Fourier transform near the sphere |p| = exp(shift) where the
logarithmic symbol vanishes:

* ``hat_on_sphere`` samples |G^(p)| on that sphere by direct nonuniform
  quadrature; its maximum is the orthogonality residual.  Admissible kernels
  have residual ~0, and only for those is the inverse-symbol gain stable
  under refinement of the masked annulus.
* ``Kernel.hat``, made when the kernel is built, is its one transform.
* ``inverse_symbol_gain`` is the one diagnostics pass per kernel.  Its
  ``KernelDiagnostics`` record holds sup |G^(p) / (ln|p| - shift)| over the
  unmasked grid modes, refined by off-grid rings just outside the masked
  annulus, and the orthogonality residual.  That residual divided by eta
  accompanies the gain as a divergence indicator: on a fixed grid the sup is
  always finite, and only that indicator distinguishes a genuinely bounded
  ratio from a 1/eta divergence.
* ``project_orthogonal`` repairs an inadmissible kernel by subtracting
  analytic atoms whose transforms concentrate in an annulus of half-width
  taper_width * exp(shift) / 2 around the sphere, chosen so the sampled
  sphere values cancel exactly.  The construction is idempotent to roundoff.
* ``make_sequence`` builds kernel families converging in L1 and weighted L1
  to an admissible limit, re-projecting every member so the per-member
  solvability conditions hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    GridSpec,
    RealField,
    SymbolSpec,
    TWO_PI,
    _half_ft,
    _half_modes,
    _HalfModes,
    norms,
    nudft,
    periodic_convolution,
)

__all__ = [
    "Kernel",
    "OrthogonalityReport",
    "KernelDiagnostics",
    "BoundCheck",
    "Schedule",
    "KernelSequence",
    "make_kernel",
    "kernel_from_field",
    "sphere_points",
    "hat_on_sphere",
    "project_orthogonal",
    "inverse_symbol_gain",
    "symbol_ratio_distance",
    "verify_hat_bound",
    "verify_derivative_bound",
    "make_sequence",
    "ADMISSIBLE_RTOL",
    "SPHERE_SAMPLES",
]

# Relative orthogonality-residual threshold below which a kernel is treated
# as satisfying the solvability conditions.
ADMISSIBLE_RTOL = 1e-8

# Points per sampled sphere or ring for d >= 2 (d = 1 has two).
SPHERE_SAMPLES = 128


@dataclass(frozen=True)
class Kernel:
    """Kernel samples with their one transform, quadrature norms and an analytic tag."""

    samples: RealField
    family: str
    params: dict
    l1: float
    weighted_l1: float
    hat: np.ndarray  # (2 pi)^(d/2) G^ on the half spectrum, read-only

    @property
    def grid(self) -> GridSpec:
        return self.samples.grid


@dataclass(frozen=True)
class OrthogonalityReport:
    """|G^| sampled on the singular sphere; residual = max of the samples."""

    shift: float
    points: np.ndarray
    values: np.ndarray
    residual: float


@dataclass(frozen=True)
class BoundCheck:
    passed: bool
    observed: float
    bound: float
    margin: float
    where: tuple


@dataclass(frozen=True)
class Schedule:
    """How to build a convergent kernel family.

    truncate: smooth radial cutoff at radii increasing linearly from
    r_start to r_stop over the members, taper width cutoff_width.
    mollify: convolution with a unit-mass Gaussian of width moll_scale / m.
    """

    kind: str
    members: int
    r_start: float = 6.0
    r_stop: float = 14.0
    cutoff_width: float = 2.0
    moll_scale: float = 0.5

    def __post_init__(self):
        if self.kind not in ("truncate", "mollify"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.members < 1:
            raise ValueError("schedule needs at least one member")
        if self.kind == "truncate" and not (0 < self.r_start <= self.r_stop):
            raise ValueError("truncation radii must satisfy 0 < r_start <= r_stop")
        if self.kind == "mollify" and self.moll_scale <= 0:
            raise ValueError("mollifier scale must be positive")


@dataclass(frozen=True)
class KernelSequence:
    """Members G_m with their limit G and per-member (L1, weighted L1) gaps."""

    members: tuple[Kernel, ...]
    limit: Kernel
    distances: tuple[tuple[float, float], ...]


def _build(samples: RealField, family: str, params: dict) -> Kernel:
    n = norms(samples)
    return Kernel(
        samples=samples,
        family=family,
        params=dict(params),
        l1=n.l1,
        weighted_l1=n.weighted_l1,
        hat=_half_ft(samples),
    )


def kernel_from_field(samples: RealField, family: str = "file", params: dict | None = None) -> Kernel:
    return _build(samples, family, params or {})


def difference_coefficient(width1: float, width2: float, shift: float) -> float:
    """Weight on the second unit-mass Gaussian that zeroes G^ at exp(shift).

    Unit-mass Gaussians of width w transform to (2 pi)^(-d/2) exp(-w^2 p^2 / 2),
    so c1 exp(-w1^2 r^2 / 2) = c2 exp(-w2^2 r^2 / 2) at r = exp(shift) fixes
    c2 / c1 independent of dimension.
    """
    r2 = math.exp(2.0 * shift)
    return math.exp((width2**2 - width1**2) * r2 / 2.0)


def make_kernel(family: str, params: dict, grid: GridSpec) -> Kernel:
    """Build a kernel from one of the analytic families.

    gaussian:   amplitude * exp(-|x|^2 / (2 width^2))
    bump:       amplitude * exp(1 - 1/(1 - (|x|/radius)^2)) inside |x| < radius
    difference: amplitude * N(width1) - c2 * N(width2) with N(w) the unit-mass
                Gaussian and c2 tuned so G^ vanishes on |p| = exp(shift)
    """
    params = dict(params)
    r = grid.radius_mesh()
    if family == "gaussian":
        w = float(params.get("width", 1.0))
        c = float(params.get("amplitude", 1.0))
        if not (w > 0 and np.isfinite(w) and np.isfinite(c)):
            raise ValueError(f"gaussian kernel needs positive width and finite amplitude, got {params}")
        vals = c * np.exp(-(r * r) / (2.0 * w * w))
        return _build(RealField(vals, grid), family, {"width": w, "amplitude": c})
    if family == "bump":
        R = float(params.get("radius", 1.0))
        c = float(params.get("amplitude", 1.0))
        if not (R > 0 and np.isfinite(R) and np.isfinite(c)):
            raise ValueError(f"bump kernel needs positive radius and finite amplitude, got {params}")
        vals = np.zeros(grid.shape)
        inside = r < R
        s = r[inside] / R
        vals[inside] = c * np.exp(1.0 - 1.0 / (1.0 - s * s))
        return _build(RealField(vals, grid), family, {"radius": R, "amplitude": c})
    if family == "difference":
        w1 = float(params.get("width1", 1.0))
        w2 = float(params.get("width2", 2.0))
        c1 = float(params.get("amplitude", 1.0))
        shift = float(params.get("shift", 0.0))
        if not (w1 > 0 and w2 > 0 and np.isfinite(c1) and np.isfinite(shift)):
            raise ValueError(f"difference kernel needs positive widths, got {params}")
        if w1 == w2:
            raise ValueError("difference kernel needs two distinct widths")
        c2 = c1 * difference_coefficient(w1, w2, shift)
        vals = c1 * _unit_gaussian(r, w1, grid.d) - c2 * _unit_gaussian(r, w2, grid.d)
        return _build(
            RealField(vals, grid),
            family,
            {"width1": w1, "width2": w2, "amplitude": c1, "shift": shift},
        )
    raise ValueError(f"unknown kernel family {family!r}")


def _unit_gaussian(r: np.ndarray, width: float, d: int) -> np.ndarray:
    return np.exp(-(r * r) / (2.0 * width * width)) / (width * math.sqrt(TWO_PI)) ** d


def sphere_points(d: int, radius: float) -> np.ndarray:
    """SPHERE_SAMPLES evaluation points on the sphere of the given radius.

    d = 1: the two points +-radius.  d = 2: uniform angles.  d = 3: a
    Fibonacci lattice, near-uniform coverage for any count.
    """
    if d == 1:
        return np.array([[radius], [-radius]])
    if d == 2:
        theta = TWO_PI * np.arange(SPHERE_SAMPLES) / SPHERE_SAMPLES
        return radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    i = np.arange(SPHERE_SAMPLES)
    z = 1.0 - (2.0 * i + 1.0) / SPHERE_SAMPLES
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return radius * np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def _check_resolved(grid: GridSpec, radius: float) -> None:
    if radius >= grid.nyquist_radius:
        raise ValueError(
            f"sphere radius {radius:.6g} lies outside the resolved frequency band "
            f"(Nyquist {grid.nyquist_radius:.6g}); enlarge n or L"
        )


def hat_on_sphere(G: Kernel, shift: float) -> OrthogonalityReport:
    """Sample |G^| on the singular sphere by nonuniform quadrature.

    The transform is evaluated at off-grid points directly from the samples,
    so the report reflects the quadrature convention exactly rather than an
    interpolation of the DFT.
    """
    radius = math.exp(shift)
    _check_resolved(G.grid, radius)
    pts = sphere_points(G.grid.d, radius)
    vals = np.abs(nudft(G.samples, pts))
    return OrthogonalityReport(
        shift=shift,
        points=pts,
        values=vals,
        residual=float(vals.max()),
    )


# ---------------------------------------------------------------------------
# Annular projection


# Minimum envelope decay rate, in units of 1/L.  One dimension solves the
# sphere constraints exactly, so wraparound of the atom tails is harmless
# there; in higher dimensions the tails leak into angular directions the
# atom basis does not span and must die out inside the box.
_ENVELOPE_FLOOR = {1: 2.0, 2: 7.5, 3: 7.5}


def _atom_fields(grid: GridSpec, radius: float, sigma: float) -> list[RealField]:
    """Analytic atoms whose transforms concentrate near |p| = radius.

    The Gaussian envelope exp(-sigma^2 |x|^2 / 2) sets the spectral bump
    half-width.  One dimension needs a cosine and a sine atom for the real
    and imaginary parts on the two-point sphere.  For d >= 2 the basis is a
    radial atom plus atoms modulated by the angular harmonics the Cartesian
    grid itself excites (fourfold harmonics for d = 2, cubic invariants for
    d = 3), each paired with the matching Bessel radial profile.
    """
    r = grid.radius_mesh()
    env = np.exp(-(sigma * r) ** 2 / 2.0)
    if grid.d == 1:
        x = grid.coord_meshes()[0]
        return [
            RealField(env * np.cos(radius * x), grid),
            RealField(env * np.sin(radius * x), grid),
        ]
    # Imported here: scipy.special dominates the package's import time, and
    # the one-dimensional atoms need no Bessel function.
    from scipy.special import jv, spherical_jn

    # The Bessel functions dominate the cost, and the grid's symmetries
    # repeat every radius many times: evaluate them once per distinct radius.
    distinct, where = np.unique(radius * r, return_inverse=True)

    def profile(bessel, order: int) -> np.ndarray:
        return bessel(order, distinct)[where].reshape(grid.shape)

    if grid.d == 2:
        X, Y = grid.coord_meshes()
        theta = np.arctan2(Y, X)
        return [
            RealField(env * profile(jv, k) * np.cos(k * theta), grid)
            for k in (0, 4, 8, 12)
        ]
    X, Y, Z = grid.coord_meshes()
    rr = np.where(r > 0, r, 1.0)
    invariants = [
        (0, np.ones(grid.shape)),
        (4, (X**4 + Y**4 + Z**4) / rr**4),
        (6, (X**2 * Y**2 * Z**2) / rr**6),
        (8, (X**8 + Y**8 + Z**8) / rr**8),
        (8, (X**4 * Y**4 + Y**4 * Z**4 + Z**4 * X**4) / rr**8),
        (10, (X**2 * Y**2 * Z**2 * (X**4 + Y**4 + Z**4)) / rr**10),
    ]
    return [
        RealField(env * profile(spherical_jn, ell) * c, grid)
        for ell, c in invariants
    ]


@dataclass(frozen=True)
class _Projector:
    """project_orthogonal for one (grid, spec, taper_width), prebuilt.

    Holds the atoms, their transforms at the sphere points stacked as the
    real system [Re A; Im A], and that system's pseudo-inverse, so that
    projecting a kernel costs one NUDFT of the kernel, one small matrix
    product and the re-measured residual check.
    """

    spec: SymbolSpec
    taper_width: float
    points: np.ndarray
    atoms: np.ndarray  # (atoms, *grid.shape)
    pinv: np.ndarray  # pseudo-inverse of the (2 * points, atoms) sphere system

    def __call__(self, G: Kernel) -> Kernel:
        target = nudft(G.samples, self.points)
        if float(np.max(np.abs(target))) == 0.0:
            return G
        coeffs = self.pinv @ np.concatenate([target.real, target.imag])
        vals = G.samples.values - np.tensordot(coeffs, self.atoms, axes=1)
        projected = _build(
            RealField(vals, G.grid),
            f"projected:{G.family}",
            {**G.params, "taper_width": self.taper_width, "shift": self.spec.shift},
        )
        achieved = hat_on_sphere(projected, self.spec.shift).residual
        limit = max(1e-10 * G.l1, 1e-13 * max(1.0, G.l1))
        if achieved > limit:
            raise ValueError(
                f"projection left residual {achieved:.3e} above target {limit:.3e}; "
                "the grid is too coarse to represent the annular correction"
            )
        return projected


def _projector(grid: GridSpec, spec: SymbolSpec, taper_width: float) -> _Projector:
    if taper_width < spec.eta:
        raise ValueError(
            f"taper_width {taper_width:.6g} is narrower than the masked annulus eta {spec.eta:.6g}"
        )
    radius = spec.sphere_radius
    _check_resolved(grid, radius)
    nominal = taper_width * radius / 2.0
    sigma = max(nominal, _ENVELOPE_FLOOR[grid.d] / grid.L)
    pr = grid.mode_radius_mesh()
    affected = int(np.count_nonzero(np.abs(pr - radius) <= nominal))
    if affected < 2:
        raise ValueError(
            f"taper too narrow for the grid: only {affected} modes within "
            f"{nominal:.6g} of the sphere radius {radius:.6g}"
        )
    pts = sphere_points(grid.d, radius)
    atoms = _atom_fields(grid, radius, sigma)
    A = np.stack([nudft(a, pts) for a in atoms], axis=1)
    system = np.vstack([A.real, A.imag])
    # The singular-value cutoff np.linalg.lstsq applies with rcond=None.
    rcond = np.finfo(float).eps * max(system.shape)
    return _Projector(
        spec=spec,
        taper_width=taper_width,
        points=pts,
        atoms=np.stack([a.values for a in atoms]),
        pinv=np.linalg.pinv(system, rcond=rcond),
    )


def project_orthogonal(G: Kernel, spec: SymbolSpec, taper_width: float) -> Kernel:
    """Remove the kernel's spectral content on the singular sphere.

    Subtracts atoms whose transforms concentrate in the annulus
    ||p| - exp(shift)| <~ taper_width * exp(shift) / 2, with coefficients
    solved (least squares over the sampled sphere points) so the sampled
    values cancel.  A second application sees a right side orthogonal to
    the atom span, so the projection is idempotent to roundoff.

    The achieved residual is re-measured and must come out below
    1e-10 * ||G||_1; coarse grids in d = 3 can pin the floor above that,
    in which case the projection refuses and a finer grid is needed.
    """
    return _projector(G.grid, spec, taper_width)(G)


# ---------------------------------------------------------------------------
# Inverse-symbol gain and spectral distances

RING_MULTIPLES = (1.0, -1.0, 2.0, -2.0)


def _max_ratio(hat: np.ndarray, denom: np.ndarray, where=True) -> float:
    """max |hat| / |denom| over the entries where selects, 0 if none."""
    return float(np.max(np.abs(np.divide(np.abs(hat), denom, out=np.zeros(hat.shape), where=where))))


@dataclass(frozen=True, eq=False)
class KernelDiagnostics:
    """One kernel's diagnostics pass: gain evaluation and sphere residual.

    grid_hat is the kernel's hat, (2 pi)^(d/2) G^ on the half spectrum, read
    over modes.active with modes.symbol as denominator; the symbol is radial
    and |G^(-p)| = |G^(p)|, so the half spectrum holds every grid value.
    ring_hat holds G^ on the four rings beside its denominator.  The gains
    are fixed at construction.  Gains of two kernels and the distance
    between them are taken over identical point sets, so
    |gain(G1) - gain(G2)| <= ratio_distance(G1, G2) holds exactly as a
    max-norm triangle inequality.
    """

    grid_hat: np.ndarray
    modes: _HalfModes
    ring_hat: np.ndarray
    ring_denom: np.ndarray
    orth_residual: float
    eta: float
    gain: float = field(init=False)
    grid_gain: float = field(init=False)
    ring_gain: float = field(init=False)
    divergence_indicator: float = field(init=False)

    def __post_init__(self):
        grid_gain = self._grid_ratio(self.grid_hat)
        ring_gain = _max_ratio(self.ring_hat, self.ring_denom)
        object.__setattr__(self, "gain", max(grid_gain, ring_gain))
        object.__setattr__(self, "grid_gain", grid_gain)
        object.__setattr__(self, "ring_gain", ring_gain)
        object.__setattr__(self, "divergence_indicator", self.orth_residual / self.eta)

    def ratio_distance(self, other: KernelDiagnostics) -> float:
        """sup |G1^(p) - G2^(p)| / |ln|p| - shift| over the shared points."""
        if self.grid_hat.shape != other.grid_hat.shape or self.ring_hat.shape != other.ring_hat.shape:
            raise ValueError("diagnostics come from different grids or sample counts")
        return max(
            self._grid_ratio(self.grid_hat - other.grid_hat),
            _max_ratio(self.ring_hat - other.ring_hat, self.ring_denom),
        )

    def _grid_ratio(self, hat: np.ndarray) -> float:
        return _max_ratio(hat, self.modes.symbol, self.modes.active) / TWO_PI ** (hat.ndim / 2.0)


def inverse_symbol_gain(G: Kernel, spec: SymbolSpec) -> KernelDiagnostics:
    """sup |G^(p) / (ln|p| - shift)| over unmasked modes plus off-grid rings.

    The rings sit at radii exp(shift +- eta) and exp(shift +- 2 eta), just
    outside the masked annulus, and catch the near-sphere behaviour that the
    grid modes may miss.  The masked annulus itself is excluded; instead the
    orthogonality residual divided by eta is reported, which is the size the
    excluded contribution would have.

    The grid modes are read from the kernel's hat, and one NUDFT call covers
    the singular sphere and the four rings; the sphere part is what
    hat_on_sphere samples, so the residual equals its maximum.
    """
    grid = G.grid
    radius = spec.sphere_radius
    _check_resolved(grid, radius * math.exp(2.0 * spec.eta))
    radii = [radius] + [radius * math.exp(mult * spec.eta) for mult in RING_MULTIPLES]
    pts = np.concatenate([sphere_points(grid.d, rho) for rho in radii])
    vals = nudft(G.samples, pts)
    per_ring = len(pts) // len(radii)
    return KernelDiagnostics(
        grid_hat=G.hat,
        modes=_half_modes(grid, spec),
        ring_hat=vals[per_ring:],
        ring_denom=np.repeat([abs(mult) * spec.eta for mult in RING_MULTIPLES], per_ring),
        orth_residual=float(np.max(np.abs(vals[:per_ring]))),
        eta=spec.eta,
    )


def symbol_ratio_distance(G1: Kernel, G2: Kernel, spec: SymbolSpec) -> float:
    """sup |G1^(p) - G2^(p)| / |ln|p| - shift| over the gain evaluation set."""
    if G1.grid != G2.grid:
        raise ValueError("kernels live on different grids")
    return inverse_symbol_gain(G1, spec).ratio_distance(inverse_symbol_gain(G2, spec))


# ---------------------------------------------------------------------------
# Transform bounds


def verify_hat_bound(G: Kernel) -> BoundCheck:
    """max |G^| <= (2 pi)^(-d/2) ||G||_1, checked over all grid modes (G.hat)."""
    grid = G.grid
    pref = TWO_PI ** (grid.d / 2.0)
    ghat = np.abs(G.hat)
    bound = G.l1 / pref
    idx = np.unravel_index(int(np.argmax(ghat)), ghat.shape)
    observed = float(ghat[idx]) / pref
    where = tuple(float(grid.mode_axis()[i]) for i in idx)
    return BoundCheck(
        passed=observed <= bound + 1e-10,
        observed=observed,
        bound=bound,
        margin=bound - observed,
        where=where,
    )


def verify_derivative_bound(G: Kernel, seed: int = 0) -> BoundCheck:
    """|d G^ / d|p|| <= (2 pi)^(-d/2) || |x| G ||_1 along axes and random rays.

    Central differences (step 1e-5) of the nonuniform quadrature with a
    discretization slack of 1e-6 on the bound, at 96 radii along each axis
    and 48 along each of six random rays.  Radii are geometrically spaced so
    the low-frequency region, where kernel transforms vary fastest, is
    sampled densely.
    """
    step, naxis, nrays, nradii = 1e-5, 96, 6, 48
    grid = G.grid
    bound = G.weighted_l1 / TWO_PI ** (grid.d / 2.0)
    rng = np.random.default_rng(seed)
    dirs = [np.eye(grid.d)[i] for i in range(grid.d)]
    for _ in range(nrays):
        v = rng.normal(size=grid.d)
        dirs.append(v / np.linalg.norm(v))
    radii_axis = np.geomspace(grid.mode_spacing, 0.9 * grid.nyquist_radius, naxis)
    radii_ray = np.geomspace(grid.mode_spacing, 0.9 * grid.nyquist_radius, nradii)
    observed = 0.0
    where: tuple = ()
    for i, u in enumerate(dirs):
        radii = radii_axis if i < grid.d else radii_ray
        plus = np.outer(radii + step / 2.0, u)
        minus = np.outer(radii - step / 2.0, u)
        deriv = np.abs(nudft(G.samples, plus) - nudft(G.samples, minus)) / step
        j = int(np.argmax(deriv))
        if deriv[j] > observed:
            observed = float(deriv[j])
            where = tuple(float(c) for c in radii[j] * u)
    return BoundCheck(
        passed=observed <= bound + 1e-6,
        observed=observed,
        bound=bound,
        margin=bound + 1e-6 - observed,
        where=where,
    )


# ---------------------------------------------------------------------------
# Convergent kernel sequences


def _smoothstep(t: np.ndarray) -> np.ndarray:
    # C-infinity monotone ramp, 0 for t <= 0 and 1 for t >= 1; the smooth
    # cutoff keeps the truncated kernel's aliasing anisotropy small.
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        lo = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
        hi = np.where(t < 1, np.exp(-1.0 / np.where(t < 1, 1.0 - t, 1.0)), 0.0)
    return lo / (lo + hi)


def _truncation_cutoff(r: np.ndarray, R: float, width: float) -> np.ndarray:
    return _smoothstep((R + width - r) / width)


def _unit_mass_gaussian_field(grid: GridSpec, width: float) -> RealField:
    r = grid.radius_mesh()
    vals = np.exp(-(r * r) / (2.0 * width * width))
    mass = grid.h**grid.d * float(np.sum(vals))
    return RealField(vals / mass, grid)


def make_sequence(
    G: Kernel,
    schedule: Schedule,
    spec: SymbolSpec,
    taper_width: float,
) -> KernelSequence:
    """Kernels G_m -> G in L1 and weighted L1, each re-projected.

    The limit kernel must already satisfy the solvability conditions
    (orthogonality residual at most 1e-8 relative); every member is passed
    through project_orthogonal so the per-member conditions hold as well.
    The projector, atoms and sphere system included, is built once and
    applied to every member.
    """
    residual = hat_on_sphere(G, spec.shift).residual
    if residual > ADMISSIBLE_RTOL * max(1.0, G.l1):
        raise ValueError(
            f"limit kernel is inadmissible: orthogonality residual {residual:.3e} "
            f"exceeds {ADMISSIBLE_RTOL:.1e} * max(1, ||G||_1)"
        )
    grid = G.grid
    project = _projector(grid, spec, taper_width)
    members = []
    distances = []
    r = grid.radius_mesh()
    radii = np.linspace(schedule.r_start, schedule.r_stop, schedule.members)
    for m in range(1, schedule.members + 1):
        if schedule.kind == "truncate":
            cut = _truncation_cutoff(r, float(radii[m - 1]), schedule.cutoff_width)
            raw = RealField(cut * G.samples.values, grid)
        else:
            moll = _unit_mass_gaussian_field(grid, schedule.moll_scale / m)
            raw = periodic_convolution(G.samples, moll)
        member = kernel_from_field(raw, family=f"{schedule.kind}:{G.family}", params={"m": m})
        if member.l1 > 0:
            member = project(member)
        diff = RealField(member.samples.values - G.samples.values, grid)
        dn = norms(diff)
        members.append(member)
        distances.append((dn.l1, dn.weighted_l1))
    return KernelSequence(members=tuple(members), limit=G, distances=tuple(distances))

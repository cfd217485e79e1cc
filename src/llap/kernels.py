"""Integral kernels, solvability diagnostics and convergent kernel sequences.

The solvability theory for the nonlocal equation hinges on the behaviour of
the kernel's Fourier transform near the sphere |p| = exp(shift) where the
logarithmic symbol vanishes:

* ``Kernel.hat``, made when the kernel is built, is its one transform.
* ``inverse_symbol_gain`` is the one diagnostics pass per kernel and symbol
  spec in a run: a NUDFT over the sphere and four rings, made on first use
  and kept on the kernel.  Kernels on one grid can share a pass's NUDFT
  call, which computes the phases once for all of them; ``make_sequence``
  measures all its projected members so.  The projection's residual check,
  the admissibility check of ``make_sequence``, the certificates, the
  sequence rows and ``verify_lemmaA2`` all read the same record.  Its
  ``KernelDiagnostics`` record holds sup |G^(p) / (ln|p| - shift)| over the
  unmasked grid modes, refined by off-grid rings just outside the masked
  annulus, and the orthogonality residual: the maximum of |G^| sampled on
  the sphere by direct nonuniform quadrature.  Admissible kernels have
  residual ~0, and only for those is the inverse-symbol gain stable under
  refinement of the masked annulus.  One rule, ``_admissible``, decides
  admissibility for every reader: residual <= ADMISSIBLE_RTOL * ||G||_1,
  relative alone, so no verdict depends on the kernel's scale.  The residual
  divided by eta accompanies the gain as a divergence indicator: on a fixed
  grid the sup is always finite, and only that indicator distinguishes a
  genuinely bounded ratio from a 1/eta divergence.
* ``project_orthogonal`` repairs an inadmissible kernel by subtracting
  analytic atoms whose transforms concentrate in an annulus of half-width
  taper_width * exp(shift) / 2 around the sphere, chosen so the sampled
  sphere values cancel exactly.  The construction is idempotent to roundoff,
  and the projected kernel must come out at 1e-4 of the rule's limit, a
  residual at most 1e-10 ||G||_1.
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
    _convolution,
    _half_ft,
    _half_modes,
    _half_radius,
    _half_weights,
    _HalfModes,
    _nudft,
)

__all__ = [
    "Kernel",
    "KernelDiagnostics",
    "Schedule",
    "KernelSequence",
    "make_kernel",
    "kernel_from_field",
    "sphere_points",
    "project_orthogonal",
    "inverse_symbol_gain",
    "make_sequence",
    "ADMISSIBLE_RTOL",
    "SPHERE_SAMPLES",
]

# The sphere-residual rule: a kernel satisfies the solvability conditions when
# its orthogonality residual is at most ADMISSIBLE_RTOL * ||G||_1 (_admissible).
ADMISSIBLE_RTOL = 1e-6

# Points per sampled sphere or ring for d >= 2 (d = 1 has two).
SPHERE_SAMPLES = 128


@dataclass(frozen=True)
class Kernel:
    """Kernel samples with their one transform and quadrature norms.

    The kernel also keeps its diagnostics passes, one per SymbolSpec, as
    inverse_symbol_gain makes them; a pass holds the hat by reference and
    640 complex sphere and ring values (d >= 2), about 10 kB.
    """

    samples: RealField
    l1: float
    weighted_l1: float
    hat: np.ndarray  # (2 pi)^(d/2) G^ on the half spectrum, read-only
    _diagnostics: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def grid(self) -> GridSpec:
        return self.samples.grid


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
        lengths = (self.r_start, self.r_stop, self.cutoff_width, self.moll_scale)
        if not all(math.isfinite(x) for x in lengths):
            raise ValueError("schedule radii and widths must be finite")
        if self.kind == "truncate" and not (0 < self.r_start <= self.r_stop):
            raise ValueError("truncation radii must satisfy 0 < r_start <= r_stop")
        if self.kind == "truncate" and self.cutoff_width <= 0:
            raise ValueError("cutoff width must be positive")
        if self.kind == "mollify" and self.moll_scale <= 0:
            raise ValueError("mollifier scale must be positive")


@dataclass(frozen=True)
class KernelSequence:
    """Members G_m with their limit G and per-member (L1, weighted L1) gaps."""

    members: tuple[Kernel, ...]
    limit: Kernel
    distances: tuple[tuple[float, float], ...]


def _kernel_norms(f: RealField) -> tuple[float, float]:
    """Quadrature L1 and |x|-weighted L1 norms of a field."""
    g = f.grid
    w = g.h**g.d
    a = np.abs(f.values)
    return w * float(np.sum(a)), w * float(np.sum(g.radius_mesh() * a))


def kernel_from_field(samples: RealField) -> Kernel:
    """The kernel with these samples; refused if its L1, weighted L1 or L2 norm overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        l1, weighted_l1 = _kernel_norms(samples)
        l2 = samples.l2_norm()
    if not (math.isfinite(l1) and math.isfinite(weighted_l1)):
        raise ValueError(
            f"kernel norms overflow (||G||_1 = {l1:.3g}, || |x| G ||_1 = {weighted_l1:.3g}); "
            "G must be integrable"
        )
    # L2 norms of fields made from G (members, differences) square its values.
    if not math.isfinite(l2):
        raise ValueError(
            f"kernel norms overflow (||G||_2 = {l2:.3g}, ||G||_1 = {l1:.3g}); "
            "G must be square integrable"
        )
    return Kernel(samples=samples, l1=l1, weighted_l1=weighted_l1, hat=_half_ft(samples))


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
    r = grid.radius_mesh()
    if family == "gaussian":
        w = float(params.get("width", 1.0))
        c = float(params.get("amplitude", 1.0))
        if not (w > 0 and np.isfinite(w) and np.isfinite(c)):
            raise ValueError(f"gaussian kernel needs positive width and finite amplitude, got {params}")
        with np.errstate(all="ignore"):  # a width near 0 overflows; refused in _sampled
            vals = c * np.exp(-(r * r) / (2.0 * w * w))
        return kernel_from_field(_sampled(family, vals, grid))
    if family == "bump":
        R = float(params.get("radius", 1.0))
        c = float(params.get("amplitude", 1.0))
        if not (R > 0 and np.isfinite(R) and np.isfinite(c)):
            raise ValueError(f"bump kernel needs positive radius and finite amplitude, got {params}")
        vals = np.zeros(grid.shape)
        inside = r < R
        s = r[inside] / R
        vals[inside] = c * np.exp(1.0 - 1.0 / (1.0 - s * s))
        return kernel_from_field(RealField(vals, grid))
    if family == "difference":
        w1 = float(params.get("width1", 1.0))
        w2 = float(params.get("width2", 2.0))
        c1 = float(params.get("amplitude", 1.0))
        shift = float(params.get("shift", 0.0))
        if not (w1 > 0 and w2 > 0 and np.isfinite(c1) and np.isfinite(shift)):
            raise ValueError(f"difference kernel needs positive widths, got {params}")
        if w1 == w2:
            raise ValueError("difference kernel needs two distinct widths")
        try:
            c2 = c1 * difference_coefficient(w1, w2, shift)
        except OverflowError:
            c2 = math.inf
        if not math.isfinite(c2):
            raise ValueError(
                f"difference kernel's second coefficient overflows at shift {shift:.6g} "
                f"(widths {w1:.6g}, {w2:.6g}); lower the shift or bring the widths closer"
            )
        with np.errstate(all="ignore"):
            vals = c1 * _unit_gaussian(r, w1, grid.d) - c2 * _unit_gaussian(r, w2, grid.d)
        return kernel_from_field(_sampled(family, vals, grid))
    raise ValueError(f"unknown kernel family {family!r}")


def _sampled(family: str, vals: np.ndarray, grid: GridSpec) -> RealField:
    # min and max carry any nan or inf, without a mask the size of vals.
    if not (math.isfinite(vals.min()) and math.isfinite(vals.max())):
        raise ValueError(f"{family} kernel samples overflow; a width is too small to sample")
    return RealField(vals, grid)


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


def _check_band(grid: GridSpec, spec: SymbolSpec) -> None:
    """Refuse a spec whose sphere or outermost diagnostics ring is unresolved.

    The diagnostics pass samples G^ out to exp(shift + 2 eta), so every
    later reader of it needs that radius below the grid's Nyquist radius.
    The radii are compared by their logarithms, which stay finite where a
    radius overflows.
    """
    for what, log_radius in (
        ("sphere radius", spec.shift),
        ("outer ring radius exp(a + 2 eta) =", spec.shift + 2.0 * spec.eta),
    ):
        if log_radius >= math.log(grid.nyquist_radius):
            with np.errstate(over="ignore"):
                radius = np.exp(log_radius)
            raise ValueError(
                f"{what} {radius:.6g} lies outside the resolved frequency band "
                f"(Nyquist {grid.nyquist_radius:.6g}); raise n or shrink L"
            )


# ---------------------------------------------------------------------------
# Annular projection


# Minimum envelope decay rate, in units of 1/L.  One dimension solves the
# sphere constraints exactly, so wraparound of the atom tails is harmless
# there; in higher dimensions the tails leak into angular directions the
# atom basis does not span and must die out inside the box.
_ENVELOPE_FLOOR = {1: 2.0, 2: 7.5, 3: 7.5}


# Rows per block of the Bessel quadratures: each (rows x nodes) phase array
# stays near 512 kB however many distinct radii the grid has.
_QUADRATURE_ELEMENTS = 2**16


def _quadrature_rows(rows: int, nodes: int):
    step = max(1, _QUADRATURE_ELEMENTS // nodes)
    return [slice(i, i + step) for i in range(0, rows, step)]


def _bessel_j(orders: tuple[int, ...], z: np.ndarray) -> np.ndarray:
    """J_k(z) for z >= 0, one column per order k, by Bessel's integral.

    J_k(z) = (1/pi) int_0^pi cos(k t - z sin t) dt (DLMF 10.9.2).  The
    integrand is even and 2 pi-periodic in t, so the midpoint rule on
    m = ceil(max(z, k)) + 40 nodes converges exponentially; expanding the
    cosine makes every order one real matrix product.
    """
    k = np.asarray(orders, dtype=float)
    m = math.ceil(max(float(z.max()), k.max())) + 40
    t = (np.arange(m) + 0.5) * (math.pi / m)
    sin_t = np.sin(t)
    cos_kt = np.cos(np.multiply.outer(t, k)) / m
    sin_kt = np.sin(np.multiply.outer(t, k)) / m
    out = np.empty((len(z), len(k)))
    for rows in _quadrature_rows(len(z), m):
        ph = np.multiply.outer(z[rows], sin_t)
        out[rows] = np.cos(ph) @ cos_kt + np.sin(ph) @ sin_kt
    return out


def _spherical_bessel_j(orders: tuple[int, ...], z: np.ndarray) -> np.ndarray:
    """j_l(z) for z >= 0, one column per order l, by the Legendre integral.

    j_l(z) = (1 / (2 i^l)) int_{-1}^{1} exp(i z x) P_l(x) dx (DLMF 10.54.2).
    The part of opposite parity to P_l integrates to zero, so even orders
    contract cos(z x) and odd ones sin(z x) with w P_l(x) / (2 (-1)^(l//2)),
    by Gauss-Legendre quadrature on ceil(z/2) + l + 40 nodes.
    """
    nodes = math.ceil(float(z.max()) / 2.0) + max(orders) + 40
    x, _ = np.polynomial.legendre.leggauss(nodes)
    # The weights are rebuilt at leggauss's nodes as 2 / ((1 - x^2) P_n'(x)^2)
    # from the three-term recurrence: numpy's own lose a digit at these node
    # counts (1.0e-14 in j_l at 90 nodes, against 1.7e-15).
    P = [np.ones(nodes), x]
    for k in range(2, nodes + 1):
        P.append(((2 * k - 1) * x * P[-1] - (k - 1) * P[-2]) / k)
    dP = nodes * (x * P[nodes] - P[nodes - 1]) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dP * dP)
    weights = np.stack([w * P[ell] / (2.0 * (-1) ** (ell // 2)) for ell in orders], axis=1)
    odd = np.array([ell % 2 == 1 for ell in orders])
    out = np.empty((len(z), len(orders)))
    for rows in _quadrature_rows(len(z), nodes):
        zx = np.multiply.outer(z[rows], x)
        for cols, trig in ((~odd, np.cos), (odd, np.sin)):
            if cols.any():
                out[rows, cols] = trig(zx) @ weights[:, cols]
    return out


def _atom_fields(grid: GridSpec, radius: float, sigma: float) -> np.ndarray:
    """Analytic atoms whose transforms concentrate near |p| = radius, stacked.

    The Gaussian envelope exp(-sigma^2 |x|^2 / 2) sets the spectral bump
    half-width.  One dimension needs a cosine and a sine atom for the real
    and imaginary parts on the two-point sphere.  For d >= 2 the basis is a
    radial atom plus atoms modulated by the angular harmonics the Cartesian
    grid itself excites (fourfold harmonics for d = 2, cubic invariants for
    d = 3), each paired with the matching Bessel radial profile: J_k from
    Bessel's integral by the midpoint rule on ceil(max(z, k)) + 40 nodes
    (d = 2), j_l from the Legendre integral by Gauss-Legendre quadrature on
    ceil(z/2) + l + 40 nodes (d = 3), z running up to the largest radius
    times |x|.
    """
    r = grid.radius_mesh()
    with np.errstate(over="ignore"):  # a wide taper's envelope underflows to 0
        env = np.exp(-(sigma * r) ** 2 / 2.0)
    if grid.d == 1:
        x = grid.coord_meshes()[0]
        return np.stack([env * np.cos(radius * x), env * np.sin(radius * x)])
    # The grid's symmetries repeat every radius many times: evaluate the
    # profiles once per distinct radius.
    distinct, where = np.unique(radius * r, return_inverse=True)

    def atoms(angular: np.ndarray, profiles: np.ndarray, columns) -> np.ndarray:
        """Multiply angular factor i by env and profile column columns[i], in place."""
        for atom, column in zip(angular, columns):
            atom *= env * profiles[:, column][where].reshape(grid.shape)
        return angular

    if grid.d == 2:
        orders = (0, 4, 8, 12)
        X, Y = grid.coord_meshes()
        theta = np.arctan2(Y, X)
        angular = np.empty((len(orders), *grid.shape))
        for atom, k in zip(angular, orders):
            np.cos(k * theta, out=atom)
        return atoms(angular, _bessel_j(orders, distinct), range(len(orders)))
    # The cubic invariants, as short products of the squared direction
    # cosines a, b, c (0 at the origin), written straight into the atoms.
    x2 = grid.axis_coords() ** 2
    r2 = np.where(r > 0, r * r, 1.0)
    a, b, c = (x2.reshape(shape) / r2 for shape in ((-1, 1, 1), (1, -1, 1), (1, 1, -1)))
    angular = np.empty((6, *grid.shape))
    one, quartic, abc, octic, mixed, decic = angular
    one[...] = 1.0
    np.multiply(a * b, c, out=abc)
    for s in (a, b, c):
        np.multiply(s, s, out=s)
    np.add(a + b, c, out=quartic)
    np.add(a * a + b * b, c * c, out=octic)
    np.add(a * b + b * c, c * a, out=mixed)
    np.multiply(abc, quartic, out=decic)
    # Profile columns for l = 0, 4, 6, 8, 10; both l = 8 invariants use one.
    return atoms(angular, _spherical_bessel_j((0, 4, 6, 8, 10), distinct), (0, 1, 2, 3, 3, 4))


def _project(fields: list, spec: SymbolSpec, taper_width: float) -> list[Kernel | None]:
    """The kernels of fields (samples on one grid) with their sphere values removed, in order.

    Builds the atoms, their transforms at the sphere points stacked as the
    real system [Re A; Im A] and that system's pseudo-inverse once, so that
    projecting several fields costs one NUDFT of their samples, one small
    matrix product each and one diagnostics pass of the projected kernels,
    whose sphere residuals are the re-measured check and which the kernels
    keep for their later readers.  The atoms go when this returns.

    A field with zero sphere values is not projected: None stands in its
    place, and the field stays in fields.  Every other entry of fields is
    set to None as soon as its kernel is made, so each unprojected field can
    go before the next projected one comes.  Each projected kernel must meet
    1e-4 of the sphere-residual rule (_admissible), a residual at most 1e-10
    times its L1 norm; the first kernel in order that misses it is refused.
    """
    grid = fields[0].grid
    if not math.isfinite(taper_width):
        raise ValueError(f"taper_width must be finite, got {taper_width}")
    if taper_width < spec.eta:
        raise ValueError(
            f"taper_width {taper_width:.6g} is narrower than the masked annulus eta {spec.eta:.6g}"
        )
    _check_band(grid, spec)
    radius = spec.sphere_radius
    nominal = taper_width * radius / 2.0
    sigma = max(nominal, _ENVELOPE_FLOOR[grid.d] / grid.L)
    affected = int(np.sum(_half_weights(grid), where=np.abs(_half_radius(grid) - radius) <= nominal))
    if affected < 2:
        raise ValueError(
            f"taper too narrow for the grid: only {affected} modes within "
            f"{nominal:.6g} of the sphere radius {radius:.6g}"
        )
    points = sphere_points(grid.d, radius)
    atoms = _atom_fields(grid, radius, sigma)
    A = _nudft(list(atoms), grid, points).T
    system = np.vstack([A.real, A.imag])
    # The singular-value cutoff np.linalg.lstsq applies with rcond=None.
    pinv = np.linalg.pinv(system, rcond=np.finfo(float).eps * max(system.shape))
    targets = _nudft([f.values for f in fields], grid, points)
    kernels = []
    for i, target in enumerate(targets):
        if float(np.max(np.abs(target))) == 0.0:
            kernels.append(None)
            continue
        coeffs = pinv @ np.concatenate([target.real, target.imag])
        vals = np.tensordot(coeffs, atoms, axes=1)
        np.subtract(fields[i].values, vals, out=vals)
        fields[i] = None
        kernels.append(kernel_from_field(RealField(vals, grid)))
    projected = [K for K in kernels if K is not None]
    if projected:
        _diagnostics_pass(projected, spec)
    for K in projected:
        ok, limit = _admissible(K, spec, 1e-4)
        if not ok:
            raise ValueError(
                f"projection left residual {inverse_symbol_gain(K, spec).orth_residual:.3e} above "
                f"target {limit:.3e}; the grid is too coarse to represent the annular correction"
            )
    return kernels


def project_orthogonal(G: Kernel, spec: SymbolSpec, taper_width: float) -> Kernel:
    """Remove the kernel's spectral content on the singular sphere.

    Subtracts atoms whose transforms concentrate in the annulus
    ||p| - exp(shift)| <~ taper_width * exp(shift) / 2, with coefficients
    solved (least squares over the sampled sphere points) so the sampled
    values cancel.  A second application sees a right side orthogonal to
    the atom span, so the projection is idempotent to roundoff.

    The achieved residual is re-measured and must come out below 1e-10
    times the projected kernel's L1 norm, 1e-4 of the sphere-residual rule
    (_admissible); coarse grids in d = 3 can pin the floor above that, in
    which case the projection refuses and a finer grid is needed.
    """
    (projected,) = _project([G.samples], spec, taper_width)
    return G if projected is None else projected


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
    the singular sphere and the four rings; the residual is the maximum of
    |G^| over the sphere part.  The pass is
    made once per (kernel, spec) and kept on the kernel: later calls return
    the same record.
    """
    if spec not in G._diagnostics:
        _diagnostics_pass([G], spec)
    return G._diagnostics[spec]


def _admissible(G: Kernel, spec: SymbolSpec, share: float = 1.0) -> tuple[bool, float]:
    """The sphere-residual rule, read by every check of it: whether G's
    orthogonality residual is at most share * ADMISSIBLE_RTOL * ||G||_1 (a
    limit relative alone, so no verdict depends on G's scale), and that limit."""
    limit = share * ADMISSIBLE_RTOL * G.l1
    return inverse_symbol_gain(G, spec).orth_residual <= limit, limit


def _diagnostics_pass(kernels: list[Kernel], spec: SymbolSpec) -> None:
    """The diagnostics passes behind inverse_symbol_gain, kept on the kernels.

    The kernels share one grid; one NUDFT call over the sphere and the
    rings serves them all.
    """
    grid = kernels[0].grid
    radius = spec.sphere_radius
    _check_band(grid, spec)
    radii = [radius] + [radius * math.exp(mult * spec.eta) for mult in RING_MULTIPLES]
    pts = np.concatenate([sphere_points(grid.d, rho) for rho in radii])
    values = _nudft([G.samples.values for G in kernels], grid, pts)
    per_ring = len(pts) // len(radii)
    modes = _half_modes(grid, spec)
    ring_denom = np.repeat([abs(mult) * spec.eta for mult in RING_MULTIPLES], per_ring)
    for G, vals in zip(kernels, values):
        diag = KernelDiagnostics(
            grid_hat=G.hat,
            modes=modes,
            ring_hat=vals[per_ring:],
            ring_denom=ring_denom,
            orth_residual=float(np.max(np.abs(vals[:per_ring]))),
            eta=spec.eta,
        )
        # setdefault keeps one record per spec should two threads race here.
        G._diagnostics.setdefault(spec, diag)


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


def _member_samples(G: Kernel, schedule: Schedule, m: int) -> RealField:
    grid = G.grid
    if schedule.kind == "truncate":
        R = float(np.linspace(schedule.r_start, schedule.r_stop, schedule.members)[m - 1])
        cut = _truncation_cutoff(grid.radius_mesh(), R, schedule.cutoff_width)
        return RealField(cut * G.samples.values, grid)
    gauss = _unit_mass_gaussian_field(grid, schedule.moll_scale / m)
    return RealField(_convolution(G.hat, _half_ft(gauss), grid), grid)


def make_sequence(
    G: Kernel,
    schedule: Schedule,
    spec: SymbolSpec,
    taper_width: float,
) -> KernelSequence:
    """Kernels G_m -> G in L1 and weighted L1, each re-projected.

    The limit kernel must already satisfy the solvability conditions, the
    sphere-residual rule (_admissible); every member is passed through
    project_orthogonal so the per-member conditions hold as well.
    The members' samples are built first and projected as one batch, with
    one set of atoms and one sphere system (_project): one NUDFT gives all
    their sphere values, they are projected in order, and one diagnostics
    pass measures every projected member.  With the limit's pass and the
    atoms' sphere system that makes four NUDFT calls, however many members
    there are.  The admissibility check and the projection's re-measured
    residuals read each kernel's diagnostics pass, which the kernels keep
    for run_sequence and verify_lemmaA2.
    """
    admissible, limit = _admissible(G, spec)
    if not admissible:
        residual = inverse_symbol_gain(G, spec).orth_residual
        raise ValueError(
            f"limit kernel is inadmissible: orthogonality residual {residual:.3e} "
            f"exceeds {limit:.3e} = {ADMISSIBLE_RTOL:.0e} * ||G||_1"
        )
    grid = G.grid
    fields = [_member_samples(G, schedule, m) for m in range(1, schedule.members + 1)]
    projected = _project(fields, spec, taper_width)
    members = tuple(
        kernel_from_field(f) if K is None else K for K, f in zip(projected, fields)
    )
    distances = tuple(
        _kernel_norms(RealField(K.samples.values - G.samples.values, grid)) for K in members
    )
    return KernelSequence(members=members, limit=G, distances=distances)

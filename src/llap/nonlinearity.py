"""Nonlinear terms F(u, x) = base(u) + offset(x) with certified constants.

Three built-in families whose Lipschitz constants are known in closed form:

    saturating_sine   gain * sin(u)
    rational          gain * u / (1 + u^2)
    clipped_linear    gain * clip(u, -knee, knee)

Each has |d base / du| <= gain with the supremum attained at u = 0, and
|base(u)| <= gain |u|, so the declared Lipschitz and growth constants are
exact.  Certificates rest on the declared constants; the sampling estimator
below is the independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import GridSpec, RealField, _SplitMix64

__all__ = [
    "Nonlinearity",
    "make_nonlinearity",
    "eval_F",
    "estimate_lipschitz",
    "FAMILIES",
]

FAMILIES = ("saturating_sine", "rational", "clipped_linear")


@dataclass(frozen=True)
class Nonlinearity:
    """F(u, x) = base(u) + offset(x) with declared constants.

    lip is the declared Lipschitz constant in u, growth the constant k in
    |F(u, x)| <= k |u| + offset(x).  For the built-in families both equal the
    family gain and base is a _Family, whose name selects the formula; a
    custom base callable may be supplied for internal tests.
    """

    lip: float
    growth: float
    offset: RealField
    base: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if not (np.isfinite(self.lip) and self.lip > 0):
            raise ValueError(f"Lipschitz constant must be positive, got {self.lip}")
        if not (np.isfinite(self.growth) and self.growth > 0):
            raise ValueError(f"growth constant must be positive, got {self.growth}")
        if np.any(self.offset.values < 0):
            raise ValueError("offset field must be nonnegative")

    @property
    def grid(self) -> GridSpec:
        return self.offset.grid


@dataclass(frozen=True)
class _Family:
    """base(u) of a built-in family.

    Given out (and, for rational, a scratch array of u's shape) it writes
    there instead of allocating, with the same operations in the same order,
    so both paths give the same bits.
    """

    name: str
    gain: float
    knee: float

    def __call__(self, u, out=None, scratch=None):
        if self.name == "saturating_sine":
            out = np.sin(u, out=out)
        elif self.name == "rational":
            out = np.multiply(self.gain, u, out=out)
            den = np.multiply(u, u, out=scratch)
            den += 1.0
            return np.divide(out, den, out=out)
        else:
            out = np.clip(u, -self.knee, self.knee, out=out)
        return np.multiply(self.gain, out, out=out)


def make_nonlinearity(
    family: str,
    lip: float,
    offset: RealField,
    growth: float | None = None,
    amplitude: float | None = None,
    knee: float = 1.0,
) -> Nonlinearity:
    """Build a built-in family; amplitude defaults to the declared lip.

    The family's true Lipschitz constant is its amplitude, and certificates
    rest on the declared lip, so an amplitude above lip is refused.  Setting
    amplitude below lip gives a degenerate family (amplitude 0 makes F
    constant in u).
    """
    gain = lip if amplitude is None else amplitude
    if not (np.isfinite(gain) and gain >= 0):
        raise ValueError(f"family amplitude must be nonnegative, got {gain}")
    if gain > lip:
        raise ValueError(
            f"family amplitude {gain:g} exceeds the declared Lipschitz constant l = {lip:g}"
        )
    if knee <= 0:
        raise ValueError(f"clip knee must be positive, got {knee}")
    if family not in FAMILIES:
        raise ValueError(f"unknown nonlinearity family {family!r}")
    return Nonlinearity(
        lip=lip,
        growth=lip if growth is None else growth,
        offset=offset,
        base=_Family(family, gain, knee),
    )


def eval_F(N: Nonlinearity, v: RealField) -> RealField:
    """Pointwise F(v(x_j), x_j) on the grid."""
    if v.grid != N.grid:
        raise ValueError("field and nonlinearity live on different grids")
    out = N.base(v.values) + N.offset.values
    if not np.all(np.isfinite(out)):
        raise ValueError("nonlinearity produced non-finite values")
    return RealField._adopt(out, N.grid)


def _eval_F_into(
    N: Nonlinearity, u: np.ndarray, offset: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> None:
    """F(u) into out with the operations of eval_F; all four are matching slabs.

    A built-in family allocates nothing; a custom base callable returns a
    new array, which is copied into out.
    """
    if isinstance(N.base, _Family):
        N.base(u, out, scratch)
    else:
        out[...] = N.base(u)
    np.add(out, offset, out=out)


def _sample_u(N: Nonlinearity, rng: _SplitMix64, count: int) -> np.ndarray:
    # Wide range plus a dense band around 0 where the built-in families
    # attain their Lipschitz suprema.  The floor on lip is estimate_lipschitz's,
    # so that its gaps stay resolvable beside u.
    lip = max(N.lip, 1e-30)
    wide = rng.uniform(-10.0 / lip, 10.0 / lip, size=count // 2)
    narrow = rng.normal(0.0, 0.1 / lip, size=count - count // 2)
    return np.concatenate([wide, narrow])


def estimate_lipschitz(N: Nonlinearity, trials: int, seed: int) -> float:
    """Sampled sup of |F(u1, x) - F(u2, x)| / |u1 - u2|.

    Includes near-coincident pairs and pairs straddling u = 0; for the
    built-in families the result never exceeds the declared constant (up to
    1e-12), making this the independent cross-check for certificates.
    """
    if trials < 2:
        raise ValueError("need at least two trials")
    rng = _SplitMix64(seed)
    u1 = _sample_u(N, rng, trials)
    gap = rng.uniform(1e-7, 1.0, size=trials) / max(N.lip, 1e-30)
    u2 = u1 + np.where(rng.random(trials) < 0.5, gap, -gap)
    # Deterministic straddles of the origin pin the supremum of the families.
    eps = np.array([1e-3, 1e-4, 3e-4]) / max(N.lip, 1.0)
    u1 = np.concatenate([u1, -eps])
    u2 = np.concatenate([u2, eps])
    ratios = np.abs(N.base(u1) - N.base(u2)) / np.abs(u1 - u2)
    return float(np.max(ratios))


"""Sectioned key-value run configuration.

A run is described by one text file of ``[section]`` headers and
``key = value`` lines; ``#`` starts a comment.  Unknown sections or keys are
rejected with their line number, as are duplicate keys and malformed values,
so a config that parses is a config the modules will accept.

Sections and keys:

    [grid]          d, L, n
    [symbol]        a, eta (default: two mode spacings), eps_user (in (0, 1),
                    default 0.1)
    [kernel]        family (gaussian|bump|difference|file), width, amplitude,
                    radius, width1, width2, path, project, taper_width
    [nonlinearity]  family (saturating_sine|rational|clipped_linear), l, k,
                    amplitude (<= l), knee, h_family
                    (zero|constant|gauss_bump|file), h_value, h_amplitude,
                    h_width, h_center, h_path
    [solver]        tol (> 0), max_iter (>= 1), v0 (zero|random), v0_scale
                    (finite, >= 0), seed (>= 0), dump_field, tau
    [sequence]      kind (truncate|mollify), members, r_start, r_stop,
                    cutoff_width, moll_scale
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fieldio
from .grid import (
    GridSpec,
    RealField,
    SymbolSpec,
    _SplitMix64,
    default_eta,
    make_grid,
    sample,
)
from .kernels import (
    Kernel,
    Schedule,
    _check_band,
    kernel_from_field,
    make_kernel,
    project_orthogonal,
)
from .nonlinearity import Nonlinearity, make_nonlinearity

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]


class ConfigError(ValueError):
    """Config rejection; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1", "on"):
        return True
    if text.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# section -> key -> parser
_SCHEMA: dict[str, dict[str, type | object]] = {
    "grid": {"d": int, "L": float, "n": int},
    "symbol": {"a": float, "eta": float, "eps_user": float},
    "kernel": {
        "family": str,
        "width": float,
        "amplitude": float,
        "radius": float,
        "width1": float,
        "width2": float,
        "path": str,
        "project": _parse_bool,
        "taper_width": float,
    },
    "nonlinearity": {
        "family": str,
        "l": float,
        "k": float,
        "amplitude": float,
        "knee": float,
        "h_family": str,
        "h_value": float,
        "h_amplitude": float,
        "h_width": float,
        "h_center": float,
        "h_path": str,
    },
    "solver": {
        "tol": float,
        "max_iter": int,
        "v0": str,
        "v0_scale": float,
        "seed": int,
        "dump_field": _parse_bool,
        "tau": float,
    },
    "sequence": {
        "kind": str,
        "members": int,
        "r_start": float,
        "r_stop": float,
        "cutoff_width": float,
        "moll_scale": float,
    },
}

# e^a is the sphere radius and e^-a a factor of the default eta.
_MAX_SHIFT = math.log(sys.float_info.max)

# (section, key) -> rules (accepts the parsed value, what the value must
# satisfy), checked in order.
_RANGES = {
    ("symbol", "a"): (
        (lambda v: np.isfinite(v), "must be finite"),
        (
            lambda v: abs(v) <= _MAX_SHIFT,
            f"must lie in [-{_MAX_SHIFT:.2f}, {_MAX_SHIFT:.2f}], where e^a and e^-a are finite",
        ),
    ),
    ("symbol", "eps_user"): ((lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),),
    ("solver", "tol"): ((lambda v: v > 0.0, "must be positive"),),
    ("solver", "max_iter"): ((lambda v: v >= 1, "must be at least 1"),),
    ("solver", "v0_scale"): (
        (lambda v: np.isfinite(v) and v >= 0.0, "must be finite and non-negative"),
    ),
    ("solver", "seed"): ((lambda v: v >= 0, "must be non-negative"),),
}

_REQUIRED = {
    "grid": ("d", "L", "n"),
    "symbol": ("a",),
    "kernel": ("family",),
    "nonlinearity": ("family", "l"),
}


@dataclass
class RunConfig:
    """Typed view of a parsed config file plus builders for the run objects."""

    sections: dict[str, dict[str, object]]
    source: str = "<config>"

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    # -- builders ----------------------------------------------------------

    def grid(self) -> GridSpec:
        return make_grid(
            self.get("grid", "d"), self.get("grid", "L"), self.get("grid", "n")
        )

    def symbol_spec(self, grid: GridSpec) -> SymbolSpec:
        shift = self.get("symbol", "a")
        eta = self.get("symbol", "eta")
        if eta is None:
            eta = default_eta(grid, shift)
        spec = SymbolSpec(shift=shift, eta=eta)
        # Every diagnostics pass samples out to the outer ring: an unresolved
        # band is refused here, before any kernel is built.
        _check_band(grid, spec)
        return spec

    @property
    def eps_user(self) -> float:
        return self.get("symbol", "eps_user", 0.1)

    @property
    def taper_width(self) -> float:
        return self.get("kernel", "taper_width", 0.5)

    @property
    def seed(self) -> int:
        return self.get("solver", "seed", 0)

    @property
    def tol(self) -> float:
        return self.get("solver", "tol", 1e-10)

    @property
    def max_iter(self) -> int:
        return self.get("solver", "max_iter", 200)

    @property
    def tau(self) -> float:
        return self.get("solver", "tau", 1e-8)

    def _resolve(self, path: str) -> Path:
        p = Path(path)
        if not p.is_absolute() and self.source != "<config>":
            return Path(self.source).parent / p
        return p

    def kernel(self, grid: GridSpec, spec: SymbolSpec) -> Kernel:
        family = self.get("kernel", "family")
        if family == "file":
            path = self.get("kernel", "path")
            if path is None:
                raise ConfigError("kernel family 'file' needs a path")
            samples = fieldio.load_field(self._resolve(path))
            if samples.grid != grid:
                raise ConfigError(
                    f"kernel file grid {samples.grid} does not match the [grid] section {grid}"
                )
            K = kernel_from_field(samples)
        else:
            params = {
                key: self.get("kernel", key)
                for key in ("width", "amplitude", "radius", "width1", "width2")
                if self.get("kernel", key) is not None
            }
            if family == "difference":
                params.setdefault("shift", spec.shift)
            K = make_kernel(family, params, grid)
        if self.get("kernel", "project", False):
            K = project_orthogonal(K, spec, self.taper_width)
        return K

    def offset_field(self, grid: GridSpec) -> RealField:
        h_family = self.get("nonlinearity", "h_family", "zero")
        if h_family == "zero":
            return RealField.zeros(grid)
        if h_family == "constant":
            value = self.get("nonlinearity", "h_value", 0.0)
            if value < 0:
                raise ConfigError("constant offset must be nonnegative")
            return RealField(np.full(grid.shape, float(value)), grid)
        if h_family == "gauss_bump":
            amp = self.get("nonlinearity", "h_amplitude", 1.0)
            width = self.get("nonlinearity", "h_width", 1.0)
            center = self.get("nonlinearity", "h_center", 0.0)
            if amp < 0 or width <= 0:
                raise ConfigError("gauss_bump offset needs amplitude >= 0 and width > 0")
            # Scaled before squaring: width**2 overflows from width ~ 1e154.  A
            # width near 0 overflows the square, and the bump is 0 off its centre.
            with np.errstate(over="ignore"):
                return sample(
                    grid,
                    lambda *xs: amp * np.exp(-sum(((x - center) / width) ** 2 for x in xs) / 2.0),
                )
        if h_family == "file":
            path = self.get("nonlinearity", "h_path")
            if path is None:
                raise ConfigError("offset family 'file' needs h_path")
            f = fieldio.load_field(self._resolve(path))
            if f.grid != grid:
                raise ConfigError("offset file grid does not match the [grid] section")
            return f
        raise ConfigError(f"unknown offset family {h_family!r}")

    def nonlinearity(self, grid: GridSpec) -> Nonlinearity:
        offset = self.offset_field(grid)
        with np.errstate(over="ignore"):
            l2 = offset.l2_norm()
        if not math.isfinite(l2):
            # The solve squares fields of the offset's size.
            raise ConfigError(
                f"offset norm overflows (||h||_2 = {l2:.3g}); h must be square integrable"
            )
        return make_nonlinearity(
            family=self.get("nonlinearity", "family"),
            lip=self.get("nonlinearity", "l"),
            offset=offset,
            growth=self.get("nonlinearity", "k"),
            amplitude=self.get("nonlinearity", "amplitude"),
            knee=self.get("nonlinearity", "knee", 1.0),
        )

    def schedule(self) -> Schedule:
        if "sequence" not in self.sections:
            raise ConfigError("this command needs a [sequence] section")
        # The section's keys are Schedule's fields; its defaults fill the rest.
        return Schedule(**{"kind": "truncate", "members": 6, **self.sections["sequence"]})

    def starting_field(self, grid: GridSpec) -> RealField | None:
        v0 = self.get("solver", "v0", "zero")
        if v0 == "zero":
            return None
        if v0 == "random":
            scale = self.get("solver", "v0_scale", 1.0)
            # As for the offset: the solve squares fields of v0's size.
            with np.errstate(over="ignore"):
                values = _SplitMix64(self.seed).normal(0.0, scale, grid.shape)
                l2 = math.sqrt(grid.h**grid.d * float(np.sum(values * values)))
            if not math.isfinite(l2):
                raise ConfigError(
                    f"starting field norm overflows (||v0||_2 = {l2:.3g}); lower v0_scale"
                )
            return RealField(values, grid)
        raise ConfigError(f"unknown starting field {v0!r} (expected zero or random)")


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse and validate config text; raise ConfigError with line numbers."""
    sections: dict[str, dict[str, object]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        schema = _SCHEMA[current]
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{current}]", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in section [{current}]", lineno)
        try:
            parsed = schema[key](value)
        except ValueError as e:
            raise ConfigError(f"bad value for {key!r}: {e}", lineno) from None
        for accepts, what in _RANGES.get((current, key), ()):
            if not accepts(parsed):
                raise ConfigError(f"{key} {what}, got {value}", lineno)
        sections[current][key] = parsed
    for section, keys in _REQUIRED.items():
        if section not in sections:
            raise ConfigError(f"missing required section [{section}]")
        for key in keys:
            if key not in sections[section]:
                raise ConfigError(f"missing required key {key!r} in section [{section}]")
    return RunConfig(sections=sections, source=source)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    return parse_config(path.read_text(), source=str(path))

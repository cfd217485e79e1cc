"""Span tracing of the llap layers, installed from outside the package.

``Tracer.install`` replaces every public module-level function of the traced
llap modules with a timing wrapper, in every module namespace that binds it.
``from .grid import forward_ft`` copies the function into ``llap.solver`` and
``llap.kernels`` as separate names, so patching ``llap.grid`` alone would miss
most calls; the wrapper is keyed by the original function object and keeps
the name of the module that defines it, whatever the alias.

Spans (name, start, end, parent span, run id) stay in memory until the run
ends.  Self time is span time minus the time covered by child spans.  The
counters below are computed from call arguments and results at the same
boundaries, so they repeat exactly between two runs of the same inputs.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "grid",
    "kernels",
    "nonlinearity",
    "solver",
    "sequence",
    "checks",
    "config",
    "fieldio",
    "cli",
)

# Public builder methods of the config layer; everything else traced is a
# module-level function.
CONFIG_METHODS = (
    "grid",
    "symbol_spec",
    "kernel",
    "offset_field",
    "nonlinearity",
    "schedule",
    "starting_field",
)

FFT_NAMES = ("grid.forward_ft", "grid.inverse_ft", "grid.inverse_ft_real")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int | None, str]] = []
        self._stack: list[list] = []  # [span index, time covered by children]
        self._self_s: dict[str, float] = defaultdict(float)
        self._total_s: dict[str, float] = defaultdict(float)
        self._calls: dict[str, int] = defaultdict(int)
        self.fft_points = 0
        self.nudft_points = 0
        self.bytes_written = 0
        self.iterations = 0
        self.picard_s = 0.0
        self.picard_ffts = 0
        self.retained_iterate_bytes = 0
        self._nudft_keys: set[tuple[str, str]] = set()
        self._ghat_calls = 0
        self._ghat_keys: set[str] = set()
        self._kernel_samples: dict[int, object] = {}
        self._digests: dict[int, tuple[object, str]] = {}
        self._kernel_cls: type | None = None
        self._sequence_cls: type | None = None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every traced layer in every binding."""
        kernels = importlib.import_module("llap.kernels")
        self._kernel_cls = kernels.Kernel
        self._sequence_cls = kernels.KernelSequence
        wrappers: dict[object, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"llap.{layer}")
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "llap" or modname.startswith("llap.")):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])

        config = importlib.import_module("llap.config")
        for name in CONFIG_METHODS:
            method = getattr(config.RunConfig, name)
            setattr(config.RunConfig, name, self.wrap(f"config.RunConfig.{name}", method))
        cli = importlib.import_module("llap.cli")
        for cmd in cli.main.commands.values():
            cmd.callback = self.wrap(f"cli.{cmd.name}", cmd.callback)

    def wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(*args, **kwargs) if before is not None else None
            parent = self._stack[-1][0] if self._stack else None
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.run_id))
            frame = [index, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.spans[index] = (name, start, end, parent, self.run_id)
                self._calls[name] += 1
                self._total_s[name] += duration
                self._self_s[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
            self._register_kernels(result)
            if after is not None:
                after(result, state, duration)
            return result

        return traced

    # -- counters ----------------------------------------------------------------

    def _digest(self, arr) -> str:
        # Traced fields are immutable, so a digest per live object suffices;
        # the object is kept so that its id cannot be reused.
        hit = self._digests.get(id(arr))
        if hit is not None and hit[0] is arr:
            return hit[1]
        data = np.ascontiguousarray(arr)
        digest = hashlib.blake2b(memoryview(data).cast("B"), digest_size=16).hexdigest()
        self._digests[id(arr)] = (arr, digest)
        return digest

    def _register_kernels(self, result) -> None:
        # Every kernel a traced call returns; ghat_repeat_ratio counts the
        # forward transforms of their samples.
        if isinstance(result, self._kernel_cls):
            self._kernel_samples[id(result.samples)] = result.samples
        elif isinstance(result, self._sequence_cls):
            for k in (*result.members, result.limit):
                self._kernel_samples[id(k.samples)] = k.samples

    def _fft(self, f) -> None:
        self.fft_points += f.grid.npoints

    def _before_grid_forward_ft(self, f):
        self._fft(f)
        if self._kernel_samples.get(id(f)) is f:
            self._ghat_calls += 1
            self._ghat_keys.add(self._digest(f.values))

    def _before_grid_inverse_ft(self, F):
        self._fft(F)

    _before_grid_inverse_ft_real = _before_grid_inverse_ft

    def _before_grid_nudft(self, f, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        self.nudft_points += pts.shape[0]
        self._nudft_keys.add((self._digest(f.values), self._digest(pts)))

    def _before_fieldio_atomic_write_bytes(self, path, data):
        self.bytes_written += len(data)

    def _before_solver_picard_solve(self, *args, **kwargs):
        return sum(self._calls.get(n, 0) for n in FFT_NAMES)

    def _after_solver_picard_solve(self, report, ffts_before, duration):
        self.iterations += report.iterations
        self.picard_s += duration
        self.picard_ffts += sum(self._calls.get(n, 0) for n in FFT_NAMES) - ffts_before
        retained = (report.iterations + 1) * report.final.grid.npoints * 8
        self.retained_iterate_bytes = max(self.retained_iterate_bytes, retained)

    # -- results -------------------------------------------------------------------

    def functions(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, total and self seconds."""
        return {
            name: {
                "calls": self._calls[name],
                "total_s": self._total_s[name],
                "self_s": self._self_s[name],
            }
            for name in sorted(self._calls)
        }

    def counters(self) -> dict[str, float]:
        return {
            "fft_points": self.fft_points,
            "nudft_points": self.nudft_points,
            "nudft_evaluations": self._calls.get("grid.nudft", 0),
            "nudft_distinct": len(self._nudft_keys),
            "ghat_transforms": self._ghat_calls,
            "ghat_distinct": len(self._ghat_keys),
            "iterations": self.iterations,
            "picard_s": self.picard_s,
            "picard_ffts": self.picard_ffts,
            "retained_iterate_bytes": self.retained_iterate_bytes,
            "bytes_written": self.bytes_written,
        }

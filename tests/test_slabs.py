"""Slab-parallel transforms and Picard step: equal to the serial path bit for bit.

The pool is forced on by lowering the private size threshold to 0 and
fixing the worker count at 2, so these tests split small grids into two
slabs on any machine.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import llap
import llap.cli
import llap.grid as grid_mod
import llap.solver
from llap.grid import RealField, SymbolSpec, make_grid, sample
from llap.kernels import make_kernel
from llap.nonlinearity import Nonlinearity, make_nonlinearity
from llap.solver import ConsistencyError, apply_picard_map, certify, equation_residual, picard_solve
from llap.cli import EXIT_INCONSISTENT, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SMALL_3D = """\
[grid]
d = 3
L = 10.0
n = 16

[symbol]
a = 0.0
eta = 0.3
eps_user = 0.1

[kernel]
family = difference
width1 = 1.4
width2 = 2.0
amplitude = 0.5

[nonlinearity]
family = saturating_sine
l = 0.1
h_family = gauss_bump
h_amplitude = 0.3
h_width = 1.0

[solver]
tol = 1e-10
max_iter = 200
seed = 0
"""


def _force_pool(monkeypatch):
    monkeypatch.setattr(grid_mod, "_POOL_MIN_POINTS", 0)
    monkeypatch.setattr(grid_mod, "_worker_count", lambda: 2)


@pytest.fixture
def pool_on(monkeypatch):
    _force_pool(monkeypatch)


def _problem(d, n):
    grid = make_grid(d, 10.0, n)
    spec = SymbolSpec(shift=0.0, eta=0.3)
    K = make_kernel(
        "difference", {"width1": 1.4, "width2": 2.0, "amplitude": 0.5, "shift": 0.0}, grid
    )
    offset = sample(grid, lambda *xs: 0.3 * np.exp(-sum(x * x for x in xs) / 2.0))
    N = make_nonlinearity("saturating_sine", lip=0.1, offset=offset)
    return grid, spec, K, N


def _linear(N, base):
    return Nonlinearity(family="test", lip=N.lip, growth=N.lip, offset=N.offset, base=base)


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(d=st.integers(1, 3), half=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_transforms_match_numpy(pool_on, d, half, seed):
    n = 2 * min(half, 8 if d == 3 else 12)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n,) * d)
    assert np.array_equal(grid_mod._rfftn(a), np.fft.rfftn(a))


@pytest.mark.parametrize("parts", [2, 4])
def test_slab_sums_add_up_to_numpy_sum(parts):
    x = np.random.default_rng(parts).normal(size=(16, 16, 16))
    bounds = grid_mod._row_bounds(x.shape, parts)
    assert len(bounds) == parts + 1
    sums = [float(np.sum(x[a:b])) for a, b in zip(bounds, bounds[1:])]
    assert grid_mod._pairwise_total(sums) == float(np.sum(x))


def test_slab_sums_are_added_pairwise():
    # (1 + 1e16) + (-1e16 + 1) rounds to 0; added left to right it is 1.
    assert grid_mod._pairwise_total([1.0, 1e16, -1e16, 1.0]) == 0.0


def test_slabs_fall_back_to_one_off_the_pairwise_splits():
    # 10 x 10 = 100 points is one pairwise block; 98^3 splits inside a row.
    assert grid_mod._row_bounds((10, 10), 2) == [0, 10]
    assert grid_mod._row_bounds((98, 98, 98), 2) == [0, 98]
    assert grid_mod._row_bounds((96, 96, 96), 2) == [0, 48, 96]


def test_small_grids_run_inline():
    assert len(grid_mod._slabs((256, 256), (256, 129)).rows) == 1
    assert len(grid_mod._slabs((1024,), (513,)).rows) == 1


@pytest.mark.parametrize("d, n", [(3, 16), (2, 32)])
def test_solve_identical_with_pool_on_and_off(monkeypatch, d, n):
    grid, spec, K, N = _problem(d, n)
    cert = certify(K, N, spec, eps_user=0.1)
    assert cert.passed
    v0 = RealField(np.random.default_rng(5).normal(0.0, 0.5, grid.shape), grid)
    off = picard_solve(K, N, spec, v0=v0, tol=1e-12, certificate=cert)
    mapped_off = apply_picard_map(v0, K, N, spec)
    residual_off = equation_residual(v0, K, N, spec)

    _force_pool(monkeypatch)
    assert len(grid_mod._slabs(grid.shape, grid.shape).rows) == 2
    on = picard_solve(K, N, spec, v0=v0, tol=1e-12, certificate=cert)
    assert grid_mod._pool is not None
    assert on.iterations == off.iterations
    assert np.array_equal(on.final.values, off.final.values)
    assert on.update_norms == off.update_norms
    assert on.residual == off.residual
    assert on.masked_rhs_energy == off.masked_rhs_energy
    assert np.array_equal(apply_picard_map(v0, K, N, spec).values, mapped_off.values)
    assert equation_residual(v0, K, N, spec) == residual_off


def test_more_workers_than_cores_under_fast_switching(monkeypatch):
    # Four slabs on four threads, switching every microsecond: a slab written
    # by two threads or sums combined out of order would change the bits.
    grid, spec, K, N = _problem(3, 16)
    cert = certify(K, N, spec, eps_user=0.1)
    v0 = RealField(np.random.default_rng(7).normal(0.0, 0.5, grid.shape), grid)
    serial = picard_solve(K, N, spec, v0=v0, tol=1e-12, certificate=cert)
    monkeypatch.setattr(grid_mod, "_POOL_MIN_POINTS", 0)
    monkeypatch.setattr(grid_mod, "_worker_count", lambda: 4)
    monkeypatch.setattr(grid_mod, "_pool", None)
    assert len(grid_mod._slabs(grid.shape, grid.shape).rows) == 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            report = picard_solve(K, N, spec, v0=v0, tol=1e-12, certificate=cert)
            assert np.array_equal(report.final.values, serial.final.values)
            assert report.update_norms == serial.update_norms
            assert report.residual == serial.residual
    finally:
        sys.setswitchinterval(interval)
        if grid_mod._pool is not None:
            grid_mod._pool.shutdown()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_spectral_intermediate_in_worker(pool_on):
    # Finite F values whose sums overflow: the transform holds inf, and the
    # worker's check of multiplier * w^ reports it.
    grid, spec, K, N = _problem(3, 16)
    cert = certify(K, N, spec, eps_user=0.1)
    huge = _linear(N, lambda u: np.full_like(u, 1e308))
    with pytest.raises(ConsistencyError, match="non-finite spectral intermediate"):
        picard_solve(K, huge, spec, certificate=cert)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("start", [0.0, 1.0])
def test_nonfinite_F_in_worker(pool_on, start):
    # From 1 F is non-finite at once; from 0 only at the first iterate.
    grid, spec, K, N = _problem(3, 16)
    cert = certify(K, N, spec, eps_user=0.1)
    bad = _linear(N, lambda u: np.where(np.abs(u) > 1e-3, np.nan, 0.1 * u))
    v0 = RealField(np.full(grid.shape, start), grid)
    with pytest.raises(ValueError, match="nonlinearity produced non-finite values"):
        picard_solve(K, bad, spec, v0=v0, certificate=cert)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_exits_6_on_nonfinite_intermediate(pool_on, tmp_path, monkeypatch):
    build = llap.solver._picard_operator

    def poisoned(G, spec):
        op = build(G, spec)
        multiplier = op.multiplier.copy()
        multiplier[1, 1, 1] = np.nan
        return type(op)(**{**vars(op), "multiplier": multiplier})

    monkeypatch.setattr(llap.solver, "_picard_operator", poisoned)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_3D)
    result = CliRunner().invoke(main, ["solve", str(cfg), "-o", str(tmp_path / "out")])
    assert result.exit_code == EXIT_INCONSISTENT
    assert result.output.strip().splitlines()[-1] == (
        "internal consistency check failed: "
        "non-finite spectral intermediate; certificate is unsound"
    )


def test_one_dimensional_solve_never_starts_the_pool(tmp_path):
    code = (
        "import sys, llap.cli, llap.grid\n"
        "llap.cli.main(['solve', sys.argv[1], '-o', sys.argv[2]], standalone_mode=False)\n"
        "print('concurrent.futures' in sys.modules, llap.grid._pool is not None)\n"
    )
    src = str(Path(llap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code, str(CONFIGS / "reference.cfg"), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout.strip().splitlines()[-1] == "False False"

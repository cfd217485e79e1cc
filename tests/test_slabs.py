"""Slab-parallel transforms and Picard step: equal to the serial path bit for bit.

Axis 0 is cut into 2^k row blocks fixed by the shape (grid._Slabs), and
each worker thread takes a run of them.  The pool is forced on by lowering
the private size threshold to 0, the block size to 4 KiB and fixing the
worker count at 2, so these tests split small grids into several blocks and
two slabs on any machine.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import llap
import llap.cli
import llap.grid as grid_mod
import llap.solver
from llap.grid import RealField, SymbolSpec, make_grid, sample
from llap.kernels import make_kernel
from llap.nonlinearity import Nonlinearity, make_nonlinearity
from llap.solver import ConsistencyError, apply_picard_map, certify, equation_residual, picard_solve
from llap.cli import EXIT_CHECK_FAILED, EXIT_INCONSISTENT, main
from conftest import full_spectrum_residual, traced_peak

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


def _force_pool(monkeypatch, workers=2):
    monkeypatch.setattr(grid_mod, "_POOL_MIN_POINTS", 0)
    monkeypatch.setattr(grid_mod, "_BLOCK_BYTES", 2**12)
    monkeypatch.setattr(grid_mod, "_worker_count", lambda: workers)


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
    return Nonlinearity(lip=N.lip, growth=N.lip, offset=N.offset, base=base)


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(d=st.integers(1, 3), half=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_transforms_match_numpy(pool_on, d, half, seed):
    n = 2 * min(half, 8 if d == 3 else 12)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n,) * d)
    spectrum = np.fft.rfftn(a)
    assert np.array_equal(grid_mod._rfftn(a), spectrum)
    expected = np.fft.irfftn(spectrum, a.shape, axes=range(d))
    assert np.array_equal(grid_mod._irfftn(spectrum, np.empty(a.shape)), expected)


def _blocks(slabs):
    return [b for run in slabs.blocks for b in run]


def _on_pairwise_splits(shape, blocks):
    """Whether np.sum's pairwise halving of the flat array splits it at these row blocks.

    numpy halves a stretch longer than 128 at half its length, rounded down
    to a multiple of 8, and adds the sums of the two parts.
    """
    row, bounds = math.prod(shape[1:]), [0, math.prod(shape)]
    while len(bounds) < len(blocks) + 1:
        finer = [0]
        for lo, hi in zip(bounds, bounds[1:]):
            if hi - lo <= 128:
                return False
            half = (hi - lo) // 2
            finer += [lo + half - half % 8, hi]
        bounds = finer
    return bounds == [b.start * row for b in blocks] + [math.prod(shape)]


@pytest.mark.parametrize(
    "shape",
    [(8, 8), (14, 14), (90, 90, 90), (96, 96, 96), (98, 98, 98), (300, 300, 300),
     (726, 726), (1024, 1024), (1024,), (2**17,)],
    ids=lambda shape: f"{len(shape)}-{shape[0]}",
)
def test_row_blocks_are_fixed_by_the_shape(monkeypatch, shape):
    # The blocks tile axis 0 in order, 2^k of them, each at most
    # _BLOCK_BYTES of real field unless 2^k has reached n (at d = 1, one
    # block), with k the least that fits; they are the same for any worker
    # count, and each slab is a run of them, one per worker on a pooled
    # grid (98^3 on two workers: 2 slabs, where the old rule kept one).
    spectrum = shape[:-1] + (shape[-1] // 2 + 1,)
    row, n = 8 * math.prod(shape[1:]), shape[0]
    pooled = len(shape) > 1 and math.prod(shape) >= grid_mod._POOL_MIN_POINTS
    layouts = []
    for workers in range(1, 9):
        monkeypatch.setattr(grid_mod, "_worker_count", lambda: workers)
        slabs = grid_mod._slabs(shape, spectrum)
        blocks = _blocks(slabs)
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
        assert blocks[-1].stop == n and all(b.stop > b.start for b in blocks)
        assert list(slabs.rows) == [slice(run[0].start, run[-1].stop) for run in slabs.blocks]
        assert len(slabs.cols) == len(slabs.rows) == (min(workers, len(blocks)) if pooled else 1)
        layouts.append(blocks)
    count = len(blocks)
    assert all(layout == blocks for layout in layouts)
    assert count & (count - 1) == 0
    fits = lambda c: -(-n // c) * row <= grid_mod._BLOCK_BYTES  # noqa: E731
    if len(shape) == 1:
        assert count == 1
    else:
        assert fits(count) or 2 * count > n
        assert count == 1 or not fits(count // 2)


@pytest.mark.parametrize(
    "shape, block",
    [((96, 96, 96), 2**19), ((48, 48, 48), 2**19), ((256, 256), 2**19),
     ((1024, 1024), 2**19), ((16, 16, 16), 2**12)],
    ids=["3-96", "3-48", "2-256", "2-1024", "3-16-forced"],
)
def test_block_sums_add_up_to_numpy_sum(monkeypatch, shape, block):
    # The benchmark's grids and the forced-pool test grid: their blocks
    # fall on numpy's pairwise split points, so the step's sums are np.sum.
    monkeypatch.setattr(grid_mod, "_BLOCK_BYTES", block)
    blocks = _blocks(grid_mod._slabs(shape, shape))
    assert _on_pairwise_splits(shape, blocks)
    x = np.random.default_rng(len(blocks)).normal(size=shape)
    sums = [float(np.sum(x[b])) for b in blocks]
    assert grid_mod._pairwise_total(sums) == float(np.sum(x))


def test_slab_sums_are_added_pairwise():
    # (1 + 1e16) + (-1e16 + 1) rounds to 0; added left to right it is 1.
    assert grid_mod._pairwise_total([1.0, 1e16, -1e16, 1.0]) == 0.0


def test_small_grids_run_inline():
    assert len(grid_mod._slabs((256, 256), (256, 129)).rows) == 1
    assert len(grid_mod._slabs((1024,), (513,)).rows) == 1


@pytest.mark.parametrize("d, n", [(3, 16), (2, 32)])
def test_solve_identical_with_pool_on_and_off(monkeypatch, d, n):
    # Off, the field is one block; on, the forced 4 KiB blocks of both grids
    # fall on numpy's pairwise split points, so their sums are the same bits.
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


@pytest.mark.parametrize("pool", [False, True])
def test_apply_stops_at_the_new_iterate(monkeypatch, pool):
    # A map application transforms F(v) forward, once per row block, and the
    # new iterate back; F of the new iterate, its transform and the residual
    # are left out, and the iterate is the one a full step computes.
    if pool:
        _force_pool(monkeypatch)
    grid, spec, K, N = _problem(3, 16)
    v = RealField(np.random.default_rng(3).normal(0.0, 0.5, grid.shape), grid)
    op = llap.solver._picard_operator(K, spec)
    full = llap.solver._Iterate(op, N, np.array(v.values))
    full.step()
    calls = []
    rfft_rows = llap.solver._rfft_rows

    def counted(a, out):
        calls.append(a.shape)
        rfft_rows(a, out)

    monkeypatch.setattr(llap.solver, "_rfft_rows", counted)
    mapped = op.apply(N, v)
    blocks = _blocks(grid_mod._slabs(grid.shape, op.rhs.shape))
    assert len(calls) == len(blocks) == (8 if pool else 1)
    assert np.array_equal(mapped.values, full.v)


@pytest.mark.parametrize("max_iter", [1, 2, 3])
@pytest.mark.parametrize("d, n", [(1, 1024), (2, 32), (3, 16)])
def test_step_residual_before_convergence(monkeypatch, d, n, max_iter):
    # Far from the fixed point the residual is large, so a wrong weight or
    # scale in the step's residual, which comes from the change in q, is not
    # lost in roundoff.  At d = 2 and 3 the pool is forced on, so the slabs
    # cut axis 1, at d = 2 the half axis itself.
    if d > 1:
        _force_pool(monkeypatch)
    grid, spec, K, N = _problem(d, n)
    cert = certify(K, N, spec, eps_user=0.1)
    v0 = RealField(np.random.default_rng(max_iter).normal(0.0, 0.5, grid.shape), grid)
    report = picard_solve(K, N, spec, v0=v0, max_iter=max_iter, certificate=cert)
    assert report.iterations == max_iter and not report.converged
    res = equation_residual(report.final, K, N, spec)
    assert report.residual == pytest.approx(res.value, rel=1e-12)
    assert report.masked_rhs_energy == pytest.approx(res.masked_rhs_energy, rel=1e-12)
    full = full_spectrum_residual(report.final, K, N, spec)
    assert (res.value, res.masked_rhs_energy) == pytest.approx(full, rel=1e-12)


def test_a_step_makes_three_pool_passes(monkeypatch):
    # Stage 1 (u^ and the axis-0 inverse stage), stage 2 (the row blocks)
    # and stage 3 (the next right side and the residual's sums).
    _force_pool(monkeypatch)
    grid, spec, K, N = _problem(3, 16)
    v = RealField(np.random.default_rng(3).normal(0.0, 0.5, grid.shape), grid)
    it = llap.solver._Iterate(llap.solver._picard_operator(K, spec), N, np.array(v.values))
    it.step()
    passes = []
    pool_map = grid_mod._Slabs.map

    def counted(self, fn, items):
        passes.append(len(self.rows))
        return pool_map(self, fn, items)

    monkeypatch.setattr(grid_mod._Slabs, "map", counted)
    it.step()
    assert passes == [2, 2, 2]


@pytest.mark.parametrize("pool", [False, True])
def test_the_step_never_reads_the_symbol(monkeypatch, pool):
    # On an operator whose symbol is all NaN, steps give the same iterates,
    # sums, residuals and right sides as on the real one.
    if pool:
        _force_pool(monkeypatch)
    grid, spec, K, N = _problem(3, 16)
    op = llap.solver._picard_operator(K, spec)
    nan = np.full_like(op.modes.symbol, np.nan)
    blind = dataclasses.replace(op, modes=op.modes._replace(symbol=nan))
    v = RealField(np.random.default_rng(4).normal(0.0, 0.5, grid.shape), grid)
    runs = []
    for operator in (op, blind):
        it = llap.solver._Iterate(operator, N, np.array(v.values))
        steps = [it.step() for _ in range(3)]
        runs.append((steps, it.masked_energy(), it.v.tobytes(), it.q.tobytes()))
    assert runs[1] == runs[0]


def _solve_map_residual(grid, spec, K, N, v0, cert):
    report = picard_solve(K, N, spec, v0=v0, tol=1e-12, certificate=cert)
    return (
        report.iterations,
        report.update_norms,
        report.residual,
        report.masked_rhs_energy,
        report.final.values.tobytes(),
        apply_picard_map(v0, K, N, spec).values.tobytes(),
        equation_residual(v0, K, N, spec),
    )


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    d=st.sampled_from([2, 3]),
    n=st.sampled_from([14, 16, 18, 20, 22, 24]),
    workers=st.integers(1, 4),
    block=st.sampled_from([2**9, 2**12, 2**40]),
    seed=st.integers(0, 2**32 - 1),
)
def test_worker_count_changes_no_bit(monkeypatch, d, n, workers, block, seed):
    # Row blocks of at most block bytes, on one worker and on one to four.
    # At n = 2 (mod 4) and on most block sizes the blocks do not fall on
    # numpy's pairwise split points; the bits still do not depend on the
    # workers.
    grid, spec, K, N = _problem(d, n)
    cert = certify(K, N, spec, eps_user=0.1)
    v0 = RealField(np.random.default_rng(seed).normal(0.0, 0.5, grid.shape), grid)
    _force_pool(monkeypatch, workers=1)
    monkeypatch.setattr(grid_mod, "_BLOCK_BYTES", block)
    blocks = _blocks(grid_mod._slabs(grid.shape, K.hat.shape))
    one = _solve_map_residual(grid, spec, K, N, v0, cert)
    monkeypatch.setattr(grid_mod, "_worker_count", lambda: workers)
    slabs = grid_mod._slabs(grid.shape, K.hat.shape)
    assert _blocks(slabs) == blocks and len(slabs.rows) == min(workers, len(blocks))
    assert _solve_map_residual(grid, spec, K, N, v0, cert) == one
    if _on_pairwise_splits(grid.shape, blocks):
        # The first update is then np.sum over the whole field.
        step = np.frombuffer(one[5]).reshape(grid.shape) - v0.values
        assert one[1][0] == math.sqrt(grid.h**grid.d * float(np.sum(step * step)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_u_in_a_later_block_outranks_nonfinite_F_in_an_earlier_one(monkeypatch):
    # One slab of two row blocks: the first step's F is non-finite in
    # block 0, and its new iterate is made non-finite in block 1.  As with
    # the whole field at once, the iterate's message wins.
    monkeypatch.setattr(grid_mod, "_BLOCK_BYTES", 2**10)
    grid, spec, K, N = _problem(2, 16)
    assert [len(b) for b in grid_mod._slabs(grid.shape, K.hat.shape).blocks] == [2]
    cert = certify(K, N, spec, eps_user=0.1)
    bad = _linear(N, lambda u: np.where(u != 0.0, np.nan, 0.0))
    irfft_rows, calls = llap.solver._irfft_rows, []

    def poisoned(a, out):
        irfft_rows(a, out)
        calls.append(out.shape)
        if len(calls) == 2:
            out[0, 0] = np.nan

    monkeypatch.setattr(llap.solver, "_irfft_rows", poisoned)
    with pytest.raises(ValueError, match="field contains non-finite entries"):
        picard_solve(K, bad, spec, certificate=cert)
    monkeypatch.setattr(llap.solver, "_irfft_rows", irfft_rows)
    with pytest.raises(ValueError, match="nonlinearity produced non-finite values"):
        picard_solve(K, bad, spec, certificate=cert)


def test_solve_holds_one_real_field_and_a_block_per_slab(monkeypatch):
    # Two slabs of one-row blocks at d = 3, n = 64: besides the iterate, q,
    # work and the reciprocal, a solve holds two rows of scratch and numpy's
    # ufunc and FFT buffers, which stay under 1 MiB.
    _force_pool(monkeypatch)
    monkeypatch.setattr(grid_mod, "_BLOCK_BYTES", 2**15)
    grid, spec, K, N = _problem(3, 64)
    cert = certify(K, N, spec, eps_user=0.1)
    v0 = RealField(np.random.default_rng(5).normal(0.0, 0.5, grid.shape), grid)
    picard_solve(K, N, spec, v0=v0, certificate=cert)  # warm up
    _, peak = traced_peak(lambda: picard_solve(K, N, spec, v0=v0, certificate=cert))
    real, half = 8 * 64**3, 16 * 64**2 * 33
    assert llap.solver._scratch_bytes(grid.shape) == 2 * 8 * 64**2
    assert peak <= real + 2.5 * half + 2 * 8 * 64**2 + 2**20, peak / real


def test_solve_off_the_pairwise_splits_holds_a_block_per_slab(monkeypatch):
    # d = 3, n = 90 on two workers: numpy's pairwise split points fall
    # inside rows, yet the solve runs on two slabs of 5- and 6-row blocks
    # and holds two 6-row blocks of scratch, not a second real field.
    monkeypatch.setattr(grid_mod, "_worker_count", lambda: 2)
    grid, spec, K, N = _problem(3, 90)
    cert = certify(K, N, spec, eps_user=0.1)
    v0 = RealField(np.random.default_rng(5).normal(0.0, 0.5, grid.shape), grid)
    picard_solve(K, N, spec, v0=v0, certificate=cert)  # warm up
    _, peak = traced_peak(lambda: picard_solve(K, N, spec, v0=v0, certificate=cert))
    real, half, block = 8 * 90**3, 16 * 90**2 * 46, 8 * 6 * 90**2
    assert len(grid_mod._slabs(grid.shape, K.hat.shape).rows) == 2
    assert llap.solver._scratch_bytes(grid.shape) == 2 * block
    assert peak <= real + 2.5 * half + 2 * block + 2**20, peak / real


def test_more_workers_than_cores_under_fast_switching(monkeypatch):
    # Four slabs on four threads, switching every microsecond: a slab written
    # by two threads or sums combined out of order would change the bits.
    grid, spec, K, N = _problem(3, 16)
    cert = certify(K, N, spec, eps_user=0.1)
    v0 = RealField(np.random.default_rng(7).normal(0.0, 0.5, grid.shape), grid)
    serial = picard_solve(K, N, spec, v0=v0, tol=1e-12, certificate=cert)
    _force_pool(monkeypatch, workers=4)
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
    # Finite F values whose sums overflow: the transform holds inf, so the
    # new iterate is non-finite, and the workers' test of u^ = recip * G^ w^,
    # which q still holds, names the spectrum.
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
def test_cli_exits_6_on_nonfinite_intermediate(pool_on, tmp_path, monkeypatch, runner):
    build = llap.solver._picard_operator

    def poisoned(G, spec):
        op = build(G, spec)
        recip = op.recip.copy()
        recip[1, 1, 1] = np.nan
        return type(op)(**{**vars(op), "recip": recip})

    monkeypatch.setattr(llap.solver, "_picard_operator", poisoned)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_3D)
    result = runner.invoke(main, ["solve", str(cfg), "-o", str(tmp_path / "out")])
    assert result.exit_code == EXIT_INCONSISTENT
    assert result.output.strip().splitlines()[-1] == (
        "internal consistency check failed: "
        "non-finite spectral intermediate; certificate is unsound"
    )


def _drop_the_axis_1_stage(a, out):
    np.fft.irfft(a, n=out.shape[-1], axis=-1, out=out)


def _drop_the_last_row_slab(shape, spectrum, slabs=grid_mod._slabs):
    cover = slabs(shape, spectrum)
    return cover._replace(rows=cover.rows[:-1]) if len(cover.rows) > 1 else cover


@pytest.mark.parametrize(
    "name, broken",
    [(None, None), ("_irfft_rows", _drop_the_axis_1_stage), ("_slabs", _drop_the_last_row_slab)],
)
def test_ft_selftest_runs_the_solver_transforms(tmp_path, monkeypatch, name, broken, runner):
    # d = 3, n = 84 is a two-slab grid on two workers; a broken inner stage
    # of the inverse transform, or a slab cover that misses rows, must fail
    # the self-test.
    monkeypatch.setattr(grid_mod, "_worker_count", lambda: 2)
    assert len(grid_mod._slabs((84,) * 3, (84, 84, 43)).rows) == 2
    if name is not None:
        monkeypatch.setattr(grid_mod, name, broken)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_3D.replace("n = 16", "n = 84"))
    result = runner.invoke(main, ["ft-selftest", str(cfg), "-o", str(tmp_path / "out")])
    if name is None:
        assert result.exit_code == 0, result.output
    else:
        assert result.exit_code == EXIT_CHECK_FAILED
        assert "FAIL  ft_roundtrip" in result.output


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

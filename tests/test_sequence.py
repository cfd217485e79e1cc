import re
import tracemalloc

import numpy as np
import pytest

import llap.kernels
import llap.sequence
from llap.grid import RealField, SymbolSpec, default_eta, make_grid, sample
from llap.kernels import (
    KernelSequence,
    Schedule,
    _truncation_cutoff,
    kernel_from_field,
    make_kernel,
    make_sequence,
)
from llap.nonlinearity import make_nonlinearity
from llap.sequence import MemberCertificateError, run_sequence, verify_lemmaA2
from llap.solver import ConsistencyError
from conftest import SQRT_2PI, solves_of_run_sequence, traced_peak


@pytest.fixture(scope="module")
def truncate_seq(diff_kernel, spec1):
    sched = Schedule(kind="truncate", members=6, r_start=6.0, r_stop=14.0, cutoff_width=2.0)
    return make_sequence(diff_kernel, sched, spec1, taper_width=0.5)


@pytest.fixture(scope="module")
def study(truncate_seq, sine_nonlinearity, spec1):
    return run_sequence(truncate_seq, sine_nonlinearity, spec1, eps=0.1, tol=1e-10)


class TestRunSequence:
    def test_every_bound_holds(self, study):
        assert all(row.bound_ok for row in study.rows)

    def test_solution_distances_decrease(self, study):
        sol = [row.sol_dist for row in study.rows]
        assert all(b < a for a, b in zip(sol, sol[1:]))

    def test_last_distance_below_solver_floor(self, study):
        # vanishing kernel gaps push the solution gap to the tolerance floor
        assert study.rows[-1].sol_dist <= 10.0 * 1e-10

    def test_sharp_theorem_bound_each_row(self, study):
        # ||u_m - u|| (1 - q_m) <= (2 pi)^(d/2) ratio_dist ||F(u,.)||_2,
        # with slack 1e-8 * scale for roundoff.
        scale = study.rhs_scale
        for row in study.rows:
            lhs = row.sol_dist * (1.0 - row.q)
            rhs = SQRT_2PI * row.ratio_dist * scale
            assert lhs <= rhs + 1e-8 * scale

    def test_gain_gap_bounded_by_ratio_dist(self, study):
        for row in study.rows:
            assert abs(row.gain - study.lemma.limit_gain) <= row.ratio_dist + 1e-12

    def test_uniform_certificate(self, study):
        assert all(row.q <= 0.9 for row in study.rows)

    def test_row_indices(self, study):
        assert [row.m for row in study.rows] == [1, 2, 3, 4, 5, 6]

    def test_no_member_report_outlives_its_row(self, monkeypatch):
        # Only the limit's report is kept for the rows: every member's solve
        # starts with as much traced memory as the first member's, not with
        # the previous member's final field on top.
        grid = make_grid(2, 20.0, 128)
        spec = SymbolSpec(0.0, default_eta(grid, 0.0))
        K = make_kernel(
            "difference", {"width1": 1.0, "width2": 2.0, "amplitude": 0.6, "shift": 0.0}, grid
        )
        sched = Schedule(kind="truncate", members=4, r_start=6.0, r_stop=14.0, cutoff_width=2.0)
        seq = make_sequence(K, sched, spec, taper_width=0.5)
        offset = sample(grid, lambda *xs: 0.3 * np.exp(-sum(x * x for x in xs) / 2.0))
        N = make_nonlinearity("saturating_sine", lip=0.1, offset=offset)
        solve, starts = llap.sequence.picard_solve, []

        def traced_solve(*args, **kwargs):
            starts.append(tracemalloc.get_traced_memory()[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(llap.sequence, "picard_solve", traced_solve)
        traced_peak(lambda: run_sequence(seq, N, spec, eps=0.1, tol=1e-10))
        real = 8 * grid.npoints
        assert len(starts) == 5
        assert max(starts[2:]) - starts[1] < real / 8, (max(starts[2:]) - starts[1]) / real

    def test_constant_sequence_all_zero(self, diff_kernel, sine_nonlinearity, spec1):
        seq = KernelSequence(
            members=(diff_kernel, diff_kernel, diff_kernel),
            limit=diff_kernel,
            distances=((0.0, 0.0),) * 3,
        )
        st = run_sequence(seq, sine_nonlinearity, spec1, eps=0.1, tol=1e-10)
        for row in st.rows:
            assert row.ratio_dist == 0.0
            assert row.sol_dist <= 2e-10
            assert row.bound_ok

    def test_zero_offset_all_trivial(self, truncate_seq, zero_offset_nonlinearity, spec1):
        st = run_sequence(truncate_seq, zero_offset_nonlinearity, spec1, eps=0.1, tol=1e-10)
        assert st.rhs_scale == 0.0
        for row in st.rows:
            assert row.sol_dist == 0.0
            assert row.bound_ok

    def test_member_certificate_failure_reports_m(
        self, truncate_seq, bump_offset, spec1, grid1
    ):
        # A Lipschitz constant that breaks the uniform bound: q ~ 2.7 > 1 - eps.
        rowdy = make_nonlinearity("saturating_sine", lip=1.0, offset=bump_offset)
        with pytest.raises(MemberCertificateError) as info:
            run_sequence(truncate_seq, rowdy, spec1, eps=0.1, tol=1e-10)
        assert info.value.member is None  # the limit kernel fails first

    def test_inadmissible_member_reports_m(
        self, truncate_seq, diff_kernel, sine_nonlinearity, spec1, grid1
    ):
        raw = _raw_truncation(diff_kernel, grid1, radius=4.0)
        members = list(truncate_seq.members)
        members[2] = raw
        seq = KernelSequence(
            members=tuple(members),
            limit=truncate_seq.limit,
            distances=truncate_seq.distances,
        )
        with pytest.raises(MemberCertificateError) as info:
            run_sequence(seq, sine_nonlinearity, spec1, eps=0.1, tol=1e-10)
        assert info.value.member == 3

    @pytest.mark.parametrize("bad", [None, 1, 6], ids=["limit", "m1", "m6"])
    def test_refused_before_any_solve(
        self, truncate_seq, diff_kernel, sine_nonlinearity, spec1, grid1, monkeypatch, bad
    ):
        # Every kernel is certified before the first solve; the first failure,
        # limit first, is the one reported.
        raw = _raw_truncation(diff_kernel, grid1, radius=4.0)
        members = list(truncate_seq.members)
        if bad is not None:
            members[bad - 1] = raw
        seq = KernelSequence(
            members=tuple(members),
            limit=truncate_seq.limit if bad is not None else raw,
            distances=truncate_seq.distances,
        )
        solved = solves_of_run_sequence(monkeypatch)
        with pytest.raises(MemberCertificateError) as info:
            run_sequence(seq, sine_nonlinearity, spec1, eps=0.1, tol=1e-10)
        assert info.value.member == bad
        assert solved == []

    def test_bound_violation_raises(
        self, study, truncate_seq, sine_nonlinearity, spec1, monkeypatch
    ):
        # Member 3's solution moved far from the limit's: the bound check,
        # which runs before the monotonicity check, names it.
        solves_of_run_sequence(monkeypatch, member=3, move=lambda um, u: um + 1.0)
        with pytest.raises(ConsistencyError) as info:
            run_sequence(truncate_seq, sine_nonlinearity, spec1, eps=0.1, tol=1e-10)
        bound = study.rows[2].bound_rhs
        assert re.fullmatch(
            r"member 3 violates the convergence bound: "
            rf"sol_dist \d\.\d{{3}}e\+00 > bound {bound:.3e}",
            str(info.value),
        )

    def test_increasing_distances_raise(
        self, study, truncate_seq, sine_nonlinearity, spec1, monkeypatch
    ):
        # Member 1's solution set to the limit's: distance 0 then member 2's,
        # which still satisfies its bound.
        solves_of_run_sequence(monkeypatch, member=1, move=lambda um, u: u)
        with pytest.raises(ConsistencyError) as info:
            run_sequence(truncate_seq, sine_nonlinearity, spec1, eps=0.1, tol=1e-10)
        assert str(info.value) == (
            "solution distances increase from member 1 to 2: "
            f"0.000e+00 -> {study.rows[1].sol_dist:.3e}"
        )

    def test_eps_validation(self, truncate_seq, sine_nonlinearity, spec1):
        with pytest.raises(ValueError):
            run_sequence(truncate_seq, sine_nonlinearity, spec1, eps=1.5)


def _raw_truncation(K, grid, radius):
    cut = _truncation_cutoff(grid.radius_mesh(), radius, 1.0)
    return kernel_from_field(RealField(cut * K.samples.values, grid))


class TestVerifyLemma:
    def test_run_sequence_table_matches(self, study, truncate_seq, sine_nonlinearity, spec1):
        # run_sequence's table is verify_lemmaA2's for N.lip and eps.
        table = verify_lemmaA2(truncate_seq, spec1, lip=sine_nonlinearity.lip, eps=0.1)
        assert study.lemma == table
        assert table.passed

    def test_truncate_schedule_passes(self, truncate_seq, spec1):
        table = verify_lemmaA2(truncate_seq, spec1, lip=0.1, eps=0.1)
        assert table.ratio_vanishes
        assert table.gains_converge
        assert table.members_admissible
        assert table.certificate_persists
        assert table.passed

    def test_ratio_and_gain_columns(self, truncate_seq, spec1):
        table = verify_lemmaA2(truncate_seq, spec1, lip=0.1, eps=0.1)
        ratios = [r.ratio_dist for r in table.rows]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] <= 1e-6 * table.scale
        for row in table.rows:
            assert abs(row.gain - table.limit_gain) <= row.ratio_dist + 1e-12

    def test_constant_sequence_exact_zero(self, diff_kernel, spec1):
        seq = KernelSequence(
            members=(diff_kernel, diff_kernel),
            limit=diff_kernel,
            distances=((0.0, 0.0),) * 2,
        )
        table = verify_lemmaA2(seq, spec1, lip=0.1, eps=0.1)
        assert table.passed
        for row in table.rows:
            assert row.ratio_dist == 0.0
            assert row.gain == table.limit_gain

    def test_unprojected_member_fails_with_divergence(
        self, truncate_seq, diff_kernel, spec1, grid1
    ):
        # Negative control: skipping the re-projection of one member breaks
        # the per-member solvability conditions and the table says so.
        raw = _raw_truncation(diff_kernel, grid1, radius=4.0)
        members = list(truncate_seq.members)
        members[1] = raw
        seq = KernelSequence(
            members=tuple(members),
            limit=truncate_seq.limit,
            distances=truncate_seq.distances,
        )
        table = verify_lemmaA2(seq, spec1, lip=0.1, eps=0.1)
        assert not table.members_admissible
        assert not table.passed
        bad = table.rows[1]
        assert not bad.admissible
        assert bad.divergence_indicator > 1e-4
        good = table.rows[0]
        assert good.admissible
        assert good.divergence_indicator < 1e-8


def test_one_diagnostics_pass_per_kernel_through_the_chain(
    grid1, spec1, sine_nonlinearity, monkeypatch
):
    # make_sequence measures the limit (admissibility) and every projected
    # member (residual check); run_sequence and verify_lemmaA2 read those
    # passes.  A fresh limit kernel: the session's kernels may keep passes.
    passes = []
    compute = llap.kernels._diagnostics_pass

    def counted(kernels, spec):
        passes.extend((G, spec) for G in kernels)
        return compute(kernels, spec)

    monkeypatch.setattr(llap.kernels, "_diagnostics_pass", counted)
    G = make_kernel("difference", {"width1": 1.0, "width2": 2.0, "shift": 0.0}, grid1)
    sched = Schedule(kind="truncate", members=6, r_start=6.0, r_stop=14.0, cutoff_width=2.0)
    seq = make_sequence(G, sched, spec1, taper_width=0.5)
    assert len(passes) == 7
    study = run_sequence(seq, sine_nonlinearity, spec1, eps=0.1, tol=1e-10)
    table = verify_lemmaA2(seq, spec1, lip=sine_nonlinearity.lip, eps=0.1)
    assert len(passes) == 7
    assert [id(K) for K, _ in passes] == [id(K) for K in (seq.limit, *seq.members)]
    assert all(spec == spec1 for _, spec in passes)
    assert table == study.lemma

import pytest

from llap.grid import RealField
from llap.kernels import (
    KernelSequence,
    Schedule,
    _truncation_cutoff,
    kernel_from_field,
    make_sequence,
)
from llap.nonlinearity import make_nonlinearity
from llap.sequence import MemberCertificateError, run_sequence, verify_lemmaA2
from conftest import SQRT_2PI


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
            assert abs(row.gain - study.limit_gain) <= row.ratio_dist + 1e-12

    def test_uniform_certificate(self, study):
        assert all(row.q <= 0.9 for row in study.rows)

    def test_row_indices(self, study):
        assert [row.m for row in study.rows] == [1, 2, 3, 4, 5, 6]

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

    def test_eps_validation(self, truncate_seq, sine_nonlinearity, spec1):
        with pytest.raises(ValueError):
            run_sequence(truncate_seq, sine_nonlinearity, spec1, eps=1.5)


def _raw_truncation(K, grid, radius):
    cut = _truncation_cutoff(grid.radius_mesh(), radius, 1.0)
    return kernel_from_field(RealField(cut * K.samples.values, grid), "raw-truncation")


class TestVerifyLemma:
    def test_run_sequence_table_matches(self, study, truncate_seq, sine_nonlinearity, spec1):
        # run_sequence builds the table from its own diagnostics pass.
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

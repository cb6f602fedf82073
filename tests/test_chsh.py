"""Tests for the CHSH expression, ladder scan, and detection threshold."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ttbell import chsh
from ttbell.quantum import ideal_correlator

TOL = 1e-12
TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)


class TestLadder:
    @pytest.mark.parametrize("alpha", [0.0, math.pi / 6, math.pi / 4, 1.1])
    def test_separation_constraints(self, alpha):
        s = chsh.ladder_settings(alpha)
        assert abs(s.a - s.b) == pytest.approx(alpha, abs=TOL)
        assert abs(s.a - s.b_prime) == pytest.approx(alpha, abs=TOL)
        assert abs(s.a_prime - s.b_prime) == pytest.approx(alpha, abs=TOL)
        assert abs(s.a_prime - s.b) == pytest.approx(3 * alpha, abs=TOL)

    def test_degenerate_ladder(self):
        s = chsh.ladder_settings(0.0)
        assert s.a == s.a_prime == s.b == s.b_prime == 0.0


class TestChshValue:
    def test_quantum_maximum_at_quarter_pi(self):
        report = chsh.chsh_value(ideal_correlator, chsh.ladder_settings(math.pi / 4))
        assert report.s_value == pytest.approx(TWO_SQRT_TWO, abs=TOL)
        assert report.violated
        assert report.margin == pytest.approx(TWO_SQRT_TWO - 2.0, abs=TOL)

    def test_vanishing_combination(self):
        report = chsh.chsh_value(ideal_correlator, chsh.ladder_settings(math.pi / 2))
        assert report.s_value == pytest.approx(0.0, abs=TOL)
        assert not report.violated

    def test_classical_bound_not_flagged(self):
        report = chsh.chsh_value(ideal_correlator, chsh.ladder_settings(0.0))
        assert report.s_value == pytest.approx(2.0, abs=TOL)
        assert not report.violated

    def test_out_of_range_correlator_rejected(self):
        with pytest.raises(chsh.InvalidCorrelatorError):
            chsh.chsh_value(lambda a, b: 1.5, chsh.ladder_settings(0.3))

    @given(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
    def test_closed_form_matches_expression(self, alpha):
        report = chsh.chsh_value(ideal_correlator, chsh.ladder_settings(alpha))
        assert chsh.s_ideal_closed(alpha) == pytest.approx(report.s_value, abs=TOL)

    def test_closed_form_matches_expression_on_dense_grid(self):
        for k in range(10_000):
            alpha = k * (2.0 * math.pi / 10_000)
            report = chsh.chsh_value(ideal_correlator, chsh.ladder_settings(alpha))
            assert abs(chsh.s_ideal_closed(alpha) - report.s_value) <= TOL


class TestSIdeal:
    def test_frozen_values(self):
        assert chsh.s_ideal_closed(0.0) == pytest.approx(2.0, abs=TOL)
        assert chsh.s_ideal_closed(math.pi / 4) == pytest.approx(TWO_SQRT_TWO, abs=TOL)
        # |1.5 - (-1)| at pi/3, cross-checked through the expression route
        assert chsh.s_ideal_closed(math.pi / 3) == pytest.approx(2.5, abs=TOL)


class TestScan:
    def test_argmax_matches_derivative_bisection_oracle(self):
        # independent route: the stationarity condition sin(3a) = sin(a)
        def slope(x):
            return -3.0 * math.sin(x) + 3.0 * math.sin(3.0 * x)

        lo, hi = 0.6, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if slope(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)

        rows, summary = chsh.scan_alpha(0.0, math.pi, 1e-3)
        assert len(rows) == 3142
        assert summary.alpha_star == pytest.approx(oracle, abs=1e-9)
        assert summary.alpha_star == pytest.approx(math.pi / 4, abs=1e-9)
        assert summary.s_max == pytest.approx(TWO_SQRT_TWO, abs=1e-9)

    def test_ties_break_toward_smaller_alpha(self):
        # the ladder has equal-height peaks at pi/4 and 3*pi/4
        _, summary = chsh.scan_alpha(0.0, math.pi, 1e-3)
        assert summary.alpha_star < math.pi / 2

    @pytest.mark.parametrize("grid", [
        (0.0, 3.14159, 0.3),
        (0.0, 3.14159, 0.5),  # the first tie within 4*step**2 is alpha = 0, at S = 2
        (0.0, 3.14159, 1.0),
        (0.0, 0.5, 0.01),  # the maximum on the range's edge
        (0.0, math.pi, 4e-5),  # refined to 7.6e-6 from pi/4, 2.3e-10 below the grid maximum
    ])
    def test_summary_never_below_the_grid_maximum(self, grid):
        scan, summary = chsh.scan_alpha(*grid)
        assert summary.s_max >= scan.s_ideal.max() - 1e-9
        assert summary.s_max == chsh.s_ideal_closed(summary.alpha_star)
        assert grid[0] <= summary.alpha_star <= grid[1]

    def test_coarse_grid_breaks_ties_toward_smaller_alpha(self):
        # the grid maximum is the row at 2.5, beside 3*pi/4; the first tie,
        # alpha = 0, brackets no peak, and the equal peak at pi/4 comes first
        _, summary = chsh.scan_alpha(0.0, 3.14159, 0.5)
        assert summary.alpha_star == pytest.approx(math.pi / 4, abs=1e-9)

    def test_rows_scale_with_eta_f(self):
        rows, summary = chsh.scan_alpha(0.0, 1.0, 0.1, eta_f=0.8)
        _, s_ideals, s_exps, _ = next(rows.blocks(len(rows)))
        for s_exp, s_ideal in zip(s_exps, s_ideals):
            assert s_exp == pytest.approx(0.8 * s_ideal, abs=TOL)
        assert summary.s_exp_max == pytest.approx(0.8 * summary.s_max, abs=TOL)
        assert summary.violated  # 0.8 is above the 1/sqrt(2) threshold

    def test_violation_flag_tracks_threshold(self):
        _, above = chsh.scan_alpha(0.0, math.pi, 0.01, eta_f=0.72)
        assert above.violated
        _, below = chsh.scan_alpha(0.0, math.pi, 0.01, eta_f=0.70)
        assert not below.violated

    def test_first_row_at_zero(self):
        rows, _ = chsh.scan_alpha(0.0, 0.5, 0.1)
        assert next(rows.blocks(len(rows)))[0][0] == 0.0
        assert rows.s_ideal[0] == pytest.approx(2.0, abs=TOL)

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            chsh.scan_alpha(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            chsh.scan_alpha(0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            chsh.scan_alpha(1.0, 0.0, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_arguments_rejected(self, bad, position):
        args = [0.0, 1.0, 0.1]
        args[position] = bad
        with pytest.raises(ValueError, match="finite"):
            chsh.scan_alpha(*args)

    def test_overflowing_range_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            chsh.scan_alpha(-1e308, 1e308, 0.1)

    def test_overflowing_last_alpha_rejected(self):
        # (alpha_max - alpha_min) / step is finite, but k*step overflows at k = 2
        with pytest.raises(ValueError, match="alpha_max .* the grid's last alpha overflows"):
            chsh.scan_alpha(-1e308, 7.976931346825466e307, 8.988465675210426e307)

    @pytest.mark.parametrize("grid", [
        # rounding in 3*alpha put rows of these two above 2*sqrt(2) (3.946, 3.495)
        (1e20, 1.0000000000000003e20, 16384.0),
        (1e20, 1e20 + 1e6, 1e5),
        # 3*alpha overflows on these two
        (-7e307, -5e307, 1e307),
        (5e307, 7e307, 1e307),
    ])
    def test_huge_alpha_rows_stay_within_the_quantum_bound(self, grid):
        scan, summary = chsh.scan_alpha(*grid)
        assert np.isfinite(scan.s_ideal).all()
        assert scan.s_ideal.max() <= chsh.S_IDEAL_MAX + 1e-12
        assert summary.s_max <= chsh.S_IDEAL_MAX + 1e-12

    def test_refinement_ends_where_ulps_exceed_its_tolerance(self):
        # an ulp of 5e307 is about 1e291: the bracket stops shrinking at once
        scan, summary = chsh.scan_alpha(5e307, 5.9e307, 1e306)
        assert len(scan) == 10
        assert 5e307 <= summary.alpha_star <= 5.9e307

    def test_row_cap(self, monkeypatch):
        monkeypatch.setattr(chsh, "MAX_SCAN_ROWS", 11)
        assert len(chsh.scan_alpha(0.0, 1.0, 0.1)[0]) == 11
        with pytest.raises(ValueError, match="rows exceeds the limit of 11"):
            chsh.scan_alpha(0.0, 1.1, 0.1)

    def test_row_cap_admits_a_micro_step_scan_over_pi(self):
        assert chsh.MAX_SCAN_ROWS >= math.floor(math.pi / 1e-6 + 1e-9) + 1

    def test_too_many_rows_rejected_before_allocating(self):
        # 3.1e12 rows; without the cap numpy fails on a 25 TB arange
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the limit"):
                chsh.scan_alpha(0.0, math.pi, 1e-12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_peak_memory_per_row(self):
        # a scan holds its s_ideal column alone, 8 B a row; building it holds
        # one chunk beside it, and the summary one bool a row (the three
        # whole columns of alpha, s_ideal and s_exp and the bool violated
        # took 25 B a row)
        n = math.floor(math.pi / 1e-5 + 1e-9) + 1
        tracemalloc.start()
        try:
            scan, _ = chsh.scan_alpha(0.0, math.pi, 1e-5, eta_f=0.85)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scan) == n
        assert peak / n <= 10, peak / n

    @pytest.mark.parametrize("rows", [1, 7, chsh.SCAN_CHUNK, 5000])
    def test_blocks_equal_the_whole_columns(self, rows):
        scan, _ = chsh.scan_alpha(-0.3, 2.9, 8e-5, eta_f=0.75)  # 40 001 rows, three chunks
        columns = next(scan.blocks(len(scan)))
        blocks = list(scan.blocks(rows))
        assert [len(block[0]) for block in blocks[:-1]] == [rows] * (len(blocks) - 1)
        for whole, parts in zip(columns, zip(*blocks)):
            assert np.concatenate(parts).tobytes() == whole.tobytes()

    def test_rows_beside_chunk_edges_equal_scalar_route_bitwise(self):
        scan, _ = chsh.scan_alpha(-0.3, 2.9, 8e-5, eta_f=0.75)
        alphas = next(scan.blocks(len(scan)))[0]
        edge = chsh.SCAN_CHUNK
        for k in (0, edge - 1, edge, edge + 1, 2 * edge - 1, len(scan) - 1):
            alpha = -0.3 + k * 8e-5
            assert alphas[k].hex() == alpha.hex()
            assert scan.s_ideal[k].hex() == chsh.s_ideal_closed(alpha).hex()

    def test_single_point_range(self):
        rows, summary = chsh.scan_alpha(0.3, 0.3, 0.1)
        assert len(rows) == 1
        assert summary.alpha_star == pytest.approx(0.3, abs=1e-9)


# alpha_star of each grid, recorded from the scalar (per-row loop) scan
SCAN_ORACLE_GRIDS = [
    ((0.0, math.pi, 1e-3), 3142, "0x1.921fb543fa121p-1"),
    ((-1.3, 2.1, 7e-3), 486, "-0x1.921fb543fe286p-1"),
]


@pytest.mark.parametrize("eta_f", [1.0, 0.7])
@pytest.mark.parametrize("grid, n, alpha_star_hex", SCAN_ORACLE_GRIDS)
def test_scan_columns_equal_scalar_route_bitwise(grid, n, alpha_star_hex, eta_f):
    alpha_min, _, step = grid
    scan, summary = chsh.scan_alpha(*grid, eta_f=eta_f)
    assert len(scan) == n
    alphas, s_ideals, s_exps, violated = next(scan.blocks(n))
    for k in range(n):
        alpha = alpha_min + k * step
        s_ideal = chsh.s_ideal_closed(alpha)
        s_exp = eta_f * s_ideal
        assert alphas[k].hex() == alpha.hex()
        assert s_ideals[k].hex() == s_ideal.hex()
        assert s_exps[k].hex() == s_exp.hex()
        assert violated[k] == (s_exp > 2.0 + 1e-12)
    assert summary.alpha_star.hex() == alpha_star_hex


class TestMonteCarloIntegration:
    def test_chsh_from_conditioned_estimators_matches_ideal(self):
        from ttbell import montecarlo as mc

        n = 1_000_000
        s = chsh.ladder_settings(math.pi / 4)
        pairs = [(s.a, s.b), (s.a, s.b_prime), (s.a_prime, s.b_prime), (s.a_prime, s.b)]
        cfg = mc.DetectionConfig(eta_d=0.9)
        estimates = {}
        variance = 0.0
        for k, (x, y) in enumerate(pairs):
            est = mc.estimate(mc.run(x, y, cfg, n, seed=7000 + k))
            estimates[(x, y)] = est.correlator_conditioned
            variance += est.std_error_conditioned ** 2
        report = chsh.chsh_value(lambda x, y: estimates[(x, y)], s)
        assert report.s_value == pytest.approx(TWO_SQRT_TWO, abs=4 * math.sqrt(variance))
        assert report.violated


class TestThreshold:
    def test_ideal_case_violates(self):
        r = chsh.threshold_analysis(1.0, 1.0)
        assert r.violated
        assert r.margin == pytest.approx(TWO_SQRT_TWO - 2.0, abs=1e-9)

    def test_seventy_percent_is_not_enough(self):
        r = chsh.threshold_analysis(1.0, 0.70)
        assert not r.violated
        assert r.s_exp_max == pytest.approx(1.9798989873223332, abs=1e-9)

    def test_seventy_two_percent_violates(self):
        r = chsh.threshold_analysis(0.9, 0.8)  # product 0.72
        assert r.violated
        assert r.s_exp_max == pytest.approx(2.0364675298172568, abs=1e-9)

    def test_exactly_critical_is_no_violation(self):
        r = chsh.threshold_analysis(1.0, chsh.CRITICAL_ETA_F)
        assert not r.violated

    def test_critical_value(self):
        r = chsh.threshold_analysis(0.5, 0.5)
        assert r.critical_eta_f == pytest.approx(1.0 / math.sqrt(2.0), abs=TOL)
        assert r.eta_f == pytest.approx(0.25, abs=TOL)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            chsh.threshold_analysis(1.2, 1.0)
        with pytest.raises(ValueError):
            chsh.threshold_analysis(1.0, -0.1)

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_violation_iff_above_critical(self, eta_d, f):
        r = chsh.threshold_analysis(eta_d, f)
        if r.violated:
            assert r.eta_f * TWO_SQRT_TWO > 2.0
        else:
            assert r.eta_f * TWO_SQRT_TWO <= 2.0 + 1e-11
